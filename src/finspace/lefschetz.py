"""Coincidence and fixed-point theorems driven by Lefschetz numbers.

Each operation certifies its hypotheses, computes the relevant Lefschetz
number on free homology, and scans exhaustively for witnesses.  A zero
Lefschetz number is always reported as inconclusive, never as absence of
fixed points.
"""

from dataclasses import dataclass, field
from functools import reduce

from .errors import HypothesisFailed, NoSelector, NotComposable
from .homology import _coincidence_number, induced_map_of_poset_map, lefschetz_number
from .maps import (
    _projections_on_core,
    compose_multimaps,
    graph,
    induced_multimap_homology,
    is_vietoris_like_map,
    is_vietoris_like_multimap,
)
from .poset import DEFAULT_BUDGET, order_preserving_maps, require_continuous


@dataclass
class TheoremReport:
    """Outcome of one theorem evaluation.

    conclusion_verified is True when the theorem's implication holds on
    this instance: either the Lefschetz number vanished (inconclusive) or
    a witness was found.  A False value with certified hypotheses means a
    falsification and is treated as a bug.
    """

    lambda_: int
    hypothesis_certificates: list = field(default_factory=list)
    witnesses: list = field(default_factory=list)
    conclusion_verified: bool = False
    inconclusive: bool = False
    chi_fix: int | None = None
    details: dict = field(default_factory=dict)

    def as_dict(self):
        out = {
            "lambda": self.lambda_,
            "hypotheses": list(self.hypothesis_certificates),
            "witnesses": [repr(w) for w in self.witnesses],
            "conclusion_verified": self.conclusion_verified,
            "inconclusive": self.inconclusive,
        }
        if self.chi_fix is not None:
            out["chi_fix"] = self.chi_fix
        out.update(self.details)
        return out


def coincidence_points(f, g):
    """All x with f(x) = g(x), in element order."""
    if f.source != g.source or f.target != g.target:
        raise ValueError("maps must share source and target")
    return [x for x in f.source.elements if f(x) == g(x)]


def multimap_coincidence_points(F, G):
    """All x with F(x) and G(x) intersecting."""
    if F.source != G.source or F.target != G.target:
        raise ValueError("multimaps must share source and target")
    return [x for x in F.source.elements if F(x) & G(x)]


def _finish(lam, certs, witnesses, details=None):
    return TheoremReport(
        lambda_=lam,
        hypothesis_certificates=certs,
        witnesses=witnesses,
        conclusion_verified=(lam == 0) or bool(witnesses),
        inconclusive=(lam == 0),
        details=details or {},
    )


def _require(cert, hypothesis, **kwargs):
    """Raise HypothesisFailed naming the hypothesis unless cert certifies it."""
    if not cert.ok:
        raise HypothesisFailed(f"{hypothesis}: {cert.as_dict()}", **kwargs)


def theorem_A(f, g):
    """Coincidence theorem: f Vietoris-like, Lambda(g_* f_*^-1) != 0
    forces a point with f(x) = g(x)."""
    witnesses = coincidence_points(f, g)  # checks the shapes first
    require_continuous(g)
    _require(is_vietoris_like_map(f), "f is not Vietoris-like")
    lam = _coincidence_number(induced_map_of_poset_map(f), induced_map_of_poset_map(g))
    return _finish(lam, ["f Vietoris-like"], witnesses)


def theorem_B(F):
    """Lefschetz fixed point theorem for Vietoris-like multimaps."""
    if F.source != F.target:
        raise ValueError("theorem needs an endo-multimap")
    _require(is_vietoris_like_multimap(F), "F is not a Vietoris-like multimap")
    lam = lefschetz_number(induced_multimap_homology(F))
    witnesses = [x for x in F.source.elements if x in F(x)]
    return _finish(lam, ["F Vietoris-like multimap"], witnesses)


def theorem_C(chain):
    """Fixed point theorem for a composition of Vietoris-like multimaps.

    Lambda is the alternating-trace of the product of the individual
    induced maps, each computed once per distinct link; the witness scan
    runs over the composed multimap.
    """
    if not chain:
        raise NotComposable("empty composition")
    for i in range(len(chain) - 1):
        if chain[i].target != chain[i + 1].source:
            raise NotComposable(f"links {i} and {i + 1} do not compose")
    if chain[0].source != chain[-1].target:
        raise NotComposable("composition is not an endo-multimap")
    for i, G in enumerate(chain):
        _require(is_vietoris_like_multimap(G),
                 f"link {i} is not a Vietoris-like multimap", index=i)
    certs = [f"G{i} Vietoris-like multimap" for i in range(len(chain))]
    stars = {}  # keyed by id: a multimap defines __eq__ and so is unhashable
    for G in chain:
        if id(G) not in stars:
            stars[id(G)] = induced_multimap_homology(G)
    lam = lefschetz_number(reduce(lambda a, b: a.then(b), [stars[id(G)] for G in chain]))
    F = reduce(compose_multimaps, chain)
    witnesses = [x for x in F.source.elements if x in F(x)]
    return _finish(lam, certs, witnesses, details={"composition": repr(F)})


def classical_lefschetz(f):
    """Lambda(f) for a continuous endomorphism equals chi(Fix(f))."""
    require_continuous(f)
    if f.source != f.target:
        raise ValueError("classical Lefschetz needs an endomorphism")
    lam = lefschetz_number(induced_map_of_poset_map(f))
    fix = f.fixed_points()
    chi_fix = f.source.subposet(fix).euler_characteristic() if fix else 0
    report = _finish(lam, ["f continuous endomorphism"], fix)
    report.chi_fix = chi_fix
    report.conclusion_verified = report.conclusion_verified and lam == chi_fix
    return report


def _map_multimap_lambda(f, F, mode):
    """The Lefschetz number of a map f against the multimap F.

    mode 1: Lambda(F_* f_*^-1); mode 2: Lambda(f_* F_*^-1) with
    F_*^-1 = p_* q_*^-1.  Callers certify what makes f_* (mode 1) or
    q_* (mode 2) invertible.
    """
    f_star = induced_map_of_poset_map(f)
    if mode == 1:
        return _coincidence_number(f_star, induced_multimap_homology(F))
    p_star, q_star = _projections_on_core(F)
    return _coincidence_number(q_star, p_star.then(f_star))


def corollary_multimap_coincidence(f, F, mode):
    """Coincidence f(x) in F(x) between a map and a multimap.

    mode 1: f Vietoris-like, Lambda(F_* f_*^-1).
    mode 2: second graph projection of F Vietoris-like,
            Lambda(f_* F_*^-1) with F_*^-1 = p_* q_*^-1.
    """
    if f.source != F.source or f.target != F.target:
        raise ValueError("map and multimap must share source and target")
    require_continuous(f)
    if mode == 1:
        _require(is_vietoris_like_map(f), "f is not Vietoris-like")
        certs = ["f Vietoris-like"]
    elif mode == 2:
        _require(is_vietoris_like_map(graph(F).q), "second projection is not Vietoris-like")
        certs = ["q Vietoris-like"]
    else:
        raise ValueError(f"unknown mode {mode!r}")
    lam = _map_multimap_lambda(f, F, mode)
    witnesses = [x for x in f.source.elements if f(x) in F(x)]
    return _finish(lam, certs, witnesses)


def _find_selector(G, vietoris_required, budget):
    """The first selector of G, in generation order, that qualifies."""
    for g in order_preserving_maps(G.source, G.target, G, budget):
        if not vietoris_required or is_vietoris_like_map(g).ok:
            return g
    kind = "Vietoris-like selector" if vietoris_required else "continuous selector"
    raise NoSelector(f"no {kind} exists")


def theorem_310(F, G, case, budget=DEFAULT_BUDGET):
    """Three-case coincidence theorem for two multimaps.

    case 1: F Vietoris-like multimap, G with a Vietoris-like selector g,
            Lambda(F_* g_*^-1).
    case 2: second projection of Gamma(F) Vietoris-like, G with any
            selector g, Lambda(g_* F_*^-1).
    case 3: G with a Vietoris-like selector g, F with any selector f,
            Lambda(f_* g_*^-1).

    Selectors are searched lazily under the budget; the search stops at
    the first selector that qualifies.
    """
    witnesses = multimap_coincidence_points(F, G)  # checks the shapes first
    if case == 1:
        _require(is_vietoris_like_multimap(F), "F is not a Vietoris-like multimap")
        g = _find_selector(G, vietoris_required=True, budget=budget)
        lam = _map_multimap_lambda(g, F, 1)
        certs = ["F Vietoris-like multimap", "G has Vietoris-like selector"]
    elif case == 2:
        _require(is_vietoris_like_map(graph(F).q),
                 "second projection of F is not Vietoris-like")
        g = _find_selector(G, vietoris_required=False, budget=budget)
        lam = _map_multimap_lambda(g, F, 2)
        certs = ["q of Gamma(F) Vietoris-like", "G has selector"]
    elif case == 3:
        g = _find_selector(G, vietoris_required=True, budget=budget)
        f = _find_selector(F, vietoris_required=False, budget=budget)
        lam = _coincidence_number(
            induced_map_of_poset_map(g), induced_map_of_poset_map(f)
        )
        certs = ["G has Vietoris-like selector", "F has selector"]
    else:
        raise ValueError(f"unknown case {case!r}")
    return _finish(lam, certs, witnesses)
