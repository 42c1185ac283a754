"""Named regression cases and seeded property suites.

Each case loads its fixtures, runs the relevant checks and returns a
CaseResult listing every assertion with its outcome.  The cases are the
executable record of the worked examples the library is calibrated
against; run_all() is what the CLI paper-suite verb executes.

This module is also the one home of the five seeded property suites (the
implications checked on random corpora: strongly usc with acyclic values
and usc with maxima give Vietoris-like multimaps, composites of
comparison maps stay Vietoris-like, Lambda(f) = chi(Fix f), and a selector
has its multimap's Lambda).  run_property_suites(seed) runs each on 30
instances for paper-suite; the acceptance criteria run the same suites
on their larger corpora.  A failing suite's label reads
"counterexample: seed S, instance i" followed by the serialized posets,
maps and multimaps of that instance.
"""

import random
from dataclasses import dataclass
from itertools import islice
from pathlib import Path

from .complexes import barycentric_subdivision_space, chain_max_map
from .dynamics import build_tower, compose_h
from .formats import parse_map_text, parse_multimap_text, parse_poset_text
from .formats import serialize_map, serialize_multimap, serialize_poset
from .homology import (
    _coincidence_number,
    induced_map_of_poset_map,
    invert,
    is_acyclic,
    lefschetz_number,
    poset_homology,
)
from .errors import NotInvertible
from .lefschetz import (
    classical_lefschetz,
    coincidence_points,
    corollary_multimap_coincidence,
)
from .maps import (
    MultiMap,
    classify_continuity,
    compose_multimaps,
    enumerate_selectors,
    graph,
    induced_multimap_homology,
    is_vietoris_like_map,
    is_vietoris_like_multimap,
    selector_from_maxima,
)
from .poset import FinitePoset, PosetMap, are_homotopic, check_continuous
from .random_instances import (
    random_endomorphism,
    random_poset,
    susc_acyclic_multimap,
    usc_maxima_multimap,
)


@dataclass
class CaseResult:
    name: str
    checks: list

    @property
    def passed(self):
        return all(ok for _, ok in self.checks)

    def as_dict(self):
        return {
            "name": self.name,
            "passed": self.passed,
            "checks": [{"label": lab, "ok": ok} for lab, ok in self.checks],
        }


def _read(name):
    return (Path(__file__).parent / "fixtures" / name).read_text()


def _poset(name):
    return parse_poset_text(_read(name))


def _map(name, src, dst):
    return parse_map_text(_read(name), src, dst)


def _multimap(name, src, dst):
    return parse_multimap_text(_read(name), src, dst)


def _betti(X):
    b = list(poset_homology(X).betti)
    while b and b[-1] == 0:
        b.pop()
    return b


def case_ex2_3():
    """Sphere-model collapse: contractible fibers, still no homology iso."""
    X = _poset("ex2_3_X.txt")
    Y = _poset("ex2_3_Y.txt")
    f = _map("ex2_3_f.txt", X, Y)
    checks = []
    checks.append(("f continuous", check_continuous(f)[0]))
    for y in "MN":
        sub = X.subposet(f.preimage(y))
        checks.append((f"fiber over {y} contractible", sub.is_contractible()))
    cert = is_vietoris_like_map(f)
    checks.append(("vietoris-like fails", not cert.ok))
    checks.append(("failing chain is (M, N)", cert.failing_chain == ("M", "N")))
    checks.append(("betti of X is (1, 0, 1)", _betti(X) == [1, 0, 1]))
    checks.append(("betti of Y is (1,)", _betti(Y) == [1]))
    try:
        invert(induced_map_of_poset_map(f))
        checks.append(("induced map not invertible in dim 2", False))
    except NotInvertible as exc:
        checks.append(("induced map not invertible in dim 2", exc.dimension == 2))
    return CaseResult("ex2_3", checks)


def case_ex2_5():
    """Two-out-of-three failure: g and g o f Vietoris-like, f not."""
    X = _poset("ex2_5_X.txt")
    Y = _poset("ex2_5_Y.txt")
    Z = _poset("ex2_5_Z.txt")
    f = _map("ex2_5_f.txt", X, Y)
    g = _map("ex2_5_g.txt", Y, Z)
    checks = []
    checks.append(("g vietoris-like", is_vietoris_like_map(g).ok))
    checks.append(("g o f vietoris-like", is_vietoris_like_map(f.then(g)).ok))
    cert = is_vietoris_like_map(f)
    checks.append(("f fails", not cert.ok))
    checks.append(("failing chain is the singleton (D,)", cert.failing_chain == ("D",)))
    checks.append(
        ("fiber over D has two components", cert.profile.betti_at(0) == 2)
    )
    return CaseResult("ex2_5", checks)


def case_exW():
    """Homotopic maps need not share the Vietoris-like property."""
    W = _poset("exW_W.txt")
    X = _poset("exW_X.txt")
    f = _map("exW_f.txt", W, X)
    g = _map("exW_g.txt", W, X)
    checks = []
    checks.append(("f vietoris-like", is_vietoris_like_map(f).ok))
    cert = is_vietoris_like_map(g)
    checks.append(("g not vietoris-like", not cert.ok))
    gA = W.subposet(g.preimage("A"))
    checks.append(("fiber of g over A disconnected", _betti(gA)[0] == 2))
    checks.append(("g <= f pointwise", all(X.leq(g(w), f(w)) for w in W.elements)))
    checks.append(("f homotopic to g", are_homotopic(f, g)))
    checks.append(("W acyclic", _betti(W) == [1] and not any(poset_homology(W).torsion)))
    checks.append(("core of W is W itself", len(W.core()) == len(W)))
    checks.append(("W not contractible", not W.is_contractible()))
    return CaseResult("exW", checks)


def case_ex2_8():
    """Vietoris-like multimaps are not closed under composition."""
    X = _poset("circle4.txt")
    F = _multimap("ex2_8_F.txt", X, X)
    G = _multimap("ex2_8_G.txt", X, X)
    checks = []
    checks.append(("F vietoris-like multimap", is_vietoris_like_multimap(F).ok))
    checks.append(("G vietoris-like multimap", is_vietoris_like_multimap(G).ok))
    checks.append(("G not usc", not classify_continuity(G).usc))
    GF = compose_multimaps(F, G)
    checks.append(("G(F(A)) is the whole circle", GF("A") == frozenset(X.elements)))
    cert = is_vietoris_like_multimap(GF)
    checks.append(("composite fails", not cert.ok))
    checks.append(("failing chain is (A,)", cert.failing_chain == ("A",)))
    checks.append(
        ("fiber union over A has betti (1, 1)",
         cert.profile.betti_at(0) == 1 and cert.profile.betti_at(1) == 1)
    )
    return CaseResult("ex2_8", checks)


def case_ex2_12():
    """usc alone does not give the Vietoris-like property."""
    X = _poset("ex2_12_X.txt")
    F = _multimap("ex2_12_F.txt", X, X)
    checks = []
    flags = classify_continuity(F)
    checks.append(("F usc", flags.usc))
    checks.append(("F not susc", not flags.susc))
    cert = is_vietoris_like_multimap(F)
    checks.append(("F not vietoris-like", not cert.ok))
    checks.append(("failing chain is (A, E)", cert.failing_chain == ("A", "E")))
    checks.append(
        ("fiber union is a wedge of two circles",
         cert.profile.betti_at(0) == 1 and cert.profile.betti_at(1) == 2)
    )
    # the graph must carry the componentwise order for this to come out
    gs = graph(F)
    union = {pr for pr in gs.space.elements if pr[0] in ("A", "E")}
    chi = gs.space.subposet(union).euler_characteristic()
    checks.append(("euler characteristic of the union is -1", chi == -1))
    return CaseResult("ex2_12", checks)


def case_ex2_16():
    """usc with minima (not maxima) can fail to be Vietoris-like."""
    X = _poset("ex2_16_X.txt")
    Y = _poset("circle4.txt")
    F = _multimap("ex2_16_F.txt", X, Y)
    checks = []
    flags = classify_continuity(F)
    checks.append(("F usc", flags.usc))
    checks.append(
        ("every value has a minimum",
         all(Y.minimum(F(x)) is not None for x in X.elements))
    )
    checks.append(("graph has betti (1, 1)", _betti(graph(F).space) == [1, 1]))
    checks.append(("F not vietoris-like", not is_vietoris_like_multimap(F).ok))
    return CaseResult("ex2_16", checks)


def case_ex3_9():
    """usc with minima everywhere, yet no continuous selector exists."""
    X = _poset("circle4.txt")
    Y = _poset("ex3_9_Y.txt")
    T = _multimap("ex3_9_T.txt", X, Y)
    checks = []
    flags = classify_continuity(T)
    checks.append(("T usc", flags.usc))
    checks.append(
        ("every value has a minimum",
         all(Y.minimum(T(x)) is not None for x in X.elements))
    )
    checks.append(("no continuous selector", enumerate_selectors(T) == []))
    return CaseResult("ex3_9", checks)


def case_ex_postA():
    """Nonzero coincidence number forces a witness for (f, g) but homotopy
    does not preserve the coincidence set itself."""
    X = _poset("ex_postA_X.txt")
    f = _map("ex_postA_f.txt", X, X)
    g = _map("ex_postA_g.txt", X, X)
    fp = _map("ex_postA_fprime.txt", X, X)
    checks = []
    checks.append(("f vietoris-like", is_vietoris_like_map(f).ok))
    lam = _coincidence_number(induced_map_of_poset_map(f), induced_map_of_poset_map(g))
    checks.append(("coincidence number is 1", lam == 1))
    checks.append(("witness is B", coincidence_points(f, g) == ["B"]))
    checks.append(("f homotopic to f'", are_homotopic(f, fp)))
    checks.append(("(f', g) has no coincidence", coincidence_points(fp, g) == []))
    return CaseResult("ex_postA", checks)


def case_ex4_2():
    """Over an acyclic base, any Vietoris-like multimap from a deeper
    subdivision level must meet the comparison map h somewhere."""
    X = _poset("ex4_2_X.txt")
    t = build_tower(X, 2)
    checks = []
    checks.append(("base is acyclic", _betti(X) == [1]))
    h = compose_h(t, 0, 2)
    # a non-trivial Vietoris-like multimap level 2 -> level 0
    F = MultiMap(
        t.levels[2], X, {c: X.down_set(h(c)) for c in t.levels[2].elements}
    )
    checks.append(("F vietoris-like multimap", is_vietoris_like_multimap(F).ok))
    rep = corollary_multimap_coincidence(h, F, mode=1)
    checks.append(("coincidence number nonzero", rep.lambda_ != 0))
    checks.append(
        ("some x has h(x) in F(x)",
         any(h(x) in F(x) for x in t.levels[2].elements))
    )
    checks.append(("report witnesses nonempty", bool(rep.witnesses)))
    return CaseResult("ex4_2", checks)


def case_ex4_3():
    """A fixed point theorem through a factorization into Vietoris-like
    multimaps, applied to a composite that is not Vietoris-like itself.

    The composite's full fixed point set is {A, B, C, D}: its value table
    contains A at A and B at B as well as the expected C and D.
    """
    X = _poset("ex4_3_X.txt")
    G0 = _multimap("ex4_3_G0.txt", X, X)
    G1 = _multimap("ex4_3_G1.txt", X, X)
    checks = []
    checks.append(("G0 vietoris-like multimap", is_vietoris_like_multimap(G0).ok))
    checks.append(("G1 vietoris-like multimap", is_vietoris_like_multimap(G1).ok))
    F = compose_multimaps(G0, G1)
    checks.append(("composite not vietoris-like", not is_vietoris_like_multimap(F).ok))
    lam = lefschetz_number(
        induced_multimap_homology(G0).then(induced_multimap_homology(G1))
    )
    checks.append(("composite coincidence number nonzero", lam != 0))
    fixed = [x for x in X.elements if x in F(x)]
    checks.append(("C and D are fixed points", {"C", "D"} <= set(fixed)))
    checks.append(("full fixed point set is {A, B, C, D}", fixed == ["A", "B", "C", "D"]))
    checks.append(("graph of composite has betti (1, 1)", _betti(graph(F).space) == [1, 1]))
    return CaseResult("ex4_3", checks)


def _susc_acyclic(rng):
    while True:
        X = random_poset(rng, 7)
        F = susc_acyclic_multimap(rng, X)
        holds = classify_continuity(F).susc and all(
            is_acyclic(X.subposet(F(x))) for x in X.elements
        ) and is_vietoris_like_multimap(F).ok
        yield holds, {"X": X, "F": F}


def _usc_maxima(rng):
    while True:
        X = random_poset(rng, 7)
        F = usc_maxima_multimap(rng, X)
        if F is not None:
            holds = classify_continuity(F).usc and all(
                X.maximum(F(x)) is not None for x in X.elements
            ) and is_vietoris_like_multimap(F).ok
            yield holds, {"X": X, "F": F}


def _composition(rng):
    while True:
        X = random_poset(rng, 4, density=0.4)
        X1 = barycentric_subdivision_space(X)
        if len(X1) > 12:
            continue
        h1 = chain_max_map(X1, X)
        h2 = chain_max_map(barycentric_subdivision_space(X1), X1)
        yield all(is_vietoris_like_map(h).ok for h in (h1, h2, h2.then(h1))), {"X": X}


def _lefschetz(rng):
    while True:
        X = random_poset(rng, 8)
        f = random_endomorphism(rng, X)
        rep = classical_lefschetz(f)
        yield rep.lambda_ == rep.chi_fix and rep.conclusion_verified, {"X": X, "f": f}


def _selector(rng):
    while True:
        X = random_poset(rng, 7)
        F = susc_acyclic_multimap(rng, X)
        g = selector_from_maxima(F)
        lam_g = lefschetz_number(induced_map_of_poset_map(g))
        lam_F = lefschetz_number(induced_multimap_homology(F))
        holds = all(g(x) in F(x) for x in X.elements) and lam_g == lam_F
        yield holds, {"X": X, "F": F}


_NONE = "{} instances, zero counterexamples"
_EQUAL = "{} instances, exact equality"

# name -> (label, generator of (holds, parts)); run_property_suites draws
# suite k from random.Random(seed + k) in this order
_SUITES = {
    "susc_acyclic_implies_vietoris_like": (_NONE, _susc_acyclic),
    "usc_with_maxima_implies_vietoris_like": (_NONE, _usc_maxima),
    "vietoris_like_closed_under_composition": (_NONE, _composition),
    "lefschetz_number_equals_euler_of_fixed_set": (_EQUAL, _lefschetz),
    "selector_has_same_lefschetz_number": (_EQUAL, _selector),
}


def _property_suite(name, seed, rng, count):
    """One CaseResult for the named suite on count instances drawn from rng.

    Each instance yields (holds, parts), parts naming the posets, maps and
    multimaps of the instance; the first that does not hold ends the suite,
    and its label names seed (the seed rng was made from), the instance's
    index in this suite and the serialized parts.
    """
    label, generate = _SUITES[name]
    for i, (holds, parts) in enumerate(islice(generate(rng), count)):
        if not holds:
            text = "".join(f"{k}:\n{_serialized(v)}" for k, v in parts.items())
            found = f"counterexample: seed {seed}, instance {i}\n{text}"
            return CaseResult(name, [(found, False)])
    return CaseResult(name, [(label.format(count), True)])


def _serialized(obj):
    kinds = {
        FinitePoset: serialize_poset, PosetMap: serialize_map, MultiMap: serialize_multimap
    }
    return kinds[type(obj)](obj)


def run_property_suites(seed):
    """Seeded randomized property suites, one CaseResult per implication.

    Suite k runs 30 instances drawn from random.Random(seed + k); every
    instance re-certifies its hypotheses and checks the claimed conclusion,
    and a single counterexample fails the suite and is named in its label.
    """
    return [
        _property_suite(name, seed, random.Random(seed + k), 30)
        for k, name in enumerate(_SUITES)
    ]


ALL_CASES = [
    case_ex2_3,
    case_ex2_5,
    case_exW,
    case_ex2_8,
    case_ex2_12,
    case_ex2_16,
    case_ex3_9,
    case_ex_postA,
    case_ex4_2,
    case_ex4_3,
]


def run_all():
    return [fn() for fn in ALL_CASES]
