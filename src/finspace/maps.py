"""Multivalued maps between finite spaces and Vietoris-like certification.

The graph of a multimap is itself a finite space (componentwise order on
pairs); everything homological about a multimap flows through its two
projections.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    EmptyValue,
    NoMaximum,
    NotComposable,
    NotInvertible,
    NotSurjective,
    NotUsc,
    ProjectionNotIso,
)
from .homology import (
    induced_map_of_poset_map,
    invert,
    poset_homology,
)
from .poset import (
    DEFAULT_BUDGET,
    PosetMap,
    order_preserving_maps,
    product_subposet,
    require_continuous,
)


class MultiMap:
    """Total multivalued map: every point gets a non-empty image set."""

    __slots__ = ("source", "target", "values")

    def __init__(self, source, target, values):
        self.source = source
        self.target = target
        vals = {}
        for x in source.elements:
            if x not in values:
                raise EmptyValue(f"no image set for {x!r}")
            v = frozenset(values[x])
            if not v:
                raise EmptyValue(f"empty image set at {x!r}")
            for y in v:
                target.index(y)  # raises UnknownElement
            vals[x] = v
        self.values = vals

    def __call__(self, x):
        return self.values[x]

    def __eq__(self, other):
        if not isinstance(other, MultiMap):
            return NotImplemented
        return (
            self.source == other.source
            and self.target == other.target
            and self.values == other.values
        )

    def __repr__(self):
        parts = ", ".join(
            f"{x!r}: {sorted(self.values[x], key=self.target.index)!r}"
            for x in self.source.elements
        )
        return f"MultiMap({{{parts}}})"


def as_multimap(f):
    """View a single-valued map as a multivalued one."""
    return MultiMap(f.source, f.target, {x: {f(x)} for x in f.source.elements})


class GraphSpace:
    """The graph of a multimap as a finite space with its two projections.

    Pairs are ordered componentwise: (x, y) <= (x', y') iff x <= x' and
    y <= y'.
    """

    __slots__ = ("space", "p", "q", "multimap")

    def __init__(self, F):
        X, Y = F.source, F.target
        pairs = [
            (x, y)
            for x in X.elements
            for y in sorted(F(x), key=Y.index)
        ]
        self.space = product_subposet(X, Y, pairs)
        self.p = PosetMap(self.space, X, {pr: pr[0] for pr in pairs})
        self.q = PosetMap(self.space, Y, {pr: pr[1] for pr in pairs})
        self.multimap = F


def graph(F):
    return GraphSpace(F)


@dataclass
class ContinuityFlags:
    usc: bool
    lsc: bool
    susc: bool
    slsc: bool

    def as_dict(self):
        return {"usc": self.usc, "lsc": self.lsc, "susc": self.susc, "slsc": self.slsc}


def classify_continuity(F):
    """Order-theoretic (strong) upper/lower semicontinuity flags.

    M[x, y] says y is in F(x) and up[x, y] that y lies below some point
    of F(x).  For every pair x1 <= x2: usc asks F(x1) to lie below F(x2)
    (in up[x2]), lsc asks F(x2) to lie below F(x1); susc and slsc ask for
    F(x1) <= F(x2) and F(x2) <= F(x1) as sets.
    """
    X, Y = F.source, F.target
    M = np.zeros((len(X), len(Y)), dtype=bool)
    for i, x in enumerate(X.elements):
        M[i, [Y.index(y) for y in F(x)]] = True
    up = (M[:, None, :] & Y.leq_matrix()[None, :, :]).any(axis=2)
    pairs = X.leq_matrix()[:, :, None]  # pairs[x1, x2] is x1 <= x2
    return ContinuityFlags(
        usc=not (pairs & M[:, None] & ~up[None]).any(),
        lsc=not (pairs & ~up[:, None] & M[None]).any(),
        susc=not (pairs & M[:, None] & ~M[None]).any(),
        slsc=not (pairs & ~M[:, None] & M[None]).any(),
    )


@dataclass
class Certificate:
    """Outcome of a Vietoris-like check, with the first failure witness."""

    ok: bool
    failing_chain: tuple | None = None
    profile: object = None
    reason: str | None = None

    def as_dict(self):
        out = {"ok": self.ok}
        if not self.ok:
            out["failing_chain"] = list(self.failing_chain) if self.failing_chain else None
            if self.profile is not None:
                out.update(self.profile.summary())
            if self.reason:
                out["reason"] = self.reason
        return out


def is_vietoris_like_map(f):
    """Check that every union of fibers over a chain of the target is acyclic.

    The fibers come from one pass over the map (PosetMap.fibers).  All
    chains are enumerated (acyclicity over maximal chains does not imply
    it for subchains), shortest first; fiber unions are memoized by their
    element set and reduced to their Stong core before homology, which
    leaves the Betti numbers and torsion of the union unchanged (a core
    is a strong deformation retract: Stong, Trans. AMS 1966).  A core of
    one point is acyclic without a homology computation.  The first
    failing chain, in enumeration order, is reported.
    """
    require_continuous(f)
    X, Y = f.source, f.target
    fibers = f.fibers()
    cache = {}
    for chain in sorted(Y.all_chains(), key=lambda c: (len(c), tuple(map(Y.index, c)))):
        union = frozenset().union(*(fibers[y] for y in chain))
        if not union:
            return Certificate(
                ok=False, failing_chain=chain, reason="empty fiber union (f not surjective)"
            )
        if union not in cache:
            core = X.subposet(union).core()
            cache[union] = poset_homology(core) if len(core) > 1 else None
        hp = cache[union]
        if hp is not None and not hp.is_acyclic():
            return Certificate(ok=False, failing_chain=chain, profile=hp)
    return Certificate(ok=True)


def is_vietoris_like_multimap(F):
    """A multimap is Vietoris-like iff the first graph projection is."""
    return is_vietoris_like_map(graph(F).p)


def projections_on_core(gs):
    """(p_*, q_*) for the graph projections restricted to the graph's core.

    The Stong core inclusion i induces isomorphisms, so (q o i)_* (p o i)_*^-1
    equals q_* p_*^-1 and (p o i)_* (q o i)_*^-1 equals p_* q_*^-1, while
    the chain complexes stay small.
    """
    p, q = gs.p, gs.q
    core = gs.space.core()
    if len(core) < len(gs.space):
        inc = PosetMap(core, gs.space, {x: x for x in core.elements})
        p, q = inc.then(p), inc.then(q)
    return induced_map_of_poset_map(p), induced_map_of_poset_map(q)


def induced_multimap_homology(F, gs=None):
    """F_* = q_* o p_*^-1 on free homology, via the graph projections."""
    p_star, q_star = projections_on_core(gs or graph(F))
    try:
        p_inv = invert(p_star)
    except NotInvertible as exc:
        raise ProjectionNotIso(
            "first projection does not induce homology isomorphisms"
        ) from exc
    return p_inv.then(q_star)


def compose_multimaps(F, G):
    """(G o F)(x) = union of G(y) over y in F(x)."""
    if F.target != G.source:
        raise NotComposable("target of F differs from source of G")
    return MultiMap(
        F.source,
        G.target,
        {x: frozenset().union(*(G(y) for y in F(x))) for x in F.source.elements},
    )


def compose_map_then_multimap(f, G):
    """(G o f)(x) = G(f(x)) for single-valued f."""
    return compose_multimaps(as_multimap(f), G)


def fiber_multimap(f):
    """F(y) = f^{-1}(y), a multimap from the target back to the source."""
    require_continuous(f)
    if not f.is_surjective():
        raise NotSurjective("fiber multimap needs a surjective map")
    return MultiMap(f.target, f.source, f.fibers())


def selector_from_maxima(F):
    """The selector x -> max F(x) for a usc multimap with maxima.

    Continuity is automatic; the dual (lsc with minima) is reached by
    passing the multimap between opposite posets.
    """
    flags = classify_continuity(F)
    if not flags.usc:
        raise NotUsc("multimap is not upper semicontinuous")
    assignment = {}
    for x in F.source.elements:
        m = F.target.maximum(F(x))
        if m is None:
            raise NoMaximum(f"image of {x!r} has no maximum", element=x)
        assignment[x] = m
    return require_continuous(PosetMap(F.source, F.target, assignment))


def enumerate_selectors(F, budget=DEFAULT_BUDGET):
    """All continuous sections x -> y in F(x), in order_preserving_maps order."""
    return list(order_preserving_maps(F.source, F.target, F, budget))
