"""Seeded random posets, maps and multimaps for the property suites.

Everything takes an explicit random.Random so corpora are reproducible
from a seed.  Generators either construct instances that satisfy a
hypothesis by design or propose-and-filter with the real checkers; the
test suites re-certify hypotheses before asserting conclusions.
"""

from .complexes import barycentric_subdivision_space, chain_max_map
from .maps import MultiMap, classify_continuity
from .poset import _map, _values_above, build_poset, identity_map

__all__ = [
    "random_poset",
    "random_monotone_map",
    "random_endomorphism",
    "susc_acyclic_multimap",
    "usc_maxima_multimap",
    "vietoris_map_corpus",
]


def random_poset(rng, max_size, density=0.3):
    """Random poset on 1..max_size points: random DAG edges, closed up."""
    n = rng.randint(1, max_size)
    names = [f"p{i}" for i in range(n)]
    rels = [
        (names[i], names[j])
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < density
    ]
    return build_poset(names, rels)


def random_monotone_map(rng, X, Y, attempts=200):
    """A random continuous map X -> Y, or None if sampling keeps failing.

    Samples greedily in X's linear extension, choosing uniformly among
    the values compatible with the already-assigned strict predecessors.
    """
    order, preds, everything = X._order, X._down, set(range(len(Y)))
    for _ in range(attempts):
        partial = [None] * len(X)  # point of X -> index of its value in Y
        for i in order:
            values = [partial[p] for p in preds[i]]
            cands = _values_above(Y, everything, values)  # in Y.elements order
            if not cands:
                break
            partial[i] = rng.choice(cands)
        else:
            return _map(X, Y, partial)
    return None


def random_endomorphism(rng, X):
    """A random continuous self-map (the identity always exists)."""
    f = random_monotone_map(rng, X, X)
    return f if f is not None else identity_map(X)


def susc_acyclic_multimap(rng, X):
    """A multimap with F(x1) contained in F(x2) whenever x1 <= x2 and
    every value acyclic: F(x) is the minimal open set of g(x) for a random
    continuous g."""
    g = random_endomorphism(rng, X)
    values = {x: set(X.down_set(g(x))) for x in X.elements}
    return MultiMap(X, X, values)


def usc_maxima_multimap(rng, X):
    """A usc multimap whose every value has a maximum, or None.

    Proposes values {g(x)} plus a random part of the points below g(x)
    and keeps the first of 50 proposals that the usc checker accepts.
    """
    g = random_endomorphism(rng, X)
    for _ in range(50):
        values = {}
        for x in X.elements:
            below = sorted(X.strict_down_set(g(x)), key=X.index)
            extra = {y for y in below if rng.random() < 0.5}
            values[x] = {g(x)} | extra
        F = MultiMap(X, X, values)
        if classify_continuity(F).usc:
            return F
    return None


def vietoris_map_corpus(rng, count):
    """Maps that are Vietoris-like by construction.

    The corpus mixes identities, chain-maximum maps from one barycentric
    subdivision down to the space, and their compositions across two
    subdivision steps.  Callers should still certify each instance.
    """
    out = []
    while len(out) < count:
        X = random_poset(rng, 4, density=0.4)
        kind = rng.randrange(3)
        if kind == 0:
            out.append(identity_map(X))
            continue
        X1 = barycentric_subdivision_space(X)
        h1 = chain_max_map(X1, X)
        if kind == 1 or len(X1) > 12:
            out.append(h1)
            continue
        X2 = barycentric_subdivision_space(X1)
        h2 = chain_max_map(X2, X1)
        out.append(h2.then(h1))
    return out
