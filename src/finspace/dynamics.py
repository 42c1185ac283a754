"""Subdivision towers and finite approximative sequences.

A tower stacks iterated barycentric subdivisions X^0, X^1, ..., X^N with
the natural comparison maps h sending each chain to its maximum.  Given
user-supplied level maps f pointing the same way as h, the derived
multimaps F_{n+1} = H o f are Vietoris-like endomorphisms whose fixed
points are exactly the coincidences of f and h; a compatible chain of
such fixed points is the combinatorial shadow of a fixed point of the
approximated map.
"""

import warnings

from .errors import (
    CertificationFailed,
    IndexRange,
    NotContinuous,
    SizeBudgetExceeded,
)
from .homology import induced_map_of_poset_map, invert, lefschetz_number
from .maps import MultiMap, is_vietoris_like_multimap
from .complexes import barycentric_subdivision_space, chain_max_map
from .poset import identity_map, require_continuous

DEFAULT_SIZE_BUDGET = 20000
_WARN_LEVEL_SIZE = 5000


class Tower:
    """Iterated subdivisions with their chain-maximum comparison maps.

    levels[n] is X^n; elements of levels[n+1] are the nonempty chains of
    levels[n].  h_maps[n] is h_{n,n+1}: X^{n+1} -> X^n.
    """

    __slots__ = ("levels", "h_maps")

    def __init__(self, levels, h_maps):
        self.levels = list(levels)
        self.h_maps = list(h_maps)

    @property
    def depth(self):
        return len(self.levels) - 1

    def _check_level(self, n):
        if not 0 <= n <= self.depth:
            raise IndexRange(f"level {n} outside 0..{self.depth}")


def build_tower(X0, depth, size_budget=DEFAULT_SIZE_BUDGET):
    """Subdivide depth times; each h sends a chain to its maximum."""
    if depth < 0:
        raise IndexRange(f"negative depth {depth}")
    levels = [X0]
    h_maps = []
    for n in range(depth):
        Xn = levels[-1]
        Xn1 = barycentric_subdivision_space(Xn)
        if len(Xn1) > size_budget:
            raise SizeBudgetExceeded(
                f"level {n + 1} has {len(Xn1)} elements (budget {size_budget})"
            )
        if len(Xn1) > _WARN_LEVEL_SIZE:
            warnings.warn(
                f"subdivision level {n + 1} has {len(Xn1)} elements; "
                "deeper levels grow super-exponentially"
            )
        levels.append(Xn1)
        h_maps.append(require_continuous(chain_max_map(Xn1, Xn)))
    return Tower(levels, h_maps)


def _stack(t, maps, n, m):
    """maps[n] o ... o maps[m-1]: X^m -> X^n (identity for n=m)."""
    t._check_level(n)
    t._check_level(m)
    if n > m:
        raise IndexRange(f"need n <= m, got {n} > {m}")
    f = identity_map(t.levels[m])
    for k in range(m - 1, n - 1, -1):
        f = f.then(maps[k])
    return f


def compose_h(t, n, m):
    """h_{n,m}: X^m -> X^n, the stacked comparison map (identity for n=m)."""
    return _stack(t, t.h_maps, n, m)


def fiber_H(t, n, m):
    """H_{n,m}(x) = preimage of x under h_{n,m}; each value has a minimum."""
    return MultiMap(t.levels[n], t.levels[m], compose_h(t, n, m).fibers())


class ApproximativeSequence:
    """A tower plus one level map per step and the derived endo-multimaps.

    f_maps[n] is f_{n,n+1}: X^{n+1} -> X^n; F_maps[n] is the Vietoris-like
    multimap F_{n+1} = H_{n,n+1} o f_{n,n+1} on X^{n+1}.
    """

    __slots__ = ("tower", "f_maps", "F_maps")

    def __init__(self, tower, f_maps, F_maps):
        self.tower = tower
        self.f_maps = list(f_maps)
        self.F_maps = list(F_maps)


def attach_level_maps(t, f_maps, certify=True):
    """Validate level maps and derive the fixed-point multimaps.

    Each f must be continuous from X^{n+1} to X^n (same direction as h).
    F_{n+1}(x) = H_{n,n+1}(f(x)) is certified Vietoris-like unless
    certify=False.
    """
    if len(f_maps) != t.depth:
        raise IndexRange(
            f"expected {t.depth} level maps, got {len(f_maps)}"
        )
    F_maps = []
    for n, f in enumerate(f_maps):
        if f.source != t.levels[n + 1] or f.target != t.levels[n]:
            raise NotContinuous(
                f"level map {n} does not go from level {n + 1} to level {n}"
            )
        try:
            require_continuous(f)
        except NotContinuous as exc:
            raise NotContinuous(
                f"level map {n} is not continuous at pair {exc.pair!r}",
                pair=exc.pair,
            ) from exc
        H = fiber_H(t, n, n + 1)
        F = MultiMap(
            t.levels[n + 1],
            t.levels[n + 1],
            {x: H(f(x)) for x in t.levels[n + 1].elements},
        )
        if certify:
            cert = is_vietoris_like_multimap(F)
            if not cert.ok:
                raise CertificationFailed(
                    f"derived multimap at level {n + 1} is not Vietoris-like: "
                    f"{cert.as_dict()}",
                    level=n + 1,
                )
        F_maps.append(F)
    return ApproximativeSequence(t, f_maps, F_maps)


def compose_f(seq, n, m):
    """f_{n,m}: X^m -> X^n by stacking the level maps (identity for n=m)."""
    return _stack(seq.tower, seq.f_maps, n, m)


def lambda_nm(seq, n, m):
    """Lefschetz number of f_{n,m*} o h_{n,m*}^{-1}."""
    if not n < m:
        raise IndexRange(f"need n < m, got {n} >= {m}")
    h_star = induced_map_of_poset_map(compose_h(seq.tower, n, m))
    f_star = induced_map_of_poset_map(compose_f(seq, n, m))
    return lefschetz_number(invert(h_star).then(f_star))


def fixed_points_of_level(seq, n1):
    """Fixed points of F_{n1}; equal the coincidences of f and h there."""
    if not 1 <= n1 <= seq.tower.depth:
        raise IndexRange(f"level {n1} outside 1..{seq.tower.depth}")
    F = seq.F_maps[n1 - 1]
    return [x for x in F.source.elements if x in F(x)]


def fixed_chain_search(seq, m):
    """All h-compatible chains (x_0, ..., x_N) fixed by F from level m up.

    x_n = h_{n,n+1}(x_{n+1}) pins the whole chain once the top element is
    chosen, so the search reduces to scanning X^N for elements whose
    h-images at levels >= m are fixed points of the corresponding F.
    """
    t = seq.tower
    t._check_level(m)
    N = t.depth
    out = []
    for top in t.levels[N].elements:
        chain = [top]
        for n in range(N - 1, -1, -1):
            chain.append(t.h_maps[n](chain[-1]))
        chain.reverse()  # now chain[n] lives in X^n
        ok = True
        for n1 in range(max(m, 1), N + 1):
            if chain[n1] not in seq.F_maps[n1 - 1](chain[n1]):
                ok = False
                break
        if ok:
            out.append(tuple(chain))
    return out
