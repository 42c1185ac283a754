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
from itertools import compress

from .errors import (
    CertificationFailed,
    EmptyValue,
    IndexRange,
    NotContinuous,
    SizeBudgetExceeded,
)
from .homology import _coincidence_number, induced_map_of_poset_map
from .maps import MultiMap, _fiber_multimap, is_vietoris_like_map
from .complexes import _subdivision
from .poset import _map, _positions, identity_map, require_continuous

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
    """Subdivide depth times; each h sends a chain to its maximum.

    A level's size, the chain count of the level below, is checked
    against the budget and the warning size before the level is built.
    One walk of X^n gives X^{n+1} and the positions of h_n
    (complexes._subdivision): chain_max_map's maxima, with no chain
    looked up by its elements.
    """
    if depth < 0:
        raise IndexRange(f"negative depth {depth}")
    levels = [X0]
    h_maps = []
    for n in range(depth):
        Xn = levels[-1]
        size = Xn._chain_count()
        if size > size_budget:
            raise SizeBudgetExceeded(f"level {n + 1} has {size} elements (budget {size_budget})")
        if size > _WARN_LEVEL_SIZE:
            warnings.warn(
                f"subdivision level {n + 1} has {size} elements; "
                "deeper levels grow super-exponentially"
            )
        Xn1, hpos = _subdivision(Xn)
        levels.append(Xn1)
        h_maps.append(_map(Xn1, Xn, hpos))
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
    fibers = compose_h(t, n, m).fibers()
    return MultiMap(t.levels[n], t.levels[m], fibers)


class ApproximativeSequence:
    """A tower plus one level map per step and the derived endo-multimaps.

    f_maps[n] is f_{n,n+1}: X^{n+1} -> X^n; F_maps[n] is the Vietoris-like
    multimap F_{n+1} = H_{n,n+1} o f_{n,n+1} on X^{n+1}.  Those that
    attach_level_maps derives build their values on first read.

    The sequence keeps, per step n, the positions of h_{n,n+1} and of
    f_{n,n+1} as maps from level n + 1 to level n of the tower, in the
    tower's listing of both levels (re-indexed once, here, for a map
    whose source or target lists an equal level in another order).  A
    point x of X^{n+1} is fixed by F_{n+1} = H o f iff h(x) = f(x), so
    fixed points and fixed chains are read off these positions, and
    lambda_nm compares them to tell when f = h.  The levels and maps are
    not to be changed after construction.
    """

    __slots__ = ("tower", "f_maps", "F_maps", "_hpos", "_fpos")

    def __init__(self, tower, f_maps, F_maps):
        self.tower = tower
        self.f_maps = list(f_maps)
        self.F_maps = list(F_maps)
        self._hpos = _level_positions(tower, tower.h_maps)
        self._fpos = _level_positions(tower, self.f_maps)


def _level_positions(t, maps):
    """Per step n, the positions of maps[n] from level n + 1 to level n,
    as a tuple, so that two maps' positions compare equal iff the maps
    are."""
    return [tuple(_positions(g, t.levels[n + 1].elements, t.levels[n].elements,
                             t.levels[n]._index)) for n, g in enumerate(maps)]


def attach_level_maps(t, f_maps, certify=True):
    """Validate level maps and derive the fixed-point multimaps.

    Each f must be continuous from X^{n+1} to X^n (same direction as h);
    an f that is_vietoris_like_map has certified is not checked again,
    since it keeps a certificate only for a continuous map.
    F_{n+1}(x) = H_{n,n+1}(f(x)) is the fiber of h = h_{n,n+1} over f(x).
    Unless certify=False, F_{n+1} is certified Vietoris-like by certifying
    h (as ``tower build`` does), without building the graph of F:

    * For a chain c of X^{n+1}, the fiber union of the graph projection
      over c is U_c = {(x, y) : x in c, h(y) = f(x)}, and the second
      projection q maps it onto V = h^{-1}(f(c)).  For y in V,
      q^{-1}(V_{<=y}) has the maximum (x_max, y), x_max the largest x in
      c with f(x) = h(y): a point (x, y') of it with x > x_max would give
      f(x) = h(y') <= h(y) = f(x_max) <= f(x), so f(x) = h(y) against
      the choice of x_max.  By Quillen's fiber lemma for finite spaces
      (Quillen, Adv. Math. 1978; Barmak, LNM 2032, ch. 4) q is a weak
      homotopy equivalence: U_c is acyclic exactly when h^{-1}(f(c)) is.
    * f is continuous, so f(c) is a chain of X^n, and every F_{n+1} is
      Vietoris-like if h is.
    * A chain-maximum h always is: adding max d to each chain of
      h^{-1}(d), d a chain of X^n, contracts it.  is_vietoris_like_map
      checks this for any h whose source holds the one-point chains.

    So CertificationFailed (level n + 1) names h_n and its failing chain;
    only a hand-built Tower whose h_maps break the chain-maximum contract
    reaches it.  An h_n certified before, here or by a caller, is not
    certified again: is_vietoris_like_map keeps each map's certificate.

    Each F_{n+1} is kept as the positions of h and f (maps._FiberMultiMap):
    its values, one frozenset per fiber of h, are built on their first
    read, and lambda_nm, fixed_points_of_level and fixed_chain_search
    never read them.  EmptyValue names the first point x whose f(x) h
    misses, found on the positions.
    """
    if len(f_maps) != t.depth:
        raise IndexRange(
            f"expected {t.depth} level maps, got {len(f_maps)}"
        )
    for n, f in enumerate(f_maps):
        if f.source != t.levels[n + 1] or f.target != t.levels[n]:
            raise NotContinuous(
                f"level map {n} does not go from level {n + 1} to level {n}"
            )
        try:
            if f._certificate is None:  # a kept certificate proves f continuous
                require_continuous(f)
        except NotContinuous as exc:
            raise NotContinuous(
                f"level map {n} is not continuous at pair {exc.pair!r}",
                pair=exc.pair,
            ) from exc
        if certify:
            cert = is_vietoris_like_map(t.h_maps[n])
            if not cert.ok:
                raise CertificationFailed(
                    f"derived multimap at level {n + 1} is not certified: "
                    f"h_{n} is not Vietoris-like: {cert.as_dict()}",
                    level=n + 1,
                )
    seq = ApproximativeSequence(t, f_maps, [])
    for n, (hpos, fpos) in enumerate(zip(seq._hpos, seq._fpos)):
        # F_{n+1}(x) is the fiber of h over f(x), empty where h misses f(x)
        X, hit = t.levels[n + 1], set(hpos)
        if not hit.issuperset(fpos):
            i = next(i for i, j in enumerate(fpos) if j not in hit)
            raise EmptyValue(f"empty image set at {X.elements[i]!r}")
        seq.F_maps.append(_fiber_multimap(X, X, hpos, fpos, len(t.levels[n])))
    return seq


def compose_f(seq, n, m):
    """f_{n,m}: X^m -> X^n by stacking the level maps (identity for n=m)."""
    return _stack(seq.tower, seq.f_maps, n, m)


def lambda_nm(seq, n, m):
    """Lefschetz number of f_{n,m*} o h_{n,m*}^{-1} on H(X^n).

    Steps cancel from the top down: while step k = j - 1 has f_k = h_k
    (equal positions in the tower's listing of both levels) and h_k is
    Vietoris-like, h_{k*} is an isomorphism (McCord, Duke Math. J. 1966;
    Barmak, Mrozek & Wanner, Math. Z. 2020), so f_{n,j*} h_{n,j*}^{-1} =
    f_{n,k*} h_{k*} h_{k*}^{-1} h_{n,k*}^{-1} = f_{n,k*} h_{n,k*}^{-1}.
    A step with f_k != h_k certifies nothing, and h_k keeps its
    certificate, so only the first call (or a certified attach) pays for
    it.  If every step cancels, the map is the identity on H(X^n), whose
    Lefschetz number is the Euler characteristic of X^n, a chain count.
    Otherwise both induced maps of the shorter pair (n, j) are built from
    the stacked maps, and neither is kept.
    """
    if not n < m:
        raise IndexRange(f"need n < m, got {n} >= {m}")
    t = seq.tower
    t._check_level(n)
    t._check_level(m)
    j = m
    while (j > n and seq._fpos[j - 1] == seq._hpos[j - 1]
           and is_vietoris_like_map(t.h_maps[j - 1]).ok):
        j -= 1
    if j == n:
        return t.levels[n].euler_characteristic()
    return _coincidence_number(induced_map_of_poset_map(compose_h(t, n, j)),
                               induced_map_of_poset_map(compose_f(seq, n, j)))


def fixed_points_of_level(seq, n1):
    """Fixed points of F_{n1}; equal the coincidences of f and h there.

    x is in F(x) = h^-1(f(x)) iff h(x) = f(x), so the test compares the
    positions of the two level maps.
    """
    if not 1 <= n1 <= seq.tower.depth:
        raise IndexRange(f"level {n1} outside 1..{seq.tower.depth}")
    els = seq.tower.levels[n1].elements
    hpos, fpos = seq._hpos[n1 - 1], seq._fpos[n1 - 1]
    return [els[i] for i, (a, b) in enumerate(zip(hpos, fpos)) if a == b]


def fixed_chain_search(seq, m):
    """All h-compatible chains (x_0, ..., x_N) fixed by F from level m up.

    x_n = h_{n,n+1}(x_{n+1}) pins the whole chain once the top element is
    chosen, and x_n is fixed iff f_{n-1,n}(x_n) = h_{n-1,n}(x_n) = x_{n-1}.
    So the points whose chains are fixed from level m up are marked level
    by level: every point below level max(m, 1) is good, and a point of a
    higher level k is good iff f(x) = h(x) and its h-image is good.  The
    chains of good tops, ordered by top, are then walked down and named
    one level at a time, each level's point indices in one map.
    """
    t = seq.tower
    t._check_level(m)
    N = t.depth
    hpos, fpos = seq._hpos, seq._fpos
    good = [True] * len(t.levels[max(m - 1, 0)])
    for k in range(max(m, 1), N + 1):
        good = [y == fx and good[y] for y, fx in zip(hpos[k - 1], fpos[k - 1])]
    walk = [list(compress(range(len(good)), good))]
    for n in range(N - 1, -1, -1):
        walk.append(list(map(hpos[n].__getitem__, walk[-1])))
    return list(zip(*[map(L.elements.__getitem__, idx) for L, idx in zip(t.levels, walk[::-1])]))
