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
    EmptyValue,
    IndexRange,
    NotContinuous,
    SizeBudgetExceeded,
)
from .homology import _coincidence_number, induced_map_of_poset_map
from .maps import MultiMap, _gathered, is_vietoris_like_map
from .complexes import barycentric_subdivision_space, chain_max_map
from .poset import _positions, identity_map, require_continuous

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
        Xn1 = barycentric_subdivision_space(Xn)
        levels.append(Xn1)
        h_maps.append(chain_max_map(Xn1, Xn))
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

    Each f must be continuous from X^{n+1} to X^n (same direction as h).
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
    * A chain-maximum h always is: for a chain d of X^n, adding max d to
      each chain of h^{-1}(d) is a self-map of h^{-1}(d) lying above both
      the identity and a constant, so h^{-1}(d) is contractible; for an
      h from chain_max_map, is_vietoris_like_map checks this contraction.

    So CertificationFailed (level n + 1) names h_n and its failing chain;
    only a hand-built Tower whose h_maps break the chain-maximum contract
    reaches it.  An h_n certified before, here or by a caller, is not
    certified again: is_vietoris_like_map keeps each map's certificate.
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
        # F_{n+1}(x) is the fiber of h over f(x): one frozenset per fiber
        X = t.levels[n + 1]
        fibers = [[] for _ in t.levels[n].elements]
        for x, j in zip(X.elements, hpos):
            fibers[j].append(x)
        fibers = [frozenset(fiber) for fiber in fibers]
        if not all(fibers):
            for i, j in enumerate(fpos):
                if not fibers[j]:
                    raise EmptyValue(f"empty image set at {X.elements[i]!r}")
        seq.F_maps.append(_gathered(X, X, fibers, fpos))
    return seq


def compose_f(seq, n, m):
    """f_{n,m}: X^m -> X^n by stacking the level maps (identity for n=m)."""
    return _stack(seq.tower, seq.f_maps, n, m)


def lambda_nm(seq, n, m):
    """Lefschetz number of f_{n,m*} o h_{n,m*}^{-1}.

    Each call builds both induced maps from the stacked maps and keeps
    nothing.  When f_{k,k+1} = h_{k,k+1} for every step k from n to
    m - 1 (equal positions in the tower's listing of both levels),
    h_{n,m*} serves as f_{n,m*} too.
    """
    if not n < m:
        raise IndexRange(f"need n < m, got {n} >= {m}")
    t = seq.tower
    t._check_level(n)
    t._check_level(m)
    h_star = induced_map_of_poset_map(compose_h(t, n, m))
    f_is_h = seq._fpos[n:m] == seq._hpos[n:m]
    f_star = h_star if f_is_h else induced_map_of_poset_map(compose_f(seq, n, m))
    return _coincidence_number(h_star, f_star)


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
    chosen, so the search reduces to scanning X^N for elements whose
    h-images at levels >= m are fixed points of the corresponding F.  The
    chain is walked down by positions, and x_n is fixed iff
    f_{n-1,n}(x_n) = h_{n-1,n}(x_n) = x_{n-1}.
    """
    t = seq.tower
    t._check_level(m)
    N = t.depth
    hpos, fpos = seq._hpos, seq._fpos
    out = []
    for top in range(len(t.levels[N])):
        chain = [top]
        for n in range(N - 1, -1, -1):
            chain.append(hpos[n][chain[-1]])
        chain.reverse()  # now chain[n] is a point index of X^n
        if all(fpos[n1 - 1][chain[n1]] == chain[n1 - 1] for n1 in range(max(m, 1), N + 1)):
            out.append(tuple(L.elements[i] for L, i in zip(t.levels, chain)))
    return out
