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
from bisect import bisect_left
from collections import Counter
from functools import cache
from itertools import accumulate, compress, permutations
from math import factorial

from . import poset
from .errors import (
    BudgetExceeded,
    CertificationFailed,
    EmptyValue,
    IndexRange,
    NotContinuous,
    SizeBudgetExceeded,
)
from .homology import _coincidence_number, induced_map_of_poset_map
from .maps import MultiMap, _fiber_multimap, is_vietoris_like_map
from .complexes import _index_extends, _perm_sign, _subdivision
from .poset import _map, _positions, identity_map, require_continuous

DEFAULT_SIZE_BUDGET = 20000
_WARN_LEVEL_SIZE = 5000


class Tower:
    """Iterated subdivisions with their chain-maximum comparison maps.

    levels[n] is X^n; elements of levels[n+1] are the nonempty chains of
    levels[n].  h_maps[n] is h_{n,n+1}: X^{n+1} -> X^n.  The levels and
    maps are not to be changed after construction.

    A tower from build_tower has a per-step cache (_steps, one entry per
    step, filled on first need by _step), and lambda_nm counts fixed
    flags on it.  A hand-built tower leaves _steps None: nothing then
    says its levels are subdivisions and its h chain-maximum maps, so
    lambda_nm takes the route through certificates and homology.
    """

    __slots__ = ("levels", "h_maps", "_steps")

    def __init__(self, levels, h_maps):
        self.levels = list(levels)
        self.h_maps = list(h_maps)
        self._steps = None

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
    looked up by its elements.  The tower gets an empty per-step cache,
    which marks it as built here (Tower); nothing is read into it here.
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
    t = Tower(levels, h_maps)
    t._steps = [None] * depth
    return t


def _step(t, k):
    """(vertices, back) of step k of a tower from build_tower, built on
    first need and kept: vertices[p] lists, ascending, the positions in
    X^k of the vertices of the point p of X^(k+1), and back maps each
    such tuple to its point.

    A point of X^(k+1) is a chain of X^k.  _subdivided lists the
    singletons first, in X^k's order, so the vertices of a point are the
    entries of its down list below |X^k|; a singleton is its own vertex.
    """
    step = t._steps[k]
    if step is None:
        size = len(t.levels[k])
        vertices = [tuple(down[:bisect_left(down, size)]) or (p,)
                    for p, down in enumerate(t.levels[k + 1]._down)]
        step = t._steps[k] = vertices, dict(zip(vertices, range(len(vertices))))
    return step


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
      checks such a contraction on any h, read off the order of its
      source (maps._contracts).

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

    Steps cancel from the top down while step k = j - 1 has f_k = h_k
    (equal positions in the tower's listing of both levels).  If every
    step cancels, the map is the identity on H(X^n), whose Lefschetz
    number is the Euler characteristic of X^n, a chain count.

    On a tower from build_tower a step cancels on its positions alone,
    since h_# Sd = id on chains (_fixed_flag_count), and the rest is a
    signed count of fixed flags, with no certificate, induced map or
    level homology.

    On a hand-built Tower a step cancels only if h_k is also
    Vietoris-like: h_{k*} is then an isomorphism (McCord, Duke Math. J.
    1966; Barmak, Mrozek & Wanner, Math. Z. 2020), so f_{n,j*}
    h_{n,j*}^{-1} = f_{n,k*} h_{k*} h_{k*}^{-1} h_{n,k*}^{-1} =
    f_{n,k*} h_{n,k*}^{-1}.  h_k keeps its certificate, so only the
    first call (or a certified attach) pays for it.  Both induced maps of
    the shorter pair (n, j) are then built from the stacked maps, and
    neither is kept.
    """
    if not n < m:
        raise IndexRange(f"need n < m, got {n} >= {m}")
    t = seq.tower
    t._check_level(n)
    t._check_level(m)
    j = m
    while (j > n and seq._fpos[j - 1] == seq._hpos[j - 1]
           and (t._steps is not None or is_vietoris_like_map(t.h_maps[j - 1]).ok)):
        j -= 1
    if j == n:
        return t.levels[n].euler_characteristic()
    if t._steps is not None:
        return _fixed_flag_count(seq, n, j)
    return _coincidence_number(induced_map_of_poset_map(compose_h(t, n, j)),
                               induced_map_of_poset_map(compose_f(seq, n, j)))


def _fixed_flag_count(seq, n, j):
    """lambda(n, j) of a tower from build_tower, as a signed count of
    fixed flags.

    Orient each simplex sigma = [v_0 < ... < v_d] of K(X^k) increasingly
    in the order, and let Sd sigma = sum_p sgn(p) [c_0 < ... < c_d], p
    running over the orderings of sigma's vertices and c_i the set of
    the first i + 1 of them, a point of X^(k+1).  Sd is the subdivision
    chain map, and h_# Sd = id exactly: the maxima of c_0, ..., c_d are
    distinct only for p = id, where h(c_i) = v_i.  So f_{n,m#} Sd^(m-n)
    = f_{n,j#} Sd^(j-n) when f_k = h_k for k >= j.  h_* is an isomorphism
    (McCord, Duke Math. J. 1966), so Sd_* = h_*^{-1}, and by the Hopf
    trace formula (Munkres, Elements of Algebraic Topology, sections 17
    and 22) lambda(n, j) = sum_d (-1)^d tr(f_{n,j#} Sd^(j-n) on C_d).
    f = f_{n,j} preserves the order, so it maps an increasing flag to an
    increasing tuple, with no sign.  The coefficient of sigma is then the
    signed number of its iterated flags tau (through levels n..j) with
    f(tau_i) = v_i for every i, each flag signed by the product of its
    orderings' signs.

    The chains sigma of X^n are the points of X^(n+1).  When X^n's index
    order is no linear extension, sigma's vertices are listed by index
    and its orientation differs from v's by the sign of that reordering.
    A d-chain has ((d + 1)!)^(j - n) iterated flags, so BudgetExceeded is
    raised before any walk when their total exceeds poset.DEFAULT_BUDGET.
    The flags stream depth first, one generator per step (_subdivide),
    and the last step is pruned (_fixed_flags).
    """
    t = seq.tower
    vertices = _step(t, n)[0]
    leaves = sum(count * factorial(size) ** (j - n)
                 for size, count in Counter(map(len, vertices)).items())
    if leaves > poset.DEFAULT_BUDGET:
        raise BudgetExceeded(f"lambda({n}, {j}) walks {leaves} flags "
                             f"(budget {poset.DEFAULT_BUDGET})")
    *backs, last = [_step(t, k)[1] for k in range(n, j)]
    f = seq._fpos[j - 1]
    for k in range(j - 2, n - 1, -1):
        f = list(map(seq._fpos[k].__getitem__, f))
    X = t.levels[n]
    if _index_extends(X):
        flags = (((-1) ** (len(c) - 1), c, c) for c in vertices)
    else:
        rank = X._rank
        flags = (((-1) ** (len(c) - 1) * _perm_sign([rank[x] for x in c]), c,
                  tuple(sorted(c, key=rank.__getitem__))) for c in vertices)
    for back in backs:
        flags = _subdivide(flags, back)
    # the top point of c's flags is c itself, so f of it must be v[d]
    return sum(w * _fixed_flags(c, last, f, v) for w, c, v in flags if f[last[c]] == v[-1])


@cache
def _orderings(size):
    """(sgn p, prefix masks) for each ordering p of size positions: the
    i-th mask holds the first i + 1 positions p_0, ..., p_i."""
    return tuple((_perm_sign(p), tuple(accumulate(1 << i for i in p)))
                 for p in permutations(range(size)))


@cache
def _selectors(size):
    """Per mask below 2^size, its bits as compress selectors."""
    return tuple(tuple(mask >> i & 1 for i in range(size)) for mask in range(1 << size))


def _subdivide(flags, back):
    """Sd on weighted chains: a chain c (ascending positions in X^k) of
    weight w gives, per ordering p of its points, its flag of points of
    X^(k+1) (back of each prefix set), of weight w sgn p.  The flag's
    points are ascending, since each holds more vertices than the last.
    Each chain carries v, the vertices of the chain of X^n it comes from."""
    for w, c, v in flags:
        # mask 0, the empty set, is no point
        points = [back.get(tuple(compress(c, bits))) for bits in _selectors(len(c))]
        for sign, masks in _orderings(len(c)):
            yield w * sign, tuple(map(points.__getitem__, masks)), v


def _fixed_flags(c, back, f, v):
    """The signed number of flags of the chain c of X^(j-1) whose i-th
    point f sends to v[i]: the last step of the count, pruned.

    The flag's top point is c itself, so f of it must be v[d]; the
    caller tests that first.  The orderings then grow one position at a
    time, and a prefix of i + 1 positions is kept only while f sends its
    point to v[i].  Both are the leaf condition checked early.  Prefixes
    of one set merge, their signed counts summed; adding position i
    after a prefix adds one inversion per position above i in it.
    """
    size = len(c)
    # the point of X^j that is the singleton {x} is x itself
    counts = {1 << i: 1 for i, x in enumerate(c) if f[x] == v[0]}
    for r in range(1, size):
        grown = {}
        for mask, k in counts.items():
            for i in range(size):
                if not mask >> i & 1:
                    grown[mask | 1 << i] = grown.get(mask | 1 << i, 0) + (
                        -k if (mask >> i).bit_count() & 1 else k)
        counts = {mask: k for mask, k in grown.items() if k and (
            r == size - 1 or f[back[tuple(compress(c, _selectors(size)[mask]))]] == v[r])}
    return counts.get((1 << size) - 1, 0)


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
