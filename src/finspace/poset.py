"""Finite T0 spaces as posets.

A finite T0 topological space and a finite poset are the same data: the
order is x <= y iff every open set containing y contains x, minimal open
sets are down-sets and continuity is order preservation.  Everything here
is immutable after construction.

A poset stores its order once, as index lists and a linear extension
(see FinitePoset).  Raw orders enter through one door,
FinitePoset(elements, matrix) or build_poset(elements, relations); both
turn them into per-point masks of the points below, Python ints, run one
check on those masks and keep only the lists.  Stong cores, of a poset
or of a set of its points (a fiber union), run on those lists too
(_stong_core), and other modules pass point indices.
"""

from bisect import bisect_left
from heapq import heappop, heappush
from itertools import chain, compress, repeat

from .errors import (
    BudgetExceeded,
    CycleError,
    DuplicateElement,
    NotContinuous,
    UnknownElement,
)

DEFAULT_BUDGET = 10 ** 6


class FinitePoset:
    """A finite poset: element ids plus one stored copy of the order.

    Orders are checked once, where raw data enters.  This constructor
    takes a leq matrix (any n x n nested sequence of truthy values,
    leq_matrix[i][j] for x_i <= x_j), rejects duplicate ids and a wrong
    shape, and reads each column into a mask of the points below;
    build_poset closes raw relations into such masks.  _strict_down is
    the one check of both: reflexive, antisymmetric (CycleError) and
    transitive.  Orders derived from a valid one, and face inclusion,
    skip it.

    _fill keeps, per point, the ascending lists of the points strictly
    below (_down) and above (_up), and a linear extension (_order, the
    points by rank; _rank, each point's rank), but no mask.  Ranks extend
    the order, so a set's maximum or minimum is tested on one point's
    list (_extreme).
    """

    __slots__ = ("elements", "_index", "_hash", "_down", "_up", "_order", "_rank")

    def __init__(self, elements, leq_matrix):
        elements = tuple(elements)
        index = {x: i for i, x in enumerate(elements)}
        _check_unique(elements, index)
        n = len(elements)
        down = [0] * n  # down[j]: bit i set iff leq_matrix[i][j]
        cols = range(n)
        for i, row in enumerate(_rows(leq_matrix, n)):
            bit = 1 << i
            for j in compress(cols, row):
                down[j] |= bit
        _fill(self, elements, index, _strict_down(elements, down))

    # -- basic queries ---------------------------------------------------

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, x):
        return x in self._index

    def index(self, x):
        try:
            return self._index[x]
        except KeyError:
            raise UnknownElement(f"unknown element {x!r}") from None

    def leq(self, x, y):
        i, j = self.index(x), self.index(y)
        return i == j or i in self._down[j]

    def lt(self, x, y):
        return x != y and self.leq(x, y)

    def leq_matrix(self):
        """The order as a tuple of n tuples of n bools, built on each call:
        entry [i][j] is whether x_i <= x_j.

        For callers outside the package and for test oracles; the
        constructor takes it back.
        """
        rows = [[False] * len(self) for _ in self.elements]
        for j, down in enumerate(self._down):
            rows[j][j] = True
            for i in down:
                rows[i][j] = True
        return tuple(map(tuple, rows))

    def __eq__(self, other):
        if other is self:
            return True
        if not isinstance(other, FinitePoset):
            return NotImplemented
        if set(self.elements) != set(other.elements):
            return False
        perm = [other._index[x] for x in self.elements]
        theirs = other._down
        return all(theirs[perm[i]] == sorted([perm[j] for j in down])
                   for i, down in enumerate(self._down))

    def __hash__(self):
        # the count of points below an element does not depend on the
        # element order, so equal posets hash equal
        if self._hash is None:
            self._hash = hash(frozenset(zip(self.elements, map(len, self._down))))
        return self._hash

    def __repr__(self):
        return f"FinitePoset({len(self)} elements)"

    # -- order / topology dictionary -------------------------------------

    def down_set(self, x):
        """Minimal open set U_x = {y | y <= x}."""
        return self.strict_down_set(x) | {x}

    def up_set(self, x):
        """Closure F_x = {y | y >= x}."""
        els = self.elements
        return {els[j] for j in self._up[self.index(x)]} | {x}

    def strict_down_set(self, x):
        els = self.elements
        return {els[j] for j in self._down[self.index(x)]}

    def opposite(self):
        """The same points with the order (hence the topology) reversed."""
        return _derived(self.elements, self._up)

    def subposet(self, subset):
        """Induced subposet on the given elements, keeping element order."""
        subset = set(subset)
        keep = sorted({self._index.get(x, -1) for x in subset})
        if keep and keep[0] < 0:
            missing = subset - self._index.keys()
            raise UnknownElement(f"unknown elements {sorted(map(repr, missing))}")
        return self._restrict(keep)

    def _restrict(self, keep):
        """The subposet on the ascending point indices keep."""
        pos = {i: k for k, i in enumerate(keep)}
        down = self._down
        return _derived([self.elements[i] for i in keep],
                        [[pos[j] for j in down[i] if j in pos] for i in keep])

    def maximum(self, subset=None):
        """The maximum of the subset (default: whole space), or None."""
        return self._extremum(subset, max, self._down)

    def minimum(self, subset=None):
        """The minimum of the subset (default: whole space), or None."""
        return self._extremum(subset, min, self._up)

    def _extremum(self, subset, pick, lists):
        """The element _extreme finds among the subset's points, or None."""
        points = set(range(len(self)) if subset is None else map(self.index, subset))
        m = _extreme(self, points, pick, lists) if points else None
        return None if m is None else self.elements[m]

    def linear_extension(self):
        """Elements in a topological order compatible with leq (stable)."""
        return [self.elements[i] for i in self._order]

    # -- chains and Euler characteristic ---------------------------------

    def chains(self, length):
        """All i-chains, i = length, as all_chains lists them: one level of
        the walk, which stops there, and so does its budget."""
        levels, els = self._index_chains(max(length + 1, 0)), self.elements
        level = levels[length] if 0 <= length < len(levels) else []
        return [tuple([els[i] for i in c]) for c in level]

    def all_chains(self):
        """Every nonempty chain, as leq-increasing tuples of elements, in
        lexicographic order of their index tuples (_index_chains, sorted)."""
        els, chains = self.elements, chain.from_iterable(self._index_chains())
        return [tuple([els[i] for i in c]) for c in sorted(chains)]

    def _index_chains(self, depth=None):
        """Every nonempty chain of at most depth points (default: any):
        levels[d] lists those of d + 1 points, leq-increasing index tuples,
        in lexicographic order, each chain of a level extended by the
        points above its last, ascending, within _chain_budget."""
        self._chain_budget(depth)
        level, levels, up = [(i,) for i in range(len(self))], [], self._up
        while level and len(levels) != depth:
            levels.append(level)
            level = [c + (j,) for c in level for j in up[c[-1]]]
        return levels

    def _chain_budget(self, depth=None):
        """BudgetExceeded if more than DEFAULT_BUDGET chains have at most
        depth points, counted (fewer than 2 ** n never are)."""
        if 2 ** len(self) - 1 > DEFAULT_BUDGET and self._chain_count(depth=depth) > DEFAULT_BUDGET:
            raise BudgetExceeded(f"chain enumeration exceeded its budget of {DEFAULT_BUDGET}")

    def _chain_faces(self, levels):
        """The face table (see complexes) of the walk's levels as listed:
        for c = q + (j,), the face omitting j is q, and the one omitting
        k < len(q) the child by j of q's k-th face f, at first[f] plus the
        position of j in the up list of f's last point."""
        up = self._up
        faces, first = [()] * len(self), []
        get, inc, append = first.__getitem__, (1).__add__, faces.append
        for p, c in enumerate(chain.from_iterable(levels)):
            ups, pf = up[c[-1]], faces[p]
            first.append(len(faces))
            if not pf:  # the point p: (p, j) has the faces j and p
                faces += zip(ups, repeat(p))
            elif ups:
                # the faces but the prefix end in c[-1], so their
                # children by ups are numbered from first[face] on
                bs = [*map(get, pf[:-1])]
                fq, uq = first[pf[-1]], up[c[-2]]
                for j in ups:
                    append((*bs, fq + bisect_left(uq, j), p))
                    bs = [*map(inc, bs)]
        return faces

    def _chain_count(self, sign=1, depth=None):
        """The number of nonempty chains, none of them built: the chains
        starting at a point are the point alone and its extensions by the
        chains starting above it (Python ints, so no overflow).  With
        sign=-1 a chain of i + 1 points counts (-1)^i, since extending a
        chain flips its sign, and the sum is the Euler characteristic.
        With a depth, only chains of at most depth points count, by at
        most depth rounds of the recursion over all points."""
        up, starting = self._up, [0] * len(self)
        if depth is None:
            for i in reversed(self._order):
                starting[i] = 1 + sign * sum(map(starting.__getitem__, up[i]))
        else:
            for _ in range(depth):
                shorter = starting
                starting = [1 + sign * sum(map(shorter.__getitem__, ups)) for ups in up]
                if starting == shorter:
                    break
        return sum(starting)

    def euler_characteristic(self):
        """The alternating chain count, with no chain built (_chain_count)."""
        return self._chain_count(-1)

    # -- cover relation ---------------------------------------------------

    def covers(self):
        """Hasse diagram edges (x, y) with x strictly covered by y.

        x < y is a cover iff no point lies above x and below y.
        """
        els, down = self.elements, self._down
        out = []
        for i, up in enumerate(self._up):
            above = set(up)
            out.extend((els[i], els[j]) for j in up if above.isdisjoint(down[j]))
        return out

    # -- Stong core -------------------------------------------------------

    def core(self):
        """Iteratively remove beat points; the result is a minimal model.

        A point is a down-beat point if its strict down-set has a maximum,
        an up-beat point if its strict up-set has a minimum.  The beat
        points go lowest element position first, for reproducibility, and
        a poset that has none is returned itself.  Otherwise _stong_core,
        the one beat-point worklist, runs on the order's lists of all
        points, and the poset is restricted once.
        """
        n = len(self)
        if n < 2:
            return self
        keep = _stong_core(self, range(n))
        return self if len(keep) == n else self._restrict(keep)

    def is_contractible(self):
        return len(self.core()) == 1


def _bits(mask):
    """The positions of the set bits of an int, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _values_above(Y, allowed, values):
    """Ascending indices of the points of the index set allowed that lie at
    or above every point index in values: the candidate values in Y at a
    point of a monotone map whose strict predecessors took the given
    values.
    """
    up = Y._up
    for v in values:
        above = allowed.intersection(up[v])
        if v in allowed:
            above.add(v)
        allowed = above
    return sorted(allowed)


def _extreme(P, points, pick, lists):
    """The one of the nonempty, distinct point indices points that pick
    (max or min) takes by rank, if every other point is in its list (down
    or up), else None: ranks extend the order, so no other point can
    qualify.  No mask is built."""
    m, others = pick(points, key=P._rank.__getitem__), len(points) - 1
    inside = others <= len(lists[m]) and len(set(lists[m]).intersection(points)) == others
    return m if inside else None


def _cone_or_core(P, points):
    """None if the point indices points of P (a sequence) have a maximum
    or a minimum (a cone), else the sorted indices of their Stong core.
    Both extremes are tested by _extreme before the worklist runs."""
    if (_extreme(P, points, max, P._down) is not None
            or _extreme(P, points, min, P._up) is not None):
        return None
    return _stong_core(P, points)


def _stong_core(P, points):
    """Sorted indices of the Stong core of the distinct point indices
    points of P, read once; no subposet is built.

    The set's down lists are restricted to it once, in local index
    order, and its up lists derived from them.  Per live point the
    counts of live points strictly below and above it are kept.  y is a
    down-beat point iff a live m below it has one live point fewer below
    it than y: the live points below m are below y and differ from m,
    so with m they are all those below y, and m is their maximum.  The
    up test is dual; a removed point's counts become -2, which no live
    count less one equals.

    Every point starts queued and is tested in its turn, in index order.
    Only removing a point comparable to y can make y a beat point, and a
    removal changes only the counts of the live points comparable to it;
    those already tested it queues again, in a heap tested lowest first
    before the next turn.  So the first queued point that tests as a
    beat point is the lowest-index one, as FinitePoset.core promises.
    """
    keep = sorted(points)
    local_of = dict(zip(keep, range(len(keep)))).get
    down, up = [], [[] for _ in keep]
    for k, i in enumerate(keep):
        below = []
        for j in P._down[i]:
            m = local_of(j)
            if m is not None:
                below.append(m)
                up[m].append(k)
        down.append(below)
    n_below, n_above = list(map(len, down)), list(map(len, up))
    below_of, above_of = n_below.__getitem__, n_above.__getitem__
    live, queued = bytearray(b"\1") * len(keep), bytearray(b"\1") * len(keep)
    heap = []
    for turn in range(len(keep)):
        heap.append(turn)  # the heap is empty at each turn
        while heap:
            y = heappop(heap)
            queued[y] = 0
            if not (below_of(y) - 1 in map(below_of, down[y])
                    or above_of(y) - 1 in map(above_of, up[y])):
                continue
            live[y] = 0
            n_below[y] = n_above[y] = -2
            for near, counts in ((down[y], n_above), (up[y], n_below)):
                for m in near:
                    if live[m]:
                        counts[m] -= 1
                        if not queued[m]:
                            queued[m] = 1
                            heappush(heap, m)
    return list(compress(keep, live))


def _check_unique(elements, index):
    """Raise DuplicateElement for the first id listed twice; index maps
    each id to its last position."""
    if len(index) != len(elements):
        dup = next(x for i, x in enumerate(elements) if index[x] != i)
        raise DuplicateElement(f"duplicate element {dup!r}")


def _rows(matrix, n):
    """The rows of an n x n nested sequence; ValueError for any other shape."""
    try:
        rows = list(matrix)
        if len(rows) == n and all(len(row) == n for row in rows):
            return rows
    except TypeError:  # not a nested sequence
        pass
    raise ValueError("leq matrix shape does not match element count")


def _strict_down(elements, down):
    """Check a raw order and return, per point, the ascending indices of
    the points strictly below it.

    down[j] is the mask of the points i with x_i <= x_j (bit i), so
    row i of the order's matrix is the set of masks holding bit i.  The
    order must be reflexive (bit j of down[j]), antisymmetric and
    transitive (i <= j implies down[i] is inside down[j]: one AND per
    comparable pair).  A cycle is reported at the first pair i != j,
    row-major, with x_i <= x_j and x_j <= x_i.  The three checks run in
    that order, each over all points, so a matrix that has a cycle and
    is not transitive either raises CycleError.
    """
    for j, below in enumerate(down):
        if not below >> j & 1:
            raise ValueError("leq is not reflexive")
    transitive = True
    for i, below in enumerate(down):
        for j in _bits(below ^ 1 << i):  # x_j <= x_i, ascending
            if down[j] >> i & 1:
                raise CycleError(f"cycle through {elements[i]!r} and {elements[j]!r}")
            transitive = transitive and not down[j] & ~below
    if not transitive:
        raise ValueError("leq is not transitive")
    return [_bits(below ^ 1 << j) for j, below in enumerate(down)]


def _fill(P, elements, index, down):
    """Fill the slots of the poset P from down, per point the ascending
    list of the indices of the points strictly below it.

    A point has fewer points below it than any point above it, so sorting
    by that count (stably, ties by index) is a linear extension.  The up
    lists come out ascending because the points are visited in index order.
    """
    P.elements, P._index, P._hash, P._down = elements, index, None, down
    P._order = order = sorted(range(len(down)), key=[*map(len, down)].__getitem__)
    P._rank = sorted(range(len(down)), key=order.__getitem__)  # its inverse
    P._up = up = [[] for _ in down]
    for i, below in enumerate(down):
        for j in below:
            up[j].append(i)
    return P


def _derived(elements, down):
    """A poset on an order that is one by construction, taken without a check.

    down[i] lists, ascending, the indices of the points strictly below
    point i.
    """
    elements = tuple(elements)
    index = {x: i for i, x in enumerate(elements)}
    return _fill(object.__new__(FinitePoset), elements, index, down)


def product_subposet(X, Y, pairs):
    """Distinct pairs (x, y) of X x Y under the (already valid) product order.

    The pairs below (x, y) are those whose first part is <= x and whose
    second part is <= y: two masks over the pair positions, ANDed.
    """
    ix = [X.index(x) for x, _ in pairs]
    iy = [Y.index(y) for _, y in pairs]
    firsts, seconds = _pairs_at_or_below(X, ix), _pairs_at_or_below(Y, iy)
    return _derived(pairs, [_bits(firsts[i] & seconds[j] & ~(1 << k))
                            for k, (i, j) in enumerate(zip(ix, iy))])


def _pairs_at_or_below(P, idx):
    """Per point p of P, the mask of the positions k with idx[k] <= p."""
    at = [0] * len(P)
    for k, i in enumerate(idx):
        at[i] |= 1 << k
    out = at[:]
    for i, down in enumerate(P._down):
        for j in down:
            out[i] |= at[j]
    return out


def build_poset(elements, relations):
    """Build a FinitePoset from raw relations (pairs meaning x < y).

    Undeclared ids raise UnknownElement, then duplicate ids
    DuplicateElement, then the first relation (x, x), a cycle of length
    one, CycleError naming x.  The relations are closed reflexively and
    transitively on the masks of the points below each point (Warshall:
    for each k, every mask holding bit k takes in the mask of k) and
    checked by _strict_down, as a raw matrix is; the points of a longer
    cycle end up below each other, so it raises CycleError too.
    """
    elements = tuple(elements)
    index = {x: i for i, x in enumerate(elements)}
    down = [1 << i for i in range(len(elements))]
    loops = []
    for a, b in relations:
        for x in (a, b):
            if x not in index:
                raise UnknownElement(f"relation references undeclared element {x!r}")
        if a == b:
            loops.append(a)
        down[index[b]] |= 1 << index[a]
    _check_unique(elements, index)
    if loops:
        raise CycleError(f"cycle through {loops[0]!r}")
    for k, below_k in enumerate(down):
        bit = 1 << k
        for j, below in enumerate(down):
            if below & bit:
                down[j] = below | below_k
    return _fill(object.__new__(FinitePoset), elements, index, _strict_down(elements, down))


min_open_set, min_closed_set = FinitePoset.down_set, FinitePoset.up_set


class PosetMap:
    """A function between posets; continuity means order preservation.

    A map stores its values once, in the private slot _pos: _pos[i] is
    the index in target of the image of source point i, so every map
    lives in the index space of its two posets.  This constructor, the
    only door for an element dict, checks that every source point has a
    value in the target; maps the package derives from valid data are
    built from positions by _map, unchecked.  assignment is a fresh dict
    {x: f(x)} on each read.

    A map is immutable, hashed and compared by value.  Its Vietoris-like
    certificate, a pure function of it, is computed at most once:
    maps.is_vietoris_like_map keeps it in the slot _certificate (None
    until then).
    """

    __slots__ = ("source", "target", "_pos", "_certificate")

    def __init__(self, source, target, assignment):
        assignment = dict(assignment)
        pos = []
        for x in source.elements:
            if x not in assignment:
                raise UnknownElement(f"no value assigned to {x!r}")
            y = assignment[x]
            if y not in target:
                raise UnknownElement(f"value {y!r} not in target")
            pos.append(target._index[y])
        _fill_map(self, source, target, pos)

    @property
    def assignment(self):
        els = self.target.elements
        return {x: els[j] for x, j in zip(self.source.elements, self._pos)}

    def __call__(self, x):
        return self.target.elements[self._pos[self.source.index(x)]]

    def __eq__(self, other):
        if not isinstance(other, PosetMap):
            return NotImplemented
        return (
            self.source == other.source
            and self.target == other.target
            and self.assignment == other.assignment
        )

    def __hash__(self):
        return hash(frozenset(self.assignment.items()))

    def __repr__(self):
        return f"PosetMap({self.assignment})"

    def then(self, g):
        """Composition g o self (apply self first): a gather of positions.

        g's positions are re-indexed only when g.source is an equal poset
        listed in another element order than self.target.
        """
        if g.source != self.target:
            raise ValueError("maps are not composable")
        gpos = _positions(g, self.target.elements, g.target.elements, g.target._index)
        return _map(self.source, g.target, [gpos[j] for j in self._pos])

    def image(self):
        return set(self.assignment.values())

    def is_surjective(self):
        return len(set(self._pos)) == len(self.target)

    def preimage(self, y):
        j = self.target.index(y)
        return {x for x, k in zip(self.source.elements, self._pos) if k == j}

    def fibers(self):
        """{y: preimage(y)} for every y of the target, in one pass."""
        out = [set() for _ in self.target.elements]
        for x, j in zip(self.source.elements, self._pos):
            out[j].add(x)
        return dict(zip(self.target.elements, out))

    def fixed_points(self):
        if self.source != self.target:
            raise ValueError("fixed points need an endomorphism")
        return [x for x, fx in self.assignment.items() if fx == x]


def _fill_map(f, source, target, pos):
    f.source, f.target, f._pos, f._certificate = source, target, tuple(pos), None
    return f


def _positions(f, elements, target_elements, target_index):
    """f's positions for its source listed as elements and its target as
    target_elements, with target_index the position of each target point.

    The listings are those of posets equal to f.source and f.target,
    maybe in another element order; each side is re-indexed only when
    its listing differs, and f._pos itself comes back when both agree.
    """
    pos = f._pos
    if elements != f.source.elements:
        index = f.source._index
        pos = [pos[index[x]] for x in elements]
    if target_elements != f.target.elements:
        values = f.target.elements
        pos = [target_index[values[j]] for j in pos]
    return pos


def _map(source, target, pos):
    """The map sending source point i to target point pos[i], taken
    without a check."""
    return _fill_map(object.__new__(PosetMap), source, target, pos)


def identity_map(X):
    return _map(X, X, range(len(X)))


def constant_map(X, Y, y):
    return PosetMap(X, Y, {x: y for x in X.elements})


def check_continuous(f):
    """(True, None) if order-preserving, else (False, first violating pair).

    Pairs are scanned row-major in source element order.
    """
    X, down, idx = f.source, f.target._down, f._pos
    for i, up in enumerate(X._up):
        a = idx[i]
        for j in up:
            if a != idx[j] and a not in down[idx[j]]:
                return False, (X.elements[i], X.elements[j])
    return True, None


def require_continuous(f):
    ok, pair = check_continuous(f)
    if not ok:
        raise NotContinuous(f"map not order-preserving at pair {pair!r}", pair=pair)
    return f


def order_preserving_maps(X, Y, candidates, budget=DEFAULT_BUDGET):
    """Lazily yield every order-preserving f: X -> Y with f(x) in candidates(x).

    Backtracks, with an explicit stack of value iterators, over the
    points of X in linear-extension order (X._order), so a point's
    strict predecessors are assigned before it.  Values are tried in
    Y.index order and kept only above the values of all strict
    predecessors.  Every kept value counts against the budget; the one
    after the budget-th raises BudgetExceeded.
    """
    order, preds = X._order, X._down
    allowed = [set(map(Y.index, candidates(X.elements[i]))) for i in order]
    value = [None] * len(X)  # point of X -> index of its value in Y
    stack = []
    expanded = 0
    while True:
        i = len(stack)
        if i == len(order):
            yield _map(X, Y, value)
        else:
            values = [value[p] for p in preds[order[i]]]
            stack.append(iter(_values_above(Y, allowed[i], values)))
        while stack:
            j = next(stack[-1], None)
            if j is not None:
                break
            stack.pop()
        else:
            return
        expanded += 1
        if expanded > budget:
            raise BudgetExceeded(
                f"order-preserving map search exceeded its budget of {budget}"
            )
        value[order[len(stack) - 1]] = j


def are_homotopic(f, g, budget=DEFAULT_BUDGET):
    """Whether f and g are joined by a fence of continuous comparable maps.

    Breadth-first search over the comparability graph of continuous maps;
    the neighbours of m are the maps below m (values in down_set(m(x)))
    and above it.  Each neighbour search runs under the budget, and so
    does the count of neighbours generated over the whole search: too
    large a search raises BudgetExceeded rather than a silent False.
    """
    if f.source != g.source or f.target != g.target:
        raise ValueError("maps must share source and target")
    require_continuous(f)
    require_continuous(g)
    if f == g:
        return True
    X, Y = f.source, f.target

    def key(m):
        return tuple(m(x) for x in X.elements)

    generated = 0
    seen = {key(f)}
    frontier = [f]
    target_key = key(g)
    while frontier:
        nxt = []
        for m in frontier:
            for bound in (Y.down_set, Y.up_set):
                for nb in order_preserving_maps(X, Y, lambda x: bound(m(x)), budget):
                    generated += 1
                    if generated > budget:
                        raise BudgetExceeded("homotopy fence search budget exhausted")
                    k = key(nb)
                    if k == target_key:
                        return True
                    if k not in seen:
                        seen.add(k)
                        nxt.append(nb)
        frontier = nxt
    return False


def all_monotone_maps(X, Y, budget=DEFAULT_BUDGET):
    """Every continuous map X -> Y, in order_preserving_maps order."""
    return list(order_preserving_maps(X, Y, lambda x: Y.elements, budget))
