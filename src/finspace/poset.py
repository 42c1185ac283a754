"""Finite T0 spaces as posets.

A finite T0 topological space and a finite poset are the same data: the
order is x <= y iff every open set containing y contains x, minimal open
sets are down-sets and continuity is order preservation.  Everything here
is immutable after construction.
"""

import heapq

import numpy as np

from .errors import (
    BudgetExceeded,
    CycleError,
    DuplicateElement,
    NotContinuous,
    UnknownElement,
)

DEFAULT_BUDGET = 10 ** 6


class FinitePoset:
    """A finite poset: element ids plus a dense boolean leq matrix.

    Orders are checked once, where raw data enters: this constructor
    rejects duplicate ids and a matrix of the wrong shape or not
    reflexive, antisymmetric (CycleError) and transitive; build_poset
    closes raw relations and hands them here.  Orders derived from a
    valid one (subposet, opposite, core, product_subposet) and face
    inclusion (complexes.face_poset), a partial order by construction,
    skip the check.
    """

    __slots__ = ("elements", "_index", "_leq", "_hash")

    def __init__(self, elements, leq_matrix):
        elements = tuple(elements)
        index = {x: i for i, x in enumerate(elements)}
        if len(index) != len(elements):
            dup = next(x for i, x in enumerate(elements) if index[x] != i)
            raise DuplicateElement(f"duplicate element {dup!r}")
        leq = np.asarray(leq_matrix, dtype=bool)
        n = len(elements)
        if leq.shape != (n, n):
            raise ValueError("leq matrix shape does not match element count")
        if not leq.diagonal().all():
            raise ValueError("leq is not reflexive")
        both = np.argwhere(leq & leq.T & ~np.eye(n, dtype=bool))
        if len(both):
            i, j = both[0]
            raise CycleError(f"cycle through {elements[i]!r} and {elements[j]!r}")
        if (leq @ leq & ~leq).any():  # boolean product: no counts to wrap
            raise ValueError("leq is not transitive")
        _fill(self, elements, index, leq)

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
        return bool(self._leq[self.index(x), self.index(y)])

    def lt(self, x, y):
        return x != y and self.leq(x, y)

    def leq_matrix(self):
        return self._leq

    def __eq__(self, other):
        if not isinstance(other, FinitePoset):
            return NotImplemented
        if set(self.elements) != set(other.elements):
            return False
        perm = [other._index[x] for x in self.elements]
        return np.array_equal(self._leq, _gather(other._leq, perm))

    def __hash__(self):
        if self._hash is None:
            els = self.elements
            rels = frozenset((els[i], els[j]) for i, j in np.argwhere(self._leq))
            self._hash = hash((frozenset(els), rels))
        return self._hash

    def __repr__(self):
        return f"FinitePoset({len(self)} elements)"

    # -- order / topology dictionary -------------------------------------

    def down_set(self, x):
        """Minimal open set U_x = {y | y <= x}."""
        i = self.index(x)
        return {self.elements[j] for j in np.flatnonzero(self._leq[:, i])}

    def up_set(self, x):
        """Closure F_x = {y | y >= x}."""
        i = self.index(x)
        return {self.elements[j] for j in np.flatnonzero(self._leq[i, :])}

    def strict_down_set(self, x):
        return self.down_set(x) - {x}

    def opposite(self):
        """The same points with the order (hence the topology) reversed."""
        return _derived(self.elements, self._leq.T.copy())

    def subposet(self, subset):
        """Induced subposet on the given elements, keeping element order."""
        keep = sorted({self._index.get(x, -1) for x in subset})
        if keep and keep[0] < 0:
            missing = set(subset) - self._index.keys()
            raise UnknownElement(f"unknown elements {sorted(map(repr, missing))}")
        return self._restrict(keep)

    def _restrict(self, keep):
        return _derived([self.elements[i] for i in keep], _gather(self._leq, keep))

    def maximum(self, subset=None):
        """The maximum of the subset (default: whole space), or None."""
        return self._extremum(self._leq, subset)

    def minimum(self, subset=None):
        """The minimum of the subset (default: whole space), or None."""
        return self._extremum(self._leq.T, subset)

    def _extremum(self, leq, subset):
        """The m of the subset with leq[y, m] for every y in it, or None."""
        idx = np.arange(len(self)) if subset is None else np.array(
            [self.index(x) for x in subset], dtype=np.intp)
        hit = np.flatnonzero(leq[idx[:, None], idx].all(axis=0))
        return self.elements[idx[hit[0]]] if len(hit) else None

    def linear_extension(self):
        """Elements in a topological order compatible with leq (stable)."""
        order = sorted(range(len(self)), key=lambda i: (int(self._leq[:, i].sum()), i))
        return [self.elements[i] for i in order]

    # -- chains and Euler characteristic ---------------------------------

    def chains(self, length):
        """All i-chains, i = length: strictly increasing (i+1)-tuples."""
        return [c for c in self.all_chains() if len(c) == length + 1]

    def all_chains(self):
        """Every nonempty chain, as leq-increasing tuples.

        Deterministic depth-first preorder (an explicit stack, no recursion)
        from each element in element order, extending to strictly greater
        elements.  The chains are counted before any is built: more than
        DEFAULT_BUDGET raise BudgetExceeded.
        """
        els = self.elements
        strict = self._leq & ~np.eye(len(els), dtype=bool)
        succ = [np.flatnonzero(row)[::-1].tolist() for row in strict]
        if 2 ** len(els) - 1 > DEFAULT_BUDGET:  # else no poset can exceed it
            # chains starting at x: 1 + those starting above x (Python ints)
            starting = [0] * len(els)
            for x in reversed(self.linear_extension()):
                i = self.index(x)
                starting[i] = 1 + sum(starting[j] for j in succ[i])
            if sum(starting) > DEFAULT_BUDGET:
                raise BudgetExceeded(
                    f"chain enumeration exceeded its budget of {DEFAULT_BUDGET}"
                )
        stack = [((els[i],), i) for i in reversed(range(len(els)))]
        out = []
        while stack:
            prefix, last = stack.pop()
            out.append(prefix)
            stack.extend((prefix + (els[j],), j) for j in succ[last])
        return out

    def euler_characteristic(self):
        """Alternating sum of the chain counts per length."""
        return sum(1 if len(c) % 2 else -1 for c in self.all_chains())

    # -- cover relation ---------------------------------------------------

    def covers(self):
        """Hasse diagram edges (x, y) with x strictly covered by y."""
        els = self.elements
        strict = self._leq & ~np.eye(len(els), dtype=bool)
        via = strict @ strict  # boolean product: no fixed-width counts to wrap
        return [(els[i], els[j]) for i, j in np.argwhere(strict & ~via)]

    # -- Stong core -------------------------------------------------------

    def core(self):
        """Iteratively remove beat points; the result is a minimal model.

        A point is a down-beat point if its strict down-set has a maximum,
        an up-beat point if its strict up-set has a minimum.  The beat
        points go lowest element position first, for reproducibility, and
        a poset that has none (such as any poset of fewer than two points)
        is returned itself.  Otherwise _stong_core, the one beat-point
        worklist, runs on all points and the matrix is restricted once.
        """
        n = len(self)
        if n < 2:
            return self
        keep = _stong_core(*_strict_neighbours(self._leq), set(range(n)))
        return self if len(keep) == n else self._restrict(keep)

    def is_contractible(self):
        return len(self.core()) == 1


def _strict_neighbours(leq):
    """(below, above): per point index, the indices strictly below and above it."""
    n = len(leq)
    below = [set() for _ in range(n)]
    above = [set() for _ in range(n)]
    rows, cols = np.divmod(np.flatnonzero(leq), n)  # 2-D nonzero is far slower
    for i, j in zip(rows.tolist(), cols.tolist()):
        if i != j:
            above[i].add(j)
            below[j].add(i)
    return below, above


def _stong_core(below, above, keep):
    """Sorted indices of the Stong core of the points `keep` of a poset.

    below and above are the poset's _strict_neighbours and keep is a set of
    its point indices, so the core of any subposet is found without
    building it.  Beat points are removed lowest index first, which is
    lowest position first in the subposet, as FinitePoset.core promises.

    Each point keeps the sets of live points strictly below and above it,
    and a heap holds the beat points.  x is a down-beat point iff some
    m < x has one point fewer below it (then m is the maximum below x);
    dually for up-beat points.  Removing x re-tests only the points
    comparable to x: a down-beat test reads the points below y and their
    counts, which change only if x < y, and dually an up-beat test
    changes only if y < x.
    """
    lo = {y: below[y] & keep for y in keep}  # live points strictly below
    hi = {y: above[y] & keep for y in keep}  # live points strictly above
    down = {y: _has_extremum(lo, y) for y in keep}
    up = {y: _has_extremum(hi, y) for y in keep}
    heap = sorted(y for y in keep if down[y] or up[y])  # sorted: a heap
    alive = set(keep)
    while heap:
        x = heapq.heappop(heap)
        if not (down[x] or up[x]):
            continue  # stale entry: x stopped being a beat point
        down[x] = up[x] = False
        alive.remove(x)
        for y in hi[x]:
            lo[y].discard(x)
        for y in lo[x]:
            hi[y].discard(x)
        for flags, sets, ys in ((down, lo, hi[x]), (up, hi, lo[x])):
            for y in ys:
                was = down[y] or up[y]
                flags[y] = _has_extremum(sets, y)
                if flags[y] and not was:
                    heapq.heappush(heap, y)
    return sorted(alive)


def _has_extremum(sets, y):
    """Whether sets[y] (the points below or above y) has a greatest or least point.

    A j in sets[y] is that point iff its own set is sets[y] minus j, that
    is, iff it has one point fewer.
    """
    return len(sets[y]) - 1 in map(len, map(sets.__getitem__, sets[y]))


def _transitive_closure(mat):
    reach = mat.astype(bool)
    while True:
        new = (reach @ reach) | reach  # boolean product: no counts to wrap
        if np.array_equal(new, reach):
            return reach
        reach = new


def _fill(P, elements, index, leq):
    leq.setflags(write=False)
    P.elements, P._index, P._leq, P._hash = elements, index, leq, None
    return P


def _gather(leq, idx):
    """leq[idx][:, idx]: two takes, several times faster than np.ix_ indexing."""
    return leq.take(idx, axis=0).take(idx, axis=1)


def _derived(elements, leq):
    """A poset on an order that is one by construction, taken without a check."""
    elements = tuple(elements)
    index = {x: i for i, x in enumerate(elements)}
    return _fill(object.__new__(FinitePoset), elements, index, leq)


def product_subposet(X, Y, pairs):
    """Distinct pairs (x, y) of X x Y under the (already valid) product order."""
    ix = [X.index(x) for x, _ in pairs]
    iy = [Y.index(y) for _, y in pairs]
    return _derived(pairs, _gather(X._leq, ix) & _gather(Y._leq, iy))


def build_poset(elements, relations):
    """Build a FinitePoset from raw relations (pairs meaning x < y).

    The relations are closed reflexively and transitively and handed to
    the FinitePoset constructor, which raises CycleError for a cycle and
    DuplicateElement for duplicate ids; undeclared ids raise
    UnknownElement.
    """
    elements = list(elements)
    index = {x: i for i, x in enumerate(elements)}
    mat = np.eye(len(elements), dtype=bool)
    for a, b in relations:
        for x in (a, b):
            if x not in index:
                raise UnknownElement(f"relation references undeclared element {x!r}")
        mat[index[a], index[b]] = True
    return FinitePoset(elements, _transitive_closure(mat))


def min_open_set(X, x):
    return X.down_set(x)


def min_closed_set(X, x):
    return X.up_set(x)


class PosetMap:
    """A function between posets; continuity means order preservation."""

    __slots__ = ("source", "target", "assignment")

    def __init__(self, source, target, assignment):
        self.source = source
        self.target = target
        assignment = dict(assignment)
        for x in source.elements:
            if x not in assignment:
                raise UnknownElement(f"no value assigned to {x!r}")
            y = assignment[x]
            if y not in target:
                raise UnknownElement(f"value {y!r} not in target")
        self.assignment = {x: assignment[x] for x in source.elements}

    def __call__(self, x):
        try:
            return self.assignment[x]
        except KeyError:
            raise UnknownElement(f"unknown element {x!r}") from None

    def __eq__(self, other):
        if not isinstance(other, PosetMap):
            return NotImplemented
        return (
            self.source == other.source
            and self.target == other.target
            and self.assignment == other.assignment
        )

    def __hash__(self):
        return hash((self.source, self.target, tuple(sorted(
            self.assignment.items(), key=lambda kv: repr(kv)))))

    def __repr__(self):
        return f"PosetMap({self.assignment})"

    def then(self, g):
        """Composition g o self (apply self first)."""
        if g.source != self.target:
            raise ValueError("maps are not composable")
        return PosetMap(
            self.source, g.target, {x: g(self(x)) for x in self.source.elements}
        )

    def image(self):
        return set(self.assignment.values())

    def is_surjective(self):
        return self.image() == set(self.target.elements)

    def preimage(self, y):
        return {x for x in self.source.elements if self(x) == y}

    def fibers(self):
        """{y: preimage(y)} for every y of the target, in one pass."""
        out = {y: set() for y in self.target.elements}
        for x, y in self.assignment.items():
            out[y].add(x)
        return out

    def fixed_points(self):
        if self.source != self.target:
            raise ValueError("fixed points need an endomorphism")
        return [x for x in self.source.elements if self(x) == x]


def identity_map(X):
    return PosetMap(X, X, {x: x for x in X.elements})


def constant_map(X, Y, y):
    return PosetMap(X, Y, {x: y for x in X.elements})


def check_continuous(f):
    """(True, None) if order-preserving, else (False, first violating pair).

    Pairs are scanned row-major in source element order.
    """
    X, Y = f.source, f.target
    idx = [Y.index(f(x)) for x in X.elements]
    mask = X._leq & ~_gather(Y._leq, idx)
    if mask.any():
        i, j = np.argwhere(mask)[0]
        return False, (X.elements[i], X.elements[j])
    return True, None


def require_continuous(f):
    ok, pair = check_continuous(f)
    if not ok:
        raise NotContinuous(f"map not order-preserving at pair {pair!r}", pair=pair)
    return f


def extension_plan(X):
    """A linear extension of X and, per point, its strict predecessors.

    A linear extension lists every strict predecessor of x before x, so a
    left-to-right assignment has always fixed them when x is reached.
    """
    order = X.linear_extension()
    return order, {x: X.strict_down_set(x) for x in order}


def order_preserving_maps(X, Y, candidates, budget=DEFAULT_BUDGET):
    """Lazily yield every order-preserving f: X -> Y with f(x) in candidates(x).

    Backtracks over X in extension_plan order with an explicit stack of
    value iterators, so the depth of X costs no recursion.  Values are
    tried in Y.index order; a value is kept only if it lies above the
    values of all strict predecessors.  Every kept value (a partial
    assignment expanded by one point) counts against the budget, and the
    assignment after the budget-th one raises BudgetExceeded.
    """
    order, preds = extension_plan(X)
    leq = Y.leq_matrix()
    allowed = []
    for x in order:
        mask = np.zeros(len(Y), dtype=bool)
        mask[[Y.index(y) for y in candidates(x)]] = True
        allowed.append(mask)
    value = {}  # point of X -> index of its value in Y
    stack = []
    expanded = 0
    while True:
        i = len(stack)
        if i == len(order):
            yield PosetMap(X, Y, {x: Y.elements[value[x]] for x in order})
        else:
            mask = allowed[i].copy()
            for p in preds[order[i]]:
                mask &= leq[value[p]]
            stack.append(iter(np.flatnonzero(mask).tolist()))
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
