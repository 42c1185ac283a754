"""Finite T0 spaces as posets.

A finite T0 topological space and a finite poset are the same data: the
order is x <= y iff every open set containing y contains x, minimal open
sets are down-sets and continuity is order preservation.  Everything here
is immutable after construction.
"""

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

    The matrix is reflexive, antisymmetric and transitive; construction
    via :func:`build_poset` closes arbitrary relations and rejects cycles.
    """

    __slots__ = ("elements", "_index", "_leq", "_hash")

    def __init__(self, elements, leq_matrix):
        self.elements = tuple(elements)
        self._index = {x: i for i, x in enumerate(self.elements)}
        if len(self._index) != len(self.elements):
            raise DuplicateElement("duplicate element ids")
        leq = np.asarray(leq_matrix, dtype=bool)
        n = len(self.elements)
        if leq.shape != (n, n):
            raise ValueError("leq matrix shape does not match element count")
        if not leq.diagonal().all():
            raise ValueError("leq is not reflexive")
        both = leq & leq.T
        if (both & ~np.eye(n, dtype=bool)).any():
            i, j = np.argwhere(both & ~np.eye(n, dtype=bool))[0]
            raise CycleError(
                f"antisymmetry fails: {self.elements[i]!r} and {self.elements[j]!r}"
            )
        closed = _transitive_closure(leq)
        if not np.array_equal(closed, leq):
            raise ValueError("leq is not transitive")
        leq.setflags(write=False)
        self._leq = leq
        self._hash = None

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
        return np.array_equal(self._leq, other._leq[np.ix_(perm, perm)])

    def __hash__(self):
        if self._hash is None:
            rels = frozenset(
                (x, y)
                for i, x in enumerate(self.elements)
                for j, y in enumerate(self.elements)
                if self._leq[i, j]
            )
            self._hash = hash((frozenset(self.elements), rels))
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

    def strict_up_set(self, x):
        return self.up_set(x) - {x}

    def opposite(self):
        """The same points with the order (hence the topology) reversed."""
        return FinitePoset(self.elements, self._leq.T.copy())

    def subposet(self, subset):
        """Induced subposet on the given elements, keeping element order."""
        keep = [i for i, x in enumerate(self.elements) if x in subset]
        missing = set(subset) - set(self.elements)
        if missing:
            raise UnknownElement(f"unknown elements {sorted(map(repr, missing))}")
        els = [self.elements[i] for i in keep]
        return FinitePoset(els, self._leq[np.ix_(keep, keep)].copy())

    def maximum(self, subset=None):
        """The maximum of the subset (default: whole space), or None."""
        cand = list(subset) if subset is not None else list(self.elements)
        for m in cand:
            if all(self.leq(y, m) for y in cand):
                return m
        return None

    def minimum(self, subset=None):
        cand = list(subset) if subset is not None else list(self.elements)
        for m in cand:
            if all(self.leq(m, y) for y in cand):
                return m
        return None

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

        Enumeration order is deterministic: depth-first from each element
        in element order, extending to strictly greater elements.
        """
        n = len(self)
        strict = self._leq & ~np.eye(n, dtype=bool)
        succ = [list(np.flatnonzero(strict[i, :])) for i in range(n)]
        out = []

        def extend(prefix, last):
            out.append(prefix)
            for j in succ[last]:
                extend(prefix + (self.elements[j],), j)

        for i in range(n):
            extend((self.elements[i],), i)
        return out

    def euler_characteristic(self):
        """Alternating sum of the chain counts per length."""
        chi = 0
        for c in self.all_chains():
            chi += -1 if len(c) % 2 == 0 else 1
        return chi

    # -- cover relation ---------------------------------------------------

    def covers(self):
        """Hasse diagram edges (x, y) with x strictly covered by y."""
        n = len(self)
        strict = self._leq & ~np.eye(n, dtype=bool)
        via = strict @ strict  # boolean product: no fixed-width counts to wrap
        cov = strict & ~via
        return [
            (self.elements[i], self.elements[j])
            for i in range(n)
            for j in range(n)
            if cov[i, j]
        ]

    # -- Stong core -------------------------------------------------------

    def core(self):
        """Iteratively remove beat points; the result is a minimal model.

        A point is a down-beat point if its strict down-set has a maximum,
        an up-beat point if its strict up-set has a minimum.  Removal order
        is lowest element position first, for reproducibility.
        """
        current = self
        while True:
            beat = None
            for x in current.elements:
                down = current.strict_down_set(x)
                if down and current.maximum(down) is not None:
                    beat = x
                    break
                up = current.strict_up_set(x)
                if up and current.minimum(up) is not None:
                    beat = x
                    break
            if beat is None:
                return current
            current = current.subposet(set(current.elements) - {beat})

    def is_contractible(self):
        return len(self.core()) == 1


def _transitive_closure(mat):
    reach = mat.astype(bool)
    while True:
        new = (reach @ reach) | reach  # boolean product: no counts to wrap
        if np.array_equal(new, reach):
            return reach
        reach = new


def build_poset(elements, relations):
    """Build a FinitePoset from raw relations (pairs meaning x < y).

    The relations are closed reflexively and transitively; a cycle raises
    CycleError, duplicate ids DuplicateElement, undeclared ids
    UnknownElement.
    """
    elements = list(elements)
    index = {x: i for i, x in enumerate(elements)}
    if len(index) != len(elements):
        seen = set()
        for x in elements:
            if x in seen:
                raise DuplicateElement(f"duplicate element {x!r}")
            seen.add(x)
    n = len(elements)
    mat = np.eye(n, dtype=bool)
    for a, b in relations:
        if a not in index:
            raise UnknownElement(f"relation references undeclared element {a!r}")
        if b not in index:
            raise UnknownElement(f"relation references undeclared element {b!r}")
        mat[index[a], index[b]] = True
    closed = _transitive_closure(mat)
    both = closed & closed.T & ~np.eye(n, dtype=bool)
    if both.any():
        i, j = np.argwhere(both)[0]
        raise CycleError(f"cycle through {elements[i]!r} and {elements[j]!r}")
    return FinitePoset(elements, closed)


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
    bad = np.argwhere(X._leq & ~Y._leq[np.ix_(idx, idx)])
    if len(bad):
        i, j = bad[0]
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
