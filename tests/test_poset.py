"""Finite posets as T0 spaces: order, topology, cores, homotopy."""

import heapq
import itertools
import math
import random
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from finspace import poset
from finspace.errors import (
    BudgetExceeded,
    FinspaceError,
    CycleError,
    DuplicateElement,
    NotContinuous,
    UnknownElement,
)
from finspace.poset import (
    FinitePoset,
    PosetMap,
    all_monotone_maps,
    are_homotopic,
    build_poset,
    check_continuous,
    constant_map,
    identity_map,
    min_closed_set,
    min_open_set,
    order_preserving_maps,
    require_continuous,
)
from finspace.complexes import (
    SimplicialComplex,
    barycentric_subdivision_space,
    chain_max_map,
    face_poset,
    order_complex,
)
from finspace.dynamics import Tower, attach_level_maps, build_tower
from finspace.formats import serialize_map, serialize_poset
from finspace.homology import poset_homology
from finspace.maps import MultiMap, graph, is_vietoris_like_map
from finspace.random_instances import random_monotone_map, random_poset


@pytest.fixture
def circle():
    return build_poset("abcd", [("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")])


@pytest.fixture
def wedge():
    return build_poset("ABC", [("A", "C"), ("B", "C")])


def test_build_closes_transitively():
    X = build_poset("xyz", [("x", "y"), ("y", "z")])
    assert X.leq("x", "z")
    assert X.lt("x", "z") and not X.lt("x", "x")


def test_build_rejects_bad_input():
    with pytest.raises(CycleError):
        build_poset("ab", [("a", "b"), ("b", "a")])
    with pytest.raises(DuplicateElement, match="'a'"):
        build_poset("aa", [])
    with pytest.raises(UnknownElement):
        build_poset("ab", [("a", "q")])
    # x < x is a cycle of length one, not reflexivity; duplicate ids come first
    with pytest.raises(CycleError, match="cycle through 'b'$"):
        build_poset("abc", [("a", "b"), ("b", "b"), ("c", "c")])
    with pytest.raises(DuplicateElement):
        build_poset("aa", [("a", "a")])


def test_constructor_checks_raw_matrices():
    eye = np.eye(3, dtype=bool)
    with pytest.raises(ValueError, match="not reflexive"):
        FinitePoset("abc", np.zeros((3, 3), dtype=bool))
    cycle = eye.copy()
    cycle[1, 2] = cycle[2, 1] = True
    with pytest.raises(CycleError, match="'b' and 'c'"):
        FinitePoset("abc", cycle)
    gap = eye.copy()
    gap[0, 1] = gap[1, 2] = True  # a < b < c without a < c
    with pytest.raises(ValueError, match="not transitive"):
        FinitePoset("abc", gap)
    with pytest.raises(ValueError, match="shape"):
        FinitePoset("ab", eye.copy())
    with pytest.raises(DuplicateElement, match="'b'"):
        FinitePoset("abb", eye.copy())
    gap[0, 2] = True
    assert FinitePoset("abc", gap) == build_poset("abc", [("a", "b"), ("b", "c")])


def _numpy_door(elements, leq_matrix):
    """The numpy body of the FinitePoset constructor's check: the strict
    down lists of a raw leq matrix, or the exception it raised."""
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
    strict = leq & ~np.eye(n, dtype=bool)
    both = np.argwhere(strict & leq.T)
    if len(both):
        i, j = both[0]
        raise CycleError(f"cycle through {elements[i]!r} and {elements[j]!r}")
    if (leq @ leq & ~leq).any():
        raise ValueError("leq is not transitive")
    return [col.nonzero()[0].tolist() for col in strict.T]


def _numpy_closure(mat):
    """The numpy closure build_poset ran: square until nothing changes."""
    reach = mat.astype(bool)
    while True:
        new = (reach @ reach) | reach
        if np.array_equal(new, reach):
            return reach
        reach = new


def _numpy_build(elements, relations):
    """The numpy body of build_poset, down to the constructor's check, with
    a relation (x, x), a cycle of length one, reported after duplicate ids
    (the numpy body read it as reflexivity)."""
    elements = list(elements)
    index = {x: i for i, x in enumerate(elements)}
    mat = np.eye(len(elements), dtype=bool)
    for a, b in relations:
        for x in (a, b):
            if x not in index:
                raise UnknownElement(f"relation references undeclared element {x!r}")
        mat[index[a], index[b]] = True
    loops = [a for a, b in relations if a == b]
    if loops and len(index) == len(elements):
        raise CycleError(f"cycle through {loops[0]!r}")
    return _numpy_door(elements, _numpy_closure(mat))


def _door_corpus(seed, count):
    """Seeded raw inputs for both doors: (k, kind, elements, data), with
    kind "relations" (data a relation list for build_poset) or "matrix"
    (data a raw matrix for the constructor, as nested lists of ints,
    tuples of bools or a numpy array).  Most are spoiled one way: a
    cycle, a missing diagonal entry, a dropped strict entry (often not
    transitive), a wrong shape, a ragged row, a duplicate id or an
    undeclared id."""
    rng = random.Random(seed)
    for k in range(count):
        relations = k % 2 == 0
        if relations:
            spoil = rng.choice(["none", "cycle", "duplicate", "undeclared"])
            n = rng.randint(1, 8)
        else:
            spoil = rng.choice(["none", "cycle", "diagonal", "strict", "shape",
                                "ragged", "duplicate"])
            leq = [list(row) for row in random_poset(rng, 8, density=0.5).leq_matrix()]
            n = len(leq)
        names = [f"p{i}" for i in range(n)]
        rng.shuffle(names)
        if spoil == "duplicate":
            names[rng.randrange(n)] = rng.choice(names)
        if relations:
            density = rng.choice([0.2, 0.4, 0.7])
            pairs = [(i, j) for i in range(n) for j in range(i + 1, n)
                     if rng.random() < density]
            if spoil == "cycle":
                pairs += [(j, i) for i, j in rng.sample(pairs, min(len(pairs), 2))]
                pairs.append((rng.randrange(n),) * 2)
            rels = [(names[i], names[j]) for i, j in pairs]
            rng.shuffle(rels)
            if spoil == "undeclared":
                rels.insert(rng.randint(0, len(rels)), rng.choice(
                    [("zz", names[0]), (names[-1], "zz")]))
            yield k, "relations", names, rels
            continue
        pairs = [(i, j) for i in range(n) for j in range(n) if i != j and leq[i][j]]
        if spoil == "cycle" and pairs:
            i, j = rng.choice(pairs)
            leq[j][i] = True
        elif spoil == "diagonal":
            i = rng.randrange(n)
            leq[i][i] = False
        elif spoil == "strict" and pairs:
            i, j = rng.choice(pairs)
            leq[i][j] = False
        elif spoil == "shape":
            leq = leq[:-1] if rng.random() < 0.5 else [row + [False] for row in leq]
        elif spoil == "ragged":
            del leq[rng.randrange(n)][-1]
        form = rng.choice(["ints", "tuples", "numpy"])
        if form == "ints":
            leq = [[int(v) for v in row] for row in leq]
        elif form == "tuples" or spoil == "ragged":  # numpy cannot hold it
            leq = tuple(map(tuple, leq))
        else:
            leq = np.array(leq, dtype=bool)
        yield k, "matrix", names, leq


def _outcome(door, elements, data):
    """The down lists a door returns, or the type and message it raised."""
    try:
        return door(elements, data)
    except (FinspaceError, ValueError) as exc:
        return type(exc), str(exc)


def test_door_matches_the_numpy_door():
    seed = 38
    shape = (ValueError, "leq matrix shape does not match element count")
    seen = set()
    for k, kind, elements, data in _door_corpus(seed, 600):
        if kind == "relations":
            got = _outcome(lambda e, r: build_poset(e, r)._down, elements, data)
            want = _outcome(_numpy_build, elements, data)
            shown = repr(data)
        else:
            got = _outcome(lambda e, m: FinitePoset(e, m)._down, elements, data)
            want = _outcome(_numpy_door, elements, data)
            shown = repr([[int(v) for v in row] for row in data])
        msg = f"seed {seed}, instance {k}, {kind}\nelements: {elements!r}\n{kind}: {shown}"
        if kind == "matrix" and len({len(row) for row in data}) > 1:
            # numpy cannot hold ragged rows and raised its own ValueError;
            # the door names the shape
            assert want[0] is ValueError and got == shape, msg + f"\ngot {got}"
            seen.add("ragged")
            continue
        assert got == want, msg + f"\ngot {got}\nwant {want}"
        if isinstance(got, list):
            seen.add("valid")
        else:
            seen.add(got[1] if got[0] is ValueError else got[0].__name__)
    assert seen == {
        "valid", "ragged", "CycleError", "DuplicateElement", "UnknownElement",
        "leq is not reflexive", "leq is not transitive", shape[1],
    }, seen


def test_down_up_sets(circle):
    assert circle.down_set("c") == {"a", "b", "c"}
    assert circle.up_set("a") == {"a", "c", "d"}
    assert circle.strict_down_set("c") == {"a", "b"}
    assert min_open_set(circle, "c") == circle.down_set("c")
    assert min_closed_set(circle, "a") == circle.up_set("a")


def test_opposite_and_subposet(circle):
    op = circle.opposite()
    assert op.leq("c", "a") and not op.leq("a", "c")
    sub = circle.subposet({"a", "c"})
    assert len(sub) == 2 and sub.leq("a", "c")
    with pytest.raises(UnknownElement):
        circle.subposet({"zz"})


def test_subposet_reads_an_iterator_once(circle):
    assert circle.subposet(iter(["c", "a"])).elements == ("a", "c")
    with pytest.raises(UnknownElement, match="zz"):
        circle.subposet(iter(["a", "zz"]))


def test_extrema(circle, wedge):
    assert wedge.maximum() == "C"
    assert circle.maximum() is None
    assert circle.minimum({"a", "c"}) == "a"
    assert circle.minimum({"c", "d"}) is None


def test_chains_and_euler(circle):
    assert sorted(circle.chains(1)) == [
        ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")
    ]
    assert circle.chains(2) == []
    assert len(circle.all_chains()) == 8
    assert circle.euler_characteristic() == 0


def test_chains_reads_one_level_of_the_walk():
    # chains(length) reads one level of the walk; the all_chains filter it
    # replaced is the oracle, lengths below 0 and above the top included,
    # also on listings whose index order is no linear extension
    seed = 3232
    rng = random.Random(seed)
    for i in range(200):
        X = random_poset(rng, 8, density=rng.choice([0.2, 0.5, 0.8]))
        if i % 2:
            X = build_poset(X.elements[::-1], X.covers())
        every = X.all_chains()
        for length in range(-3, max(map(len, every)) + 2):
            want = [c for c in every if len(c) == length + 1]
            assert X.chains(length) == want, f"seed {seed}, instance {i}, length {length}"
    assert build_poset([], []).chains(0) == build_poset([], []).chains(-1) == []


def test_chains_budget_covers_only_the_levels_walked():
    # a 25-point total order has 2**25 - 1 chains, but only 25 + 300 of at
    # most two points; the walk stops at the level asked for, and a level
    # whose chains and shorter ones exceed the budget still raises
    names = [f"p{i:02d}" for i in range(25)]
    X = build_poset(names, list(zip(names, names[1:])))
    assert X.chains(0) == [(x,) for x in names]
    assert len(X.chains(1)) == 300 and X.chains(1)[:2] == [("p00", "p01"), ("p00", "p02")]
    assert X._chain_count(depth=7) == sum(math.comb(25, k) for k in range(1, 8)) < 10 ** 6
    with pytest.raises(BudgetExceeded):
        X.chains(7)  # 1,807,780 chains of at most 8 points
    with pytest.raises(BudgetExceeded):
        X.all_chains()


def test_chain_count_of_an_antichain_stops_when_the_counts_settle():
    # 30 points have up to 2**30 - 1 chains, so the budget count runs; on an
    # antichain its rounds settle after one, and no level past the first
    # has a chain
    X = build_poset([f"p{i}" for i in range(30)], [])
    assert X.chains(0) == [(x,) for x in X.elements]
    assert X.chains(5) == []


def _stack_depth():
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_all_chains_needs_no_recursion():
    names = [f"p{i}" for i in range(16)]
    X = build_poset(names, list(zip(names, names[1:])))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 12)
    try:
        chains = X.all_chains()
    finally:
        sys.setrecursionlimit(limit)
    assert len(chains) == 2 ** 16 - 1
    assert chains[:3] == [("p0",), ("p0", "p1"), ("p0", "p1", "p2")]
    assert chains[15] == tuple(names) and chains[-1] == ("p15",)


def _fails_before_it_allocates(entry):
    # 2**25 - 1 chains: counted, not built, before the budget trips
    names = [f"p{i}" for i in range(25)]
    X = build_poset(names, list(zip(names, names[1:])))
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded):
            entry(X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MiB"


def test_all_chains_fails_before_it_allocates():
    _fails_before_it_allocates(FinitePoset.all_chains)


@pytest.mark.parametrize("entry", [
    order_complex, poset_homology, barycentric_subdivision_space,
], ids=lambda entry: entry.__name__)
def test_chain_walk_fails_before_it_allocates(entry):
    # the other doors of the chain walk: no chain or face row is built
    _fails_before_it_allocates(entry)


def test_all_chains_budget_is_the_exact_chain_count(monkeypatch):
    rng = random.Random(7)
    budget = poset.DEFAULT_BUDGET
    for k in range(40):
        X = random_poset(rng, rng.randint(1, 9), density=rng.choice([0.2, 0.5, 0.8]))
        monkeypatch.setattr(poset, "DEFAULT_BUDGET", budget)
        n = len(X.all_chains())
        msg = f"seed 7, instance {k}\nX:\n{serialize_poset(X)}"
        monkeypatch.setattr(poset, "DEFAULT_BUDGET", n)
        assert len(X.all_chains()) == n, msg
        monkeypatch.setattr(poset, "DEFAULT_BUDGET", n - 1)
        with pytest.raises(BudgetExceeded):
            X.all_chains()
            pytest.fail(msg)


def test_euler_characteristic_matches_the_alternating_chain_count():
    # the sign-flipping count builds no chain; all_chains is the oracle
    rng = random.Random(8)
    for k in range(60):
        X = random_poset(rng, rng.randint(1, 9), density=rng.choice([0.2, 0.5, 0.8]))
        want = sum((-1) ** (len(c) - 1) for c in X.all_chains())
        assert X.euler_characteristic() == want, f"seed 8, instance {k}\nX:\n{serialize_poset(X)}"


@pytest.mark.parametrize("n, chains", [(8, 1091669), (9, 14174521)])
def test_euler_characteristic_of_a_simplex_needs_no_chain_budget(n, chains):
    # the face posets of the 7- and 8-simplex have more chains than the
    # budget, 2 a(n) - 1 with a the ordered Bell numbers; they are
    # contractible, so chi = 1
    X = face_poset(SimplicialComplex.from_simplices([range(n)]))
    assert len(X) == 2 ** n - 1
    assert X._chain_count() == chains > poset.DEFAULT_BUDGET
    assert X.euler_characteristic() == 1


def test_linear_extension_is_topological(circle):
    order = circle.linear_extension()
    pos = {x: i for i, x in enumerate(order)}
    for x in circle.elements:
        for y in circle.elements:
            if circle.lt(x, y):
                assert pos[x] < pos[y]


def test_covers_is_transitive_reduction():
    X = build_poset("xyz", [("x", "y"), ("y", "z")])
    assert sorted(X.covers()) == [("x", "y"), ("y", "z")]


def _bot_mid_top(n_mid, direct):
    mids = [f"m{i}" for i in range(n_mid)]
    rels = [("bot", m) for m in mids] + [(m, "top") for m in mids]
    if direct:
        rels.append(("bot", "top"))
    return build_poset(["bot", *mids, "top"], rels)


def test_closure_through_256_middle_points():
    # 256 paths bot < m_i < top: a uint8 product counts them and wraps to 0
    X = _bot_mid_top(256, direct=False)
    assert X.leq("bot", "top")


def test_covers_with_256_middle_points():
    X = _bot_mid_top(256, direct=True)
    cov = X.covers()
    assert ("bot", "top") not in cov
    assert len(cov) == 2 * 256


def test_core_and_contractibility(circle, wedge):
    assert wedge.is_contractible()
    assert circle.core() is circle and not circle.is_contractible()
    chain = build_poset("pqr", [("p", "q"), ("q", "r")])
    assert chain.core().elements == ("r",)


def _is_beat_point(P, x):
    down = [y for y in P.elements if P.lt(y, x)]
    up = [y for y in P.elements if P.lt(x, y)]
    return any(all(P.leq(y, m) for y in down) for m in down) or any(
        all(P.leq(m, y) for y in up) for m in up
    )


def _core_by_rescanning(X):
    """The beat-point loop core() replaced: rescan, remove the first, restrict."""
    current = X
    while True:
        beat = next((x for x in current.elements if _is_beat_point(current, x)), None)
        if beat is None:
            return current
        current = current.subposet(set(current.elements) - {beat})


def _seeded_posets(seed, count):
    """Random posets, every fourth one replaced by a small subdivision."""
    rng = random.Random(seed)
    for k in range(count):
        if k % 4 == 3:
            yield k, barycentric_subdivision_space(random_poset(rng, 4, density=0.5))
        else:
            yield k, random_poset(rng, 9, density=rng.choice([0.2, 0.4, 0.7]))


SPHERE = build_poset(
    "abcdef",
    [("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"),
     ("c", "e"), ("c", "f"), ("d", "e"), ("d", "f")],
)


def _sphere_fiber_unions(seed, count, min_size=20):
    """A seeded sample of the large fiber unions a certificate reduces.

    On the S^2 model at depth 2, certifying F_2 = H o h checks the
    graph projection p: G(F_2) -> X^2 over every chain of X^2; the unions
    of p's fibers over those chains have up to 39 points, most of them
    beat points.
    """
    t = build_tower(SPHERE, 2)
    p = graph(attach_level_maps(t, t.h_maps, certify=False).F_maps[1]).p
    fibers = p.fibers()
    unions = {frozenset().union(*(fibers[y] for y in c)) for c in p.target.all_chains()}
    index = p.source.index
    large = sorted((sorted(u, key=index) for u in unions if len(u) >= min_size),
                   key=lambda u: [index(x) for x in u])
    for k, u in enumerate(random.Random(seed).sample(large, count)):
        yield f"fiber union {k}", p.source.subposet(u)


def test_core_matches_the_beat_point_loop():
    # whole posets through core(), random subsets through the worklist on
    # the subset's points alone
    seed = 34
    rng = random.Random(seed)
    removed = removed_in_subsets = 0
    corpus = itertools.chain(_seeded_posets(seed, 400), _sphere_fiber_unions(seed, 40))
    for k, X in corpus:
        got, want = X.core(), _core_by_rescanning(X)
        assert got.elements == want.elements and got == want, (
            f"seed {seed}, instance {k}\nX:\n{serialize_poset(X)}")
        removed += len(X) - len(got)
        subset = set(rng.sample(range(len(X)), rng.randint(1, len(X))))
        keep = poset._stong_core(X, subset)
        want = _core_by_rescanning(X.subposet([X.elements[i] for i in subset]))
        assert [X.elements[i] for i in keep] == list(want.elements), (
            f"seed {seed}, instance {k}, subset {sorted(subset)}\n"
            f"X:\n{serialize_poset(X)}")
        removed_in_subsets += len(subset) - len(keep)
    assert removed and removed_in_subsets, "the corpus should contain beat points"


def test_stong_core_reads_points_once(circle):
    # points may be a one-shot iterator: every subset of the circle, and a
    # chain whose core is its top
    for size in range(1, 5):
        for subset in itertools.combinations(range(4), size):
            keep = poset._stong_core(circle, iter(subset))
            want = _core_by_rescanning(circle.subposet([circle.elements[i] for i in subset]))
            assert [circle.elements[i] for i in keep] == list(want.elements), subset
    chain = build_poset("pqr", [("p", "q"), ("q", "r")])
    assert poset._stong_core(chain, iter(range(3))) == [2]


class _WholeMasks:
    """Rank masks of a whole poset, a second copy of the order that poset
    no longer builds: a set of points is an int with bit rank[i] set for
    point i, and below[i] and above[i] are the masks of the points
    strictly below and above point i.  A reference for the oracles
    below."""

    def __init__(self, P):
        self.order, self.rank, self.down, self.up = P._order, P._rank, P._down, P._up
        self.below = list(map(self.mask, self.down))
        self.above = list(map(self.mask, self.up))

    def mask(self, indices):
        return sum({1 << self.rank[i] for i in indices})

    def max_of(self, S):
        if S:
            top = S.bit_length() - 1
            m = self.order[top]
            if self.below[m] & S == S ^ (1 << top):
                return m
        return None

    def min_of(self, S):
        low = S & -S
        if low:
            m = self.order[low.bit_length() - 1]
            if self.above[m] & S == S ^ low:
                return m
        return None


def _stong_core_by_flags(masks, alive, points):
    """The flag-dict and heap worklist of an earlier core(), on masks:
    down/up flags for every point first, a heap of the beat points, and a
    re-test of the points comparable to each removed one."""
    rank, below, above = masks.rank, masks.below, masks.above
    max_of, min_of = masks.max_of, masks.min_of
    down = {y: max_of(below[y] & alive) is not None for y in points}
    up = {y: min_of(above[y] & alive) is not None for y in points}
    heap = sorted(y for y in down if down[y] or up[y])  # sorted: a heap
    while heap:
        x = heapq.heappop(heap)
        if not (down.get(x) or up.get(x)):
            continue  # stale entry: x was removed or is no beat point now
        del down[x], up[x]  # the flags' keys are the live points
        alive ^= 1 << rank[x]
        for flags, sets, test, ys in ((down, below, max_of, masks.up[x]),
                                      (up, above, min_of, masks.down[x])):
            for y in ys:
                if y in flags:
                    was = down[y] or up[y]
                    flags[y] = test(sets[y] & alive) is not None
                    if flags[y] and not was:
                        heapq.heappush(heap, y)
    return sorted(down)


def _tower_subsets(rng, circle):
    """(instance, enclosing poset, point indices): every fiber union of h_0,
    h_1 and h_2 on the S^2 model at depth 3 (small unions inside levels of
    up to 866 points), then seeded random subsets of every level of the
    circle's tower at depth 4."""
    t = build_tower(SPHERE, 3)
    for n, h in enumerate(t.h_maps):
        fibers, index = h.fibers(), h.source.index
        unions = {frozenset().union(*(fibers[y] for y in c)) for c in h.target.all_chains()}
        for k, u in enumerate(sorted(sorted(index(x) for x in u) for u in unions)):
            yield f"h_{n} fiber union {k}", h.source, u
    for n, level in enumerate(build_tower(circle, 4).levels):
        for k in range(40):
            subset = rng.sample(range(len(level)), rng.randint(1, len(level)))
            yield f"circle level {n} subset {k}", level, subset


def test_stong_core_matches_the_flag_worklist(circle):
    seed = 19
    rng = random.Random(seed)
    instances = removed = 0
    for k, X, subset in _tower_subsets(rng, circle):
        rng.shuffle(subset)
        masks = _WholeMasks(X)
        got = poset._stong_core(X, iter(subset))
        want = _stong_core_by_flags(masks, masks.mask(subset), subset)
        assert got == want, (
            f"seed {seed}, instance {k}, subset {sorted(subset)}\n"
            f"X:\n{serialize_poset(X)}")
        instances += 1
        removed += len(subset) - len(got)
    assert instances == 26 + 146 + 866 + 5 * 40
    assert removed, "the corpus should contain beat points"


def test_core_of_a_tower_graph_matches_the_flag_worklist():
    """core() of the graph of F_3 on the S^2 model at depth 3, 8786 points
    whose core keeps one point per point of level 3, equals the flag
    worklist's core on whole-poset masks, element for element."""
    t = build_tower(SPHERE, 3)
    G = graph(attach_level_maps(t, t.h_maps, certify=False).F_maps[2]).space
    masks = _WholeMasks(G)
    want = _stong_core_by_flags(masks, masks.mask(range(len(G))), range(len(G)))
    got = G.core()
    assert len(G) == 8786 and len(got) == len(t.levels[3]) == 866
    assert got.elements == tuple(G.elements[i] for i in want)


def _matrix_extremum(X, leq, subset):
    """The numpy-matrix body of maximum (leq) and minimum (leq.T): the m of
    the subset (default: all points) with leq[y, m] for every y in it."""
    idx = np.arange(len(X)) if subset is None else np.array(
        [X.index(x) for x in subset], dtype=np.intp)
    hit = np.flatnonzero(leq[idx[:, None], idx].all(axis=0))
    return X.elements[idx[hit[0]]] if len(hit) else None


def _matrix_chains(X, leq):
    """The numpy-matrix body of all_chains, without its budget."""
    els = X.elements
    strict = leq & ~np.eye(len(els), dtype=bool)
    succ = [np.flatnonzero(row)[::-1].tolist() for row in strict]
    stack = [((els[i],), i) for i in reversed(range(len(els)))]
    out = []
    while stack:
        prefix, last = stack.pop()
        out.append(prefix)
        stack.extend((prefix + (els[j],), j) for j in succ[last])
    return out


def _view_corpus(seed, count):
    """Random posets listed in a shuffled element order, so that index order
    need not extend the order, then S^2 fiber unions; each with the matrix
    it was built from (for a fiber union, of pairs of chains of X^2, the
    product of chain inclusions)."""
    rng = random.Random(seed)
    for k in range(count):
        X = random_poset(rng, 10, density=(0.2, 0.4, 0.6)[k % 3])
        perm = rng.sample(range(len(X)), len(X))
        leq = np.array(X.leq_matrix())[np.ix_(perm, perm)]
        yield k, FinitePoset([X.elements[i] for i in perm], leq), leq
    for k, X in _sphere_fiber_unions(seed, 40):
        yield k, X, np.array([[set(x) <= set(u) and set(y) <= set(v) for u, v in X]
                              for x, y in X])


def test_rank_view_matches_the_matrix():
    seed = 37
    rng = random.Random(seed)
    instances = duplicates = empty = 0
    for k, X, leq in _view_corpus(seed, 360):
        msg = f"seed {seed}, instance {k}\nX:\n{serialize_poset(X)}"
        els, n = X.elements, len(X)
        order, rank, masks = X._order, X._rank, _WholeMasks(X)
        assert sorted(order) == list(range(n)), msg
        assert all(rank[i] == r for r, i in enumerate(order)), msg
        for i in range(n):
            below = [j for j in range(n) if j != i and leq[j, i]]
            above = [j for j in range(n) if j != i and leq[i, j]]
            assert X._down[i] == below and X._up[i] == above, msg
            assert masks.below[i] == sum(1 << rank[j] for j in below), msg
            assert masks.above[i] == sum(1 << rank[j] for j in above), msg
            assert all(rank[j] < rank[i] for j in below), msg
        assert all(X.leq(x, y) == leq[i, j]
                   for i, x in enumerate(els) for j, y in enumerate(els)), msg
        strict = leq & ~np.eye(n, dtype=bool)
        reduction = strict & ~(strict.astype(int) @ strict.astype(int)).astype(bool)
        assert X.covers() == [(els[i], els[j]) for i, j in np.argwhere(reduction)], msg
        assert X.maximum() == _matrix_extremum(X, leq, None), msg
        assert X.minimum() == _matrix_extremum(X, leq.T, None), msg
        for _ in range(6):
            subset = rng.choices(els, k=rng.randint(0, n + 2))
            duplicates += len(set(subset)) < len(subset)
            empty += not subset
            sub_msg = f"{msg}subset: {subset!r}"
            assert X.maximum(subset) == _matrix_extremum(X, leq, subset), sub_msg
            assert X.minimum(subset) == _matrix_extremum(X, leq.T, subset), sub_msg
        for i, x in enumerate(els):
            down = {els[j] for j in np.flatnonzero(leq[:, i])}
            assert X.down_set(x) == down, msg
            assert X.strict_down_set(x) == down - {x}, msg
            assert X.up_set(x) == {els[j] for j in np.flatnonzero(leq[i, :])}, msg
        by_count = sorted(range(n), key=lambda i: (int(leq[:, i].sum()), i))
        assert X.linear_extension() == [els[i] for i in by_count], msg
        assert X.all_chains() == _matrix_chains(X, leq), msg
        instances += 1
    assert instances == 400 and duplicates and empty


def test_second_certification_builds_no_second_view(monkeypatch):
    t = build_tower(SPHERE, 1)
    real_fill = poset._fill
    built = []

    def fill_once(P, elements, index, down):
        if built:
            raise AssertionError("a second order was filled in")
        built.append(len(down))
        return real_fill(P, elements, index, down)

    monkeypatch.setattr(poset, "_fill", fill_once)
    # the top level's order is filled in with it, the one build allowed
    X2 = barycentric_subdivision_space(t.levels[1])
    t = Tower(t.levels + [X2], t.h_maps + [chain_max_map(X2, t.levels[1])])
    assert is_vietoris_like_map(t.h_maps[1]).ok
    # reuses the certificate of h_1 and certifies h_0; every level's order
    # exists by now
    assert len(attach_level_maps(t, t.h_maps).F_maps) == 2
    assert built == [146]


def test_fibers_match_preimages():
    seed = 36
    rng = random.Random(seed)
    empty = 0
    for k in range(200):
        X, Y = random_poset(rng, 8), random_poset(rng, 6)
        f = PosetMap(X, Y, {x: rng.choice(Y.elements) for x in X.elements})
        fibers = f.fibers()
        msg = (f"seed {seed}, instance {k}\nX:\n{serialize_poset(X)}"
               f"Y:\n{serialize_poset(Y)}f: {serialize_map(f)}")
        assert list(fibers) == list(Y.elements), msg
        assert all(fibers[y] == f.preimage(y) for y in Y.elements), msg
        empty += sum(not fibers[y] for y in Y.elements)
    assert empty, "the corpus should have points outside the image"


def test_derived_orders_pass_the_constructor_checks():
    seed = 35
    rng = random.Random(seed)
    for k, X in _seeded_posets(seed, 200):
        Y = random_poset(rng, 5, density=0.4)
        F = MultiMap(X, Y, {
            x: rng.sample(Y.elements, rng.randint(1, len(Y))) for x in X.elements
        })
        subset = rng.sample(X.elements, rng.randint(0, len(X)))
        derived = {
            "subposet": X.subposet(subset),
            "opposite": X.opposite(),
            "core": X.core(),
            "graph": graph(F).space,
            "subdivision": barycentric_subdivision_space(X),
        }
        for name, D in derived.items():
            msg = (f"seed {seed}, instance {k}, {name}\nX:\n{serialize_poset(X)}"
                   f"Y:\n{serialize_poset(Y)}F: {F!r}\nsubset: {subset!r}")
            assert FinitePoset(D.elements, D.leq_matrix()) == D, msg
        assert X.opposite().opposite() == X, f"seed {seed}, instance {k}"


def test_equality_up_to_element_order():
    X = build_poset("ab", [("a", "b")])
    Y = build_poset("ba", [("a", "b")])
    assert X == Y and hash(X) == hash(Y)
    assert X != build_poset("ab", [])
    level = build_tower(SPHERE, 3).levels[3]
    backwards = FinitePoset(level.elements[::-1], [row[::-1] for row in level.leq_matrix()[::-1]])
    assert level == backwards and hash(level) == hash(backwards)


def test_equality_with_itself_compares_nothing(circle, monkeypatch):
    class Refuse:
        def refuse(self, *args):
            raise AssertionError("a poset was compared with itself entry by entry")

        __getattr__ = __getitem__ = __iter__ = __len__ = refuse

    for slot in ("_down", "_up", "_order", "_rank"):
        monkeypatch.setattr(circle, slot, Refuse())
    assert circle == circle and circle.__eq__(circle) is True


def test_leq_matrix_write_protected(circle):
    with pytest.raises(TypeError):
        circle.leq_matrix()[0, 0] = False


def test_poset_map_basics(circle, wedge):
    with pytest.raises(UnknownElement):
        PosetMap(wedge, wedge, {"A": "A"})
    f = constant_map(circle, wedge, "C")
    assert f.is_surjective() is False
    assert f.image() == {"C"}
    assert f.preimage("C") == set(circle.elements)
    g = identity_map(wedge)
    assert g.fixed_points() == ["A", "B", "C"]
    assert f.then(constant_map(wedge, wedge, "A"))("a") == "A"


def test_continuity_check(circle, wedge):
    bad = PosetMap(wedge, wedge, {"A": "C", "B": "B", "C": "A"})
    ok, pair = check_continuous(bad)
    assert not ok and pair == ("A", "C")
    with pytest.raises(NotContinuous):
        require_continuous(bad)
    assert check_continuous(identity_map(circle)) == (True, None)


def test_homotopy_fence(wedge):
    f = identity_map(wedge)
    g = constant_map(wedge, wedge, "C")
    assert are_homotopic(f, g)
    with pytest.raises(BudgetExceeded):
        are_homotopic(f, g, budget=1)


def test_homotopy_fence_search_counts_its_neighbours():
    # the constant map at c lies above the one at a, found as the fourth
    # neighbour generated (after the map at a itself, below and above, and
    # the map at b), so a budget of two runs out and one of four does not
    pt = build_poset("x", [])
    abc = build_poset("abc", [("a", "b"), ("b", "c")])
    f, g = constant_map(pt, abc, "a"), constant_map(pt, abc, "c")
    with pytest.raises(BudgetExceeded, match="^homotopy fence search budget exhausted$"):
        are_homotopic(f, g, budget=2)
    assert are_homotopic(f, g, budget=4)


def test_homotopy_distinguishes_circle_maps(circle):
    ident = identity_map(circle)
    swap = PosetMap(circle, circle, {"a": "b", "b": "a", "c": "d", "d": "c"})
    assert not are_homotopic(ident, swap)
    assert are_homotopic(ident, ident)


def test_all_monotone_maps_counts():
    chain2 = build_poset("xy", [("x", "y")])
    maps = all_monotone_maps(chain2, chain2)
    # monotone self-maps of a 2-chain: (x,x), (x,y), (y,y)
    assert len(maps) == 3
    with pytest.raises(BudgetExceeded):
        all_monotone_maps(chain2, chain2, budget=1)


def _instance(seed, k, X, Y, cands=None):
    text = f"seed {seed}, instance {k}\nX:\n{serialize_poset(X)}Y:\n{serialize_poset(Y)}"
    if cands is not None:
        text += f"candidates: {cands!r}\n"
    return text


def _random_candidates(rng, X, Y):
    """Per point a nonempty random set of values, or all of Y."""
    if rng.random() < 0.5:
        return {x: list(Y.elements) for x in X.elements}
    return {
        x: rng.sample(Y.elements, rng.randint(1, len(Y))) for x in X.elements
    }


def _brute_force(X, Y, cands):
    out = []
    for values in itertools.product(*(cands[x] for x in X.elements)):
        f = PosetMap(X, Y, dict(zip(X.elements, values)))
        if check_continuous(f)[0]:
            out.append(tuple(values))
    return out


def _key(f):
    return tuple(f(x) for x in f.source.elements)


def test_order_preserving_maps_match_brute_force():
    seed = 31
    rng = random.Random(seed)
    for k in range(200):
        X = random_poset(rng, 4, density=0.4)
        Y = random_poset(rng, 5, density=0.4)
        cands = _random_candidates(rng, X, Y)
        got = [_key(f) for f in order_preserving_maps(X, Y, cands.get)]
        want = _brute_force(X, Y, cands)
        msg = _instance(seed, k, X, Y, cands)
        assert len(got) == len(set(got)), "duplicate map\n" + msg
        assert sorted(got) == sorted(want), msg


def test_order_preserving_maps_budget_counts_expanded_assignments():
    # the budget is the number of partial assignments on a prefix of the
    # linear extension that get expanded: per prefix length, the number of
    # order-preserving maps on that prefix
    seed = 32
    rng = random.Random(seed)
    for k in range(40):
        X = random_poset(rng, 4, density=0.4)
        Y = random_poset(rng, 4, density=0.4)
        cands = _random_candidates(rng, X, Y)
        order = X.linear_extension()
        nodes = sum(
            len(_brute_force(X.subposet(order[:i]), Y, cands))
            for i in range(1, len(order) + 1)
        )
        msg = _instance(seed, k, X, Y, cands) + f"nodes: {nodes}\n"
        full = list(order_preserving_maps(X, Y, cands.get, budget=nodes))
        assert len(full) == len(_brute_force(X, Y, cands)), msg
        if nodes:
            with pytest.raises(BudgetExceeded):
                list(order_preserving_maps(X, Y, cands.get, budget=nodes - 1))
    chain2 = build_poset("xy", [("x", "y")])
    # x->x, y->x, y->y, x->y, y->y
    assert len(all_monotone_maps(chain2, chain2, budget=5)) == 3
    with pytest.raises(BudgetExceeded):
        all_monotone_maps(chain2, chain2, budget=4)


def test_order_preserving_maps_need_no_recursion():
    names = [f"p{i}" for i in range(300)]
    X = build_poset(names, list(zip(names, names[1:])))
    point = build_poset(["*"], [])
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 100)
    try:
        maps = all_monotone_maps(X, point)
        first_below = next(order_preserving_maps(X, X, X.down_set, budget=300))
    finally:
        sys.setrecursionlimit(limit)
    assert len(maps) == 1 and maps[0].image() == {"*"}
    # the first map below the identity takes the least value everywhere,
    # one expanded assignment per point
    assert _key(first_below) == ("p0",) * 300


def _first_violation(f):
    """The pairwise oracle check_continuous replaced."""
    X, Y = f.source, f.target
    for x in X.elements:
        for y in X.elements:
            if x != y and X.leq(x, y) and not Y.leq(f(x), f(y)):
                return False, (x, y)
    return True, None


def test_check_continuous_matches_pairwise_loop():
    seed = 33
    rng = random.Random(seed)
    hits = 0
    for k in range(300):
        X = random_poset(rng, 7, density=0.4)
        Y = random_poset(rng, 5, density=0.4)
        f = PosetMap(X, Y, {x: rng.choice(Y.elements) for x in X.elements})
        want = _first_violation(f)
        hits += want[0]
        msg = _instance(seed, k, X, Y) + f"f:\n{serialize_map(f)}"
        assert check_continuous(f) == want, msg
    assert hits, "the corpus should contain continuous maps too"


def _reordered(X):
    """X with its elements listed in reverse order: an equal poset."""
    return FinitePoset(X.elements[::-1], [row[::-1] for row in X.leq_matrix()[::-1]])


def _then_by_dict(f, g):
    """The element-dict body of PosetMap.then, before maps kept positions."""
    if g.source != f.target:
        raise ValueError("maps are not composable")
    return PosetMap(f.source, g.target, {x: g(f(x)) for x in f.source.elements})


def _values_above_by_masks(masks, allowed, values):
    """The rank-mask body of poset._values_above before it intersected
    index sets: ascending indices of the points of the rank mask allowed
    at or above every point index in values."""
    for v in values:
        allowed &= masks.above[v] | 1 << masks.rank[v]
    out = []
    while allowed:
        low = allowed & -allowed
        out.append(masks.order[low.bit_length() - 1])
        allowed ^= low
    return sorted(out)


def _maps_by_dict(X, Y, candidates):
    """The element-dict body of order_preserving_maps, without its budget:
    one backtracking over a linear extension of X, each map built as a
    dict and checked again by the PosetMap constructor."""
    order = X.linear_extension()
    preds = {x: X.strict_down_set(x) for x in order}
    masks = _WholeMasks(Y)
    allowed = [masks.mask(map(Y.index, candidates(x))) for x in order]
    value, stack, out = {}, [], []
    while True:
        i = len(stack)
        if i == len(order):
            out.append(PosetMap(X, Y, {x: Y.elements[value[x]] for x in order}))
        else:
            values = [value[p] for p in preds[order[i]]]
            stack.append(iter(_values_above_by_masks(masks, allowed[i], values)))
        while stack:
            j = next(stack[-1], None)
            if j is not None:
                break
            stack.pop()
        else:
            return out
        value[order[len(stack) - 1]] = j


def _random_monotone_by_dict(rng, X, Y, attempts=200):
    """The element-dict body of random_monotone_map."""
    order = X.linear_extension()
    preds = {x: X.strict_down_set(x) for x in order}
    masks, everything = _WholeMasks(Y), (1 << len(Y)) - 1
    for _ in range(attempts):
        partial = {}
        for x in order:
            cands = _values_above_by_masks(masks, everything, [partial[p] for p in preds[x]])
            if not cands:
                break
            partial[x] = rng.choice(cands)
        else:
            return PosetMap(X, Y, {x: Y.elements[j] for x, j in partial.items()})
    return None


def _items(f):
    return list(f.assignment.items())


def test_positional_maps_match_dict_oracles():
    seed = 37
    rng = random.Random(seed)
    reordered_then = unequal = 0
    for k in range(120):
        X = random_poset(rng, 5, density=rng.choice([0.2, 0.4, 0.6]))
        Y = random_poset(rng, 4, density=0.4)
        cands = _random_candidates(rng, X, Y)
        msg = _instance(seed, k, X, Y, cands)
        got = [_items(f) for f in order_preserving_maps(X, Y, cands.get)]
        assert got == [_items(f) for f in _maps_by_dict(X, Y, cands.get)], msg
        twin = random.Random()
        twin.setstate(rng.getstate())
        f, want = random_monotone_map(rng, X, Y), _random_monotone_by_dict(twin, X, Y)
        assert rng.getstate() == twin.getstate(), msg  # the same draws
        assert (f is None) == (want is None), msg
        if f is None:
            continue
        assert _items(f) == _items(want), msg + f"f:\n{serialize_map(f)}"
        g = PosetMap(Y, X, {y: rng.choice(X.elements) for y in Y.elements})
        msg += f"f:\n{serialize_map(f)}g:\n{serialize_map(g)}"
        Xr, Yr = _reordered(X), _reordered(Y)
        # then, also with g's source an equal poset listed in reverse order
        for h in (g, PosetMap(Yr, X, g.assignment)):
            fg = f.then(h)
            assert fg.source is X and fg.target is X, msg
            assert _items(fg) == _items(_then_by_dict(f, h)), msg
            reordered_then += h.source is Yr and Y.elements != Yr.elements
        ident = PosetMap(X, X, {x: x for x in X.elements})  # the dict body
        assert _items(identity_map(X)) == _items(ident), msg
        assert _items(f.then(identity_map(Yr))) == _items(f), msg
        # equality and hashing by value, across reordered posets
        fr = PosetMap(Xr, Yr, f.assignment)
        assert fr == f and hash(fr) == hash(f), msg
        other = {**f.assignment, X.elements[0]: Y.elements[-1]}
        if other != f.assignment:
            assert PosetMap(Xr, Yr, other) != f, msg
            unequal += 1
        with pytest.raises(UnknownElement, match="unknown element 'zz'"):
            f("zz")
        # chain maxima, also into X listed in reverse order
        X1 = barycentric_subdivision_space(X)
        want = [(c, X.maximum(c)) for c in X1.elements]
        for P in (X, Xr):
            assert _items(chain_max_map(X1, P)) == want, msg
    assert reordered_then and unequal


posets = st.integers(1, 6).flatmap(
    lambda n: st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
        max_size=10,
    ).map(
        lambda pairs: build_poset(
            [f"e{i}" for i in range(n)],
            [(f"e{i}", f"e{j}") for i, j in pairs if i < j],
        )
    )
)


@settings(max_examples=80, deadline=None)
@given(posets)
def test_order_invariants(X):
    leq = np.array(X.leq_matrix())
    n = len(X)
    assert leq.diagonal().all()
    assert not (leq & leq.T & ~np.eye(n, dtype=bool)).any()
    # chains of the opposite poset are reversed chains
    assert sorted(tuple(reversed(c)) for c in X.all_chains()) == sorted(
        X.opposite().all_chains()
    )
    # Euler characteristic is a homotopy invariant: compare with the core
    assert X.euler_characteristic() == X.core().euler_characteristic()
