"""Finite posets as T0 spaces: order, topology, cores, homotopy."""

import itertools
import random
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from finspace import poset
from finspace.errors import (
    BudgetExceeded,
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
from finspace.complexes import barycentric_subdivision_space
from finspace.dynamics import attach_level_maps, build_tower
from finspace.formats import serialize_map, serialize_poset
from finspace.maps import MultiMap, graph
from finspace.random_instances import random_poset


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


def test_all_chains_fails_before_it_allocates():
    # 2**25 - 1 chains: counted, not built, before the budget trips
    names = [f"p{i}" for i in range(25)]
    X = build_poset(names, list(zip(names, names[1:])))
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded):
            X.all_chains()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MiB"


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
    seed = 34
    removed = 0
    corpus = itertools.chain(_seeded_posets(seed, 400), _sphere_fiber_unions(seed, 40))
    for k, X in corpus:
        got, want = X.core(), _core_by_rescanning(X)
        assert got.elements == want.elements and got == want, (
            f"seed {seed}, instance {k}\nX:\n{serialize_poset(X)}")
        removed += len(X) - len(got)
    assert removed, "the corpus should contain beat points"


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
        }
        for name, D in derived.items():
            msg = (f"seed {seed}, instance {k}, {name}\nX:\n{serialize_poset(X)}"
                   f"Y:\n{serialize_poset(Y)}F: {F!r}\nsubset: {subset!r}")
            assert FinitePoset(D.elements, D.leq_matrix()) == D, msg


def test_equality_up_to_element_order():
    X = build_poset("ab", [("a", "b")])
    Y = build_poset("ba", [("a", "b")])
    assert X == Y and hash(X) == hash(Y)
    assert X != build_poset("ab", [])


def test_leq_matrix_write_protected(circle):
    with pytest.raises(ValueError):
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
    leq = X.leq_matrix()
    n = len(X)
    assert leq.diagonal().all()
    assert not (leq & leq.T & ~np.eye(n, dtype=bool)).any()
    # chains of the opposite poset are reversed chains
    assert sorted(tuple(reversed(c)) for c in X.all_chains()) == sorted(
        X.opposite().all_chains()
    )
    # Euler characteristic is a homotopy invariant: compare with the core
    assert X.euler_characteristic() == X.core().euler_characteristic()
