"""Finite posets as T0 spaces: order, topology, cores, homotopy."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
    require_continuous,
)


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
    with pytest.raises(DuplicateElement):
        build_poset("aa", [])
    with pytest.raises(UnknownElement):
        build_poset("ab", [("a", "q")])


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
    assert len(circle.core()) == 4 and not circle.is_contractible()
    chain = build_poset("pqr", [("p", "q"), ("q", "r")])
    assert len(chain.core()) == 1


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
