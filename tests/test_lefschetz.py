"""Coincidence and fixed point theorems on worked instances."""

import random

import pytest

from finspace import maps
from finspace.errors import (
    BudgetExceeded,
    FinspaceError,
    HypothesisFailed,
    NoSelector,
    NotComposable,
)
from finspace.formats import serialize_map, serialize_multimap, serialize_poset
from finspace.homology import induced_map_of_poset_map, invert, lefschetz_number
from finspace.lefschetz import (
    _map_multimap_lambda,
    classical_lefschetz,
    coincidence_points,
    corollary_multimap_coincidence,
    multimap_coincidence_points,
    theorem_310,
    theorem_A,
    theorem_B,
    theorem_C,
)
from finspace.maps import (
    MultiMap,
    _projections_on_core,
    compose_multimaps,
    graph,
    induced_multimap_homology,
    is_vietoris_like_multimap,
)
from finspace.poset import PosetMap, build_poset, constant_map, identity_map
from finspace.random_instances import (
    random_endomorphism,
    random_poset,
    susc_acyclic_multimap,
)


@pytest.fixture
def wedge():
    return build_poset("ABC", [("A", "C"), ("B", "C")])


@pytest.fixture
def circle():
    return build_poset("abcd", [("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")])


def test_coincidence_points(wedge):
    f = PosetMap(wedge, wedge, {"A": "B", "B": "A", "C": "C"})
    g = constant_map(wedge, wedge, "A")
    assert coincidence_points(f, g) == ["B"]
    assert coincidence_points(f, f) == ["A", "B", "C"]


def test_theorem_A_on_wedge_swap(wedge):
    f = PosetMap(wedge, wedge, {"A": "B", "B": "A", "C": "C"})
    g = constant_map(wedge, wedge, "A")
    rep = theorem_A(f, g)
    assert rep.lambda_ == 1
    assert rep.witnesses == ["B"]
    assert rep.conclusion_verified and not rep.inconclusive


def test_theorem_A_rejects_non_vietoris_f(wedge):
    chain2 = build_poset("MN", [("M", "N")])
    f = constant_map(wedge, chain2, "N")  # not surjective, not Vietoris-like
    g = constant_map(wedge, chain2, "M")
    with pytest.raises(HypothesisFailed):
        theorem_A(f, g)


def test_theorem_A_checks_shapes_first(wedge, circle):
    # the identity certifies, so only a shape check stops this pair
    with pytest.raises(ValueError, match="must share source and target"):
        theorem_A(identity_map(wedge), constant_map(wedge, circle, "a"))


def test_theorem_B_down_set_multimap(wedge):
    F = MultiMap(wedge, wedge, {x: wedge.down_set(x) for x in wedge.elements})
    rep = theorem_B(F)
    assert rep.lambda_ == 1
    assert rep.witnesses == ["A", "B", "C"]


def test_theorem_B_inconclusive_on_rotation(circle):
    rot = PosetMap(circle, circle, {"a": "b", "b": "a", "c": "d", "d": "c"})
    from finspace.maps import as_multimap

    rep = theorem_B(as_multimap(rot))
    assert rep.lambda_ == 0
    assert rep.inconclusive and rep.witnesses == []
    assert rep.conclusion_verified  # zero never claims anything


def test_theorem_C_composite_fixed_points():
    X = build_poset(
        "ABCDE",
        [("A", "C"), ("B", "C"), ("A", "D"), ("B", "D"), ("C", "E"), ("D", "E")],
    )
    G0 = MultiMap(X, X, {
        "A": {"C"}, "B": {"D"},
        "C": {"C", "D", "B"}, "D": {"C", "D", "B"}, "E": {"C", "D", "B"}})
    G1 = MultiMap(X, X, {
        "A": {"B"}, "B": {"A"},
        "C": {"A", "B", "C"}, "D": {"A", "B", "D"}, "E": set(X.elements)})
    rep = theorem_C([G0, G1])
    assert rep.lambda_ != 0
    assert rep.witnesses == ["A", "B", "C", "D"]
    composite = compose_multimaps(G0, G1)
    assert [x for x in X.elements if x in composite(x)] == rep.witnesses


def test_theorem_C_validates_chain(wedge, circle):
    F = MultiMap(wedge, wedge, {x: wedge.down_set(x) for x in wedge.elements})
    with pytest.raises(NotComposable):
        theorem_C([])
    with pytest.raises(NotComposable):
        theorem_C([MultiMap(wedge, circle, {x: {"a"} for x in wedge.elements})])
    repB = theorem_B(F)
    repC = theorem_C([F])
    assert repB.lambda_ == repC.lambda_ and repB.witnesses == repC.witnesses


def test_theorem_C_builds_each_link_graph_once(wedge, monkeypatch):
    built = []

    class Spy(maps.GraphSpace):
        def __init__(self, F):
            built.append(F)
            super().__init__(F)

    monkeypatch.setattr(maps, "GraphSpace", Spy)
    F = MultiMap(wedge, wedge, {x: wedge.down_set(x) for x in wedge.elements})
    G = MultiMap(wedge, wedge, {x: {"C"} for x in wedge.elements})
    theorem_C([F, G, F])
    assert built == [F, G]


def test_theorem_C_computes_each_link_F_star_once(wedge, monkeypatch):
    F = MultiMap(wedge, wedge, {x: wedge.down_set(x) for x in wedge.elements})
    G = MultiMap(wedge, wedge, {x: {"C"} for x in wedge.elements})
    stars = [induced_multimap_homology(H) for H in (F, G, F)]
    want = lefschetz_number(stars[0].then(stars[1]).then(stars[2]))
    seen = []
    real = maps._projections_on_core

    def spy(H):
        seen.append(H)
        return real(H)

    monkeypatch.setattr(maps, "_projections_on_core", spy)
    assert theorem_C([F, G, F]).lambda_ == want
    assert seen == [F, G] and seen[0] is F


def test_a_multimap_is_certified_once(wedge, monkeypatch):
    # the graph and p's certificate are kept on F, so certifying F and
    # then running theorem B and F_* certify p once
    certified = []
    real_certify = maps._certify

    def spy(f):
        certified.append(f)
        return real_certify(f)

    monkeypatch.setattr(maps, "_certify", spy)
    F = MultiMap(wedge, wedge, {x: wedge.down_set(x) for x in wedge.elements})
    assert is_vietoris_like_multimap(F).ok
    theorem_B(F)
    induced_multimap_homology(F)
    assert certified == [graph(F).p]


def test_theorem_310_case_3_builds_no_graph(circle, monkeypatch):
    def refuse(F):
        raise AssertionError("theorem_310 case 3 built a graph")

    monkeypatch.setattr(maps, "GraphSpace", refuse)
    F = MultiMap(circle, circle, {x: circle.down_set(x) for x in circle.elements})
    G = MultiMap(circle, circle, {x: circle.up_set(x) for x in circle.elements})
    rep = theorem_310(F, G, case=3)
    assert rep.lambda_ == 0 and rep.witnesses == ["a", "b", "c", "d"]


def test_classical_lefschetz_identity(wedge, circle):
    rep = classical_lefschetz(identity_map(wedge))
    assert rep.lambda_ == 1 and rep.chi_fix == 1 and rep.conclusion_verified
    rep = classical_lefschetz(identity_map(circle))
    assert rep.lambda_ == 0 and rep.chi_fix == 0 and len(rep.witnesses) == 4


def test_classical_report_carries_chi_fix():
    sphere = build_poset(
        "ABCDEF",
        [("C", "A"), ("D", "A"), ("C", "B"), ("D", "B"),
         ("E", "C"), ("F", "C"), ("E", "D"), ("F", "D")],
    )
    report = classical_lefschetz(identity_map(sphere)).as_dict()
    assert report["lambda"] == report["chi_fix"] == 2
    assert report["conclusion_verified"] and not report["inconclusive"]


def test_classical_lefschetz_random_agreement():
    rng = random.Random(123)
    for _ in range(60):
        X = random_poset(rng, 7)
        f = random_endomorphism(rng, X)
        rep = classical_lefschetz(f)
        assert rep.lambda_ == rep.chi_fix
        assert rep.conclusion_verified


def test_corollary_modes(wedge):
    down = MultiMap(wedge, wedge, {x: wedge.down_set(x) for x in wedge.elements})
    rep = corollary_multimap_coincidence(identity_map(wedge), down, mode=1)
    assert rep.lambda_ == 1 and rep.witnesses == ["A", "B", "C"]
    up = MultiMap(wedge, wedge, {x: wedge.up_set(x) for x in wedge.elements})
    rep = corollary_multimap_coincidence(identity_map(wedge), up, mode=2)
    assert rep.witnesses == ["A", "B", "C"]
    with pytest.raises(ValueError):
        corollary_multimap_coincidence(identity_map(wedge), down, mode=9)


def test_corollary_checks_shapes_first(wedge, circle):
    F = MultiMap(wedge, circle, {x: {"a"} for x in wedge.elements})
    for mode in (1, 2):
        with pytest.raises(ValueError, match="must share source and target"):
            corollary_multimap_coincidence(identity_map(wedge), F, mode)


def _outcome(compute):
    try:
        return compute()
    except FinspaceError as exc:
        return type(exc)


def test_map_multimap_lambda_matches_both_expressions():
    # oracle: the two expressions corollary_multimap_coincidence and
    # theorem_310 evaluated inline, uncertified, so failures compare too
    def old_mode_1(f, F):
        return lefschetz_number(
            invert(induced_map_of_poset_map(f)).then(induced_multimap_homology(F))
        )

    def old_mode_2(f, F):
        p_star, q_star = _projections_on_core(F)
        F_inv = invert(q_star).then(p_star)
        return lefschetz_number(F_inv.then(induced_map_of_poset_map(f)))

    seed = 310
    rng = random.Random(seed)
    values = {1: 0, 2: 0}
    for i in range(120):
        X = random_poset(rng, 6)
        f = random_endomorphism(rng, X)
        F = susc_acyclic_multimap(rng, X)
        for mode, old in ((1, old_mode_1), (2, old_mode_2)):
            want = _outcome(lambda: old(f, F))
            got = _outcome(lambda: _map_multimap_lambda(f, F, mode))
            assert got == want, (
                f"seed {seed}, instance {i}, mode {mode}: {got!r} != {want!r}\n"
                f"X:\n{serialize_poset(X)}f:\n{serialize_map(f)}"
                f"F:\n{serialize_multimap(F)}"
            )
            values[mode] += isinstance(want, int)
    # both modes compute a number on some instances and fail on others
    assert 0 < values[1] < 120 and 0 < values[2] < 120, values


def test_theorem_310_cases(wedge):
    down = MultiMap(wedge, wedge, {x: wedge.down_set(x) for x in wedge.elements})
    up = MultiMap(wedge, wedge, {x: wedge.up_set(x) for x in wedge.elements})
    const = MultiMap(wedge, wedge, {x: {"C"} for x in wedge.elements})
    rep = theorem_310(down, down, case=1)
    assert rep.lambda_ == 1 and rep.witnesses == ["A", "B", "C"]
    rep = theorem_310(up, const, case=2)
    assert rep.witnesses == ["A", "B", "C"]
    rep = theorem_310(down, down, case=3)
    assert rep.lambda_ == 1 and rep.witnesses == ["A", "B", "C"]


def test_theorem_310_stops_at_first_selector():
    # G allows every value, so its selectors are all 126 monotone self-maps
    # of the 5-chain; the first one (constant p0) takes 5 assignments
    names = [f"p{i}" for i in range(5)]
    X = build_poset(names, list(zip(names, names[1:])))
    F = MultiMap(X, X, {x: {x} for x in names})
    G = MultiMap(X, X, {x: set(names) for x in names})
    rep = theorem_310(F, G, case=2, budget=5)
    assert rep.lambda_ == 1 and rep.witnesses == names
    with pytest.raises(BudgetExceeded):
        theorem_310(F, G, case=2, budget=4)


def test_theorem_310_no_selector():
    X = build_poset("ABCD", [("C", "A"), ("C", "B"), ("D", "A"), ("D", "B")])
    Y = build_poset(
        "EFGHIJKL",
        [("L", "E"), ("L", "H"), ("K", "H"), ("K", "G"),
         ("J", "G"), ("J", "F"), ("I", "F"), ("I", "E")],
    )
    T = MultiMap(X, Y, {
        "C": {"I"}, "D": {"K"}, "A": {"E", "H", "L"}, "B": {"F", "G", "J"}})
    with pytest.raises((NoSelector, HypothesisFailed)):
        theorem_310(T, T, case=3)


def test_multimap_coincidence_points(wedge):
    down = MultiMap(wedge, wedge, {x: wedge.down_set(x) for x in wedge.elements})
    const = MultiMap(wedge, wedge, {x: {"C"} for x in wedge.elements})
    assert multimap_coincidence_points(down, const) == ["C"]
