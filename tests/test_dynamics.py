"""Subdivision towers and approximative sequences."""

import importlib
import random
from importlib import resources
from itertools import compress

import pytest

from finspace import dynamics, maps
from finspace.complexes import (
    barycentric_subdivision_space,
    chain_map_of,
    chain_max_map,
    induced_simplicial_map,
)
from finspace.dynamics import (
    Tower,
    attach_level_maps,
    build_tower,
    compose_f,
    compose_h,
    fiber_H,
    fixed_chain_search,
    fixed_points_of_level,
    lambda_nm,
)
from finspace.errors import (
    CertificationFailed,
    EmptyValue,
    IndexRange,
    NotContinuous,
    NotInvertible,
    SizeBudgetExceeded,
)
from finspace.formats import (
    parse_map_text,
    parse_poset_text,
    serialize_map,
    serialize_poset,
)
from finspace.homology import (
    _coincidence_number,
    homology,
    induced_map_of_poset_map,
    induced_on_homology,
    invert,
    lefschetz_number,
)
from finspace.lefschetz import coincidence_points
from finspace.maps import (
    MultiMap,
    classify_continuity,
    graph,
    induced_multimap_homology,
    is_vietoris_like_map,
    is_vietoris_like_multimap,
)
from finspace.poset import FinitePoset, PosetMap, build_poset, constant_map
from finspace.random_instances import random_monotone_map, random_poset

# the module, not the function finspace.homology that the package exports
homology_module = importlib.import_module("finspace.homology")
poset_module = importlib.import_module("finspace.poset")


def _fixture(name):
    return resources.files("finspace.fixtures").joinpath(name).read_text()


@pytest.fixture
def chain2():
    return build_poset("MN", [("M", "N")])


@pytest.fixture
def circle():
    return build_poset("abcd", [("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")])


def test_build_tower_chain(chain2):
    t = build_tower(chain2, 1)
    assert len(t.levels[1]) == 3
    h = t.h_maps[0]
    assert h(("M",)) == "M" and h(("N",)) == "N" and h(("M", "N")) == "N"


def test_build_tower_singleton():
    t = build_tower(build_poset("x", []), 3)
    assert all(len(L) == 1 for L in t.levels)


def test_build_tower_circle_sizes(circle):
    t = build_tower(circle, 2)
    assert [len(L) for L in t.levels] == [4, 8, 16]
    for h in t.h_maps:
        assert is_vietoris_like_map(h).ok


def test_size_budget(circle):
    with pytest.raises(SizeBudgetExceeded):
        build_tower(circle, 2, size_budget=10)


def test_size_budget_is_checked_before_the_level_is_built(circle, monkeypatch):
    # build_tower subdivides through complexes._subdivision, one walk per level
    real_subdivision = dynamics._subdivision

    def refuse_large(X):
        X1, hpos = real_subdivision(X)
        assert len(X1) <= 10, f"a level of {len(X1)} points was built past the budget"
        return X1, hpos

    monkeypatch.setattr(dynamics, "_subdivision", refuse_large)
    with pytest.raises(SizeBudgetExceeded, match=r"^level 2 has 16 elements \(budget 10\)$"):
        build_tower(circle, 2, size_budget=10)

    def warned_first(X):
        X1, hpos = real_subdivision(X)
        assert len(X1) <= 5000 or record, "a level past 5000 points came before its warning"
        return X1, hpos

    monkeypatch.setattr(dynamics, "_subdivision", warned_first)
    with pytest.warns(UserWarning, match="level 4 has 5186 elements") as record:
        t = build_tower(parse_poset_text(_fixture("ex2_3_X.txt")), 4)
    assert [len(L) for L in t.levels] == [6, 26, 146, 866, 5186]


def test_compose_h(circle):
    t = build_tower(circle, 2)
    h02 = compose_h(t, 0, 2)
    for x in t.levels[2].elements:
        assert h02(x) == t.h_maps[0](t.h_maps[1](x))
    ident = compose_h(t, 1, 1)
    assert all(ident(x) == x for x in t.levels[1].elements)
    with pytest.raises(IndexRange):
        compose_h(t, 2, 1)
    with pytest.raises(IndexRange):
        compose_h(t, 0, 9)


def test_h_induces_homology_isomorphism(circle):
    t = build_tower(circle, 1)
    m = induced_map_of_poset_map(t.h_maps[0])
    assert lefschetz_number(invert(m).then(m)) == circle.euler_characteristic()


def test_fiber_H(chain2):
    t = build_tower(chain2, 1)
    H = fiber_H(t, 0, 1)
    assert H("N") == frozenset({("N",), ("M", "N")})
    assert t.levels[1].minimum(H("N")) == ("N",)
    assert classify_continuity(H).usc
    assert is_vietoris_like_multimap(H).ok
    ident = fiber_H(t, 1, 1)
    assert all(ident(x) == frozenset({x}) for x in t.levels[1].elements)


def test_fiber_H_names_a_level_outside_the_tower(chain2):
    t = build_tower(chain2, 2)
    with pytest.raises(IndexRange, match=r"^level 5 outside 0\.\.2$"):
        fiber_H(t, 0, 5)
    with pytest.raises(IndexRange, match=r"^level 3 outside 0\.\.2$"):
        fiber_H(t, 3, 3)


def test_fiber_H_deeper(circle):
    t = build_tower(circle, 2)
    for n, m in [(0, 1), (1, 2), (0, 2)]:
        assert is_vietoris_like_multimap(fiber_H(t, n, m)).ok


def test_attach_h_maps_all_points_fixed(circle):
    t = build_tower(circle, 2)
    seq = attach_level_maps(t, t.h_maps)
    for n1 in (1, 2):
        fixed = fixed_points_of_level(seq, n1)
        assert fixed == list(t.levels[n1].elements)
        assert fixed == coincidence_points(seq.f_maps[n1 - 1], t.h_maps[n1 - 1])


def test_attach_validates(chain2):
    t = build_tower(chain2, 1)
    with pytest.raises(IndexRange):
        attach_level_maps(t, [])
    wrong = constant_map(t.levels[0], t.levels[0], "M")
    with pytest.raises(NotContinuous):
        attach_level_maps(t, [wrong])


def test_attach_certification_failure(circle):
    # the chain-maximum map with ('a',) -> c and ('a', 'c') -> a is not
    # monotone: ('a',) < ('a', 'c') but c is not below a
    t = build_tower(circle, 1)
    X1, X0 = t.levels[1], t.levels[0]
    bad = dict(t.h_maps[0].assignment)
    bad[("a",)] = "c"
    bad[("a", "c")] = "a"
    with pytest.raises(NotContinuous) as info:
        attach_level_maps(t, [PosetMap(X1, X0, bad)])
    assert info.value.pair == (("a",), ("a", "c"))
    assert "level map 0 is not continuous at pair" in str(info.value)


def test_attach_certification_failure_names_h_chain():
    # a hand-built tower whose comparison map is the ex2_3 collapse of the
    # sphere model onto M < N, not a chain-maximum map: both fibers are
    # contractible, but their union over (M, N) is the whole sphere
    X = parse_poset_text(_fixture("ex2_3_X.txt"))
    Y = parse_poset_text(_fixture("ex2_3_Y.txt"))
    f = parse_map_text(_fixture("ex2_3_f.txt"), X, Y)
    t = Tower([Y, X], [f])
    with pytest.raises(CertificationFailed) as info:
        attach_level_maps(t, [f])
    assert info.value.level == 1
    message = str(info.value)
    assert "h_0 is not Vietoris-like" in message
    assert "'failing_chain': ['M', 'N']" in message
    # the graph scan rejects the same F
    F = attach_level_maps(t, [f], certify=False).F_maps[0]
    assert not is_vietoris_like_multimap(F).ok


def test_uncertified_attach_names_a_point_with_an_empty_value(chain2):
    """A hand-built tower whose h misses the point M of level 0: a level
    map f that sends ('M',) to M gives F(('M',)) = h^-1(M), empty."""
    X1 = barycentric_subdivision_space(chain2)
    t = Tower([chain2, X1], [constant_map(X1, chain2, "N")])
    f = chain_max_map(X1, chain2)
    with pytest.raises(EmptyValue, match=r"empty image set at \('M',\)"):
        attach_level_maps(t, [f], certify=False)


def test_certified_attach_builds_no_graph(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("certified attach built the graph of F")

    monkeypatch.setattr(maps, "product_subposet", refuse)
    t = build_tower(parse_poset_text(_fixture("ex2_3_X.txt")), 2)
    seq = attach_level_maps(t, t.h_maps)
    assert [len(F.source) for F in seq.F_maps] == [26, 146]


def test_certified_attach_reuses_certificates(monkeypatch):
    t = build_tower(parse_poset_text(_fixture("ex2_3_X.txt")), 2)
    assert all(is_vietoris_like_map(h).ok for h in t.h_maps)

    def refuse(*args, **kwargs):
        raise AssertionError("certified attach ran a Stong worklist")

    monkeypatch.setattr(poset_module, "_stong_core", refuse)
    seq = attach_level_maps(t, t.h_maps)
    assert [len(F.source) for F in seq.F_maps] == [26, 146]


def test_unchecked_attach_multimaps_keep_their_graph():
    # F_maps are gathered without MultiMap's check; each keeps its graph,
    # and Lambda through the kept graph is that of a checked equal copy
    t = build_tower(parse_poset_text(_fixture("ex2_3_X.txt")), 2)
    seq = attach_level_maps(t, t.h_maps, certify=False)
    for F in seq.F_maps:
        fresh = MultiMap(F.source, F.target, F.values)
        assert F == fresh and F._graph is None
        want = lefschetz_number(induced_multimap_homology(fresh))
        assert lefschetz_number(induced_multimap_homology(F)) == want == 2
        kept = graph(F)
        assert lefschetz_number(induced_multimap_homology(F)) == want
        assert graph(F) is kept and kept is not graph(fresh)


def _random_level_maps(seed, count=25):
    """Seeded towers of depth 1 or 2 over random posets, with random
    monotone level maps (h_n where sampling fails).

    Yields (instance index, X0, tower, level maps); an instance whose
    tower exceeds the size budget is skipped.
    """
    rng = random.Random(seed)
    for i in range(count):
        X0 = random_poset(rng, 5)
        depth = rng.randint(1, 2)
        try:
            t = build_tower(X0, depth, size_budget=60)
        except SizeBudgetExceeded:
            continue
        f_maps = []
        for n in range(depth):
            f = random_monotone_map(rng, t.levels[n + 1], t.levels[n], attempts=30)
            f_maps.append(f if f is not None else t.h_maps[n])
        yield i, X0, t, f_maps


def _reversed(X):
    """X with its elements listed in reverse order."""
    return build_poset(list(reversed(X.elements)), X.covers())


def _fixed_chains_by_membership(seq, m):
    """fixed_chain_search's chains found by walking elements down the h
    maps and testing x in F(x) on the multimaps."""
    t = seq.tower
    out = []
    for top in t.levels[-1].elements:
        chain = [top]
        for h in reversed(t.h_maps):
            chain.append(h(chain[-1]))
        chain.reverse()
        if all(chain[n1] in seq.F_maps[n1 - 1](chain[n1])
               for n1 in range(max(m, 1), t.depth + 1)):
            out.append(tuple(chain))
    return out


@pytest.mark.parametrize("seed", range(2))
def test_fixed_points_from_positions_match_membership(seed):
    # fixed points are read off the positions of h and f; the multimaps
    # F = H o f, built from element dicts, are the oracle.  One level map
    # per instance lists its source or its target in reverse, so attach
    # re-indexes it
    checked = fixed = 0
    for i, X0, t, f_maps in _random_level_maps(720 + seed, count=40):
        n = i % t.depth
        f = f_maps[n]
        if i % 2:
            f_maps[n] = PosetMap(_reversed(f.source), f.target, f.assignment)
        else:
            f_maps[n] = PosetMap(f.source, _reversed(f.target), f.assignment)
        seq = attach_level_maps(t, f_maps, certify=False)
        label = (f"seed {720 + seed} instance {i}: X0 = {serialize_poset(X0)!r} "
                 + " ".join(f"f_{k} = {serialize_map(g)!r}" for k, g in enumerate(f_maps)))
        for k, (g, F) in enumerate(zip(f_maps, seq.F_maps)):
            X, H = t.levels[k + 1], t.h_maps[k].fibers()
            assert F == MultiMap(X, X, {x: H[g(x)] for x in X.elements}), label
            want = [x for x in X.elements if x in F(x)]
            assert fixed_points_of_level(seq, k + 1) == want, label
            fixed += 0 < len(want) < len(X)
        for m in range(t.depth + 1):
            assert fixed_chain_search(seq, m) == _fixed_chains_by_membership(seq, m), label
        checked += 1
    assert checked >= 20 and fixed >= 10, (checked, fixed)


def _fixed_chains_by_walk(seq, m):
    """fixed_chain_search as a walk down from every top: each chain is
    built from positions and then tested level by level."""
    t = seq.tower
    N, hpos, fpos = t.depth, seq._hpos, seq._fpos
    out = []
    for top in range(len(t.levels[N])):
        chain = [top]
        for n in range(N - 1, -1, -1):
            chain.append(hpos[n][chain[-1]])
        chain.reverse()
        if all(fpos[n1 - 1][chain[n1]] == chain[n1 - 1] for n1 in range(max(m, 1), N + 1)):
            out.append(tuple(L.elements[i] for L, i in zip(t.levels, chain)))
    return out


@pytest.mark.parametrize("seed", range(2))
def test_fixed_chains_by_marks_match_the_walk_from_every_top(seed):
    # the search marks good points level by level and walks only the good
    # tops; walking every top and testing the whole chain gives the same
    # chains in the same order
    found = 0
    for i, X0, t, f_maps in _random_level_maps(740 + seed, count=40):
        seq = attach_level_maps(t, f_maps, certify=False)
        label = (f"seed {740 + seed} instance {i}: X0 = {serialize_poset(X0)!r} "
                 + " ".join(f"f_{k} = {serialize_map(g)!r}" for k, g in enumerate(f_maps)))
        for m in range(t.depth + 1):
            want = _fixed_chains_by_walk(seq, m)
            assert fixed_chain_search(seq, m) == want, f"{label} m = {m}"
            found += 0 < len(want) < len(t.levels[-1])
    assert found >= 10, found


@pytest.mark.parametrize("seed", range(4))
def test_attach_certificate_agrees_with_graph_scan(seed):
    # certifying h stands in for the graph scan of each F = H o f, which
    # stays the oracle here: whenever attach certifies, the scan must too
    checked = 0
    for i, X0, t, f_maps in _random_level_maps(700 + seed):
        try:
            seq = attach_level_maps(t, f_maps)
        except CertificationFailed:
            continue
        for n, (f, F) in enumerate(zip(f_maps, seq.F_maps)):
            label = (
                f"seed {700 + seed} instance {i} level {n + 1}: "
                f"X0 = {serialize_poset(X0)!r} f_{n} = {serialize_map(f)!r}"
            )
            H = fiber_H(t, n, n + 1)
            assert all(F(x) == H(f(x)) for x in F.source.elements), label
            assert is_vietoris_like_multimap(F).ok, label
            checked += 1
    assert checked >= 20, f"seed {700 + seed}: only {checked} levels checked"


def _lambda_oracle(t, f_maps, n, m):
    """lambda_{n,m} through the checked doors: the chain maps of
    K(h_{n,m}) and K(f_{n,m}) (induced_simplicial_map, chain_map_of),
    checked and read by induced_on_homology in one uncached homology
    basis per level."""
    seq = attach_level_maps(t, f_maps, certify=False)
    h_sm, f_sm = (induced_simplicial_map(g)
                  for g in (compose_h(t, n, m), compose_f(seq, n, m)))
    assert (f_sm.source, f_sm.target) == (h_sm.source, h_sm.target)
    src, dst = homology(h_sm.source), homology(h_sm.target)
    h_star, f_star = (induced_on_homology(chain_map_of(sm), src, dst)
                      for sm in (h_sm, f_sm))
    return _coincidence_number(h_star, f_star)


def _pair_orders(depth, rng):
    """Every pair n < m: in row order, shortest first and shuffled by rng."""
    rows = [(n, m) for n in range(depth) for m in range(n + 1, depth + 1)]
    shortest = sorted(rows, key=lambda nm: (nm[1] - nm[0], nm))
    shuffled = list(rows)
    rng.shuffle(shuffled)
    return {"row": rows, "shortest-first": shortest, "shuffled": shuffled}


@pytest.mark.parametrize("seed", range(700, 704))
def test_lambda_table_matches_oracle_in_any_order(seed):
    instances = depth2 = 0
    for i, X0, t, f_maps in _random_level_maps(seed):
        want = {
            (n, m): _lambda_oracle(t, f_maps, n, m)
            for n in range(t.depth) for m in range(n + 1, t.depth + 1)
        }
        label = (
            f"seed {seed} instance {i}: X0 = {serialize_poset(X0)!r} "
            f"level maps = {[serialize_map(f) for f in f_maps]!r}"
        )
        orders = _pair_orders(t.depth, random.Random(seed * 100 + i))
        for order_name, order in orders.items():
            seq = attach_level_maps(t, f_maps, certify=False)
            for n, m in order:
                got = lambda_nm(seq, n, m)
                assert got == want[n, m], (
                    f"{label} order {order_name}: lambda_nm({n}, {m}) = {got}, "
                    f"oracle {want[n, m]}"
                )
        instances += 1
        depth2 += t.depth == 2
    assert instances >= 20, f"seed {seed}: only {instances} instances checked"
    assert depth2, f"seed {seed}: no depth-2 instance, so no pair spans two steps"


@pytest.mark.parametrize("name, value", [("ex2_3_X.txt", 2), ("circle4.txt", 0)])
@pytest.mark.parametrize("order_name", ["row", "shortest-first"])
def test_lambda_closed_forms_at_depth_3(name, value, order_name):
    # f = h, so every lambda_{n,m} is the Euler characteristic: 2 on the
    # 6-point model of the 2-sphere, 0 on the 4-point circle
    t = build_tower(parse_poset_text(_fixture(name)), 3)
    seq = attach_level_maps(t, t.h_maps, certify=False)
    order = _pair_orders(3, random.Random(0))[order_name]
    assert {nm: lambda_nm(seq, *nm) for nm in order} == {nm: value for nm in order}


def _spy_induced_maps(monkeypatch):
    """The maps lambda_nm hands to induced_map_of_poset_map, from now on."""
    real = dynamics.induced_map_of_poset_map
    calls = []

    def spy(f):
        calls.append(f)
        return real(f)

    monkeypatch.setattr(dynamics, "induced_map_of_poset_map", spy)
    return calls


def test_lambda_table_with_f_equal_to_h_builds_no_induced_map(monkeypatch):
    # with f = h every step cancels, so each pair reads the Euler
    # characteristic of level n and builds no induced map, whatever the
    # order of the table and whatever was asked before
    t = build_tower(parse_poset_text(_fixture("ex2_3_X.txt")), 3)
    seq = attach_level_maps(t, t.h_maps, certify=False)
    calls = _spy_induced_maps(monkeypatch)
    for order in _pair_orders(3, random.Random(0)).values():
        assert {nm: lambda_nm(seq, *nm) for nm in order} == {nm: 2 for nm in order}
        assert not calls


def test_lambda_range_checks_come_before_any_induced_map(circle, monkeypatch):
    t = build_tower(circle, 2)
    seq = attach_level_maps(t, t.h_maps)
    calls = _spy_induced_maps(monkeypatch)
    for _ in range(2):  # before any lambda, then after three
        with pytest.raises(IndexRange, match=r"^level -1 outside 0\.\.2$"):
            lambda_nm(seq, -1, 1)
        with pytest.raises(IndexRange, match=r"^level 3 outside 0\.\.2$"):
            lambda_nm(seq, 0, 3)
        with pytest.raises(IndexRange, match=r"^need n < m, got 2 >= 1$"):
            lambda_nm(seq, 2, 1)
        assert not calls
        for n, m in [(0, 1), (1, 2), (0, 2)]:
            assert lambda_nm(seq, n, m) == 0
        calls.clear()


def test_lambda_raises_when_h_does_not_invert():
    # the ex2_3 collapse of the sphere model onto M < N as a hand-built
    # comparison map: H_2 does not survive, so h_* does not invert
    X = parse_poset_text(_fixture("ex2_3_X.txt"))
    Y = parse_poset_text(_fixture("ex2_3_Y.txt"))
    f = parse_map_text(_fixture("ex2_3_f.txt"), X, Y)
    seq = attach_level_maps(Tower([Y, X], [f]), [f], certify=False)
    with pytest.raises(NotInvertible):
        lambda_nm(seq, 0, 1)


def _reordered(X):
    """X with its elements listed in reverse order: an equal poset."""
    return FinitePoset(X.elements[::-1], [row[::-1] for row in X.leq_matrix()[::-1]])


def test_lambda_never_composes_across_two_profiles_of_a_level(monkeypatch):
    # three discrete points: H_0 of each level has one generator per point,
    # and a level listed in another order gets another basis
    t = build_tower(build_poset("abc", []), 2)
    L1, L2 = t.levels[1].elements, t.levels[2].elements
    f0 = PosetMap(t.levels[1], t.levels[0], dict(zip(L1, "aab")))
    f1 = PosetMap(t.levels[2], t.levels[1], dict(zip(L2, (L1[0], L1[1], L1[0]))))
    # the points a, b, c go to a, a, a: one fixed point
    assert _lambda_oracle(t, [f0, f1], 0, 2) == 1

    seq = attach_level_maps(t, [f0, f1], certify=False)
    cache = homology_module.poset_homology
    cache.cache_clear()
    lambda_nm(seq, 0, 1)
    cache.cache_clear()
    cache(_reordered(t.levels[1]))
    lambda_nm(seq, 1, 2)

    then = homology_module.InducedMap.then

    def one_basis(self, other):
        assert self.target is other.source, "composed across two profiles"
        return then(self, other)

    monkeypatch.setattr(homology_module.InducedMap, "then", one_basis)
    assert lambda_nm(seq, 0, 2) == 1


def test_lambda_with_h_is_euler_characteristic(circle, chain2):
    t = build_tower(circle, 2)
    seq = attach_level_maps(t, t.h_maps)
    for n, m in [(0, 1), (1, 2), (0, 2)]:
        assert lambda_nm(seq, n, m) == circle.euler_characteristic()
    with pytest.raises(IndexRange):
        lambda_nm(seq, 1, 1)


def test_lambda_constant_maps(chain2):
    t = build_tower(chain2, 2)
    f0 = constant_map(t.levels[1], t.levels[0], "M")
    f1 = constant_map(t.levels[2], t.levels[1], ("M",))
    seq = attach_level_maps(t, [f0, f1])
    assert lambda_nm(seq, 0, 1) == 1
    assert lambda_nm(seq, 0, 2) == 1
    assert lambda_nm(seq, 1, 2) == 1


def test_lambda_builds_induced_maps_only_below_the_cancelled_steps(monkeypatch):
    # the top steps with f = h on the tower's listing of their levels
    # cancel, also when f is given on an equal level listed in another
    # order; lambda_nm(n, m) builds h_{n,j*} and f_{n,j*} for the first
    # step j - 1 from the top with f != h, and no induced map if none
    t = build_tower(parse_poset_text(_fixture("ex2_3_X.txt")), 2)
    relisted = [PosetMap(_reordered(t.levels[n + 1]), t.levels[n], h.assignment)
                for n, h in enumerate(t.h_maps)]
    const = constant_map(t.levels[1], t.levels[0], t.levels[0].elements[0])

    # the pair (n, j) of the induced maps lambda_nm(n, m) builds, if any
    everywhere_h = {(0, 1): None, (1, 2): None, (0, 2): None}
    for name, f_maps, built in [
        ("f = h", t.h_maps, everywhere_h),
        ("f = h, relisted", relisted, everywhere_h),
        ("f_0 constant", [const, t.h_maps[1]], {(0, 1): (0, 1), (1, 2): None, (0, 2): (0, 1)}),
    ]:
        for n, m in built:
            want = _lambda_oracle(t, f_maps, n, m)
            seq = attach_level_maps(t, f_maps, certify=False)
            calls = _spy_induced_maps(monkeypatch)
            got = lambda_nm(seq, n, m)
            monkeypatch.undo()
            label = f"{name}: lambda_nm({n}, {m})"
            assert got == want, f"{label} = {got}, oracle {want}"
            pair = built[n, m]
            assert [(f.target, f.source) for f in calls] == (
                [] if pair is None else [(t.levels[pair[0]], t.levels[pair[1]])] * 2
            ), label


def _random_top_h_maps(seed, count=12):
    """Seeded towers of depth 2 or 3 over random posets whose level maps
    equal h on the steps from a random cut up: f_k = h_k for k >= cut, a
    random monotone (else constant) map below it.

    Yields (instance index, X0, tower, level maps, cut).
    """
    rng = random.Random(seed)
    for i in range(count):
        X0 = random_poset(rng, 5, density=0.5)
        depth = rng.randint(2, 3)
        try:
            t = build_tower(X0, depth, size_budget=200)
        except SizeBudgetExceeded:
            continue
        cut = rng.randint(0, depth)
        f_maps = list(t.h_maps)
        for k in range(cut):
            f = random_monotone_map(rng, t.levels[k + 1], t.levels[k], attempts=30)
            f_maps[k] = f if f is not None else constant_map(
                t.levels[k + 1], t.levels[k], t.levels[k].elements[0])
        yield i, X0, t, f_maps, cut


@pytest.mark.parametrize("seed", range(760, 763))
def test_lambda_with_f_equal_to_h_on_the_top_steps_matches_oracle(seed):
    # the top steps cancel and the rest take the homology route: every pair
    # agrees with the oracle, and the table certifies h_k exactly on the
    # steps k with f_k = h_k, so a step with f_k != h_k certifies nothing
    partial = nowhere_h = 0
    for i, X0, t, f_maps, cut in _random_top_h_maps(seed):
        label = (f"seed {seed} instance {i} cut {cut}: X0 = {serialize_poset(X0)!r} "
                 + " ".join(f"f_{k} = {serialize_map(g)!r}" for k, g in enumerate(f_maps)))
        seq = attach_level_maps(t, f_maps, certify=False)
        differ = [seq._fpos[k] != seq._hpos[k] for k in range(t.depth)]
        d = max((k for k in range(t.depth) if differ[k]), default=-1)
        for n in range(t.depth):
            for m in range(n + 1, t.depth + 1):
                want = _lambda_oracle(t, f_maps, n, m)
                got = lambda_nm(seq, n, m)
                assert got == want, f"{label}: lambda_nm({n}, {m}) = {got}, oracle {want}"
                partial += n <= d < m - 1
        assert [h._certificate is None for h in t.h_maps] == differ, label
        nowhere_h += all(differ)
    assert partial >= 5, f"seed {seed}: only {partial} pairs cancel a step and keep one"
    assert nowhere_h, f"seed {seed}: no instance with f != h on every step"


def test_lambda_matches_multimap_lefschetz(circle):
    t = build_tower(circle, 2)
    seq = attach_level_maps(t, t.h_maps)
    for n in (0, 1):
        lam_F = lefschetz_number(induced_multimap_homology(seq.F_maps[n]))
        assert lambda_nm(seq, n, n + 1) == lam_F


def test_fixed_points_match_coincidences(chain2):
    t = build_tower(chain2, 2)
    f0 = constant_map(t.levels[1], t.levels[0], "M")
    f1 = constant_map(t.levels[2], t.levels[1], ("M",))
    seq = attach_level_maps(t, [f0, f1])
    for n1 in (1, 2):
        assert fixed_points_of_level(seq, n1) == coincidence_points(
            seq.f_maps[n1 - 1], t.h_maps[n1 - 1]
        )


def test_fixed_chain_search(chain2, circle):
    # f = h: every top-level element extends to a compatible fixed chain
    t = build_tower(circle, 2)
    seq = attach_level_maps(t, t.h_maps)
    chains = fixed_chain_search(seq, 1)
    assert len(chains) == 16
    for c in chains:
        assert c[1] == t.h_maps[1](c[2]) and c[0] == t.h_maps[0](c[1])
    # singleton tower: exactly the constant chain
    ts = build_tower(build_poset("x", []), 2)
    seqs = attach_level_maps(ts, ts.h_maps)
    assert fixed_chain_search(seqs, 0) == [("x", ("x",), (("x",),))]
    # constant level maps on the 2-chain pin the chain over the bottom point
    tc = build_tower(chain2, 2)
    f0 = constant_map(tc.levels[1], tc.levels[0], "M")
    f1 = constant_map(tc.levels[2], tc.levels[1], ("M",))
    seqc = attach_level_maps(tc, [f0, f1])
    assert fixed_chain_search(seqc, 1) == [("M", ("M",), (("M",),))]


def test_compose_f(chain2):
    t = build_tower(chain2, 2)
    f0 = constant_map(t.levels[1], t.levels[0], "M")
    f1 = constant_map(t.levels[2], t.levels[1], ("M",))
    seq = attach_level_maps(t, [f0, f1])
    f02 = compose_f(seq, 0, 2)
    assert all(f02(x) == "M" for x in t.levels[2].elements)


# -- the tower pass on positions, against copies of the element-wise code -------


def _chain_max_positions_by_elements(X1, X):
    """chain_max_map's positions as they were computed element by element:
    each chain's points looked up in X, the maximum by rank."""
    index, rank, order = X._index, X._rank, X._order
    return [order[max([rank[index[x]] for x in c])] for c in X1.elements]


@pytest.mark.parametrize("seed", range(2))
def test_tower_h_positions_match_chain_max_map(seed):
    # build_tower reads h off the chain walk; chain_max_map, and the old
    # element-wise rule, are the oracles.  Every other tower starts from
    # the reversed listing, whose index order is no linear extension once
    # a relation holds, so h_0 is read by rank there
    rng = random.Random(780 + seed)
    relisted = 0
    for i in range(60):
        X0 = random_poset(rng, 6, density=0.4)
        if i % 2:
            X0 = _reversed(X0)
            relisted += any(u and u[0] < k for k, u in enumerate(X0._up))
        try:
            t = build_tower(X0, 2, size_budget=400)
        except SizeBudgetExceeded:
            t = build_tower(X0, 1)
        label = f"seed {780 + seed} instance {i}: X0 = {serialize_poset(X0)!r}"
        for n, h in enumerate(t.h_maps):
            X, X1 = t.levels[n], t.levels[n + 1]
            sub = barycentric_subdivision_space(X)
            assert X1.elements == sub.elements and X1 == sub, label
            want = _chain_max_positions_by_elements(X1, X)
            assert list(h._pos) == list(chain_max_map(X1, X)._pos) == want, label
            assert h.source is X1 and h.target is X, label
    assert relisted >= 12, relisted


def _fibers_as_before(pos, size):
    fibers = [[] for _ in range(size)]
    for i, j in enumerate(pos):
        fibers[j].append(i)
    return fibers


def _eager_F_maps(t, f_maps):
    """attach_level_maps's multimaps as they were built: every value at
    once, one frozenset per fiber of h, gathered into a MultiMap with no
    check; EmptyValue at the first point whose value is empty."""
    out = []
    for n, (h, f) in enumerate(zip(t.h_maps, f_maps)):
        X, Y = t.levels[n + 1], t.levels[n]
        hpos = [Y.index(h(x)) for x in X.elements]
        fpos = [Y.index(f(x)) for x in X.elements]
        fibers = [frozenset(map(X.elements.__getitem__, fiber))
                  for fiber in _fibers_as_before(hpos, len(Y))]
        if not all(fibers):
            for i, j in enumerate(fpos):
                if not fibers[j]:
                    raise EmptyValue(f"empty image set at {X.elements[i]!r}")
        F = object.__new__(MultiMap)
        F.source, F.target, F._graph = X, X, None
        F.values = dict(zip(X.elements, [fibers[j] for j in fpos]))
        out.append(F)
    return out


def _lifted(X1, X, sigma):
    """The automorphism of the chain poset X1 of X induced by sigma."""
    return {c: tuple(sorted(map(sigma.__getitem__, c), key=X.index)) for c in X1.elements}


def _sphere_level_map_cases():
    """(label, tower, level maps) on the S2 model at depth 2: f = h, a
    constant f, and h o sigma for the three pair swaps sigma, lifted."""
    t = build_tower(parse_poset_text(_fixture("ex2_3_X.txt")), 2)
    yield "f = h", t, list(t.h_maps)
    yield "constant", t, [constant_map(t.levels[n + 1], t.levels[n], t.levels[n].elements[-1])
                          for n in range(2)]
    for k in (1, 2, 3):
        sigma = {x: x for x in t.levels[0].elements}
        for a, b in ("AB", "CD", "EF")[:k]:
            sigma[a], sigma[b] = b, a
        f_maps = []
        for n, h in enumerate(t.h_maps):
            sigma = _lifted(t.levels[n + 1], t.levels[n], sigma)
            f_maps.append(PosetMap(h.source, h.target, {x: h(sigma[x]) for x in h.source.elements}))
        yield f"{k} pairs swapped", t, f_maps


def test_deferred_multimaps_equal_the_eager_ones(monkeypatch):
    # attach keeps positions and builds no value; read, the values, ==,
    # repr, the graph and Lambda are those of the eagerly built multimaps
    for label, t, f_maps in _sphere_level_map_cases():
        assert all(is_vietoris_like_map(h).ok for h in t.h_maps), label
        with monkeypatch.context() as m:
            m.setattr(maps, "_fibers", _no_values)
            seq = attach_level_maps(t, f_maps)
            chains = fixed_chain_search(seq, 1)
            lams = [lambda_nm(seq, n, n + 1) for n in range(2)]
        assert isinstance(seq.F_maps, list) and isinstance(seq.f_maps, list), label
        assert chains == _fixed_chains_by_membership(seq, 1), label
        for F, G, lam in zip(seq.F_maps, _eager_F_maps(t, f_maps), lams):
            assert F.values == G.values and F == G and G == F, label
            assert repr(F) == repr(G), label
            gF, gG = graph(F), graph(G)
            assert gF.space.elements == gG.space.elements and gF.space == gG.space, label
            assert gF.p._pos == gG.p._pos and gF.q._pos == gG.q._pos, label
            assert (lefschetz_number(induced_multimap_homology(F))
                    == lefschetz_number(induced_multimap_homology(G)) == lam), label
            assert classify_continuity(F) == classify_continuity(G), label


def _no_values(*args, **kwargs):
    raise AssertionError("a multimap's values were built")


@pytest.mark.parametrize("seed", range(2))
def test_empty_value_message_is_unchanged(seed):
    # hand-built towers whose h is constant miss every other point below,
    # so the level maps meet empty values; the error names the same point
    rng = random.Random(820 + seed)
    raised = 0
    for i, X0, t, f_maps in _random_level_maps(820 + seed):
        hs = [constant_map(h.source, h.target, rng.choice(h.target.elements)) for h in t.h_maps]
        hand = Tower(t.levels, hs)
        label = f"seed {820 + seed} instance {i}: X0 = {serialize_poset(X0)!r}"
        try:
            _eager_F_maps(hand, f_maps)
        except EmptyValue as exc:
            with pytest.raises(EmptyValue) as info:
                attach_level_maps(hand, f_maps, certify=False)
            assert str(info.value) == str(exc), label
            raised += 1
        else:
            seq = attach_level_maps(hand, f_maps, certify=False)
            assert seq.F_maps == _eager_F_maps(hand, f_maps), label
    assert raised >= 10, raised


def _fixed_chains_as_before(seq, m):
    """fixed_chain_search as it was: marks level by level, then one walk
    down per good top, named point by point."""
    t = seq.tower
    N = t.depth
    hpos, fpos = seq._hpos, seq._fpos
    good = [True] * len(t.levels[0])
    for k in range(1, N + 1):
        h, f = hpos[k - 1], fpos[k - 1]
        good = [good[y] and (k < m or f[x] == y) for x, y in enumerate(h)]
    out = []
    for top in compress(range(len(good)), good):
        chain = [top]
        for n in range(N - 1, -1, -1):
            chain.append(hpos[n][chain[-1]])
        out.append(tuple(L.elements[i] for L, i in zip(t.levels, reversed(chain))))
    return out


@pytest.mark.parametrize("seed", range(2))
def test_fixed_chains_match_the_walk_as_before(seed):
    found = 0
    for i, X0, t, f_maps in _random_level_maps(840 + seed, count=40):
        seq = attach_level_maps(t, f_maps, certify=False)
        label = f"seed {840 + seed} instance {i}: X0 = {serialize_poset(X0)!r}"
        for m in range(t.depth + 1):
            want = _fixed_chains_as_before(seq, m)
            assert fixed_chain_search(seq, m) == want, f"{label} m = {m}"
            found += 0 < len(want) < len(t.levels[-1])
    assert found >= 10, found
    for label, t, f_maps in _sphere_level_map_cases():
        seq = attach_level_maps(t, f_maps)
        for m in range(3):
            assert fixed_chain_search(seq, m) == _fixed_chains_as_before(seq, m), label
