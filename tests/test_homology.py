"""Exact integral homology, induced maps, Lefschetz numbers, inverses."""

import functools
import heapq
import importlib
import itertools
import random
import tracemalloc
from importlib import resources

import pytest
from hypothesis import given, settings, strategies as st

from finspace import complexes, intmat
from finspace.complexes import (
    SimplicialComplex,
    SimplicialMap,
    barycentric_subdivision_space,
    chain_map_of,
    face_poset,
    induced_simplicial_map,
    order_complex,
)
from finspace.errors import (
    BasisSolveFailure,
    EmptySubspace,
    NotAChainMap,
    NotInvertible,
    ProfileMismatch,
)
from finspace.homology import (
    _residual_homology,
    homology,
    induced_map_of_poset_map,
    induced_on_homology,
    invert,
    is_acyclic,
    lefschetz_number,
    poset_homology,
)
from finspace.dynamics import (
    attach_level_maps,
    build_tower,
    fixed_points_of_level,
    lambda_nm,
)
from finspace.formats import parse_poset_text, serialize_map, serialize_poset
from finspace.lefschetz import classical_lefschetz
from finspace.maps import classify_continuity, is_vietoris_like_map
from finspace.poset import FinitePoset, PosetMap, build_poset, constant_map, identity_map
from finspace.random_instances import random_endomorphism, random_monotone_map, random_poset

homology_module = importlib.import_module("finspace.homology")


def _betti(hp):
    b = list(hp.betti)
    while b and b[-1] == 0:
        b.pop()
    return b


def test_point_and_circle_and_sphere():
    pt = build_poset("x", [])
    assert _betti(poset_homology(pt)) == [1]
    circle = build_poset("abcd", [("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")])
    assert _betti(poset_homology(circle)) == [1, 1]
    sphere = build_poset(
        "ABCDEF",
        [("C", "A"), ("D", "A"), ("C", "B"), ("D", "B"),
         ("E", "C"), ("F", "C"), ("E", "D"), ("F", "D")],
    )
    hp = poset_homology(sphere)
    assert _betti(hp) == [1, 0, 1]
    assert hp.euler_characteristic() == 2
    assert not any(hp.torsion)


def test_projective_plane_torsion():
    # 6-vertex triangulation of the projective plane: H1 = Z/2
    facets = [
        (1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 2, 6), (1, 5, 6),
        (2, 3, 5), (2, 4, 5), (2, 4, 6), (3, 4, 6), (3, 5, 6),
    ]
    rp2 = SimplicialComplex.from_simplices(facets)
    hp = homology(rp2)
    assert _betti(hp) == [1]
    assert hp.torsion[1] == [2]
    assert hp.torsion[2] == []


def test_disjoint_points():
    X = build_poset("pqr", [])
    hp = poset_homology(X)
    assert hp.betti_at(0) == 3 and hp.betti_at(1) == 0


def test_class_of_and_errors():
    circle = build_poset("abcd", [("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")])
    hp = poset_homology(circle)
    # the generating cycle round-trips through the basis
    assert hp.class_of(1, hp.free_basis[1][0]) == [1]
    assert hp.class_of(1, {i: -x for i, x in hp.free_basis[1][0].items()}) == [-1]
    with pytest.raises(BasisSolveFailure):
        hp.class_of(1, {0: 1})  # a single edge is not a cycle
    with pytest.raises(BasisSolveFailure):
        hp.class_of(5, {0: 1})


def test_class_of_outside_the_complex():
    # a negative dimension is as absent as one above the top: the empty
    # chain has no coordinates and any other chain is rejected, not read
    # from the end of the per-dimension lists
    circle = build_poset("abcd", [("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")])
    hp = poset_homology(circle)
    z = hp.free_basis[1][0]
    for dim in (-2, -1, 2):
        assert hp.class_of(dim, {}) == [], dim
        with pytest.raises(BasisSolveFailure):
            hp.class_of(dim, z)


def _fixture(name):
    return parse_poset_text(resources.files("finspace.fixtures").joinpath(name).read_text())


def _circle4_homology():
    return poset_homology(_fixture("circle4.txt"))


def test_class_of_rejects_a_negative_simplex_index():
    # not read from the end of the list of simplices
    with pytest.raises(BasisSolveFailure):
        _circle4_homology().class_of(0, {-1: 1})


def test_class_of_rejects_a_simplex_index_past_the_last():
    hp = _circle4_homology()
    assert hp.complex.n_simplices(0) == 4
    with pytest.raises(BasisSolveFailure):
        hp.class_of(0, {4: 1})


def test_class_of_rejects_a_coefficient_that_is_not_an_int():
    hp = _circle4_homology()
    with pytest.raises(BasisSolveFailure):
        hp.class_of(0, {0: 1.5})
    # a zero coefficient is an int, and a chain that has one is read
    assert hp.class_of(0, {0: 1, 1: 0}) == [1]
    assert hp.class_of(1, {0: 0}) == [0]


def test_is_acyclic():
    wedge = build_poset("ABC", [("A", "C"), ("B", "C")])
    assert is_acyclic(wedge)
    circle = build_poset("abcd", [("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")])
    assert not is_acyclic(circle)
    with pytest.raises(EmptySubspace):
        is_acyclic(wedge.subposet(set()))


def _is_acyclic_by_core(X):
    """is_acyclic as computed before its maximum/minimum test."""
    core = X.core()
    if len(core) == 1:
        return True
    return poset_homology(core).is_acyclic()


@pytest.mark.parametrize("seed", range(2))
def test_is_acyclic_matches_core_oracle(seed):
    rng = random.Random(1300 + seed)
    outcomes = set()
    for i in range(120):
        P = random_poset(rng, 8, density=rng.choice([0.15, 0.3, 0.5]))
        S = P.subposet(rng.sample(P.elements, rng.randint(1, len(P))))
        for kind, X in (("poset", P), ("subposet", S)):
            got = is_acyclic(X)
            assert got == _is_acyclic_by_core(X), (
                f"seed {1300 + seed} instance {i} ({kind})\n{serialize_poset(X)}")
            outcomes.add((X.maximum() is not None or X.minimum() is not None, got))
    # cones, acyclic posets without an extremum and non-acyclic ones all occur
    assert outcomes == {(True, True), (False, True), (False, False)}


def test_induced_identity_and_composition():
    circle = build_poset("abcd", [("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")])
    ident = induced_map_of_poset_map(identity_map(circle))
    assert ident.matrix_at(0) == [[1]]
    assert ident.matrix_at(1) == [[1]]
    swap = PosetMap(circle, circle, {"a": "b", "b": "a", "c": "d", "d": "c"})
    sw = induced_map_of_poset_map(swap)
    assert sw.matrix_at(1) == [[1]]
    comp = sw.then(sw)
    assert comp.matrix_at(1) == [[1]]  # swap twice is the identity


def test_composition_reads_zero_matrices_past_a_maps_top():
    # the identity of a point has one matrix, the inclusion of a point into
    # the sphere three: the composite reads the first map as zero past
    # dimension 0, whose matrices are betti-sized, 0 x 0 and 1 x 0
    pt = build_poset("x", [])
    first = induced_map_of_poset_map(identity_map(pt))
    comp = first.then(induced_map_of_poset_map(PosetMap(pt, SPHERE, {"x": "a"})))
    assert [intmat.shape(M) for M in comp.matrices] == [(1, 1), (0, 0), (1, 0)]
    assert comp.matrices == [[[1]], [], [[]]]


def test_rotation_and_reflection_degrees():
    circle = build_poset("abcd", [("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")])
    # swapping both antipodal pairs is a rotation: degree +1, no fixed point
    rot = PosetMap(circle, circle, {"a": "b", "b": "a", "c": "d", "d": "c"})
    m = induced_map_of_poset_map(rot)
    assert m.matrix_at(1) == [[1]]
    assert lefschetz_number(m) == 0
    # swapping one pair only is a reflection: degree -1, two fixed points
    refl = PosetMap(circle, circle, {"a": "b", "b": "a", "c": "c", "d": "d"})
    m = induced_map_of_poset_map(refl)
    assert m.matrix_at(1) == [[-1]]
    assert lefschetz_number(m) == 2
    fix = circle.subposet(set(refl.fixed_points()))
    assert fix.euler_characteristic() == 2


def test_induced_map_on_equal_posets_listed_in_another_order():
    # equal posets share one cached profile, whose complex lists the
    # simplices in the order of the poset cached first
    rels = [("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")]
    refl = {"a": "b", "b": "a", "c": "c", "d": "d"}
    poset_homology.cache_clear()
    for names in ("abcd", "dcba"):
        X = build_poset(names, rels)
        m = induced_map_of_poset_map(PosetMap(X, X, refl))
        assert (m.matrix_at(1), lefschetz_number(m)) == ([[-1]], 2), names


def test_constant_map_induced():
    circle = build_poset("abcd", [("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")])
    c = induced_map_of_poset_map(constant_map(circle, circle, "c"))
    assert c.matrix_at(0) == [[1]]
    assert c.matrix_at(1) == [[0]]
    assert lefschetz_number(c) == 1


def test_lefschetz_profile_mismatch():
    circle = build_poset("abcd", [("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")])
    wedge = build_poset("ABC", [("A", "C"), ("B", "C")])
    f = constant_map(circle, wedge, "C")
    with pytest.raises(ProfileMismatch):
        lefschetz_number(induced_map_of_poset_map(f))


def _three_points_collapsed(names):
    """Three discrete points listed in the order names, and the map
    a -> a, b -> a, c -> b on them: its square has one fixed point."""
    X = build_poset(names, [])
    return PosetMap(X, X, {"a": "a", "b": "a", "c": "b"})


def test_composition_across_two_listings_of_a_poset_raises():
    # after a cleared cache the equal poset listed cba gets its own
    # complex, and H_0 another basis: g_* o f_* would trace to 2, not 1
    poset_homology.cache_clear()
    f_star = induced_map_of_poset_map(_three_points_collapsed("abc"))
    poset_homology.cache_clear()
    g_star = induced_map_of_poset_map(_three_points_collapsed("cba"))
    with pytest.raises(ProfileMismatch):
        f_star.then(g_star)


def test_composition_across_a_cleared_cache_keeps_one_basis():
    # recomputing the same listing gives an equal complex, so one basis
    f = _three_points_collapsed("abc")
    poset_homology.cache_clear()
    f_star = induced_map_of_poset_map(f)
    want = lefschetz_number(f_star.then(f_star))
    poset_homology.cache_clear()
    g_star = induced_map_of_poset_map(f)
    assert g_star.source is not f_star.target
    assert lefschetz_number(f_star.then(g_star)) == want == 1


def test_trace_between_two_spaces_raises():
    # a homeomorphism between two circles: equal homology, no trace
    abcd = build_poset("abcd", [("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")])
    ABCD = build_poset("ABCD", [("A", "C"), ("A", "D"), ("B", "C"), ("B", "D")])
    f = PosetMap(abcd, ABCD, dict(zip("abcd", "ABCD")))
    with pytest.raises(ProfileMismatch):
        lefschetz_number(induced_map_of_poset_map(f))


def test_invert_errors():
    circle = build_poset("abcd", [("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")])
    c = induced_map_of_poset_map(constant_map(circle, circle, "c"))
    with pytest.raises(NotInvertible) as exc:
        invert(c)
    assert exc.value.dimension == 1
    ident = induced_map_of_poset_map(identity_map(circle))
    inv = invert(ident)
    assert inv.matrix_at(1) == [[1]]


def test_induced_on_homology_rejects_non_chain_maps():
    circle = build_poset("abcd", [("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")])
    hp = poset_homology(circle)
    cm = chain_map_of(induced_simplicial_map(identity_map(circle)))
    assert induced_on_homology(cm, hp, hp).matrix_at(1) == [[1]]
    broken = [dict(col) for col in cm[1]]
    broken[0][0] = broken[0].get(0, 0) + 1
    with pytest.raises(NotAChainMap):
        induced_on_homology([cm[0], broken], hp, hp)
    with pytest.raises(NotAChainMap):  # a column missing
        induced_on_homology([cm[0], cm[1][:-1]], hp, hp)
    with pytest.raises(NotAChainMap):  # a dimension missing
        induced_on_homology([cm[0]], hp, hp)
    with pytest.raises(NotAChainMap):  # a row outside the target
        induced_on_homology([cm[0], cm[1][:-1] + [{len(cm[1]): 1}]], hp, hp)


def test_induced_on_homology_rejects_a_coefficient_that_is_not_an_int():
    hp = _circle4_homology()
    # the identity columns, scaled by 1/2
    half = [[{j: 0.5} for j in range(hp.complex.n_simplices(d))] for d in range(2)]
    with pytest.raises(NotAChainMap):
        induced_on_homology(half, hp, hp)


def test_subdivision_invariance_sample():
    rng = random.Random(11)
    for _ in range(20):
        X = random_poset(rng, 5)
        X1 = barycentric_subdivision_space(X)
        a, b = poset_homology(X), poset_homology(X1.core())
        assert a.same_shape(b), (X.elements, a.summary(), b.summary())


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_euler_characteristic_matches_betti(seed):
    rng = random.Random(seed)
    X = random_poset(rng, 5)
    hp = poset_homology(X)
    assert hp.euler_characteristic() == X.euler_characteristic()


# -- differential checks against independent oracles ------------------------

SPHERE = build_poset(
    "abcdef",
    [("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"),
     ("c", "e"), ("c", "f"), ("d", "e"), ("d", "f")],
)
RP2_FACETS = [
    (1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 2, 6), (1, 5, 6),
    (2, 3, 5), (2, 4, 5), (2, 4, 6), (3, 4, 6), (3, 5, 6),
]


def _dense_profile(K):
    """Betti numbers and torsion read straight off dense Smith forms."""
    top = len(K.simplices)
    return _smith_profile(
        [K.boundary_matrix(d) for d in range(top + 1)],
        [K.n_simplices(d) for d in range(top + 1)],
    )


def _smith_profile(R, sizes):
    """The same for dense boundaries R[d]: Z^sizes[d] -> Z^sizes[d-1], d <= top + 1."""
    factors = [
        intmat.smith_normal_form(M, ncols=n).invariant_factors for M, n in zip(R, sizes)
    ]
    top = len(sizes) - 1
    betti = [sizes[d] - len(factors[d]) - len(factors[d + 1]) for d in range(top)]
    torsion = [[x for x in factors[d + 1] if x > 1] for d in range(top)]
    return betti, torsion


def _random_chain_complex(rng):
    """Dense boundaries Z^m <- Z^n <- Z^l with R[1] R[2] = 0 and non-unit entries.

    Q is a random unimodular matrix, built with its inverse Qi from
    elementary column operations.  R[1] = [M 0] Qi kills the last k
    columns of Q, and R[2] = (those columns) T.
    """
    m, n, l = rng.randint(1, 4), rng.randint(2, 5), rng.randint(1, 3)
    k = rng.randint(1, n - 1)
    Q, Qi = intmat.identity(n), intmat.identity(n)
    for _ in range(3 * n):
        i, j = rng.sample(range(n), 2)
        c = rng.randint(-2, 2)
        for row in Q:  # Q <- Q E, E adding c * column i to column j
            row[j] += c * row[i]
        Qi[i] = [a - c * b for a, b in zip(Qi[i], Qi[j])]  # Qi <- E^-1 Qi
    M = [[rng.randint(-3, 3) for _ in range(n - k)] + [0] * k for _ in range(m)]
    T = [[rng.randint(-3, 3) for _ in range(l)] for _ in range(k)]
    R = [intmat.zeros(0, m), intmat.matmul(M, Qi),
         intmat.matmul(intmat.hstack_cols(Q, range(n - k, n)), T)]
    return R, [m, n, l]


def _check_against_smith_forms(K, label):
    hp = homology(K)
    assert (hp.betti, hp.torsion) == _dense_profile(K), label
    for d, basis in enumerate(hp.free_basis):
        assert len(basis) == hp.betti[d], label
        n = K.n_simplices(d)
        D = K.boundary_matrix(d)
        # the boundary of a fixed (d+1)-chain, added to get homologous cycles
        w = [k % 3 - 1 for k in range(K.n_simplices(d + 1))]
        shift = [0] * n
        if w:
            shift = [r[0] for r in intmat.matmul(K.boundary_matrix(d + 1), [[x] for x in w])]
        for j, cycle in enumerate(basis):
            assert all(0 <= i < n and x for i, x in cycle.items()), label
            col = [cycle.get(i, 0) for i in range(n)]
            assert not any(map(any, intmat.matmul(D, [[x] for x in col]))), (
                f"{label}: basis {d}.{j} is no cycle")
            unit = [int(i == j) for i in range(hp.betti[d])]
            assert hp.class_of(d, cycle) == unit, f"{label}: class of basis {d}.{j}"
            col = {i: x + y for i, (x, y) in enumerate(zip(col, shift)) if x + y}
            assert hp.class_of(d, col) == unit, f"{label}: class of shifted {d}.{j}"


def _rank_mod_p(M, p):
    """Rank over GF(p) of an integer matrix, by row reduction."""
    rows = [[x % p for x in row] for row in M]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][c], -1, p)
        for r in range(rank + 1, len(rows)):
            k = rows[r][c] * inv % p
            if k:
                rows[r] = [(x - k * y) % p for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def _check_against_ranks_mod_p(K, label):
    """dim H_d(K; GF(p)) = b_d + t_d(p) + t_{d-1}(p) (universal coefficients).

    t_d(p) counts the invariant factors of H_d divisible by p.
    """
    hp = homology(K)
    top = len(K.simplices)
    for p in (2, 3):
        ranks = [_rank_mod_p(K.boundary_matrix(d), p) for d in range(top + 1)]
        # t[-1] = 0 stands for the torsion of H_{-1}
        t = [sum(1 for x in hp.torsion[d] if x % p == 0) for d in range(top)] + [0]
        for d in range(top):
            lhs = K.n_simplices(d) - ranks[d] - ranks[d + 1]
            assert lhs == hp.betti[d] + t[d] + t[d - 1], f"{label}: p = {p}, d = {d}"


def _hopf_trace(f):
    cm = chain_map_of(induced_simplicial_map(f))
    return sum(
        (-1) ** d * sum(col.get(j, 0) for j, col in enumerate(cols))
        for d, cols in enumerate(cm)
    )


@pytest.mark.parametrize("seed", range(5))
def test_homology_matches_dense_smith_forms(seed):
    rng = random.Random(seed)
    for i in range(12):
        X = random_poset(rng, 7)
        label = f"seed {seed} instance {i}: {serialize_poset(X)!r}"
        _check_against_smith_forms(order_complex(X), label)


def test_homology_matches_dense_smith_forms_on_rp2_and_sphere_level1():
    _check_against_smith_forms(SimplicialComplex.from_simplices(RP2_FACETS), "RP2")
    level1 = barycentric_subdivision_space(SPHERE)
    _check_against_smith_forms(order_complex(level1), "S2 tower level 1")


def test_residual_smith_stage_on_unreduced_complexes():
    # whole complexes with non-unit entries, so that U, V and their
    # inverses are far from identities; each also with R[1], R[2] or both
    # zeroed, still a chain complex, where the Smith forms are skipped
    rng = random.Random(300)
    K = SimplicialComplex.from_simplices(RP2_FACETS)
    corpus = [("RP2", [K.boundary_matrix(d) for d in range(3)], [6, 15, 10])]
    for i in range(60):
        R, sizes = _random_chain_complex(rng)
        corpus.append((f"seed 300 instance {i}: {R!r}", R, sizes))
    for label, R, sizes in corpus:
        zero1, zero2 = intmat.zeros(sizes[0], sizes[1]), intmat.zeros(sizes[1], sizes[2])
        above = intmat.zeros(sizes[-1], 0)
        variants = [
            (label, R),
            (f"{label}, R[1] zeroed", [R[0], zero1, R[2]]),
            (f"{label}, R[2] zeroed", [R[0], R[1], zero2]),
            (f"{label}, R[1] and R[2] zeroed", [R[0], zero1, zero2]),
        ]
        for name, Rv in variants:
            betti, torsion, bases, projs = _residual_homology(Rv, sizes)
            assert (betti, torsion) == _smith_profile(Rv + [above], sizes + [0]), name
            for d, (B, P) in enumerate(zip(bases, projs)):
                assert intmat.matmul(P, B) == intmat.identity(betti[d]), name
                if d:
                    assert not any(map(any, intmat.matmul(Rv[d], B))), f"{name}: cycles {d}"
                if d + 1 < len(sizes):
                    assert not any(map(any, intmat.matmul(P, Rv[d + 1]))), (
                        f"{name}: boundaries {d}")
        # the last variant is the zero complex
        for d, n in enumerate(sizes):
            assert bases[d] == projs[d] == intmat.identity(n), f"{name}: dimension {d}"


@pytest.mark.parametrize("seed", range(5))
def test_homology_matches_ranks_mod_p(seed):
    rng = random.Random(200 + seed)
    for i in range(12):
        X = random_poset(rng, 7)
        label = f"seed {200 + seed} instance {i}: {serialize_poset(X)!r}"
        _check_against_ranks_mod_p(order_complex(X), label)


def test_homology_matches_ranks_mod_p_on_rp2_and_sphere_level1():
    _check_against_ranks_mod_p(SimplicialComplex.from_simplices(RP2_FACETS), "RP2")
    level1 = barycentric_subdivision_space(SPHERE)
    _check_against_ranks_mod_p(order_complex(level1), "S2 tower level 1")


def _spy_on_residuals(monkeypatch):
    """Record the dense boundaries that homology() hands to the Smith stage."""
    seen = []

    def spy(R, sizes):
        seen.append((R, list(sizes)))
        return _residual_homology(R, sizes)

    monkeypatch.setattr(homology_module, "_residual_homology", spy)
    return seen


def _spy_on_smith_stage(monkeypatch):
    """Record the Smith forms and unimodular inverses that homology() takes."""
    calls = []
    smith, inverse = homology_module.smith_normal_form, intmat.unimodular_inverse

    def smith_spy(M, ncols=None):
        calls.append("smith_normal_form")
        return smith(M, ncols=ncols)

    def inverse_spy(M):
        calls.append("unimodular_inverse")
        return inverse(M)

    monkeypatch.setattr(homology_module, "smith_normal_form", smith_spy)
    monkeypatch.setattr(intmat, "unimodular_inverse", inverse_spy)
    return calls


def test_residual_is_minimal_on_the_benchmark_shapes(monkeypatch):
    # the order complexes of the 10-point total order (1023 simplices) and
    # of S2 level 2: a matching that leaves more critical cells grows the
    # dense Smith stage.  Their Morse complexes are zero, so no Smith form
    # or inverse runs; one that does means the zero-boundary skip regressed.
    seen = _spy_on_residuals(monkeypatch)
    calls = _spy_on_smith_stage(monkeypatch)
    names = [f"p{i}" for i in range(10)]
    homology(order_complex(build_poset(names, list(zip(names, names[1:])))))
    assert seen[-1][1] == [1] + [0] * 9
    assert calls == []
    homology(order_complex(build_tower(SPHERE, 2).levels[2]))
    assert seen[-1][1] == [1, 0, 1]
    assert calls == []


# H_1 = Z, yet coreduction leaves critical cells whose Morse boundary has
# a unit entry
STUCK_FACETS = [(0, 1, 3), (0, 2, 3), (0, 2, 5), (1, 2, 5), (1, 3, 5), (3, 4, 5)]


def _has_unit_entry(R):
    return any(x in (1, -1) for M in R for row in M for x in row)


def test_homology_through_a_unit_morse_boundary(monkeypatch):
    seen = _spy_on_residuals(monkeypatch)
    K = SimplicialComplex.from_simplices(STUCK_FACETS)
    _check_against_smith_forms(K, f"facets {STUCK_FACETS!r}")
    _check_against_ranks_mod_p(K, f"facets {STUCK_FACETS!r}")
    assert _has_unit_entry(seen[-1][0])
    assert homology(K).betti == [1, 1, 0]


def test_smith_stage_runs_on_a_nonzero_morse_boundary(monkeypatch):
    # the skip of zero boundaries must not reach a nonzero one: the RP2
    # face poset leaves the Morse boundary Z <-0- Z <-2- Z
    stuck = SimplicialComplex.from_simplices(STUCK_FACETS)
    rp2 = order_complex(face_poset(SimplicialComplex.from_simplices(RP2_FACETS)))
    seen = _spy_on_residuals(monkeypatch)
    calls = _spy_on_smith_stage(monkeypatch)
    for label, K in (("STUCK_FACETS", stuck), ("RP2 face poset", rp2)):
        calls.clear()
        homology(K)
        assert calls, label
    assert seen[-1][0] == [[], [[0]], [[2]]]
    assert homology(rp2).torsion == [[], [2], []]


def _random_2_complexes(seed):
    """Forty seeded 2-complexes on 5-8 vertices with 4-14 triangles, labelled."""
    rng = random.Random(400 + seed)
    for i in range(40):
        triangles = list(itertools.combinations(range(rng.randint(5, 8)), 3))
        facets = rng.sample(triangles, rng.randint(4, min(14, len(triangles))))
        yield (f"seed {400 + seed} instance {i}: facets {facets!r}",
               SimplicialComplex.from_simplices(facets))


@pytest.mark.parametrize("seed", range(5))
def test_homology_matches_oracles_on_random_2_complexes(seed):
    for label, K in _random_2_complexes(seed):
        _check_against_smith_forms(K, label)
        _check_against_ranks_mod_p(K, label)


def test_random_2_complexes_reach_a_unit_morse_boundary(monkeypatch):
    # order complexes almost never leave a residual with a unit entry; a
    # few of these complexes do, so the oracles above see flows through one
    seen = _spy_on_residuals(monkeypatch)
    for seed in range(5):
        for _, K in _random_2_complexes(seed):
            homology(K)
    assert sum(_has_unit_entry(R) for R, _ in seen) >= 3


def test_one_basis_per_complex():
    # the premise of homology._one_basis: equal complexes, one basis
    spaces = [
        ("S2 level 2", order_complex(build_tower(SPHERE, 2).levels[2])),
        ("RP2", SimplicialComplex.from_simplices(RP2_FACETS)),
    ]
    for label, K in spaces:
        K2 = SimplicialComplex(K.vertices, K.simplices)
        assert K2 == K, label
        hp, hp2 = homology(K), homology(K2)
        assert hp2.free_basis == hp.free_basis, label
        assert hp2._free_proj == hp._free_proj, label


@pytest.mark.parametrize("seed", range(5))
def test_lefschetz_number_equals_hopf_trace(seed):
    rng = random.Random(100 + seed)
    spaces = [random_poset(rng, 7) for _ in range(8)] + [SPHERE]
    for i, X in enumerate(spaces):
        f = random_endomorphism(rng, X)
        label = f"seed {100 + seed} instance {i}: {serialize_poset(X)!r} {serialize_map(f)!r}"
        assert lefschetz_number(induced_map_of_poset_map(f)) == _hopf_trace(f), label


@pytest.fixture(scope="module")
def sphere_tower3():
    return build_tower(SPHERE, 3)


def test_sphere_tower_level3_homology(sphere_tower3):
    # 866 points, f-vector [866, 2592, 1728]
    level3 = sphere_tower3.levels[3]
    assert len(level3) == 866
    hp = poset_homology(level3)
    assert _betti(hp) == [1, 0, 1]
    assert not any(hp.torsion)


def test_sphere_tower_level3_comparison_map_is_vietoris_like(sphere_tower3):
    h = sphere_tower3.h_maps[2]
    assert (len(h.source), len(h.target)) == (866, 146)
    assert is_vietoris_like_map(h).ok


def test_sphere_tower_level3_certified_attach(sphere_tower3):
    # f = h at every level: every point is fixed and Λ = χ(S²)
    seq = attach_level_maps(sphere_tower3, sphere_tower3.h_maps)
    assert len(seq.F_maps) == 3
    assert fixed_points_of_level(seq, 3) == list(sphere_tower3.levels[3].elements)
    assert lambda_nm(seq, 2, 3) == 2


def test_classify_continuity_of_level3_multimap_in_small_memory(sphere_tower3):
    # F_3 = H o h on the 866-point level 3: broadcasting over (|X|, |Y|, |Y|)
    # peaked above 1 GiB here, the matrix products stay near |X| x |Y|
    F = attach_level_maps(sphere_tower3, sphere_tower3.h_maps, certify=False).F_maps[2]
    assert (len(F.source), len(F.target)) == (866, 866)
    tracemalloc.start()
    try:
        flags = classify_continuity(F)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert flags.as_dict() == {"usc": True, "lsc": False, "susc": False, "slsc": False}
    assert peak < 64 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MiB"


# -- the chain walk's face table against slicing and hashing ----------------


def _depth_first_chains(P):
    """Every chain as a leq-increasing index tuple, in lexicographic order,
    by the depth-first walk the level-by-level walk replaced."""
    succ = [up[::-1] for up in P._up]
    stack, out = [(i,) for i in reversed(range(len(P)))], []
    while stack:
        c = stack.pop()
        out.append(c)
        stack.extend([c + (j,) for j in succ[c[-1]]])
    return out


def _hashed_faces(K):
    """The face rows of K found by slicing each simplex and hashing it."""
    levels, faces = K._isimplices, [()] * K.n_simplices(0)
    for d in range(1, len(levels)):
        index, off = complexes._simplex_dict(K, d - 1), len(faces) - len(levels[d - 1])
        faces += zip(*[
            [index[s[:k] + s[k + 1:]] + off for s in levels[d]] for k in range(d + 1)
        ])
    return faces


class _HashedCoreduction:
    """The coreduction matching on hashed face rows, as it was built
    before the chain walk handed over its face table."""

    def __init__(self, K):
        levels = K._isimplices
        offsets = [0]
        for level in levels:
            offsets.append(offsets[-1] + len(level))
        total = offsets[-1]
        self.faces = faces = _hashed_faces(K)
        cofaces = [[] for _ in range(offsets[-2])] + [()] * len(levels[-1])
        for c in range(offsets[1], total):
            for f in faces[c]:
                cofaces[f].append(c)
        count = [len(f) for f in faces]
        done = bytearray(total)
        self.mate = mate = [-1] * total
        self.pairs = pairs = [[] for _ in levels]
        self.aces = aces = [[] for _ in levels]
        queue = []
        for d in range(len(levels)):
            for a in range(offsets[d], offsets[d + 1]):
                if done[a]:
                    continue
                aces[d].append(a)
                processed = (a,)
                while processed:
                    for c in processed:
                        done[c] = 1
                        for j in cofaces[c]:
                            count[j] -= 1
                            if count[j] == 1:
                                queue.append(j)
                    processed = ()
                    while queue:
                        k = queue.pop()
                        if not done[k] and count[k] == 1:
                            pos = next(i for i, q in enumerate(faces[k]) if not done[q])
                            q = faces[k][pos]
                            level_pairs = pairs[len(faces[k]) - 2]
                            mate[q] = len(level_pairs)
                            level_pairs.append((q, k, pos))
                            processed = (q, k)
                            break
        self.lift, self.cols = {}, {}
        for level in aces[1:]:
            for a in level:
                self.lift[a], self.cols[a] = self._flow(a)

    def _flow(self, a):
        faces, mate = self.faces, self.mate
        pairs = self.pairs[len(faces[a]) - 2]
        boundary, heap = {}, []
        for pos, f in enumerate(faces[a]):
            boundary[f] = -1 if pos & 1 else 1
            if mate[f] >= 0:
                heap.append(-mate[f])
        heapq.heapify(heap)
        chain = {a: 1}
        while heap:
            q, k, qpos = pairs[-heapq.heappop(heap)]
            x = boundary.pop(q, 0)
            if not x:
                continue
            y = x if qpos & 1 else -x
            chain[k] = y
            for pos, g in enumerate(faces[k]):
                if pos == qpos:
                    continue
                old = boundary.get(g, 0)
                new = old - y if pos & 1 else old + y
                if new:
                    boundary[g] = new
                    if not old and mate[g] >= 0:
                        heapq.heappush(heap, -mate[g])
                else:
                    del boundary[g]
        return chain, boundary


def _shuffled(rng, X):
    """X with its elements listed in a random order."""
    names = list(X.elements)
    rng.shuffle(names)
    return build_poset(names, [(x, y) for x in names for y in names if X.lt(x, y)])


def _walk_oracle_instances(seed):
    """(label, poset): posets whose index order is no linear extension,
    random posets as drawn and shuffled, and tower levels."""
    rng = random.Random(seed)
    rels = [(x, y) for x in SPHERE.elements for y in SPHERE.elements if SPHERE.lt(x, y)]
    yield "S2 model listed fedcba", build_poset("fedcba", rels)
    for i in range(120):
        X = random_poset(rng, rng.randint(1, 8), density=rng.choice([0.2, 0.5, 0.8]))
        yield f"seed {seed}, instance {i}", X if i % 3 == 0 else _shuffled(rng, X)
    towers = [("S2", SPHERE, 3), ("RP2", _fixture("rp2.txt"), 1),
              ("circle", _fixture("circle4.txt"), 4)]
    for name, X, depth in towers:
        for n, level in enumerate(build_tower(X, depth).levels):
            yield f"{name} level {n}", level


def _is_linear_extension(P):
    return all(i < j for i, up in enumerate(P._up) for j in up)


def test_chain_walk_matches_slicing_and_hashing():
    # the walk's simplices, asked with or without faces, its face rows
    # (_chain_faces) and the coreduction matching are those of the
    # depth-first walk and of faces found by slicing and hashing
    seed = 2929
    scrambled = 0
    for label, P in _walk_oracle_instances(seed):
        label = f"{label}\n{serialize_poset(P)}"
        K, faces = complexes._order_complex(P, faces=True)
        assert complexes._order_complex(P) == (K, None), label
        by_dim = [[] for _ in K._isimplices]
        for c in _depth_first_chains(P):
            by_dim[len(c) - 1].append(tuple(sorted(c)))
        assert K._isimplices == tuple(map(tuple, by_dim)), label
        assert faces == _hashed_faces(K), label
        if len(P):
            got, want = homology_module._Coreduction(K, faces), _HashedCoreduction(K)
            for name in ("aces", "pairs", "mate", "lift", "cols"):
                assert getattr(got, name) == getattr(want, name), f"{name}: {label}"
        scrambled += not _is_linear_extension(P)
    assert scrambled >= 30, scrambled


# -- cones ---------------------------------------------------------------------


def _assert_same_profile(got, want, label):
    # a cone's complex walks here, on its first read
    for name in ("betti", "torsion", "free_basis", "_free_proj", "complex"):
        assert getattr(got, name) == getattr(want, name), f"{name}: {label}"


def _is_cone(X):
    return X.maximum() is not None or X.minimum() is not None


def _cone_cases():
    names = [f"p{i}" for i in range(10)]
    yield "10-point total order", build_poset(names, list(zip(names, names[1:])))
    yield "one point", build_poset(["a"], [])
    yield "a minimum only", build_poset("abc", [("a", "b"), ("a", "c")])
    yield "maximum listed first", build_poset("zab", [("a", "z"), ("b", "z")])


def test_cone_profile_matches_the_coreduction():
    # a poset with a maximum or a minimum skips the matching; its profile
    # is the one the coreduction and the Smith stage give, basis included
    seed = 3131
    rng = random.Random(seed)
    cones = scrambled = 0
    for i in range(3000):
        X = random_poset(rng, 8, density=rng.choice([0.3, 0.5, 0.8]))
        X = X if i % 2 == 0 else _shuffled(rng, X)
        label = f"seed {seed}, instance {i}\n{serialize_poset(X)}"
        want = homology_module._homology(*complexes._order_complex(X, faces=True))
        _assert_same_profile(poset_homology.__wrapped__(X), want, label)
        if _is_cone(X):
            cones += 1
            scrambled += not _is_linear_extension(X)  # relisted cones
    assert cones >= 1600 and scrambled >= 500, (cones, scrambled)
    for label, X in _cone_cases():
        want = homology_module._homology(*complexes._order_complex(X, faces=True))
        _assert_same_profile(poset_homology.__wrapped__(X), want, label)
        assert want.betti == [1] + [0] * (len(want.betti) - 1), label
    assert poset_homology.__wrapped__(build_poset([], [])).betti == []


def test_cones_build_no_matching(monkeypatch):
    built = []

    class Spy(homology_module._Coreduction):
        def __init__(self, K, faces):
            built.append(K)
            super().__init__(K, faces)

    monkeypatch.setattr(homology_module, "_Coreduction", Spy)
    for label, X in _cone_cases():
        poset_homology.__wrapped__(X)
        assert built == [], label
    assert poset_homology.__wrapped__(build_tower(SPHERE, 2).levels[2]).betti == [1, 0, 1]
    assert len(built) == 1


def _no_walk(*args, **kwargs):
    raise AssertionError("the chain walk ran")


def test_cones_walk_no_chain_until_the_complex_is_read(monkeypatch):
    # with the chain walk made to fail, a cone's profile, Lambda(f) =
    # chi(Fix f) and Lambda of an induced map still come out; the complex
    # walks on its first read and is then order_complex(X)
    rng = random.Random(3535)
    names = [f"p{i}" for i in range(10)]
    for label, X in _cone_cases():
        want = order_complex(X)
        maps = [random_endomorphism(rng, X) for _ in range(5)]
        if label == "10-point total order":
            maps.append(PosetMap(X, X, {x: names[min(i + 1, 9)] for i, x in enumerate(names)}))
        poset_homology.cache_clear()
        with monkeypatch.context() as m:
            m.setattr(FinitePoset, "_index_chains", _no_walk)
            hp = poset_homology(X)
            assert hp.betti == [1] + [0] * want.dimension, label
            for f in maps:
                rep = classical_lefschetz(f)
                assert rep.lambda_ == rep.chi_fix == 1 and rep.conclusion_verified, label
                assert lefschetz_number(induced_map_of_poset_map(f)) == 1, label
        assert hp.complex.n_simplices(1) == want.n_simplices(1), label
        assert hp.complex == want, label
    poset_homology.cache_clear()


def test_two_profiles_of_one_cone_meet_in_one_basis_with_no_walk(monkeypatch):
    # the shift of an 18-point total order (262,143 chains): its induced
    # map taken before and after a cleared cache has two profiles, whose
    # unwalked complexes are equal because their posets and listings are;
    # so composing the two walks no chain
    names = [f"p{i}" for i in range(18)]
    X = build_poset(names, list(zip(names, names[1:])))
    f = PosetMap(X, X, {x: names[min(i + 1, 17)] for i, x in enumerate(names)})
    with monkeypatch.context() as m:
        m.setattr(FinitePoset, "_index_chains", _no_walk)
        poset_homology.cache_clear()
        a = induced_map_of_poset_map(f)
        poset_homology.cache_clear()
        b = induced_map_of_poset_map(f)
        assert a.target is not b.source
        assert a.then(b).matrix_at(0) == [[1]] and lefschetz_number(a.then(b)) == 1
        # two listings of one poset are two complexes, told apart unwalked
        relisted = build_poset(names[::-1], list(zip(names, names[1:])))
        poset_homology.cache_clear()
        assert poset_homology(relisted).complex != a.target.complex
    # equal complexes hash alike, walked or not, and equal the eager one
    K, L = a.target.complex, b.source.complex
    assert K == L == order_complex(X) and hash(K) == hash(L) == hash(order_complex(X))
    assert order_complex(X) == K
    poset_homology.cache_clear()


def test_unwalked_cones_of_unequal_posets_with_one_complex_are_equal():
    # a < b < c and c < b < a, one listing: two posets, one order complex;
    # their deferred complexes compare equal by walking, and a map across
    # the two keeps lambda = 1
    X = build_poset("abc", [("a", "b"), ("b", "c")])
    Y = build_poset("abc", [("c", "b"), ("b", "a")])
    poset_homology.cache_clear()
    K, L = poset_homology(X).complex, poset_homology(Y).complex
    assert X != Y and isinstance(K, complexes._DeferredOrderComplex)
    assert K == L == order_complex(Y) == order_complex(X) and hash(K) == hash(L)
    assert lefschetz_number(induced_map_of_poset_map(constant_map(X, Y, "a"))) == 1
    f = induced_map_of_poset_map(constant_map(X, Y, "a"))
    g = induced_map_of_poset_map(constant_map(Y, X, "c"))
    assert lefschetz_number(f.then(g)) == 1
    poset_homology.cache_clear()


def _eager_route(X):
    """poset_homology as it was with a cone's complex walked at once."""
    if not _is_cone(X):
        return homology_module._homology(*complexes._order_complex(X, faces=True))
    K = order_complex(X)
    dims = K.dimension + 1
    return homology_module.HomologyProfile(
        K, [1] + [0] * (dims - 1), [[] for _ in range(dims)],
        [[{0: 1}]] + [[] for _ in range(dims - 1)],
        [[dict.fromkeys(range(K.n_simplices(0)), 1)]] + [[] for _ in range(dims - 1)],
    )


def test_cone_induced_maps_match_the_eager_route(monkeypatch):
    # maps cone -> non-cone, non-cone -> cone and cone -> cone, relisted
    # or not: the same matrices as with every cone's complex walked at once
    seed = 3636
    rng = random.Random(seed)
    kinds = dict.fromkeys([(True, False), (False, True), (True, True)], 0)
    for i in range(1500):
        X, Y = (random_poset(rng, 7, density=rng.choice([0.3, 0.5, 0.8])) for _ in "XY")
        X, Y = (P if rng.random() < 0.5 else _shuffled(rng, P) for P in (X, Y))
        kind = (_is_cone(X), _is_cone(Y))
        f = random_monotone_map(rng, X, Y) if kind in kinds else None
        if f is None:
            continue
        kinds[kind] += 1
        label = f"seed {seed}, instance {i}\n{serialize_map(f)}"
        poset_homology.cache_clear()
        got = induced_map_of_poset_map(f).matrices
        with monkeypatch.context() as m:
            m.setattr(homology_module, "poset_homology", functools.lru_cache(_eager_route))
            assert induced_map_of_poset_map(f).matrices == got, label
    poset_homology.cache_clear()
    assert min(kinds.values()) >= 150, kinds


def test_relisted_cones_walk_to_sorted_simplices():
    seed = 3737
    rng = random.Random(seed)
    relisted = 0
    for i in range(600):
        X = _shuffled(rng, random_poset(rng, 7, density=rng.choice([0.3, 0.5, 0.8])))
        if not _is_cone(X) or _is_linear_extension(X):
            continue
        relisted += 1
        K = poset_homology.__wrapped__(X).complex
        chains = sorted(tuple(sorted(map(X.index, c))) for c in X.all_chains())
        assert sorted(s for level in K._isimplices for s in level) == chains, i
        assert K._isimplices == order_complex(X)._isimplices, i
    assert relisted >= 150, relisted


# -- induced maps above dimension 0 ---------------------------------------------


def _lift(X1, X, sigma):
    """The automorphism of the chain poset X1 of X that the automorphism
    sigma of X (a dict) induces, chain by chain."""
    return {c: tuple(sorted(map(sigma.__getitem__, c), key=X.index)) for c in X1.elements}


def _rp2_automorphisms(count):
    """The first count vertex permutations other than the identity that
    keep the triangles of the RP2 fixture, as maps of its face poset."""
    X = _fixture("rp2.txt")
    simplex = {x: tuple(map(int, x.strip("()").split("."))) for x in X.elements}
    triangles = {s for s in simplex.values() if len(s) == 3}
    found = []
    for perm in itertools.permutations(range(1, 7)):
        image = dict(zip(range(1, 7), perm))
        if perm == tuple(range(1, 7)) or {
                tuple(sorted(map(image.__getitem__, t))) for t in triangles} != triangles:
            continue
        found.append((f"RP2 vertex permutation {perm}", X, {
            x: "(" + ".".join(map(str, sorted(map(image.__getitem__, s)))) + ")"
            for x, s in simplex.items()}))
        if len(found) == count:
            return found


def test_induced_maps_above_dimension_zero():
    # automorphisms that act on H_1 or H_2: the swap a <-> b of the S2
    # model, lifted to levels 1 and 2 (a reflection, degree -1 on H_2), a
    # rotation of a 6-point circle (degree +1 on H_1) and RP2 symmetries
    # (torsion H_1, so only H_0 is free), each also on a shuffled listing,
    # where images of simplices need sorting and carry signs; the checked
    # SimplicialMap through induced_on_homology and the chain-level Hopf
    # trace are the oracles
    tower = build_tower(SPHERE, 2).levels
    sigma = {x: {"a": "b", "b": "a"}.get(x, x) for x in SPHERE.elements}
    cases = []
    for n, X in enumerate(tower):
        sigma = _lift(X, tower[n - 1], sigma) if n else sigma
        cases.append((f"S2 swap a <-> b at level {n}", X, sigma, 2, [[-1]], 0))
    rels = [(f"x{i}", f"y{i}") for i in range(3)] + [(f"x{(i + 1) % 3}", f"y{i}") for i in range(3)]
    crown = build_poset([f"{p}{i}" for p in "xy" for i in range(3)], rels)
    rotation = {f"{p}{i}": f"{p}{(i + 1) % 3}" for p in "xy" for i in range(3)}
    cases.append(("rotation of a 6-point circle", crown, rotation, 1, [[1]], 0))
    cases += [(*case, 0, [[1]], 1) for case in _rp2_automorphisms(3)]
    seed = 2930
    rng = random.Random(seed)
    poset_homology.cache_clear()
    for label, X, sigma, dim, matrix, lam in cases:
        for P in (X, _shuffled(rng, X)):
            f = PosetMap(P, P, sigma)
            msg = f"seed {seed}, {label}\n{serialize_poset(P)}"
            got = induced_map_of_poset_map(f)
            hp = poset_homology(P)
            cm = chain_map_of(SimplicialMap(hp.complex, hp.complex, sigma))
            assert got.matrices == induced_on_homology(cm, hp, hp).matrices, msg
            assert got.matrix_at(dim) == matrix, msg
            assert lefschetz_number(got) == _hopf_trace(f) == lam, msg
            poset_homology.cache_clear()
