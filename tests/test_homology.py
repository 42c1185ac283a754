"""Exact integral homology, induced maps, Lefschetz numbers, inverses."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from finspace import intmat
from finspace.complexes import (
    SimplicialComplex,
    barycentric_subdivision_space,
    chain_map_of,
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
    identity_induced,
    induced_map_of_poset_map,
    induced_on_homology,
    invert,
    is_acyclic,
    lefschetz_number,
    poset_homology,
)
from finspace.dynamics import build_tower
from finspace.formats import serialize_map, serialize_poset
from finspace.maps import is_vietoris_like_map
from finspace.poset import PosetMap, build_poset, constant_map, identity_map
from finspace.random_instances import random_endomorphism, random_poset


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


def test_is_acyclic():
    wedge = build_poset("ABC", [("A", "C"), ("B", "C")])
    assert is_acyclic(wedge)
    circle = build_poset("abcd", [("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")])
    assert not is_acyclic(circle)
    with pytest.raises(EmptySubspace):
        is_acyclic(wedge.subposet(set()))


def test_induced_identity_and_composition():
    circle = build_poset("abcd", [("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")])
    ident = induced_map_of_poset_map(identity_map(circle))
    assert ident.matrix_at(0) == [[1]]
    assert ident.matrix_at(1) == [[1]]
    swap = PosetMap(circle, circle, {"a": "b", "b": "a", "c": "d", "d": "c"})
    sw = induced_map_of_poset_map(swap)
    assert sw.matrix_at(1) in ([[1]], [[-1]])
    comp = sw.then(sw)
    assert comp.matrix_at(1) == [[1]]  # swap twice is the identity


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


def test_invert_errors():
    circle = build_poset("abcd", [("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")])
    c = induced_map_of_poset_map(constant_map(circle, circle, "c"))
    with pytest.raises(NotInvertible) as exc:
        invert(c)
    assert exc.value.dimension == 1
    ident = identity_induced(poset_homology(circle))
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
        shift = intmat.matvec(K.boundary_matrix(d + 1), w) if w else [0] * n
        for j, cycle in enumerate(basis):
            assert all(0 <= i < n and x for i, x in cycle.items()), label
            col = [cycle.get(i, 0) for i in range(n)]
            assert not any(intmat.matvec(D, col)), f"{label}: basis {d}.{j} is no cycle"
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
    # inverses are far from identities
    rng = random.Random(300)
    K = SimplicialComplex.from_simplices(RP2_FACETS)
    corpus = [("RP2", [K.boundary_matrix(d) for d in range(3)], [6, 15, 10])]
    for i in range(60):
        R, sizes = _random_chain_complex(rng)
        corpus.append((f"seed 300 instance {i}: {R!r}", R, sizes))
    for label, R, sizes in corpus:
        betti, torsion, bases, projs = _residual_homology(R, sizes)
        above = intmat.zeros(sizes[-1], 0)
        assert (betti, torsion) == _smith_profile(R + [above], sizes + [0]), label
        for d, (B, P) in enumerate(zip(bases, projs)):
            assert intmat.eq(intmat.matmul(P, B), intmat.identity(betti[d])), label
            if d:
                assert intmat.is_zero(intmat.matmul(R[d], B)), f"{label}: cycles {d}"
            if d + 1 < len(sizes):
                assert intmat.is_zero(intmat.matmul(P, R[d + 1])), f"{label}: boundaries {d}"


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
