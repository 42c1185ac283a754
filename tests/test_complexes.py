"""Order complexes, face posets, subdivisions and chain maps."""

import pytest
from hypothesis import given, settings, strategies as st

from finspace import intmat
from finspace.complexes import (
    SimplicialComplex,
    SimplicialMap,
    barycentric_subdivision_complex,
    barycentric_subdivision_space,
    chain_map_of,
    face_poset,
    induced_simplicial_map,
    order_complex,
)
from finspace.poset import PosetMap, build_poset, identity_map


@pytest.fixture
def circle():
    return build_poset("abcd", [("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")])


def test_complex_validation():
    with pytest.raises(ValueError):
        SimplicialComplex("ab", [[("a", "b")]])  # an edge is not a vertex
    with pytest.raises(ValueError):
        SimplicialComplex("ab", [["a"], [("a", "b")]])  # face b missing
    K = SimplicialComplex.from_simplices([("a", "b"), ("b", "c")])
    assert K.n_simplices(0) == 3 and K.n_simplices(1) == 2
    assert K.dimension == 1


def test_order_complex_of_circle(circle):
    K = order_complex(circle)
    assert [K.n_simplices(d) for d in (0, 1)] == [4, 4]
    assert K.euler_characteristic() == 0
    assert K.simplex_index(("a", "c")) in range(4)


def test_face_poset_roundtrip(circle):
    K = order_complex(circle)
    FP = face_poset(K)
    assert len(FP) == 8
    assert FP.leq(("a",), ("a", "c"))
    assert not FP.leq(("a", "c"), ("a",))


def test_subdivision_space_and_complex(circle):
    X1 = barycentric_subdivision_space(circle)
    assert len(X1) == len(circle.all_chains()) == 8
    K1 = barycentric_subdivision_complex(order_complex(circle))
    assert K1.euler_characteristic() == 0


def test_boundary_squares_to_zero(circle):
    K = order_complex(circle)
    for d in range(1, K.dimension + 1):
        prod = intmat.matmul(K.boundary_matrix(d), K.boundary_matrix(d + 1))
        assert intmat.is_zero(prod)
    assert K.boundary_matrix(0) == intmat.zeros(0, 4)
    assert K.boundary_matrix(5) == intmat.zeros(0, 0)


def test_export_text(circle):
    K = order_complex(circle)
    lines = K.export_text().strip().splitlines()
    assert len(lines) == 8 and "a c" in lines


def test_simplicial_map_validation(circle):
    K = order_complex(circle)
    with pytest.raises(ValueError):
        SimplicialMap(K, K, {"a": "a", "b": "b", "c": "c"})  # missing d
    with pytest.raises(ValueError):
        # image of the edge (a, c) would be the non-simplex (a, b)
        SimplicialMap(K, K, {"a": "a", "b": "b", "c": "b", "d": "d"})
    sm = SimplicialMap(K, K, {"a": "b", "b": "a", "c": "d", "d": "c"})
    assert sm.image_simplex(("a", "c")) == ("b", "d")


def _dense(columns, rows):
    """The dense matrix of sparse chain-map columns."""
    M = intmat.zeros(rows, len(columns))
    for j, col in enumerate(columns):
        for i, x in col.items():
            M[i][j] = x
    return M


def test_induced_simplicial_map_degenerates_to_zero(circle):
    f = PosetMap(circle, circle, {"a": "c", "b": "c", "c": "c", "d": "c"})
    K = order_complex(circle)
    cm = chain_map_of(induced_simplicial_map(f))
    assert intmat.is_zero(_dense(cm[1], K.n_simplices(1)))  # every edge collapses
    c = K.simplex_index(("c",))
    assert _dense(cm[0], K.n_simplices(0)) == [[int(i == c)] * 4 for i in range(4)]


def test_chain_map_signs():
    # a vertex swap sorts the image of the edge with an odd permutation
    K = SimplicialComplex("ab", [["a", "b"], [("a", "b")]])
    sm = SimplicialMap(K, K, {"a": "b", "b": "a"})
    cm = chain_map_of(sm)
    assert _dense(cm[1], 1) == [[-1]]


def test_chain_map_commutes_with_boundary(circle):
    sm = induced_simplicial_map(identity_map(circle))
    cm = chain_map_of(sm)
    K = order_complex(circle)
    for d in range(1, len(K.simplices)):
        lhs = intmat.matmul(K.boundary_matrix(d), _dense(cm[d], K.n_simplices(d)))
        rhs = intmat.matmul(_dense(cm[d - 1], K.n_simplices(d - 1)), K.boundary_matrix(d))
        assert intmat.eq(lhs, rhs)


posets = st.integers(1, 5).flatmap(
    lambda n: st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
        max_size=8,
    ).map(
        lambda pairs: build_poset(
            [f"e{i}" for i in range(n)],
            [(f"e{i}", f"e{j}") for i, j in pairs if i < j],
        )
    )
)


@settings(max_examples=60, deadline=None)
@given(posets)
def test_functor_properties(X):
    K = order_complex(X)
    # simplices of K(X) are exactly the chains of X
    assert sorted(K.all_simplices()) == sorted(X.all_chains())
    assert K.euler_characteristic() == X.euler_characteristic()
    # boundary composition vanishes in every dimension
    for d in range(1, K.dimension + 1):
        assert intmat.is_zero(
            intmat.matmul(K.boundary_matrix(d), K.boundary_matrix(d + 1))
        )
    # the face poset of K(X) is the subdivision
    assert face_poset(K) == barycentric_subdivision_space(X)
