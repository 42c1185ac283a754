"""Smith normal form and exact integer matrix algebra."""

import pytest
from hypothesis import given, settings, strategies as st

from finspace import intmat
from finspace.errors import NotInvertible
from finspace.intmat import smith_normal_form, unimodular_inverse


def _det(M):
    n = len(M)
    if n == 0:
        return 1
    if n == 1:
        return M[0][0]
    return sum(
        (-1) ** j * M[0][j] * _det(
            [row[:j] + row[j + 1:] for row in M[1:]]
        )
        for j in range(n)
    )


def assert_smith_form(M, ncols=None):
    sf = smith_normal_form(M, ncols=ncols)
    m = len(M)
    n = ncols if (m == 0 and ncols is not None) else (len(M[0]) if M else 0)
    # S = U M V
    S = intmat.matmul(intmat.matmul(sf.U, M if M else intmat.zeros(0, n)), sf.V)
    if m:
        assert S == sf.S
    # diagonal, non-negative, divisibility chain
    for i in range(m):
        for j in range(n):
            if i != j:
                assert sf.S[i][j] == 0
    d = sf.invariant_factors
    assert all(x > 0 for x in d)
    for a, b in zip(d, d[1:]):
        assert b % a == 0
    # the transforms are invertible over the integers
    assert intmat.matmul(sf.U, unimodular_inverse(sf.U)) == intmat.identity(m)
    assert intmat.matmul(sf.V, unimodular_inverse(sf.V)) == intmat.identity(n)
    # U, V unimodular
    assert _det(sf.U) in (1, -1)
    assert _det(sf.V) in (1, -1)
    return sf


def test_known_forms():
    sf = assert_smith_form([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
    assert sf.invariant_factors == [2, 2, 156]
    sf = assert_smith_form([[1, 0], [0, 1]])
    assert sf.invariant_factors == [1, 1]
    sf = assert_smith_form([[0, 0], [0, 0]])
    assert sf.rank == 0


def test_zero_row_matrix_keeps_width():
    sf = smith_normal_form([], ncols=5)
    assert intmat.shape(sf.V) == (5, 5)
    assert sf.rank == 0


matrices = st.integers(1, 4).flatmap(
    lambda m: st.integers(1, 4).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-9, 9), min_size=n, max_size=n),
            min_size=m,
            max_size=m,
        )
    )
)


@settings(max_examples=150, deadline=None)
@given(matrices)
def test_smith_form_properties(M):
    assert_smith_form(M)


def test_unimodular_inverse():
    M = [[2, 1], [1, 1]]
    Minv = unimodular_inverse(M)
    assert intmat.matmul(M, Minv) == intmat.identity(2)
    with pytest.raises(NotInvertible):
        unimodular_inverse([[2, 0], [0, 1]])
    with pytest.raises(NotInvertible):
        unimodular_inverse([[1, 2, 3]])


def test_matmul_edge_shapes():
    assert intmat.matmul([], [[1, 2]]) == []
    assert intmat.matmul([[1, 2]], [[3], [4]]) == [[11]]
    # a 0-row right factor is just [], so the product width collapses to 0
    assert intmat.matmul(intmat.zeros(2, 0), []) == [[], []]


def test_matmul_rejects_mismatched_shapes():
    # a check that python -O strips would let zip truncate this product
    # to [[2]]
    with pytest.raises(ValueError, match=r"shape mismatch \(1, 3\) x \(2, 1\)"):
        intmat.matmul([[1, 1, 1]], [[1], [1]])
    with pytest.raises(ValueError, match="shape mismatch"):
        intmat.matmul([[1], [2]], [[1, 2], [3, 4]])
