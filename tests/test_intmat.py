"""Smith normal form and exact integer matrix algebra."""

import random
import signal

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


def _smith_inverse(M):
    """The inverse as it was found before elimination: M^-1 = V U from
    the Smith form S = U M V = I."""
    n = len(M)
    sf = smith_normal_form(M)
    if any(sf.S[i][i] not in (1, -1) for i in range(n)):
        raise NotInvertible("matrix is not unimodular")
    return intmat.matmul(sf.V, sf.U)


def _unimodular(rng, n, steps):
    """A random n x n unimodular matrix: the identity under steps random
    elementary row operations (add a multiple, swap, negate)."""
    M = intmat.identity(n)
    for _ in range(steps):
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        op = rng.random() if n > 1 else 1
        if op < 0.8:
            k = rng.choice([-3, -2, -1, 1, 2, 3])
            M[i] = [a + k * b for a, b in zip(M[i], M[j])]
        elif op < 0.9:
            M[i], M[j] = M[j], M[i]
        else:
            M[i] = [-a for a in M[i]]
    return M


def test_unimodular_inverse_matches_the_smith_form_inverse():
    # the inverse is unique, so elimination must give the Smith form's;
    # at most 4n steps, since the Smith form stalls on some denser draws
    seed = 3333
    rng = random.Random(seed)
    assert unimodular_inverse([]) == []
    for i in range(600):
        n = rng.randint(1, 8)
        M = _unimodular(rng, n, rng.randint(0, 4 * n))
        label = f"seed {seed}, instance {i}: {M}"
        got = unimodular_inverse(M)
        assert got == _smith_inverse(M), label
        assert intmat.matmul(M, got) == intmat.identity(n), label


@pytest.mark.parametrize("M, message", [
    ([[1, 2, 3]], "matrix is 1x3, not square"),
    ([[]], "matrix is 1x0, not square"),
    ([[0]], "matrix is not unimodular"),
    ([[1, 2], [2, 4]], "matrix is not unimodular"),
    ([[2, 0], [0, 1]], "matrix is not unimodular"),
    ([[2, 1], [1, 3]], "matrix is not unimodular"),
    ([[0, 0, 1], [0, 0, 1], [1, 1, 0]], "matrix is not unimodular"),
])
def test_unimodular_inverse_rejects_other_matrices(M, message):
    with pytest.raises(NotInvertible, match=f"^{message}$"):
        unimodular_inverse(M)


def _on_deadline(signum, frame):
    raise TimeoutError("unimodular_inverse ran past its deadline")


def test_unimodular_inverse_of_20x20_finishes():
    # every entry elimination builds is a minor of [M | I], so it stays
    # bounded; each call runs under a deadline, so a stall fails the test
    seed = 3434
    rng = random.Random(seed)
    previous = signal.signal(signal.SIGALRM, _on_deadline)
    try:
        for i in range(5):
            M = _unimodular(rng, 20, 400)
            signal.setitimer(signal.ITIMER_REAL, 2)
            try:
                got = unimodular_inverse(M)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            assert intmat.matmul(M, got) == intmat.identity(20), f"seed {seed}, instance {i}"
    finally:
        signal.signal(signal.SIGALRM, previous)


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
