"""Smith normal form and exact integer matrix algebra."""

import contextlib
import itertools
import math
import random
import signal

import pytest
from hypothesis import given, settings, strategies as st

from finspace import intmat
from finspace.errors import NotInvertible
from finspace.intmat import smith_normal_form, unimodular_inverse


def _det(M):
    """Exact determinant by fraction-free elimination (Bareiss): every
    entry it builds is a minor of M."""
    A = [list(row) for row in M]
    n, sign, prev = len(A), 1, 1
    for k in range(n):
        p = next((i for i in range(k, n) if A[i][k]), None)
        if p is None:
            return 0
        if p != k:
            A[k], A[p], sign = A[p], A[k], -sign
        for i in range(k + 1, n):
            A[i] = [(A[k][k] * A[i][j] - A[i][k] * A[k][j]) // prev
                    for j in range(n)]
        prev = A[k][k]
    return sign * prev if n else 1


@contextlib.contextmanager
def _deadline(seconds, what):
    """Raise TimeoutError in the block once it has run for `seconds`."""
    def on_alarm(signum, frame):
        raise TimeoutError(f"{what} ran past its deadline")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def assert_smith_form(M, ncols=None, label=""):
    with _deadline(1, "smith_normal_form"):
        sf = smith_normal_form(M, ncols=ncols)
    m = len(M)
    n = ncols if (m == 0 and ncols is not None) else (len(M[0]) if M else 0)
    # S = U M V
    S = intmat.matmul(intmat.matmul(sf.U, M if M else intmat.zeros(0, n)), sf.V)
    if m:
        assert S == sf.S, label
    # diagonal, nonzero entries leading, positive, divisibility chain
    for i in range(m):
        for j in range(n):
            if i != j:
                assert sf.S[i][j] == 0, label
    assert all(sf.S[t][t] for t in range(sf.rank)), label
    d = sf.invariant_factors
    assert all(x > 0 for x in d), label
    for a, b in zip(d, d[1:]):
        assert b % a == 0, label
    # the transforms are invertible over the integers
    assert intmat.matmul(sf.U, unimodular_inverse(sf.U)) == intmat.identity(m), label
    assert intmat.matmul(sf.V, unimodular_inverse(sf.V)) == intmat.identity(n), label
    # U, V unimodular
    assert _det(sf.U) in (1, -1), label
    assert _det(sf.V) in (1, -1), label
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
    # the inverse is unique, so elimination must give the Smith form's
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


def test_unimodular_inverse_of_20x20_finishes():
    # every entry elimination builds is a minor of [M | I], so it stays
    # bounded; each call runs under a deadline, so a stall fails the test
    seed = 3434
    rng = random.Random(seed)
    for i in range(5):
        M = _unimodular(rng, 20, 400)
        with _deadline(2, "unimodular_inverse"):
            got = unimodular_inverse(M)
        assert intmat.matmul(M, got) == intmat.identity(20), f"seed {seed}, instance {i}"


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


def _determinantal_factors(M):
    """Invariant factors from determinantal divisors: D_k is the gcd of
    the k x k minors of M, and d_k = D_k / D_{k-1} while D_k != 0."""
    m, n = len(M), len(M[0])
    factors, last = [], 1
    for k in range(1, min(m, n) + 1):
        D = 0
        for rows in itertools.combinations(range(m), k):
            for cols in itertools.combinations(range(n), k):
                D = math.gcd(D, _det([[M[i][j] for j in cols] for i in rows]))
        if D == 0:
            break
        factors.append(D // last)
        last = D
    return factors


# found stalling: the sweep-and-swap elimination below grew the entries
# of this matrix past 4,000 digits without finishing
STALLING_6X5 = [
    [-5, 10, -18, -17, -23],
    [-27, 6, -24, 0, -26],
    [0, -21, -8, 0, 24],
    [-1, -11, -24, 0, 0],
    [14, -29, 30, -21, 28],
    [3, 11, 0, -14, 28],
]


def test_smith_form_of_a_stalling_6x5_matrix():
    sf = assert_smith_form(STALLING_6X5, label="the 6x5 matrix")
    assert sf.invariant_factors == [1, 1, 1, 1, 12]
    assert _determinantal_factors(STALLING_6X5) == [1, 1, 1, 1, 12]


@pytest.mark.parametrize("m, n, values, seed", [
    (6, 5, range(-30, 31), 3601),
    (7, 7, range(-30, 31), 3602),
    (16, 16, range(-1, 2), 3603),
    (20, 20, range(-1, 2), 3604),
    (30, 20, range(-1, 2), 3605),
])
def test_smith_form_of_dense_seeded_families(m, n, values, seed):
    # families on which the sweep-and-swap elimination stalled; each call
    # runs under a deadline, so a stall fails the test
    rng = random.Random(seed)
    for i in range(20):
        M = [[rng.choice(values) for _ in range(n)] for _ in range(m)]
        label = f"seed {seed}, instance {i}: {M}"
        sf = assert_smith_form(M, label=label)
        if min(m, n) <= 5:
            assert sf.invariant_factors == _determinantal_factors(M), label


def test_smith_form_of_rank_deficient_products():
    # products of sign matrices, 30 x 15 by 15 x 20: clearing each entry
    # of a column by the Bezout step [[s, t], [-b/g, a/g]] of its pair
    # multiplies the rows below the rank by entries of the column, and U
    # grew to tens of thousands of bits; Euclid's rounds stay within a
    # few hundred
    seed = 3608
    rng = random.Random(seed)
    for i in range(10):
        A = [[rng.randint(-1, 1) for _ in range(15)] for _ in range(30)]
        B = [[rng.randint(-1, 1) for _ in range(20)] for _ in range(15)]
        M = intmat.matmul(A, B)
        sf = assert_smith_form(M, label=f"seed {seed}, instance {i}: {M}")
        assert sf.rank <= 15


def test_smith_form_matches_determinantal_divisors():
    seed = 3606
    rng = random.Random(seed)
    for i in range(150):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        M = [[rng.randint(-30, 30) for _ in range(n)] for _ in range(m)]
        sf = assert_smith_form(M, label=f"seed {seed}, instance {i}: {M}")
        assert sf.invariant_factors == _determinantal_factors(M), f"seed {seed}, instance {i}: {M}"


def _sweep_and_swap_factors(M):
    """Invariant factors by sweep-and-swap elimination: the smallest entry
    of the block is the pivot, row and column are cleared by swapping in
    each nonzero remainder, and an entry the pivot does not divide is
    added into the pivot row and the position redone.  It stalls on some
    dense matrices, but not on 4 x 4 ones with entries in [-9, 9]."""
    S = [list(row) for row in M]
    m, n = len(S), len(S[0])
    t = 0
    while t < min(m, n):
        nonzero = [(abs(S[i][j]), i, j) for i in range(t, m) for j in range(t, n) if S[i][j]]
        if not nonzero:
            break
        _, i, j = min(nonzero)
        S[t], S[i] = S[i], S[t]
        for row in S:
            row[t], row[j] = row[j], row[t]
        if S[t][t] < 0:
            S[t] = [-x for x in S[t]]
        dirty = True
        while dirty:
            dirty = False
            for i in range(t + 1, m):
                if S[i][t]:
                    q = S[i][t] // S[t][t]
                    S[i] = [a - q * b for a, b in zip(S[i], S[t])]
                    if S[i][t]:
                        S[t], S[i], dirty = S[i], S[t], True
            for j in range(t + 1, n):
                if S[t][j]:
                    q = S[t][j] // S[t][t]
                    for row in S:
                        row[j] -= q * row[t]
                    if S[t][j]:
                        for row in S:
                            row[t], row[j] = row[j], row[t]
                        dirty = True
        fix = next((i for i in range(t + 1, m) for j in range(t + 1, n)
                    if S[i][j] % S[t][t]), None)
        if fix is None:
            t += 1
        else:
            S[t] = [a + b for a, b in zip(S[t], S[fix])]
    return [S[t][t] for t in range(min(m, n)) if S[t][t]]


def test_smith_form_matches_the_sweep_and_swap_elimination():
    seed = 3607
    rng = random.Random(seed)
    for i in range(400):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        M = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        with _deadline(1, "the sweep-and-swap elimination"):
            want = _sweep_and_swap_factors(M)
        assert smith_normal_form(M).invariant_factors == want, f"seed {seed}, instance {i}: {M}"
