"""Exact integer matrix helpers and the dense Smith normal form.

Matrices are plain lists of lists of Python ints, so every computation is
arbitrary precision.  Chain-level data does not live here: boundaries,
chain maps and cycles are sparse columns.  homology pairs the cells of a
complex by coreductions and calls the Smith form only on the small dense
Morse complex of the unpaired (critical) cells, and there only on a
boundary with a nonzero entry; on most order complexes the Morse complex
is zero and no Smith form runs.  The other dense matrices are the
betti-sized induced maps, their inverses and the tests' reference
computations.  The Smith form keeps S, U and V only; a caller that needs
U^-1 or V^-1 takes unimodular_inverse of it.
"""

from .errors import NotInvertible


def zeros(m, n):
    return [[0] * n for _ in range(m)]


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def shape(M):
    return (len(M), len(M[0]) if M else 0)


def copy(M):
    return [row[:] for row in M]


def matmul(A, B):
    m, k = shape(A)
    k2, n = shape(B)
    if m == 0:
        return []
    if not (k == k2 or k2 == 0 and all(len(r) == 0 for r in A)):
        raise ValueError(f"shape mismatch {shape(A)} x {shape(B)}")
    if k == 0 or n == 0:
        return zeros(m, n)
    Bt = list(zip(*B))
    return [[sum(a * b for a, b in zip(row, col) if a) for col in Bt] for row in A]


def hstack_cols(M, cols):
    """Submatrix of the given columns."""
    return [[row[j] for j in cols] for row in M]


def stack_rows(M, rows):
    return [M[i][:] for i in rows]


class SmithForm:
    """Result of a Smith decomposition S = U * M * V.

    U and V are unimodular.  The diagonal of S carries the invariant
    factors d1 | d2 | ... followed by zeros.
    """

    def __init__(self, S, U, V):
        self.S = S
        self.U = U
        self.V = V

    @property
    def rank(self):
        m, n = shape(self.S)
        return sum(1 for t in range(min(m, n)) if self.S[t][t] != 0)

    @property
    def invariant_factors(self):
        m, n = shape(self.S)
        return [self.S[t][t] for t in range(min(m, n)) if self.S[t][t] != 0]


def _row_swap(S, U, i, j):
    S[i], S[j] = S[j], S[i]
    U[i], U[j] = U[j], U[i]


def _col_swap(S, V, i, j):
    for r in S:
        r[i], r[j] = r[j], r[i]
    for r in V:
        r[i], r[j] = r[j], r[i]


def _row_negate(S, U, i):
    S[i] = [-x for x in S[i]]
    U[i] = [-x for x in U[i]]


def _row_addmul(S, U, i, j, k):
    # row i += k * row j
    S[i] = [a + k * b for a, b in zip(S[i], S[j])]
    U[i] = [a + k * b for a, b in zip(U[i], U[j])]


def _col_addmul(S, V, j, i, k):
    # col j += k * col i
    for r in S:
        r[j] += k * r[i]
    for r in V:
        r[j] += k * r[i]


def smith_normal_form(M, ncols=None):
    """Diagonalize an integer matrix: returns SmithForm with S = U*M*V.

    Pivoting picks the smallest nonzero absolute value in the remaining
    block, which keeps entry growth tame at the scales we care about.
    `ncols` disambiguates the width of matrices with zero rows.
    """
    m, n = shape(M)
    if m == 0 and ncols is not None:
        n = ncols
    S = copy(M)
    U, V = identity(m), identity(n)

    t = 0
    while t < min(m, n):
        # locate smallest nonzero entry in S[t:, t:]
        pivot = None
        best = None
        for i in range(t, m):
            row = S[i]
            for j in range(t, n):
                x = row[j]
                if x != 0 and (best is None or abs(x) < best):
                    best = abs(x)
                    pivot = (i, j)
                    if best == 1:
                        break
            if best == 1:
                break
        if pivot is None:
            break
        i, j = pivot
        if i != t:
            _row_swap(S, U, t, i)
        if j != t:
            _col_swap(S, V, t, j)
        if S[t][t] < 0:
            _row_negate(S, U, t)

        # clear row and column t; a remainder, in (0, pivot), is the new pivot
        while True:
            dirty = False
            for i in range(t + 1, m):
                if S[i][t] != 0:
                    q = S[i][t] // S[t][t]
                    _row_addmul(S, U, i, t, -q)
                    if S[i][t] != 0:
                        _row_swap(S, U, t, i)
                        dirty = True
            for j in range(t + 1, n):
                if S[t][j] != 0:
                    q = S[t][j] // S[t][t]
                    _col_addmul(S, V, j, t, -q)
                    if S[t][j] != 0:
                        _col_swap(S, V, t, j)
                        dirty = True
            if not dirty:
                break

        # enforce the divisibility chain
        d = S[t][t]
        fix = None
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if S[i][j] % d != 0:
                    fix = i
                    break
            if fix is not None:
                break
        if fix is not None:
            _row_addmul(S, U, t, fix, 1)
            continue  # redo elimination at the same t
        t += 1

    return SmithForm(S, U, V)


def unimodular_inverse(M):
    """Exact inverse of a matrix invertible over the integers: fraction-free
    Gauss-Jordan (Bareiss, Math. Comp. 22, 1968) turns [M | I] into
    [d*I | d*M^-1], d = +-det M, every entry a minor, so bounded."""
    m, n = shape(M)
    if m != n:
        raise NotInvertible(f"matrix is {m}x{n}, not square")
    A = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(M)]
    d = 1
    for k in range(n):
        p = next((i for i in range(k, n) if A[i][k]), None)
        if p is None:
            raise NotInvertible("matrix is not unimodular")
        A[k], A[p] = A[p], A[k]
        pivot, prev = A[k], d
        d = pivot[k]
        for i, row in enumerate(A):
            if i != k:
                a = row[k]
                A[i] = [(d * x - a * y) // prev for x, y in zip(row, pivot)]
    if d not in (1, -1):
        raise NotInvertible("matrix is not unimodular")
    return [[d * x for x in row[n:]] for row in A]
