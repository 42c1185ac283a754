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
U^-1 or V^-1 takes unimodular_inverse of it.  It is built from one
row step (_step): Hermite passes, Euclid's algorithm down each column,
run on the matrix and on its transpose until it is diagonal, then a
sweep over pairs of diagonal entries for the divisibility chain.
"""

from math import gcd

from .errors import NotInvertible


def zeros(m, n):
    return [[0] * n for _ in range(m)]


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def shape(M):
    return (len(M), len(M[0]) if M else 0)


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


def _step(mats, r, i, s, t, x, y):
    """Rows r and i of each matrix become s*row r + t*row i and
    x*row r + y*row i: one row step, unimodular when s*y - t*x = +-1."""
    for M in mats:
        R, I = M[r], M[i]
        if (s, t) != (1, 0):
            M[r] = [s * u + t * v for u, v in zip(R, I)]
        M[i] = [x * u + y * v for u, v in zip(R, I)]


def _hermite(S, U):
    """Row-reduce S to Hermite form, taking U through the same row steps.

    In each column Euclid's algorithm runs on the entries at or below the
    pivot row r: the smallest entry leads, and every other entry drops to
    its remainder by one subtraction of a multiple of the leader's row
    (a divisible entry is cleared), until one entry, the gcd, is left.
    It moves to row r, is made positive, and the entries above it are
    reduced into [0, pivot).  (Clearing each entry instead by the Bezout
    step [[s, t], [-b/g, a/g]] of its pair multiplies the row by entries
    of the column, and on rank-deficient matrices the rows that hold no
    pivot squared in size from column to column.)
    """
    r = 0
    for c in range(len(S[0])):
        rows = [i for i in range(r, len(S)) if S[i][c]]
        while len(rows) > 1:
            p = min(rows, key=lambda i: abs(S[i][c]))
            for i in rows:
                if i != p:
                    _step((S, U), p, i, 1, 0, -(S[i][c] // S[p][c]), 1)
            rows = [i for i in rows if S[i][c]]
        if not rows:
            continue
        if rows[0] != r:
            _step((S, U), r, rows[0], 0, 1, 1, 0)
        if S[r][c] < 0:
            S[r], U[r] = [-x for x in S[r]], [-x for x in U[r]]
        for k in range(r):
            q = S[k][c] // S[r][c]
            if q:
                _step((S, U), r, k, 1, 0, -q, 1)
        r += 1


def _transpose(M):
    return [list(col) for col in zip(*M)]


def _is_diagonal(S):
    return all(not x for i, row in enumerate(S) for j, x in enumerate(row) if i != j)


def smith_normal_form(M, ncols=None):
    """Diagonalize an integer matrix: returns SmithForm with S = U*M*V.

    Hermite passes on the rows of S, with U, and on the rows of its
    transpose, with V^T, alternate until S is diagonal (Kannan and
    Bachem, SIAM J. Comput. 8, 1979).  A sweep over pairs of diagonal
    entries then turns (a, b) into (g, l) = (gcd, lcm) = L diag(a, b) R:
    with s*a + t*b = g, L = [[s, t], [-b/g, a/g]] takes U's rows and
    R = [[1, -tb/g], [1, sa/g]] V's columns.  The nonzero entries lead,
    positive, in a divisibility chain.

    The passes end.  Once a position's row and column are clean (zero
    off the diagonal), no later step touches them: a pass finds no other
    entry in that column to reduce and reduces nothing by that row.  In
    the leading unfinished position a pass leaves the gcd of its column
    (on the transpose, of its row), so the pivot there only divides.  It
    stays the same only if it divided the whole line: then it led from
    the first round, the pass cleared the line by subtracting multiples
    of the pivot's own line, which the pass before had cleared and this
    one leaves as it is, and the position is finished.  So a round that
    leaves an entry off the diagonal in the leading unfinished row or
    column makes that pivot a proper divisor of the last one.  Within a
    pass, each of Euclid's rounds shrinks the leading entry of a column.
    Entries have no proven bound (Kannan and Bachem's principal-minor
    order gives one); tests/test_intmat.py runs dense and rank-deficient
    seeded families under a deadline.
    `ncols` disambiguates the width of matrices with zero rows.
    """
    m, n = shape(M)
    if m == 0 and ncols is not None:
        n = ncols
    S, U, Vt = [list(row) for row in M], identity(m), identity(n)
    if m and n:
        A, B = U, Vt
        _hermite(S, A)
        while not _is_diagonal(S):
            S, A, B = _transpose(S), B, A
            _hermite(S, A)
        if A is Vt:
            S = _transpose(S)
    k = sum(1 for t in range(min(m, n)) if S[t][t])
    for i in range(k):
        for j in range(i + 1, k):
            a, b = S[i][i], S[j][j]
            g = gcd(a, b)
            if g != a:
                s = pow(a // g, -1, b // g)
                t = (g - s * a) // b
                _step((U,), i, j, s, t, -b // g, a // g)
                _step((Vt,), i, j, 1, 1, -t * b // g, s * a // g)
                S[i][i], S[j][j] = g, a // g * b
    return SmithForm(S, U, _transpose(Vt))


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
