"""Exact integer simplicial homology and induced maps on free parts.

homology() works on sparse boundary columns.  It first eliminates
reduction pairs: a face a of a cell b whose boundary coefficient is a
unit (Kaczynski-Mischaikow-Mrozek, *Computational Homology*, 2004).
Each elimination is an exact chain equivalence, so torsion stays exact.
Order-complex boundaries are +-1 matrices, so almost every cell is
paired.  The dense Smith normal form then runs only on the small residual
complex that is left.  The reduction records its two chain maps.  The
inclusion lifts the residual free basis to cycles of the complex, and the
projection sends any cycle to its free-part coordinates.  Induced maps
and Lefschetz numbers act on the torsion-free part of homology, in that
deterministic basis.

Chains, cycles and chain maps are sparse, in the format of
SimplicialComplex.boundary_columns: a chain is a dict {simplex index:
coefficient}, a chain map one such column per source simplex.  Dense
matrices appear only as the residual Smith-form input and the
betti-sized InducedMap matrices.
"""

import functools
import heapq

from . import intmat
from .complexes import SimplicialMap, chain_map_of, order_complex
from .errors import (
    BasisSolveFailure,
    EmptySubspace,
    NotAChainMap,
    NotInvertible,
    ProfileMismatch,
)
from .intmat import smith_normal_form
from .poset import require_continuous

__all__ = [
    "HomologyProfile",
    "InducedMap",
    "smith_normal_form",
    "homology",
    "poset_homology",
    "is_acyclic",
    "induced_on_homology",
    "induced_map_of_poset_map",
    "lefschetz_number",
    "invert",
]


def _add_scaled(y, q, x):
    """y += q * x on sparse dicts; returns the keys added to and dropped from y."""
    added, dropped = [], []
    for k, v in x.items():
        old = y.get(k, 0)
        new = old + q * v
        if new:
            y[k] = new
            if not old:
                added.append(k)
        else:
            del y[k]
            dropped.append(k)
    return added, dropped


def _apply(columns, chain):
    """Image of a sparse chain {cell: coefficient} under sparse columns."""
    out = {}
    for j, x in chain.items():
        _add_scaled(out, x, columns[j])
    return out


class HomologyProfile:
    """Per-dimension Betti numbers, torsion and a free-part cycle basis.

    For each dimension i the profile keeps:
      * betti[i] and torsion[i] (invariant factors > 1, divisibility chain)
      * free_basis[i]: betti[i] sparse cycles {simplex index: coefficient}
      * betti[i] sparse projection rows sending any cycle to its free-part
        coordinates
      * boundaries[i]: the sparse boundary columns of dimension i
    which is what induced maps are computed from.
    """

    def __init__(self, complex_, betti, torsion, free_basis, free_proj, boundaries):
        self.complex = complex_
        self.betti = betti
        self.torsion = torsion
        self.free_basis = free_basis
        self._free_proj = free_proj
        self.boundaries = boundaries

    def betti_at(self, dim):
        return self.betti[dim] if 0 <= dim < len(self.betti) else 0

    def torsion_at(self, dim):
        return self.torsion[dim] if 0 <= dim < len(self.torsion) else []

    def class_of(self, dim, chain):
        """Free-part coordinates of a sparse cycle {simplex index: coefficient}."""
        if dim >= len(self.betti):
            if chain:
                raise BasisSolveFailure("nonzero chain above the top dimension")
            return []
        if _apply(self.boundaries[dim], chain):
            raise BasisSolveFailure("chain is not a cycle")
        return [
            sum(v * chain[i] for i, v in row.items() if i in chain)
            for row in self._free_proj[dim]
        ]

    def is_acyclic(self):
        if not self.betti:
            return False
        return (
            self.betti[0] == 1
            and all(b == 0 for b in self.betti[1:])
            and all(not t for t in self.torsion)
        )

    def euler_characteristic(self):
        return sum((-1) ** i * b for i, b in enumerate(self.betti))

    def summary(self):
        return {
            "betti": list(self.betti),
            "torsion": [list(t) for t in self.torsion],
        }

    def same_shape(self, other):
        """Equal Betti numbers and torsion in every dimension."""
        return all(
            self.betti_at(d) == other.betti_at(d)
            and list(self.torsion_at(d)) == list(other.torsion_at(d))
            for d in range(max(len(self.betti), len(other.betti)))
        )

    def __repr__(self):
        return f"HomologyProfile(betti={self.betti}, torsion={self.torsion})"


class _Reduction:
    """Reduction pairs eliminated from a chain complex given by sparse columns.

    Eliminating a pair (a, b) with <d b, a> = eps = +-1 removes a from
    dimension d-1 and b from dimension d.  Every other cell c of
    dimension d with <d c, a> = lam becomes c - eps*lam*b, whose boundary
    misses a; cells of dimension d+1 drop their b coefficient.  The
    remaining cells with their updated columns form the residual complex,
    chain equivalent to the original one through
      * the inclusion: lift[d][c] is the chain of the original complex
        that a surviving cell c stands for (c itself when absent), and
      * the projection: x -> x - eps * x_a * d b, then drop a, for every
        pair in elimination order; pulls[d-1] records (a, eps, d b) with
        the column as it was at elimination.
    """

    def __init__(self, boundaries):
        top = len(boundaries)
        self.cols = [
            {c: dict(col) for c, col in enumerate(level)} for level in boundaries
        ]
        self.cob = [{} for _ in range(top)]
        for d in range(1, top):
            cob = self.cob[d - 1]
            for c, col in self.cols[d].items():
                for f in col:
                    cob.setdefault(f, set()).add(c)
        self.lift = [{} for _ in range(top)]
        self.pulls = [[] for _ in range(top)]
        # top-down: eliminating (d-1, d) pairs only deletes entries of
        # dimension d+1, so no unit entry reappears where pairs are exhausted
        for d in range(top - 1, 0, -1):
            self._eliminate(d)

    def _eliminate(self, d):
        """Eliminate (d-1, d) pairs until no column has a unit entry.

        The face with the smallest coboundary goes first and pairs with
        its shortest unit column, which keeps fill-in small.
        """
        cols, cob, lift = self.cols[d], self.cob[d - 1], self.lift[d]
        heap = [(len(s), a) for a, s in cob.items()]
        heapq.heapify(heap)
        while heap:
            size, a = heapq.heappop(heap)
            coface = cob.get(a)
            if coface is None or len(coface) != size:
                continue  # a is gone, or a fresher entry is queued
            units = [b for b in coface if cols[b][a] in (1, -1)]
            if not units:
                continue
            b = min(units, key=lambda b: (len(cols[b]), b))
            col_b = cols.pop(b)
            lift_b = lift.pop(b, {b: 1})
            eps = col_b[a]
            for f in col_b:
                cob[f].discard(b)
            del cob[a]
            touched = set(col_b)
            for c in coface:
                col_c = cols[c]
                q = -eps * col_c[a]
                added, dropped = _add_scaled(col_c, q, col_b)
                for f in added:
                    cob[f].add(c)
                for f in dropped:
                    if f != a:
                        cob[f].discard(c)
                _add_scaled(lift.setdefault(c, {c: 1}), q, lift_b)
            touched.discard(a)
            for f in touched:
                heapq.heappush(heap, (len(cob[f]), f))
            # a leaves dimension d-1, b leaves the rows of dimension d+1
            for f in self.cols[d - 1].pop(a):
                self.cob[d - 2][f].discard(a)
            if d + 1 < len(self.cols):
                for e in self.cob[d].pop(b, ()):
                    del self.cols[d + 1][e][b]
            self.pulls[d - 1].append((a, eps, col_b))

    def lifted(self, d, coords):
        """The chain of the original complex standing for a residual chain."""
        out = {}
        for c, x in coords.items():
            _add_scaled(out, x, self.lift[d].get(c, {c: 1}))
        return out

    def pulled_back(self, d, row):
        """A functional on residual d-chains, composed with the projection."""
        row = dict(row)
        for a, eps, col in reversed(self.pulls[d]):
            s = sum(v * row[f] for f, v in col.items() if f in row)
            if s:
                row[a] = -eps * s
        return row


def _residual_homology(R, sizes):
    """Smith-form homology of a small dense complex.

    R[i] is the dense boundary C_i -> C_{i-1} (R[0] has zero rows) and
    sizes[i] the rank of C_i.  For each i the kernel of R[i] is read off
    its Smith form (the trailing columns of V span it integrally, the
    trailing rows of V^-1 give kernel coordinates); the image of R[i+1] is
    expressed in that kernel basis and a second Smith form splits the
    quotient into free part and torsion (its U gives the projection, U^-1
    the basis).  The inverses come from unimodular_inverse: the matrices
    here are residual-sized.  An inverse is taken only when some of its
    rows or columns are read, that is, when the kernel or the free part
    is nonzero.  Returns Betti numbers, torsion, and per dimension the
    free basis (sizes[i] x betti) and its projection (betti x sizes[i]).
    """
    betti, torsion, bases, projs = [], [], [], []
    for i in range(len(sizes)):
        n_i = sizes[i]
        sf = smith_normal_form(R[i], ncols=n_i)
        r = sf.rank
        z = n_i - r  # kernel rank
        kernel = list(range(r, n_i))
        Z = intmat.hstack_cols(sf.V, kernel)
        Vinv = intmat.unimodular_inverse(sf.V) if kernel else []
        Kproj = intmat.stack_rows(Vinv, kernel)
        # boundaries from above, in kernel coordinates
        if i + 1 < len(sizes) and sizes[i + 1]:
            A = intmat.matmul(Kproj, R[i + 1])
        else:
            A = intmat.zeros(z, 0)
        sfa = smith_normal_form(A, ncols=intmat.shape(A)[1])
        s = sfa.rank
        betti.append(z - s)
        torsion.append([x for x in sfa.invariant_factors if x > 1])
        projs.append(intmat.matmul(intmat.stack_rows(sfa.U, list(range(s, z))), Kproj))
        free = list(range(s, z))
        Uinv = intmat.unimodular_inverse(sfa.U) if free else intmat.zeros(z, z)
        bases.append(intmat.matmul(Z, intmat.hstack_cols(Uinv, free)))
    return betti, torsion, bases, projs


def homology(K):
    """Integral homology of a simplicial complex, with free-basis data.

    Reduction pairs are eliminated on sparse boundary columns; the Smith
    form runs on the residual complex only, and its free basis and
    projection are carried back through the reduction's chain maps.
    """
    dims = len(K.simplices)
    if dims == 0:
        return HomologyProfile(K, [], [], [], [], [])
    boundaries = [K.boundary_columns(d) for d in range(dims)]
    red = _Reduction(boundaries)
    cells = [sorted(red.cols[d]) for d in range(dims)]
    R = [intmat.zeros(0, len(cells[0]))] + [
        [[red.cols[d][c].get(f, 0) for c in cells[d]] for f in cells[d - 1]]
        for d in range(1, dims)
    ]
    betti, torsion, bases, projs = _residual_homology(R, [len(c) for c in cells])

    free_basis, free_proj = [], []
    for i in range(dims):
        free_basis.append([
            red.lifted(i, {c: row[j] for c, row in zip(cells[i], bases[i]) if row[j]})
            for j in range(betti[i])
        ])
        free_proj.append([
            red.pulled_back(i, {c: x for c, x in zip(cells[i], row) if x})
            for row in projs[i]
        ])
    return HomologyProfile(K, betti, torsion, free_basis, free_proj, boundaries)


@functools.lru_cache(maxsize=4096)
def poset_homology(X):
    """Homology of the order complex of a poset (cached; posets are immutable)."""
    return homology(order_complex(X))


def is_acyclic(X):
    """Whether a poset (or subposet) has the integral homology of a point.

    The Stong core is a deformation retract, so homology is computed on
    the core; a singleton core short-circuits to True.
    """
    if len(X) == 0:
        raise EmptySubspace("the empty subspace is not acyclic")
    core = X.core()
    if len(core) == 1:
        return True
    return poset_homology(core).is_acyclic()


class InducedMap:
    """Per-dimension integer matrices on free parts of homology."""

    def __init__(self, source_profile, target_profile, matrices):
        self.source = source_profile
        self.target = target_profile
        self.matrices = matrices

    def matrix_at(self, dim):
        if 0 <= dim < len(self.matrices):
            return self.matrices[dim]
        return intmat.zeros(self.target.betti_at(dim), self.source.betti_at(dim))

    def then(self, other):
        """Composition other o self."""
        n = max(len(self.matrices), len(other.matrices))
        mats = [
            intmat.matmul(other.matrix_at(d), self.matrix_at(d)) for d in range(n)
        ]
        return InducedMap(self.source, other.target, mats)

    def __repr__(self):
        return f"InducedMap({self.matrices})"


def identity_induced(profile):
    mats = [intmat.identity(b) for b in profile.betti]
    return InducedMap(profile, profile, mats)


def induced_on_homology(chain_columns, src, dst):
    """Induced map on free homology of a chain map given as sparse columns.

    chain_columns[d] holds one column {target index: coefficient} per
    source d-simplex, as chain_map_of returns them.  The chain-map
    condition is verified column by column against both boundary
    sequences, then every source free-basis cycle is pushed through and
    its class read in the destination basis.
    """
    sizes = [len(level) for level in src.complex.simplices]
    got = [len(cols) for cols in chain_columns]
    if got != sizes:
        raise NotAChainMap(f"chain map has {got} columns per dimension, expected {sizes}")
    for d, cols in enumerate(chain_columns):
        rows = dst.complex.n_simplices(d)
        if any(not 0 <= i < rows for col in cols for i in col):
            raise NotAChainMap(f"chain map leaves the {rows} target {d}-simplices")

    for d in range(1, len(src.boundaries)):
        for j, col in enumerate(src.boundaries[d]):
            # a nonempty image column means dst has d-simplices
            image = chain_columns[d][j]
            lhs = _apply(dst.boundaries[d], image) if image else {}
            if lhs != _apply(chain_columns[d - 1], col):
                raise NotAChainMap(f"boundary does not commute in dimension {d}")

    mats = []
    for d in range(max(len(src.betti), len(dst.betti))):
        bs, bt = src.betti_at(d), dst.betti_at(d)
        M = intmat.zeros(bt, bs)
        if bs and bt:
            for j, cycle in enumerate(src.free_basis[d]):
                for i, x in enumerate(dst.class_of(d, _apply(chain_columns[d], cycle))):
                    M[i][j] = x
        mats.append(M)
    return InducedMap(src, dst, mats)


def induced_map_of_poset_map(f):
    """f_* on free homology, computed through K(f).

    K(f) runs between the cached profiles' own complexes: an equal poset
    cached first may list its simplices in another order than f.source.
    """
    require_continuous(f)
    src = poset_homology(f.source)
    dst = poset_homology(f.target)
    cm = chain_map_of(SimplicialMap(src.complex, dst.complex, f.assignment))
    return induced_on_homology(cm, src, dst)


def lefschetz_number(m):
    """Alternating sum of the traces of an induced endo-map."""
    if not m.source.same_shape(m.target):
        raise ProfileMismatch("Lefschetz number needs matching profiles")
    total = 0
    for d in range(len(m.source.betti)):
        M = m.matrix_at(d)
        r, c = intmat.shape(M)
        if r != c:
            raise ProfileMismatch(f"non-square matrix in dimension {d}")
        total += (-1) ** d * sum(M[i][i] for i in range(r))
    return total


def invert(m):
    """Exact inverse of an induced map that is unimodular in every dimension.

    Raises NotInvertible otherwise, which for certified Vietoris-like maps
    signals an inconsistency upstream.
    """
    dims = max(len(m.source.betti), len(m.target.betti))
    mats = []
    for d in range(dims):
        M = m.matrix_at(d)
        r, c = m.target.betti_at(d), m.source.betti_at(d)
        if r != c:
            raise NotInvertible(
                f"betti numbers differ in dimension {d} ({c} vs {r})", dimension=d
            )
        try:
            mats.append(intmat.unimodular_inverse(M))
        except NotInvertible as exc:
            raise NotInvertible(
                f"induced matrix not unimodular in dimension {d}", dimension=d
            ) from exc
    return InducedMap(m.target, m.source, mats)
