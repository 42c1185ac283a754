"""Exact integer simplicial homology and induced maps on free parts.

homology() first matches the cells of the complex by coreductions
(Mrozek-Batko, *Coreduction homology algorithm*, DCG 2009): a cell
with no unprocessed face is critical, and a cell with exactly one
unprocessed face is paired with it.  The pairs form an acyclic
discrete-Morse matching, whose Morse complex on the critical cells is
chain equivalent to the complex (Harker-Mischaikow-Mrozek-Nanda, FoCM
2014), so torsion stays exact.  On order complexes almost every cell is
paired, and a Smith normal form runs only on a Morse boundary with a
nonzero entry, which order complexes seldom have.  A gradient flow from
each critical cell gives its Morse boundary and the cycle it stands
for, lifting the Morse free basis to cycles; one sweep over the pairs
pulls the free-part projection back to chains.  Induced maps and
Lefschetz numbers act on the torsion-free part of homology, in that
deterministic basis.  The checked doors (class_of, induced_on_homology)
read the boundary from the complex.

poset_homology reads two kinds of poset with no chain walked.  A cone
is acyclic (Stong, Trans. AMS 1966).  A subdivision level has the
homology of the poset it subdivides (McCord, Duke Math. J. 1966), so
its Betti numbers and torsion are its base's, in time linear in its
comparable pairs, with its chain budget still counted; its free basis
is built on first read, by the route above (_LevelHomology).

Chains, cycles and chain maps are sparse, in the format of
SimplicialComplex.boundary_columns.  An induced map maps only the
source's free-basis cycles, through checked columns or, for a poset
map, through its positions.  Dense matrices appear only as the Morse
complex and the betti-sized InducedMap matrices.
"""

import functools
import heapq

from . import intmat
from .complexes import (
    _add_scaled,
    _apply,
    _deferred_order_complex,
    _face_table,
    _order_complex,
    _push,
)
from .errors import (
    BasisSolveFailure,
    EmptySubspace,
    NotAChainMap,
    NotInvertible,
    ProfileMismatch,
)
from .intmat import smith_normal_form
from .poset import _cone_or_core, _positions, require_continuous

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


class HomologyProfile:
    """Per-dimension Betti numbers, torsion and a free-part cycle basis.

    For each dimension i the profile keeps:
      * betti[i] and torsion[i] (invariant factors > 1, divisibility chain)
      * free_basis[i]: betti[i] sparse cycles {simplex index: coefficient}
      * betti[i] sparse projection rows sending any cycle to its free-part
        coordinates
    which is what induced maps are computed from.
    """

    def __init__(self, complex_, betti, torsion, free_basis, free_proj):
        self.complex = complex_
        self.betti = betti
        self.torsion = torsion
        self.free_basis = free_basis
        self._free_proj = free_proj

    def betti_at(self, dim):
        return self.betti[dim] if 0 <= dim < len(self.betti) else 0

    def torsion_at(self, dim):
        return self.torsion[dim] if 0 <= dim < len(self.torsion) else []

    def class_of(self, dim, chain):
        """Free-part coordinates of a sparse cycle {simplex index: coefficient}.

        The checked door: a chain that is not a cycle, a nonzero chain in
        a dimension the complex lacks (below 0 or above the top), a key
        that is no dim-simplex index or a coefficient that is no int
        raises BasisSolveFailure.
        """
        if not 0 <= dim < len(self.betti):
            if chain:
                raise BasisSolveFailure(f"nonzero chain in missing dimension {dim}")
            return []
        n = self.complex.n_simplices(dim)
        for i, x in chain.items():
            if not (isinstance(i, int) and 0 <= i < n):
                raise BasisSolveFailure(f"{i!r} is not one of the {n} {dim}-simplices")
            if not isinstance(x, int):
                raise BasisSolveFailure(f"coefficient {x!r} is not an integer")
        if _apply(self.complex.boundary_columns(dim), chain):
            raise BasisSolveFailure("chain is not a cycle")
        return self._coords(dim, chain)

    def _coords(self, dim, cycle):
        """class_of without its checks: the cycle is taken as one."""
        return [
            sum(v * cycle[i] for i, v in row.items() if i in cycle)
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


class _Coreduction:
    """A discrete-Morse matching of a complex, found by coreductions.

    faces is the complex's face table (complexes._face_table): cells
    numbered dimension by dimension (offsets[d] is the first d-simplex),
    the face omitting vertex k at k with boundary sign (-1)^k.  One pass
    (Mrozek-Batko, DCG 2009) takes the cells in that order.  A cell whose
    faces are all processed becomes critical (an ace).  Then every
    unprocessed cell k with exactly one unprocessed face q is matched
    with it from a queue: q is the queen, k its king, and pairs[dim q]
    records (q, k, position of q in faces[k]) in match order.  Every
    other face of k was processed before, so the matching is acyclic:
    expanding a queen brings in only queens matched earlier.  mate[c]
    is the index in pairs of the pair of a queen c, else -1.

    One gradient flow per ace of positive dimension gives cols[a], its
    Morse boundary, and lift[a], the chain it stands for; lifted() and
    pulled_back() are the inclusion and the projection.
    """

    def __init__(self, K, faces):
        levels = K._isimplices
        self.offsets = offsets = [0]
        for level in levels:
            offsets.append(offsets[-1] + len(level))
        total = offsets[-1]
        self.faces = faces
        cofaces = [[] for _ in range(offsets[-2])] + [()] * len(levels[-1])
        for c in range(offsets[1], total):
            for f in faces[c]:
                cofaces[f].append(c)
        count = list(map(len, faces))  # unprocessed faces
        done = bytearray(total)
        self.mate = mate = [-1] * total
        self.pairs = pairs = [[] for _ in levels]
        self.aces = aces = [[] for _ in levels]
        queue = []  # cells that had one unprocessed face when counted
        push, pop = queue.append, queue.pop
        for d in range(len(levels)):
            for a in range(offsets[d], offsets[d + 1]):
                if done[a]:
                    continue
                aces[d].append(a)  # lower dimensions are all processed
                processed = (a,)
                while processed:
                    for c in processed:
                        done[c] = 1
                        for j in cofaces[c]:
                            left = count[j] - 1
                            count[j] = left
                            if left == 1:
                                push(j)
                    processed = ()
                    while queue:
                        k = pop()
                        if not done[k] and count[k] == 1:
                            row = faces[k]
                            for pos, q in enumerate(row):
                                if not done[q]:
                                    break
                            level_pairs = pairs[len(row) - 2]
                            mate[q] = len(level_pairs)
                            level_pairs.append((q, k, pos))
                            processed = (q, k)
                            break
        del cofaces, count, done  # the flows need the matching only
        self.lift, self.cols = {}, {}
        for level in aces[1:]:
            for a in level:
                self.lift[a], self.cols[a] = self._flow(a)

    def _flow(self, a):
        """The chain the ace a stands for, and its boundary.

        The gradient flow starts from a and its boundary and removes the
        queens from the boundary, latest match first: a queen q with
        coefficient x is cancelled by adding y = -x * <d k, q> times its
        king k to the chain, and y times the boundary of k to the
        boundary.  The boundary ends with no queen, so its aces are the
        Morse boundary of a.
        """
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
                continue  # cancelled since it was queued
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

    def lifted(self, d, coords):
        """The chain {simplex index: coefficient} standing for a Morse
        chain {ace: coefficient} of dimension d."""
        out = {}
        for c, x in coords.items():
            _add_scaled(out, x, self.lift.get(c, {c: 1}))
        off = self.offsets[d]
        return {c - off: x for c, x in out.items()}

    def pulled_back(self, d, row):
        """A functional {ace: value} on Morse d-chains, composed with the
        projection, as {simplex index: value}.

        One forward sweep over the pairs with a queen in dimension d, in
        match order: a king maps to 0, and a queen q of king k to
        -<d k, q> times the value of the rest of the boundary of k, whose
        cells are all aces, kings or earlier queens.
        """
        faces, row = self.faces, dict(row)
        for q, k, qpos in self.pairs[d]:
            s = 0
            for pos, g in enumerate(faces[k]):
                x = row.get(g)
                if x:
                    s += -x if pos & 1 else x
            if s:
                row[q] = s if qpos & 1 else -s
        off = self.offsets[d]
        return {c - off: x for c, x in row.items()}


def _residual_homology(R, sizes):
    """Smith-form homology of a small dense complex.

    R[i] is the dense boundary C_i -> C_{i-1} (R[0] has zero rows) and
    sizes[i] the rank of C_i.  A Smith form runs only on a boundary with
    a nonzero entry: a zero R[i] makes all of C_i cycles, and a zero
    boundary from above leaves them as the homology, with identity basis
    and projection.

    Otherwise the kernel of R[i] is read off its Smith form (trailing
    columns of V span it, trailing rows of V^-1 give coordinates); the
    image of R[i+1] in that kernel basis gets a second Smith form, which
    splits the quotient into free part and torsion (U gives the
    projection, U^-1 the basis).  An inverse (unimodular_inverse, on
    residual-sized matrices) is taken only when the kernel or the free
    part is nonzero.  Returns Betti numbers, torsion, and per dimension
    the free basis (sizes[i] x betti) and its projection (betti x
    sizes[i]).
    """
    nonzero = [any(map(any, M)) for M in R] + [False]
    betti, torsion, bases, projs = [], [], [], []
    for i, n_i in enumerate(sizes):
        if nonzero[i]:
            sf = smith_normal_form(R[i], ncols=n_i)
            kernel = list(range(sf.rank, n_i))
            Z = intmat.hstack_cols(sf.V, kernel)
            Vinv = intmat.unimodular_inverse(sf.V) if kernel else []
            Kproj = intmat.stack_rows(Vinv, kernel)
        else:  # every i-chain is a cycle
            Z, Kproj = intmat.identity(n_i), intmat.identity(n_i)
        z = len(Kproj)  # kernel rank
        if not nonzero[i + 1]:  # no boundaries: the cycles are the homology
            betti.append(z)
            torsion.append([])
            projs.append(Kproj)
            bases.append(Z)
            continue
        # boundaries from above, in kernel coordinates
        A = intmat.matmul(Kproj, R[i + 1])
        sfa = smith_normal_form(A, ncols=intmat.shape(A)[1])
        s = sfa.rank
        free = list(range(s, z))
        betti.append(z - s)
        torsion.append([x for x in sfa.invariant_factors if x > 1])
        projs.append(intmat.matmul(intmat.stack_rows(sfa.U, free), Kproj))
        Uinv = intmat.unimodular_inverse(sfa.U) if free else intmat.zeros(z, z)
        bases.append(intmat.matmul(Z, intmat.hstack_cols(Uinv, free)))
    return betti, torsion, bases, projs


def homology(K):
    """Integral homology of a simplicial complex, with free-basis data.

    A coreduction pass matches cells into a discrete-Morse matching
    (_Coreduction); the Smith form runs on the Morse complex of its
    critical cells only.  One gradient flow per critical cell gives its
    Morse boundary and the cycle it stands for, and the free-part
    projection is pulled back to the complex by one sweep over the pairs.
    """
    return _homology(K, _face_table(K))


def _homology(K, faces):
    """homology(K), given K's face table (complexes._face_table)."""
    dims = K.dimension + 1
    if dims == 0:
        return HomologyProfile(K, [], [], [], [])
    m = _Coreduction(K, faces)
    cells = m.aces
    R = [intmat.zeros(0, len(cells[0]))] + [
        [[m.cols[c].get(f, 0) for c in cells[d]] for f in cells[d - 1]]
        for d in range(1, dims)
    ]
    betti, torsion, bases, projs = _residual_homology(R, [len(c) for c in cells])

    free_basis, free_proj = [], []
    for i in range(dims):
        free_basis.append([
            m.lifted(i, {c: row[j] for c, row in zip(cells[i], bases[i]) if row[j]})
            for j in range(betti[i])
        ])
        free_proj.append([
            m.pulled_back(i, {c: x for c, x in zip(cells[i], row) if x})
            for row in projs[i]
        ])
    return HomologyProfile(K, betti, torsion, free_basis, free_proj)


@functools.lru_cache(maxsize=4096)
def poset_homology(X):
    """Homology of the order complex of a poset (cached; posets are immutable).

    A cone (a maximum or a minimum; Stong, Trans. AMS 1966) walks no
    chain until its complex is read.  Ranks extend the order, so only
    the last point by rank can be a maximum and only the first a minimum.
    A subdivision level (complexes._subdivided) keeps as its _base the
    first poset B below it that subdivides none.  The level has B's
    homology (McCord, Duke Math. J. 1966), so B's cached profile gives
    its Betti numbers and torsion, and its free basis waits for its
    first read (_LevelHomology).  Either way the chain budget is counted
    at the call (_deferred_order_complex).
    """
    n = len(X)
    if n and (len(X._down[X._order[-1]]) == n - 1 or len(X._up[X._order[0]]) == n - 1):
        return _cone_homology(_deferred_order_complex(X))
    base = getattr(X, "_base", None)
    if base is not None:
        return _LevelHomology(_deferred_order_complex(X), poset_homology(base))
    return _homology(*_order_complex(X, faces=True))


class _LevelHomology(HomologyProfile):
    """The profile of a subdivision level: its base's Betti numbers and
    torsion, and the level's deferred order complex.

    The free basis and its projection are built on their first read, by
    _homology on one chain walk with faces, which also fills the complex;
    so they are the ones the full route gives.  That read raises
    BasisSolveFailure if the walk's invariants differ from the base's.
    A complex read before the basis walks the level once more.
    """

    def __init__(self, K, base):
        self.complex, self.betti, self.torsion = K, base.betti, base.torsion

    def __getattr__(self, name):
        if name not in ("free_basis", "_free_proj"):
            raise AttributeError(name)
        hp = _homology(*self.complex._walk(faces=True))
        if not hp.same_shape(self):
            raise BasisSolveFailure(f"subdivision level {hp.summary()}, base {self.summary()}")
        self.free_basis, self._free_proj = hp.free_basis, hp._free_proj
        return getattr(self, name)


def _cone_homology(K):
    """The profile _homology gives the order complex K of a cone, read off
    with no simplex: vertex 0 is the first ace and the only one in
    dimension 0, so it is the free basis of H_0, and pulled_back spreads
    its value 1 over every vertex (the augmentation); no higher dimension
    has a free part.
    """
    dims = K.dimension + 1
    return HomologyProfile(
        K, [1] + [0] * (dims - 1), [[] for _ in range(dims)],
        [[{0: 1}]] + [[] for _ in range(dims - 1)],
        [[dict.fromkeys(range(len(K.vertices)), 1)]] + [[] for _ in range(dims - 1)],
    )


def is_acyclic(X):
    """Whether a poset (or subposet) has the integral homology of a point.

    A cone is acyclic; otherwise the Stong core decides, a one-point
    core at once and a larger one by its homology (_core_homology).
    """
    if len(X) == 0:
        raise EmptySubspace("the empty subspace is not acyclic")
    hp = _core_homology(X, range(len(X)))
    return hp is None or hp.is_acyclic()


def _core_homology(X, points):
    """None when the point indices points of X are acyclic by a cone or a
    one-point core, else the homology profile of their Stong core; both
    found by poset._cone_or_core, with no subposet built.

    A set with a maximum or a minimum is contractible (Stong, Trans. AMS
    1966), a cone.  Otherwise its Stong core is a strong deformation
    retract (same reference) with the same Betti numbers and torsion, and
    only a core of more than one point becomes a poset, for its homology.
    """
    keep = _cone_or_core(X, points)
    return poset_homology(X._restrict(keep)) if keep and len(keep) > 1 else None


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
        """Composition other o self, which must meet self in one basis."""
        if not _one_basis(self.target, other.source):
            raise ProfileMismatch("composed maps meet in two homology bases")
        n = max(len(self.matrices), len(other.matrices))
        mats = [
            intmat.matmul(other.matrix_at(d), self.matrix_at(d)) for d in range(n)
        ]
        return InducedMap(self.source, other.target, mats)

    def __repr__(self):
        return f"InducedMap({self.matrices})"


def induced_on_homology(chain_columns, src, dst):
    """Induced map on free homology of a chain map given as sparse columns.

    The checked door for chain maps from outside the package:
    chain_columns[d] holds one column {target index: coefficient} per
    source d-simplex, as chain_map_of returns them.  Their sizes, rows,
    integer coefficients and every commuting square are verified
    (NotAChainMap otherwise); a chain map sends cycles to cycles, so
    _induced then reads the classes unchecked.
    """
    sizes = [len(level) for level in src.complex._isimplices]
    got = [len(cols) for cols in chain_columns]
    if got != sizes:
        raise NotAChainMap(f"chain map has {got} columns per dimension, expected {sizes}")
    for d, cols in enumerate(chain_columns):
        rows = dst.complex.n_simplices(d)
        for col in cols:
            for i, x in col.items():
                if not (isinstance(i, int) and 0 <= i < rows):
                    raise NotAChainMap(f"chain map leaves the {rows} target {d}-simplices")
                if not isinstance(x, int):
                    raise NotAChainMap(f"chain map coefficient {x!r} is not an integer")

    for d in range(1, len(sizes)):
        target = dst.complex.boundary_columns(d)
        for j, col in enumerate(src.complex.boundary_columns(d)):
            # a nonempty image column means dst has d-simplices
            image = chain_columns[d][j]
            lhs = _apply(target, image) if image else {}
            if lhs != _apply(chain_columns[d - 1], col):
                raise NotAChainMap(f"boundary does not commute in dimension {d}")
    return _induced(lambda d, cycle: _apply(chain_columns[d], cycle), src, dst)


def _induced(image, src, dst):
    """The induced map of a chain map known to be one, without a check:
    image(d, cycle) gives the image of each source free-basis d-cycle,
    whose coordinates are read in the destination basis (_coords)."""
    mats = []
    for d in range(max(len(src.betti), len(dst.betti))):
        bs, bt = src.betti_at(d), dst.betti_at(d)
        M = intmat.zeros(bt, bs)
        if bs and bt:
            for j, cycle in enumerate(src.free_basis[d]):
                for i, x in enumerate(dst._coords(d, image(d, cycle))):
                    M[i][j] = x
        mats.append(M)
    return InducedMap(src, dst, mats)


def induced_map_of_poset_map(f):
    """f_* on free homology, computed through K(f).

    The one check is that f is continuous.  K(f) runs between the cached
    profiles' own complexes: an equal poset cached first may list its
    points in another order than f.source, and then f's positions are
    re-indexed once.  Only the source's free-basis cycles go through
    them (complexes._push), unchecked and with no columns: a continuous
    f sends each chain to a chain, and K(f) is a chain map.
    """
    require_continuous(f)
    src, dst = poset_homology(f.source), poset_homology(f.target)
    K, L = src.complex, dst.complex
    pos = _positions(f, K.vertices, L.vertices, L._vindex)
    return _induced(lambda d, cycle: _push(K, L, pos, d, cycle), src, dst)


def _one_basis(P, Q):
    """Whether profiles P and Q are one homology basis.  homology()
    depends only on its complex, so equal complexes (also from a cleared
    poset_homology cache) give one basis; another listing of an equal
    poset gives another complex and basis."""
    return P is Q or P.complex == Q.complex


def lefschetz_number(m):
    """Alternating sum of the traces of an induced map on one basis."""
    if not _one_basis(m.source, m.target):
        raise ProfileMismatch("Lefschetz number needs one homology basis")
    total = 0
    for d in range(len(m.source.betti)):
        M = m.matrix_at(d)
        r, c = intmat.shape(M)
        if r != c:
            raise ProfileMismatch(f"non-square matrix in dimension {d}")
        total += (-1) ** d * sum(M[i][i] for i in range(r))
    return total


def _coincidence_number(a_star, b_star):
    """Lambda(b_* o a_*^-1); raises NotInvertible unless a_* inverts."""
    return lefschetz_number(invert(a_star).then(b_star))


def invert(m):
    """Exact inverse of an induced map that is unimodular in every dimension.

    Raises NotInvertible otherwise, which for certified Vietoris-like maps
    signals an inconsistency upstream.  A dimension with Betti number 0
    has the empty matrix as its own inverse and needs no Smith form.
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
            mats.append(intmat.unimodular_inverse(M) if r else [])
        except NotInvertible as exc:
            raise NotInvertible(
                f"induced matrix not unimodular in dimension {d}", dimension=d
            ) from exc
    return InducedMap(m.target, m.source, mats)
