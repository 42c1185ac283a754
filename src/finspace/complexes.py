"""Order complexes, face posets, barycentric subdivision and chain maps.

The two functors at work: K sends a poset to the simplicial complex of
its chains, X sends a complex to the poset of its simplices under
inclusion.  Composing them either way gives barycentric subdivision.

Chain-level data has one format: per dimension, a list with one sparse
column {simplex index: coefficient} per simplex.  boundary_columns and
chain_map_of return it; boundary_matrix is the dense version, kept as an
oracle for tests.
"""

import numpy as np

from . import intmat
from .errors import UnknownElement
from .poset import PosetMap, _derived, require_continuous


class SimplicialComplex:
    """Abstract simplicial complex with a fixed global vertex order.

    Simplices are stored per dimension as tuples sorted by vertex position;
    that sorting is the orientation convention for all chain-level algebra.
    """

    __slots__ = ("vertices", "_vindex", "simplices", "_sindex")

    def __init__(self, vertices, simplices_by_dim):
        self.vertices = tuple(vertices)
        self._vindex = {v: i for i, v in enumerate(self.vertices)}
        if len(self._vindex) != len(self.vertices):
            raise ValueError("duplicate vertices")
        sims = []
        for dim, sl in enumerate(simplices_by_dim):
            canon = []
            seen = set()
            for s in sl:
                t = tuple(sorted(s, key=self._vindex.__getitem__))
                if len(set(t)) != dim + 1:
                    raise ValueError(f"bad {dim}-simplex {s!r}")
                if t in seen:
                    raise ValueError(f"duplicate simplex {t!r}")
                seen.add(t)
                canon.append(t)
            sims.append(tuple(canon))
        # closure under faces
        self.simplices = tuple(sims)
        self._sindex = [
            {s: i for i, s in enumerate(level)} for level in self.simplices
        ]
        for dim in range(1, len(self.simplices)):
            for s in self.simplices[dim]:
                for k in range(dim + 1):
                    face = s[:k] + s[k + 1:]
                    if face not in self._sindex[dim - 1]:
                        raise ValueError(f"missing face {face!r} of {s!r}")

    @classmethod
    def from_simplices(cls, simplices, vertices=None):
        """Close the given simplices under faces and build the complex."""
        closed = set()
        for s in simplices:
            s = tuple(s)
            for mask in range(1, 1 << len(s)):
                face = tuple(s[i] for i in range(len(s)) if mask >> i & 1)
                closed.add(frozenset(face))
        if vertices is None:
            vs = sorted({v for f in closed for v in f}, key=repr)
        else:
            vs = list(vertices)
        by_dim = []
        maxd = max((len(f) for f in closed), default=0)
        order = {v: i for i, v in enumerate(vs)}
        for d in range(maxd):
            level = sorted(
                (tuple(sorted(f, key=order.__getitem__)) for f in closed if len(f) == d + 1),
            )
            by_dim.append(level)
        return cls(vs, by_dim)

    @property
    def dimension(self):
        return len(self.simplices) - 1

    def n_simplices(self, dim):
        if 0 <= dim < len(self.simplices):
            return len(self.simplices[dim])
        return 0

    def all_simplices(self):
        return [s for level in self.simplices for s in level]

    def simplex_index(self, s):
        return self._sindex[len(s) - 1][s]

    def euler_characteristic(self):
        return sum(
            (-1) ** d * len(level) for d, level in enumerate(self.simplices)
        )

    def boundary_columns(self, dim):
        """The boundary operator C_dim -> C_{dim-1} as sparse columns.

        One fresh dict {face index: sign} per dim-simplex, in simplex
        order; the face omitting vertex k carries sign (-1)^k.  Vertices
        have empty columns.
        """
        if dim <= 0 or dim >= len(self.simplices):
            return [{} for _ in range(self.n_simplices(dim))]
        index = self._sindex[dim - 1]
        return [
            {index[s[:k] + s[k + 1:]]: -1 if k % 2 else 1 for k in range(dim + 1)}
            for s in self.simplices[dim]
        ]

    def boundary_matrix(self, dim):
        """The dense matrix of boundary_columns(dim), a reference for tests.

        dim = 0 gives a matrix with zero rows.
        """
        rows = self.n_simplices(dim - 1) if dim > 0 else 0
        M = intmat.zeros(rows, self.n_simplices(dim))
        for j, col in enumerate(self.boundary_columns(dim)):
            for i, v in col.items():
                M[i][j] = v
        return M

    def export_text(self):
        """One simplex per line, vertices space-separated, for cross-checks."""
        lines = []
        for level in self.simplices:
            for s in level:
                lines.append(" ".join(str(v) for v in s))
        return "\n".join(lines) + "\n"

    def __eq__(self, other):
        if not isinstance(other, SimplicialComplex):
            return NotImplemented
        return (
            self.vertices == other.vertices and self.simplices == other.simplices
        )

    def __hash__(self):
        return hash((self.vertices, self.simplices))

    def __repr__(self):
        counts = [len(level) for level in self.simplices]
        return f"SimplicialComplex(f-vector {counts})"


class SimplicialMap:
    """Vertex assignment whose image of every simplex spans a simplex."""

    __slots__ = ("source", "target", "vertex_assignment")

    def __init__(self, source, target, vertex_assignment):
        self.source = source
        self.target = target
        self.vertex_assignment = dict(vertex_assignment)
        for v in source.vertices:
            if v not in self.vertex_assignment:
                raise ValueError(f"no image for vertex {v!r}")
        for level in source.simplices:
            for s in level:
                self.image_simplex(s)  # raises if not a simplex

    def __call__(self, v):
        return self.vertex_assignment[v]

    def image_simplex(self, s):
        """Sorted deduplicated image tuple; always a simplex of the target."""
        img = tuple(
            sorted(
                {self.vertex_assignment[v] for v in s},
                key=self.target._vindex.__getitem__,
            )
        )
        if img not in self.target._sindex[len(img) - 1]:
            raise ValueError(f"image of {s!r} is not a simplex of the target")
        return img

    def then(self, g):
        if g.source != self.target:
            raise ValueError("maps are not composable")
        return SimplicialMap(
            self.source,
            g.target,
            {v: g(self(v)) for v in self.source.vertices},
        )


def order_complex(X):
    """K(X): the complex whose i-simplices are the i-chains of X."""
    by_dim = {}
    for c in X.all_chains():
        by_dim.setdefault(len(c) - 1, []).append(c)
    maxd = max(by_dim, default=-1)
    levels = [by_dim.get(d, []) for d in range(maxd + 1)]
    return SimplicialComplex(X.elements, levels)


def face_poset(K):
    """X(K): simplices of K ordered by face inclusion.

    leq[a, s] is set for every nonempty vertex subset a of every simplex
    s, so the matrix is face inclusion itself and goes to the poset with
    no closure and no check.  It is a partial order by construction:
    reflexive (s is a face of itself), antisymmetric (faces of each other
    have the same vertices, and K holds each simplex once) and transitive
    (a face of a face of s is a face of s, and its entry is set too).
    That needs K closed under faces: a face K lacks raises UnknownElement.
    """
    els = K.all_simplices()
    start = [0]  # position of the first simplex of each dimension in els
    for level in K.simplices:
        start.append(start[-1] + len(level))
    rows, cols = [], []
    for j, s in enumerate(els):
        for mask in range(1, 1 << len(s)):
            face = tuple(v for k, v in enumerate(s) if mask >> k & 1)
            i = K._sindex[len(face) - 1].get(face)
            if i is None:
                raise UnknownElement(f"face {face!r} of {s!r} is not a simplex of K")
            rows.append(start[len(face) - 1] + i)
            cols.append(j)
    leq = np.zeros((len(els), len(els)), dtype=bool)
    leq[np.array(rows, dtype=np.intp), np.array(cols, dtype=np.intp)] = True
    return _derived(els, leq)


def barycentric_subdivision_space(X):
    """X' = X(K(X)): elements are the nonempty chains of X under inclusion."""
    return face_poset(order_complex(X))


def chain_max_map(X1, X):
    """The comparison map h: X1 -> X sending each chain of X to its maximum.

    X1 is barycentric_subdivision_space(X).  Its chains are stored in
    element order, which need not follow the order of X, so the maximum
    is looked up rather than read off the end of the tuple.
    """
    return PosetMap(X1, X, {c: X.maximum(c) for c in X1.elements})


def barycentric_subdivision_complex(K):
    """K' = K(X(K)): the barycentric subdivision of the complex."""
    return order_complex(face_poset(K))


def induced_simplicial_map(f):
    """K(f): sends the chain v0<...<vn to the chain of images, deduplicated."""
    require_continuous(f)
    return SimplicialMap(
        order_complex(f.source), order_complex(f.target), dict(f.assignment)
    )


def _perm_sign(seq):
    """Parity sign of the permutation sorting seq (seq has distinct keys)."""
    sign = 1
    seq = list(seq)
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[j] < seq[i]:
                sign = -sign
    return sign


def chain_map_of(sm):
    """Per-dimension sparse columns of the chain map of a simplicial map.

    The format of boundary_columns: one {image index: sign} dict per
    source simplex.  A simplex whose image degenerates maps to {};
    otherwise the sign is that of the permutation sorting the image
    vertices.
    """
    dst = sm.target
    out = []
    for level in sm.source.simplices:
        cols = []
        for s in level:
            keys = [dst._vindex[sm(v)] for v in s]
            if len(set(keys)) != len(keys):
                cols.append({})  # degenerate
                continue
            t = tuple(dst.vertices[k] for k in sorted(keys))
            cols.append({dst.simplex_index(t): _perm_sign(keys)})
        out.append(cols)
    return out
