"""Order complexes, face posets, barycentric subdivision and chain maps.

The two functors at work: K sends a poset to the simplicial complex of
its chains, X sends a complex to the poset of its simplices under
inclusion.  Composing them either way gives barycentric subdivision.

Chain-level data has one format: per dimension, a list with one sparse
column {simplex index: coefficient} per simplex.  boundary_columns builds
it for a boundary operator.  A SimplicialMap builds it for its chain map
once, in the constructor that checks the map, and chain_map_of returns
fresh copies.  boundary_matrix is the dense version of a boundary, kept
as an oracle for tests.

Orientation: a simplex is the tuple of its vertices sorted by position
in the complex's vertex order.  A simplicial map sends a simplex to 0
when two of its vertices share an image, and otherwise to its image
simplex times the sign of the permutation that sorts the image vertices.
"""

from . import intmat
from .errors import UnknownElement
from .poset import _derived, _map, require_continuous


class SimplicialComplex:
    """Abstract simplicial complex with a fixed global vertex order.

    Simplices are stored per dimension as tuples sorted by vertex
    position, oriented as the module docstring says.
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
    """Vertex assignment whose image of every simplex spans a simplex.

    The constructor checks every source simplex through image_simplex
    and, in the same pass, computes its chain-map column by the rule in
    the module docstring; chain_map_of hands out copies of the columns.
    """

    __slots__ = ("source", "target", "vertex_assignment", "_columns")

    def __init__(self, source, target, vertex_assignment):
        self.source = source
        self.target = target
        self.vertex_assignment = dict(vertex_assignment)
        for v in source.vertices:
            if v not in self.vertex_assignment:
                raise ValueError(f"no image for vertex {v!r}")
        pos, assignment = target._vindex, self.vertex_assignment
        self._columns = []
        for level in source.simplices:
            cols = []
            for s in level:
                img = self.image_simplex(s)  # raises if not a simplex
                if len(img) < len(s):
                    cols.append({})  # degenerate
                else:
                    sign = _perm_sign([pos[assignment[v]] for v in s])
                    cols.append({target.simplex_index(img): sign})
            self._columns.append(cols)

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

    The points below a simplex are its proper nonempty faces, so the
    order goes to the poset with no closure and no check.  It is a
    partial order by construction: antisymmetric (faces of each other
    have the same vertices, and K holds each simplex once) and transitive
    (a face of a face of s is a face of s).  That needs K closed under
    faces: a face K lacks raises UnknownElement.
    """
    els = K.all_simplices()
    start = [0]  # position of the first simplex of each dimension in els
    for level in K.simplices:
        start.append(start[-1] + len(level))
    down = []
    for s in els:
        faces = []
        for mask in range(1, (1 << len(s)) - 1):
            face = tuple(v for k, v in enumerate(s) if mask >> k & 1)
            i = K._sindex[len(face) - 1].get(face)
            if i is None:
                raise UnknownElement(f"face {face!r} of {s!r} is not a simplex of K")
            faces.append(start[len(face) - 1] + i)
        down.append(sorted(faces))
    return _derived(els, down)


def barycentric_subdivision_space(X):
    """X' = X(K(X)): elements are the nonempty chains of X under inclusion."""
    return face_poset(order_complex(X))


def chain_max_map(X1, X):
    """The comparison map h: X1 -> X sending each chain of X to its maximum.

    X1 is barycentric_subdivision_space(X).  Its chains are stored in
    element order, which need not follow the order of X, so the maximum
    is looked up (one extremum test on the chain's rank mask) rather than
    read off the end of the tuple.
    """
    return _map(X1, X, [X._view.max_of(X._mask(c)) for c in X1.elements])


def barycentric_subdivision_complex(K):
    """K' = K(X(K)): the barycentric subdivision of the complex."""
    return order_complex(face_poset(K))


def induced_simplicial_map(f):
    """K(f): sends the chain v0<...<vn to the chain of images, deduplicated."""
    require_continuous(f)
    return SimplicialMap(
        order_complex(f.source), order_complex(f.target), f.assignment
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
    """The chain map of sm in the format of boundary_columns.

    The columns were computed when sm was constructed; each call returns
    fresh copies, so a caller may change them.
    """
    return [[dict(col) for col in cols] for cols in sm._columns]
