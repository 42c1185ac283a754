"""Order complexes, face posets, barycentric subdivision and chain maps.

The two functors at work: K sends a poset to the simplicial complex of
its chains, X sends a complex to the poset of its simplices under
inclusion.  Composing them either way gives barycentric subdivision.

Inside, a complex lives in the index space of its vertex order: a
simplex is the ascending tuple of its vertices' positions, and the
simplex index, boundary columns, face poset, homology and chain maps all
read those int tuples.  Element tuples appear only at the doors: the
checked SimplicialComplex constructor (and from_simplices) takes them,
the simplices attribute lists them (built on first read), simplex_index
and image_simplex take and return them, and error messages show them.
order_complex builds its complex from the index chains of the poset's
one chain walk, with no check: chains are closed under faces.

Chain-level data has one format: per dimension, a list with one sparse
column {simplex index: coefficient} per simplex.  boundary_columns builds
it for a boundary operator.  _chain_columns builds it for a vertex map
given by positions; a SimplicialMap calls it once, in the constructor
that checks the map, and chain_map_of returns fresh copies.  _push maps
one chain through positions, unchecked and with no columns.
boundary_matrix is the dense version of a boundary, kept as an oracle
for tests.

Orientation: a simplex is the tuple of its vertices sorted by position
in the complex's vertex order.  A simplicial map sends a simplex to 0
when two of its vertices share an image, and otherwise to its image
simplex times the sign of the permutation that sorts the image vertices
(_image, the one copy of this rule).
"""

from . import intmat
from .errors import UnknownElement
from .poset import _derived, _map, require_continuous


class SimplicialComplex:
    """Abstract simplicial complex with a fixed global vertex order.

    Simplices are kept per dimension as ascending tuples of vertex
    positions (the private _isimplices), oriented as the module docstring
    says; simplices gives the same tuples with the vertices themselves.
    This constructor is the checked door: it rejects duplicate vertices,
    a simplex with the wrong number of distinct vertices, a duplicate
    simplex and a missing face.  order_complex builds complexes that are
    valid by construction through _complex, without the check.
    """

    __slots__ = ("vertices", "_vindex", "_isimplices", "_sindex", "_simplices")

    def __init__(self, vertices, simplices_by_dim):
        vertices = tuple(vertices)
        vindex = {v: i for i, v in enumerate(vertices)}
        if len(vindex) != len(vertices):
            raise ValueError("duplicate vertices")
        isims = []
        for dim, sl in enumerate(simplices_by_dim):
            canon = []
            seen = set()
            for s in sl:
                t = tuple(sorted(vindex[v] for v in s))
                if len(set(t)) != dim + 1:
                    raise ValueError(f"bad {dim}-simplex {s!r}")
                if t in seen:
                    raise ValueError(f"duplicate simplex {tuple(vertices[i] for i in t)!r}")
                seen.add(t)
                canon.append(t)
            isims.append(canon)
        _fill_complex(self, vertices, vindex, isims)
        for dim in range(1, len(isims)):
            index = self._sindex[dim - 1]
            for s in isims[dim]:
                for k in range(dim + 1):
                    face = s[:k] + s[k + 1:]
                    if face not in index:
                        raise ValueError(
                            f"missing face {self._named(face)!r} of {self._named(s)!r}")

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
    def simplices(self):
        """Per dimension, the simplices as tuples of vertices, in simplex order.

        Built from the index tuples on first read and kept.
        """
        if self._simplices is None:
            name = self._named
            self._simplices = tuple(
                tuple([name(s) for s in level]) for level in self._isimplices)
        return self._simplices

    def _named(self, s):
        """The simplex with vertex positions s, as a tuple of vertices."""
        v = self.vertices
        return tuple([v[i] for i in s])

    @property
    def dimension(self):
        return len(self._isimplices) - 1

    def n_simplices(self, dim):
        if 0 <= dim < len(self._isimplices):
            return len(self._isimplices[dim])
        return 0

    def all_simplices(self):
        return [s for level in self.simplices for s in level]

    def simplex_index(self, s):
        """The index of the simplex s, its vertices in vertex order, within
        its dimension; ValueError for a tuple that is no simplex."""
        t = self._positions(s)
        if t and len(t) <= len(self._sindex) and t in self._sindex[len(t) - 1]:
            return self._sindex[len(t) - 1][t]
        raise ValueError(f"{tuple(s)!r} is not a simplex of the complex")

    def _positions(self, s):
        """The positions of the vertices s; UnknownElement for any other."""
        try:
            return tuple([self._vindex[v] for v in s])
        except KeyError as exc:
            raise UnknownElement(f"unknown vertex {exc.args[0]!r}") from None

    def euler_characteristic(self):
        return sum(
            (-1) ** d * len(level) for d, level in enumerate(self._isimplices)
        )

    def boundary_columns(self, dim):
        """The boundary operator C_dim -> C_{dim-1} as sparse columns.

        One fresh dict {face index: sign} per dim-simplex, in simplex
        order; the face omitting vertex k carries sign (-1)^k.  Vertices
        have empty columns.
        """
        if dim <= 0 or dim >= len(self._isimplices):
            return [{} for _ in range(self.n_simplices(dim))]
        index = self._sindex[dim - 1]
        return [
            {index[s[:k] + s[k + 1:]]: -1 if k % 2 else 1 for k in range(dim + 1)}
            for s in self._isimplices[dim]
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

    def __eq__(self, other):
        if not isinstance(other, SimplicialComplex):
            return NotImplemented
        return (
            self.vertices == other.vertices and self._isimplices == other._isimplices
        )

    def __hash__(self):
        return hash((self.vertices, self._isimplices))

    def __repr__(self):
        counts = [len(level) for level in self._isimplices]
        return f"SimplicialComplex(f-vector {counts})"


def _fill_complex(K, vertices, vindex, isimplices):
    K.vertices, K._vindex, K._simplices = vertices, vindex, None
    K._isimplices = tuple(tuple(level) for level in isimplices)
    K._sindex = [{s: i for i, s in enumerate(level)} for level in K._isimplices]
    return K


def _complex(vertices, vindex, isimplices):
    """The complex with the given per-dimension ascending index tuples,
    taken without a check.

    vindex maps each vertex to its position in vertices; a poset's
    element index serves as is.
    """
    return _fill_complex(object.__new__(SimplicialComplex), vertices, vindex, isimplices)


class SimplicialMap:
    """Vertex assignment whose image of every simplex spans a simplex.

    The constructor is the checked door: it checks every source simplex
    and, in the same pass, computes its chain-map column (_chain_columns,
    the rule in the module docstring); chain_map_of hands out copies of
    the columns.
    """

    __slots__ = ("source", "target", "vertex_assignment", "_columns")

    def __init__(self, source, target, vertex_assignment):
        self.source = source
        self.target = target
        self.vertex_assignment = dict(vertex_assignment)
        for v in source.vertices:
            if v not in self.vertex_assignment:
                raise ValueError(f"no image for vertex {v!r}")
        vindex, assignment = target._vindex, self.vertex_assignment
        pos = [vindex[assignment[v]] for v in source.vertices]
        self._columns = _chain_columns(source, target, pos)

    def __call__(self, v):
        return self.vertex_assignment[v]

    def image_simplex(self, s):
        """The deduplicated image of the vertices s, found by _image, as a
        simplex of the target; ValueError if it is none."""
        self.source._positions(s)  # UnknownElement for a vertex not in the source
        target = self.target
        img = sorted({target._vindex[self.vertex_assignment[v]] for v in s})
        try:
            _image(target, img)
        except LookupError:  # no such simplex, or none of its dimension
            raise ValueError(f"image of {s!r} is not a simplex of the target") from None
        return target._named(img)

    def then(self, g):
        if g.source != self.target:
            raise ValueError("maps are not composable")
        return SimplicialMap(
            self.source,
            g.target,
            {v: g(self(v)) for v in self.source.vertices},
        )


def _image(L, img):
    """The image in L of a simplex whose vertices go to the positions img:
    None when two of them share an image, else (index of the sorted
    image, sign of the permutation that sorts it).  LookupError when the
    image is no simplex of L."""
    if len(set(img)) < len(img):
        return None
    t = tuple(sorted(img))
    return L._sindex[len(t) - 1][t], _perm_sign(img)


def _chain_columns(K, L, pos):
    """The chain map K -> L of the vertex map pos (pos[i] is the position
    in L of the image of vertex i of K): per dimension, one column per
    simplex of K, {} when the image degenerates, else {index: sign}.  An
    image that is no simplex of L raises ValueError naming the simplex.
    A degenerate image is that of a face, checked in a lower dimension."""
    out = []
    for level in K._isimplices:
        cols = []
        for s in level:
            try:
                image = _image(L, [pos[v] for v in s])
            except LookupError:  # no such simplex, or none of its dimension
                raise ValueError(
                    f"image of {K._named(s)!r} is not a simplex of the target") from None
            cols.append(dict([image]) if image else {})
        out.append(cols)
    return out


def _push(K, L, pos, dim, chain):
    """The image of a sparse dim-chain of K under the chain map of pos,
    without a check: every image must be a simplex of L, as for the map
    of a continuous PosetMap (a chain goes to a chain)."""
    level, out = K._isimplices[dim], {}
    for j, x in chain.items():
        image = _image(L, [pos[v] for v in level[j]])
        if image:
            i, sign = image
            out[i] = out.get(i, 0) + sign * x
    return {i: y for i, y in out.items() if y}


def order_complex(X):
    """K(X): the complex whose i-simplices are the i-chains of X.

    The chains come from the poset's one chain walk as index tuples,
    each sorted once; per dimension they keep the walk's order.  Chains
    are closed under faces, so the complex is built without a check, and
    it shares X's element index as its vertex index.
    """
    by_dim = []
    for c in X._index_chains():
        d = len(c) - 1
        if d == len(by_dim):  # a chain comes after its prefix: no length is skipped
            by_dim.append([])
        by_dim[d].append(tuple(sorted(c)))
    return _complex(X.elements, X._index, by_dim)


def face_poset(K):
    """X(K): simplices of K ordered by face inclusion.

    The points below a simplex are its proper nonempty faces, so the
    order goes to the poset with no closure and no check.  It is a
    partial order by construction: antisymmetric (faces of each other
    have the same vertices, and K holds each simplex once) and transitive
    (a face of a face of s is a face of s).  That needs K closed under
    faces: a face K lacks raises UnknownElement.
    """
    start = [0]  # position of the first simplex of each dimension
    for level in K._isimplices:
        start.append(start[-1] + len(level))
    down = []
    for level in K._isimplices:
        for s in level:
            faces = []
            for mask in range(1, (1 << len(s)) - 1):
                face = tuple([v for k, v in enumerate(s) if mask >> k & 1])
                i = K._sindex[len(face) - 1].get(face)
                if i is None:
                    raise UnknownElement(
                        f"face {K._named(face)!r} of {K._named(s)!r} is not a simplex of K")
                faces.append(start[len(face) - 1] + i)
            down.append(sorted(faces))
    return _derived(K.all_simplices(), down)


def barycentric_subdivision_space(X):
    """X' = X(K(X)): elements are the nonempty chains of X under inclusion."""
    return face_poset(order_complex(X))


def chain_max_map(X1, X):
    """The comparison map h: X1 -> X sending each chain of X to its maximum.

    X1 is barycentric_subdivision_space(X).  Its chains are stored in
    element order, which need not follow the order of X, so the maximum
    is not read off the end of the tuple: it is the point of the chain
    with the highest rank in X (ranks extend the order).
    """
    index, rank, order = X._index, X._rank, X._order
    return _map(X1, X, [order[max([rank[index[x]] for x in c])] for c in X1.elements])


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
    """Parity sign of the permutation sorting the list seq (distinct keys)."""
    sign = 1
    for i, x in enumerate(seq):
        for y in seq[i + 1:]:
            if y < x:
                sign = -sign
    return sign


def chain_map_of(sm):
    """The chain map of sm in the format of boundary_columns.

    The columns were computed when sm was constructed; each call returns
    fresh copies, so a caller may change them.
    """
    return [[dict(col) for col in cols] for cols in sm._columns]
