"""Order complexes, face posets, barycentric subdivision and chain maps.

K sends a poset to the simplicial complex of its chains, X sends a
complex to the poset of its simplices under inclusion; composed either
way they give barycentric subdivision.

A complex lives in the index space of its vertex order: a simplex is the
ascending tuple of its vertices' positions, oriented in that order.
Element tuples appear only at the doors: the checked constructor,
simplices, simplex_index, image_simplex and error messages.

Faces have one format, the face table: cells numbered globally,
dimension by dimension, each with the numbers of its faces, the one
omitting vertex k at k.  An order complex gets it from the poset's
_chain_faces on request (_order_complex), any other complex from
_face_table.  A cone's homology takes its order complex deferred
(_DeferredOrderComplex): the chain walk runs when its simplices are
first read, and two such complexes of one listing and equal posets
are equal with no walk.  Chains have one format: per dimension, one
sparse column {simplex index: coefficient} per simplex, as
boundary_columns, _chain_columns and chain_map_of give them; _push maps
one chain, unchecked.  boundary_matrix is a dense oracle for tests.

A simplicial map sends a simplex to 0 when two of its vertices share an
image, else to its image simplex times the sign of the permutation that
sorts the image vertices (_image, the one copy of this rule).
"""

from itertools import chain, repeat

from . import intmat
from .errors import UnknownElement
from .poset import _derived, _map, require_continuous


class SimplicialComplex:
    """Abstract simplicial complex with a fixed global vertex order.

    Simplices are kept per dimension as ascending tuples of vertex
    positions (_isimplices); simplices names their vertices.  This
    constructor is the checked door: it rejects duplicate vertices, a
    simplex with the wrong number of distinct vertices, a duplicate
    simplex and a missing face.  Order complexes skip it (_complex).
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
        _face_table(_fill_complex(self, vertices, vindex, isims))

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
            names = repeat(self.vertices.__getitem__)
            self._simplices = tuple(
                tuple(map(tuple, map(map, names, level))) for level in self._isimplices)
        return self._simplices

    def _named(self, s):
        """The simplex with vertex positions s, as a tuple of vertices."""
        return tuple(map(self.vertices.__getitem__, s))

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
        try:
            if t:
                return _simplex_dict(self, len(t) - 1)[t]
        except LookupError:  # no such simplex, or none of its dimension
            pass
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
        return [{f: -1 if k % 2 else 1 for k, f in enumerate(row)}
                for row in _face_table(self, dim)]

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
    K._sindex = [None] * len(K._isimplices)
    return K


def _simplex_dict(K, d):
    """K's {d-simplex: index}, built on first lookup; IndexError above
    the top dimension."""
    index = K._sindex[d]
    if index is None:
        level = K._isimplices[d]
        index = K._sindex[d] = dict(zip(level, range(len(level))))
    return index


def _face_table(K, dim=None):
    """The face table of K: cells numbered globally, dimension by
    dimension, and per cell the numbers of its faces, the one omitting
    vertex k at k (vertices have ()).  With dim, the rows of the
    dim-simplices only, in indices of the (dim-1)-simplices.

    The one lookup of faces by slicing and hashing, for complexes that
    do not come from a poset's chain walk; a missing face raises
    ValueError naming it.
    """
    levels = K._isimplices
    rows = [] if dim else [()] * K.n_simplices(0)
    for d in (dim,) if dim else range(1, len(levels)):
        index = _simplex_dict(K, d - 1)
        off = 0 if dim else len(rows) - len(levels[d - 1])
        try:
            rows += zip(*[[index[s[:k] + s[k + 1:]] + off for s in levels[d]]
                          for k in range(d + 1)])
        except KeyError:
            s, k = next((s, k) for s in levels[d] for k in range(d + 1)
                        if s[:k] + s[k + 1:] not in index)
            raise ValueError(f"missing face {K._named(s[:k] + s[k + 1:])!r} "
                             f"of {K._named(s)!r}") from None
    return rows


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
        assignment = self.vertex_assignment
        pos = target._positions([assignment[v] for v in source.vertices])
        self._columns = _chain_columns(source, target, pos)

    def __call__(self, v):
        if v not in self.source._vindex:
            raise UnknownElement(f"unknown vertex {v!r}")
        return self.vertex_assignment[v]

    def image_simplex(self, s):
        """The deduplicated image of the source simplex s (in any vertex
        order), found by _image, as a simplex of the target; ValueError if
        it is none, or else if s is no simplex of the source."""
        source, target = self.source, self.target
        t = sorted(source._positions(s))
        assignment, vertices = self.vertex_assignment, source.vertices
        img = sorted({target._vindex[assignment[vertices[i]]] for i in t})
        try:
            _image(target, img)
        except LookupError:  # no such simplex, or none of its dimension
            raise ValueError(f"image of {s!r} is not a simplex of the target") from None
        source.simplex_index(source._named(t))  # ValueError for a non-simplex
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
    return _simplex_dict(L, len(t) - 1)[t], _perm_sign(img)


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
    """The image of a sparse dim-chain of the order complex K in the
    order complex L under the chain map of pos, without a check: every
    image must be a simplex of L, as for the map of a continuous
    PosetMap (a chain goes to a chain).  Vertex i is 0-simplex i in an
    order complex, so a 0-chain goes by pos alone and reads no simplex
    (nor walks a _DeferredOrderComplex)."""
    level, out = K._isimplices[dim] if dim else None, {}
    for j, x in chain.items():
        image = _image(L, [pos[v] for v in level[j]]) if dim else (pos[j], 1)
        if image:
            i, sign = image
            out[i] = out.get(i, 0) + sign * x
    return {i: y for i, y in out.items() if y}


def order_complex(X):
    """K(X): the complex whose i-simplices are the i-chains of X, in the
    order of the poset's chain walk (lexicographic per dimension)."""
    return _order_complex(X)[0]


def _order_complex(X, faces=False):
    """(K(X), its face table if faces else None), read off the poset's
    chain walk and _chain_faces.

    Chains are closed under faces, so the complex is built without a
    check, and it shares X's element index as its vertex index.  When
    the index order is no linear extension, a chain is sorted into a
    simplex and its face row permuted with it.
    """
    levels = X._index_chains()
    table = X._chain_faces(levels) if faces else None
    if not _index_extends(X):
        c = len(X)
        for level in levels[1:]:
            for k, s in enumerate(level):
                order = sorted(range(len(s)), key=s.__getitem__)
                level[k] = tuple([s[i] for i in order])
                if faces:
                    table[c] = tuple([table[c][i] for i in order])
                c += 1
    return _complex(X.elements, X._index, levels), table


def _index_extends(X):
    """Whether X's index order is a linear extension: every point lies
    below points of higher index only."""
    return not any(u and u[0] < i for i, u in enumerate(X._up))


class _DeferredOrderComplex(SimplicialComplex):
    """order_complex(X) whose chain walk waits for its first reader.

    The vertices and their index are X's from the start.  The three
    slots that hold simplices stay unset, and Python calls __getattr__
    only for an attribute it does not find, so the first read of any of
    them runs _order_complex and fills all three; from then on the
    complex reads as, and equals, the one order_complex(X) builds.
    """

    __slots__ = ("_poset",)

    def __getattr__(self, name):
        if name not in ("_isimplices", "_sindex", "_simplices"):
            return object.__getattribute__(self, name)  # AttributeError
        K = _order_complex(self._poset)[0]
        self._isimplices, self._sindex, self._simplices = K._isimplices, K._sindex, None
        return getattr(self, name)

    def __eq__(self, other):
        """Two of them with one listing and equal posets are equal, as
        their walks are; so neither walks.  Otherwise the complexes are
        compared simplex by simplex, with no walk when the listings
        differ: two unequal posets can have one order complex (a total
        order and its opposite)."""
        if (isinstance(other, _DeferredOrderComplex) and self.vertices == other.vertices
                and self._poset == other._poset):
            return True
        return SimplicialComplex.__eq__(self, other)

    __hash__ = SimplicialComplex.__hash__


def _deferred_order_complex(X):
    """(_DeferredOrderComplex of X, the point count of X's longest chain),
    in O(points + comparable pairs), with no chain built.

    The budget is checked at once, as the walk checks it
    (FinitePoset._chain_budget).  The longest chain starting at
    a point is the point and the longest starting above it, found from
    the top of the linear extension down.
    """
    X._chain_budget()
    K = object.__new__(_DeferredOrderComplex)
    K.vertices, K._vindex, K._poset = X.elements, X._index, X
    longest, up = [0] * len(X), X._up
    for i in reversed(X._order):
        longest[i] = 1 + max(map(longest.__getitem__, up[i]), default=0)
    return K, max(longest, default=0)


def face_poset(K):
    """X(K): simplices of K ordered by face inclusion.

    The points below a simplex are its proper nonempty faces, read off
    K's face table: a partial order by construction, so the poset gets
    no closure and no check.  A face K lacks raises UnknownElement.
    """
    try:
        faces = _face_table(K)
    except ValueError as exc:
        raise UnknownElement(*exc.args) from None
    return _face_poset(K, faces)


def _face_poset(K, faces):
    """face_poset from K's face table: the faces below a simplex are its
    codimension-1 faces and the faces below them."""
    down = []
    for row in faces:
        below = set(row)
        for f in row:
            below.update(down[f])
        down.append(sorted(below))
    return _derived(K.all_simplices(), down)


def barycentric_subdivision_space(X):
    """X' = X(K(X)): elements are the nonempty chains of X under inclusion."""
    return _face_poset(*_order_complex(X, faces=True))


def _subdivision(X):
    """(barycentric_subdivision_space(X), the positions of chain_max_map
    on it), from one chain walk.

    A point of X' is a simplex, ascending in X's index order; when that
    order is a linear extension, the simplex is the walk's leq-increasing
    chain and its maximum is its last point.
    """
    K, faces = _order_complex(X, faces=True)
    X1 = _face_poset(K, faces)
    del faces  # the face table is dropped before the positions are listed
    chains = chain.from_iterable(K._isimplices)
    return X1, [c[-1] for c in chains] if _index_extends(X) else _chain_maxima(X, chains)


def _chain_maxima(X, chains):
    """The position in X of each chain's maximum, the chains given as
    point indices of X: its point of highest rank (ranks extend the
    order)."""
    rank, order = X._rank, X._order
    return [order[max(map(rank.__getitem__, c))] for c in chains]


def chain_max_map(X1, X):
    """The comparison map h: X1 -> X sending each chain of X to its maximum.

    X1 is barycentric_subdivision_space(X).  Its chains are stored in
    element order, which need not follow the order of X, so the maximum
    is not read off the end of the tuple: _chain_maxima takes the point
    of the chain with the highest rank in X.  UnknownElement names the
    first point of X1 that is no nonempty tuple of points of X.  X1
    holds the one-point chains of X, so maps._contracts is tried.
    """
    index = X._index
    try:
        if set(map(type, X1.elements)) <= {tuple}:
            return _map(X1, X, _chain_maxima(X, [[index[x] for x in c] for c in X1.elements]))
    except (KeyError, ValueError):  # a point of c not in X, or c = ()
        pass
    bad = next(c for c in X1.elements if not (type(c) is tuple and c and set(c) <= index.keys()))
    raise UnknownElement(f"{bad!r} is not a nonempty tuple of target points")


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
