"""Multivalued maps between finite spaces and Vietoris-like certification.

The graph of a multimap is itself a finite space (componentwise order on
pairs); everything homological about a multimap flows through its two
projections.
"""

from dataclasses import dataclass

from .errors import (
    EmptyValue,
    NoMaximum,
    NotComposable,
    NotInvertible,
    NotSurjective,
    NotUsc,
    ProjectionNotIso,
    UnknownElement,
)
from .homology import (
    _core_homology,
    induced_map_of_poset_map,
    invert,
)
from .poset import (
    DEFAULT_BUDGET,
    PosetMap,
    _map,
    order_preserving_maps,
    product_subposet,
    require_continuous,
)


class MultiMap:
    """Total multivalued map: every point gets a non-empty image set.

    Values are not to be changed after construction: graph(F) keeps the
    graph, a pure function of them, in the slot _graph (None until then).
    """

    __slots__ = ("source", "target", "values", "_graph")

    def __init__(self, source, target, values):
        self.source, self.target, self._graph = source, target, None
        vals = {}
        for x in source.elements:
            if x not in values:
                raise EmptyValue(f"no image set for {x!r}")
            v = frozenset(values[x])
            if not v:
                raise EmptyValue(f"empty image set at {x!r}")
            for y in v:
                target.index(y)  # raises UnknownElement
            vals[x] = v
        self.values = vals

    def __call__(self, x):
        try:
            return self.values[x]
        except KeyError:
            raise UnknownElement(f"unknown element {x!r}") from None

    def __eq__(self, other):
        if not isinstance(other, MultiMap):
            return NotImplemented
        return (
            self.source == other.source
            and self.target == other.target
            and self.values == other.values
        )

    def __repr__(self):
        parts = ", ".join(
            f"{x!r}: {sorted(self.values[x], key=self.target.index)!r}"
            for x in self.source.elements
        )
        return f"MultiMap({{{parts}}})"


class _FiberMultiMap(MultiMap):
    """The multimap sending source point i to the fiber over fpos[i] of
    the map with positions hpos from the target into a space of size
    points, taken without a check: every such fiber must be nonempty.

    Built from positions alone (_fiber_multimap).  The slot values stays
    unset, and Python calls __getattr__ only for an attribute it does
    not find, so the first read of values builds it, one frozenset per
    fiber; from then on the multimap reads as, and equals, the MultiMap
    with those values.
    """

    __slots__ = ("_hpos", "_fpos", "_size")

    def __getattr__(self, name):
        if name != "values":
            return object.__getattribute__(self, name)  # AttributeError
        get = self.target.elements.__getitem__
        fibers = [frozenset(map(get, fiber)) for fiber in _fibers(self._hpos, self._size)]
        self.values = dict(zip(self.source.elements, map(fibers.__getitem__, self._fpos)))
        return self.values


def _fiber_multimap(source, target, hpos, fpos, size):
    """The _FiberMultiMap of hpos and fpos, its values not yet built."""
    F = object.__new__(_FiberMultiMap)
    F.source, F.target, F._graph = source, target, None
    F._hpos, F._fpos, F._size = hpos, fpos, size
    return F


def as_multimap(f):
    """View a single-valued map as a multivalued one."""
    return MultiMap(f.source, f.target, {x: {f(x)} for x in f.source.elements})


class GraphSpace:
    """The graph of a multimap as a finite space with its two projections.

    Pairs are ordered componentwise: (x, y) <= (x', y') iff x <= x' and
    y <= y'.  The projections p and q are built from positions
    (poset._map) without a check: they preserve the product order.
    """

    __slots__ = ("space", "p", "q")

    def __init__(self, F):
        X, Y = F.source, F.target
        pairs = [
            (x, y)
            for x in X.elements
            for y in sorted(F(x), key=Y.index)
        ]
        self.space = product_subposet(X, Y, pairs)
        self.p = _map(self.space, X, [X._index[x] for x, _ in pairs])
        self.q = _map(self.space, Y, [Y._index[y] for _, y in pairs])


def graph(F):
    """The GraphSpace of F, built on the first call and kept on F."""
    gs = F._graph
    if gs is None:
        gs = F._graph = GraphSpace(F)
    return gs


@dataclass
class ContinuityFlags:
    usc: bool
    lsc: bool
    susc: bool
    slsc: bool

    def as_dict(self):
        return {"usc": self.usc, "lsc": self.lsc, "susc": self.susc, "slsc": self.slsc}


def classify_continuity(F):
    """Order-theoretic (strong) upper/lower semicontinuity flags.

    For every pair x1 < x2 of X: usc asks each point of F(x1) to lie
    below some point of F(x2), lsc each point of F(x2) below some point
    of F(x1); susc and slsc ask for F(x1) <= F(x2) and F(x2) <= F(x1) as
    sets.  Each test is one inclusion of sets of point indices of Y: per
    x, the set of F(x) and that of the points at or below some point of
    F(x).
    """
    X, Y = F.source, F.target
    down = Y._down
    values, closed = [], []
    for x in X.elements:
        idx = {Y.index(y) for y in F(x)}
        values.append(idx)
        closed.append(idx.union(*(down[i] for i in idx)))
    pairs = [(i, j) for i, up in enumerate(X._up) for j in up]
    return ContinuityFlags(
        usc=all(values[i] <= closed[j] for i, j in pairs),
        lsc=all(values[j] <= closed[i] for i, j in pairs),
        susc=all(values[i] <= values[j] for i, j in pairs),
        slsc=all(values[j] <= values[i] for i, j in pairs),
    )


@dataclass(frozen=True)
class Certificate:
    """Outcome of a Vietoris-like check, with the first failure witness.

    Frozen: a map's certificate is kept on the map and shared by every
    caller that asks for it.
    """

    ok: bool
    failing_chain: tuple | None = None
    profile: object = None
    reason: str | None = None

    def as_dict(self):
        out = {"ok": self.ok}
        if not self.ok:
            out["failing_chain"] = list(self.failing_chain) if self.failing_chain else None
            if self.profile is not None:
                out.update(self.profile.summary())
            if self.reason:
                out["reason"] = self.reason
        return out


def is_vietoris_like_map(f):
    """Check that every union of fibers over a chain of the target is acyclic.

    Every map is first tried by _contracts, a contraction read off the
    order; a pass is a proof, so equal maps certify alike.
    Otherwise every chain is tested (acyclicity over maximal chains does
    not imply it for subchains), in the order of the chain walk, shortest
    first.  A chain's union concatenates its fibers, disjoint lists of
    source point indices.  homology._core_homology tests it with
    no subposet built: a cone is acyclic, else the Stong core decides,
    by a worklist on the union's points alone.  No two chains share a
    union (singletons come first, so every fiber is nonempty past them),
    so none is memoized.  The first failing chain is reported.

    A map is certified at most once: the certificate is kept on f (the
    slot PosetMap._certificate) and returned as is by later calls.  A call
    that raises, such as NotContinuous, keeps nothing.
    """
    cert = f._certificate
    if cert is None:
        cert = f._certificate = _certify(f)
    return cert


def _certify(f):
    """The certificate of is_vietoris_like_map from one fiber grouping: ok
    if _contracts passes, else by Stong."""
    X, Y = f.source, f.target
    fibers = _fibers(f._pos, len(Y))
    if _contracts(f, fibers):
        return Certificate(ok=True)
    require_continuous(f)
    for idx in (c for level in Y._index_chains() for c in level):
        union = [i for j in idx for i in fibers[j]]
        if not union:
            return Certificate(ok=False, failing_chain=_chain_elements(Y, idx),
                               reason="empty fiber union (f not surjective)")
        hp = _core_homology(X, union)
        if hp is not None and not hp.is_acyclic():
            return Certificate(ok=False, failing_chain=_chain_elements(Y, idx), profile=hp)
    return Certificate(ok=True)


def _contracts(f, fibers):
    """Whether f: X1 -> X (fibers: its _fibers) passes, per point t of X,
    a check that contracts every fiber union over a chain with maximum t.

    The witness is read off X1's order alone: m is the point of f^-1(t)
    of lowest rank, and g(x) the first point of f^-1(t), in index order,
    at or above x, recorded by one sweep of the fiber's _down lists; so
    f(g(x)) = t and x <= g(x).  Checked: g is defined on exactly
    D = f^-1(down-set of t, t in it), m <= g(x) on D, and g preserves
    order.  Proof: for a chain d with maximum t, U = f^-1(d) lies in D
    and holds f^-1(t), so m.  g maps U into f^-1(t), preserves order,
    and id_U <= g >= const_m.  Comparable maps are homotopic (Barmak,
    LNM 2032, ch. 1), so U is contractible: nonempty and acyclic.  g is
    defined on the points at or below f^-1(t), so D holding all of them
    makes f continuous, and a pass gives the Stong path's certificate.
    """
    down, rank = f.source._down, f.source._rank.__getitem__
    for t, below_t in enumerate(f.target._down):
        fiber = fibers[t]
        if not fiber:
            return False
        g = {}  # point index x of D_t -> point index of g_t(x)
        for i in fiber:
            g.setdefault(i, i)
            for k in down[i]:
                g.setdefault(k, i)
        m, size = min(fiber, key=rank), 0
        for s in (t, *below_t):
            for i in fibers[s]:
                gi = g.get(i)
                if gi is None or not (gi == m or m in down[gi]):
                    return False
            size += len(fibers[s])
        if len(g) != size:
            return False
        for i, gi in g.items():
            below = down[gi]
            for k in down[i]:
                gk = g[k]
                if not (gk == gi or gk in below):
                    return False
    return True


def _fibers(pos, size):
    """Per j < size, the ascending indices i with pos[i] == j."""
    fibers = [[] for _ in range(size)]
    for i, j in enumerate(pos):
        fibers[j].append(i)
    return fibers


def _chain_elements(Y, idx):
    """The chain of Y with point indices idx, as a tuple of elements."""
    return tuple(Y.elements[j] for j in idx)


def is_vietoris_like_multimap(F):
    """A multimap is Vietoris-like iff the first graph projection is;
    F keeps its graph and p its certificate, so F is certified at most once."""
    return is_vietoris_like_map(graph(F).p)


def _projections_on_core(F):
    """(p_*, q_*) for F's graph projections restricted to the graph's core.

    The Stong core inclusion i induces isomorphisms, so (q o i)_* (p o i)_*^-1
    equals q_* p_*^-1 and (p o i)_* (q o i)_*^-1 equals p_* q_*^-1, while
    the chain complexes stay small.  i is built from positions (poset._map).
    """
    gs = graph(F)
    p, q = gs.p, gs.q
    core = gs.space.core()
    if len(core) < len(gs.space):
        inc = _map(core, gs.space, [gs.space._index[x] for x in core.elements])
        p, q = inc.then(p), inc.then(q)
    return induced_map_of_poset_map(p), induced_map_of_poset_map(q)


def induced_multimap_homology(F):
    """F_* = q_* o p_*^-1 on free homology, via the graph projections."""
    p_star, q_star = _projections_on_core(F)
    try:
        p_inv = invert(p_star)
    except NotInvertible as exc:
        raise ProjectionNotIso(
            "first projection does not induce homology isomorphisms"
        ) from exc
    return p_inv.then(q_star)


def compose_multimaps(F, G):
    """(G o F)(x) = union of G(y) over y in F(x)."""
    if F.target != G.source:
        raise NotComposable("target of F differs from source of G")
    return MultiMap(
        F.source,
        G.target,
        {x: frozenset().union(*(G(y) for y in F(x))) for x in F.source.elements},
    )


def compose_map_then_multimap(f, G):
    """(G o f)(x) = G(f(x)) for single-valued f."""
    return compose_multimaps(as_multimap(f), G)


def fiber_multimap(f):
    """F(y) = f^{-1}(y), a multimap from the target back to the source."""
    require_continuous(f)
    if not f.is_surjective():
        raise NotSurjective("fiber multimap needs a surjective map")
    return MultiMap(f.target, f.source, f.fibers())


def selector_from_maxima(F):
    """The selector x -> max F(x) for a usc multimap with maxima.

    Continuity is automatic; the dual (lsc with minima) is reached by
    passing the multimap between opposite posets.
    """
    flags = classify_continuity(F)
    if not flags.usc:
        raise NotUsc("multimap is not upper semicontinuous")
    assignment = {}
    for x in F.source.elements:
        m = F.target.maximum(F(x))
        if m is None:
            raise NoMaximum(f"image of {x!r} has no maximum", element=x)
        assignment[x] = m
    return require_continuous(PosetMap(F.source, F.target, assignment))


def enumerate_selectors(F, budget=DEFAULT_BUDGET):
    """All continuous sections x -> y in F(x), in order_preserving_maps order."""
    return list(order_preserving_maps(F.source, F.target, F, budget))
