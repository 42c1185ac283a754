"""Order complexes, face posets, subdivisions and chain maps."""

import copy
import importlib
import random
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from finspace import casebook, complexes, intmat
from finspace.complexes import (
    SimplicialComplex,
    SimplicialMap,
    barycentric_subdivision_complex,
    barycentric_subdivision_space,
    chain_map_of,
    face_poset,
    induced_simplicial_map,
    order_complex,
)
from finspace.dynamics import build_tower
from finspace.errors import UnknownElement
from finspace.formats import serialize_map, serialize_multimap, serialize_poset
from finspace.homology import (
    induced_map_of_poset_map,
    induced_on_homology,
    poset_homology,
)
from finspace.maps import graph, projections_on_core
from finspace.poset import PosetMap, build_poset, constant_map, identity_map
from finspace.random_instances import random_monotone_map, random_poset

# the package re-exports the function homology under the module's name
homology_module = importlib.import_module("finspace.homology")


@pytest.fixture
def circle():
    return build_poset("abcd", [("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")])


def test_complex_validation():
    with pytest.raises(ValueError):
        SimplicialComplex("ab", [[("a", "b")]])  # an edge is not a vertex
    with pytest.raises(ValueError):
        SimplicialComplex("ab", [["a"], [("a", "b")]])  # face b missing
    K = SimplicialComplex.from_simplices([("a", "b"), ("b", "c")])
    assert K.n_simplices(0) == 3 and K.n_simplices(1) == 2
    assert K.dimension == 1


def test_doors_name_simplices_by_their_vertices():
    # the vertex order c, a, b sorts each simplex by position, not by name
    with pytest.raises(ValueError, match=r"^bad 1-simplex \('a', 'a'\)$"):
        SimplicialComplex("cab", [["a", "b", "c"], [("a", "a")]])
    with pytest.raises(ValueError, match=r"^duplicate simplex \('c', 'a'\)$"):
        SimplicialComplex("cab", [["a", "b", "c"], [("c", "a"), ("a", "c")]])
    with pytest.raises(ValueError, match=r"^missing face \('b',\) of \('a', 'b'\)$"):
        SimplicialComplex("cab", [["a", "c"], [("b", "a")]])
    K = SimplicialComplex("cab", [["a", "b", "c"], [("a", "b")]])
    with pytest.raises(
        ValueError, match=r"^image of \('a', 'b'\) is not a simplex of the target$"
    ):
        SimplicialMap(K, K, {"a": "c", "b": "b", "c": "c"})
    sm = SimplicialMap(K, K, {"a": "b", "b": "a", "c": "c"})
    assert sm.image_simplex(("a", "b")) == ("a", "b")
    assert K.simplex_index(("a", "b")) == 0 and K.simplices[1] == (("a", "b"),)


@pytest.mark.parametrize("lookup, s, error, message", [
    ("image_simplex", ("a", "b"), ValueError, r"^image of \('a', 'b'\) is not a simplex"),
    ("image_simplex", ("z",), UnknownElement, r"^unknown vertex 'z'$"),
    ("simplex_index", ("a", "b"), ValueError, r"^\('a', 'b'\) is not a simplex"),
    ("simplex_index", (), ValueError, r"^\(\) is not a simplex"),
    ("simplex_index", ("a", "a"), ValueError, r"^\('a', 'a'\) is not a simplex"),
    ("simplex_index", ("z",), UnknownElement, r"^unknown vertex 'z'$"),
])
def test_simplex_lookups_name_their_errors(lookup, s, error, message):
    # two isolated vertices: no tuple of two vertices is a simplex, and no
    # dimension holds the empty tuple
    K = SimplicialComplex("ab", [["a", "b"]])
    owner = SimplicialMap(K, K, {"a": "a", "b": "b"}) if lookup == "image_simplex" else K
    with pytest.raises(error, match=message):
        getattr(owner, lookup)(s)


def test_simplicial_map_rejects_unknown_vertices_and_non_simplices():
    K = SimplicialComplex("ab", [["a", "b"]])
    with pytest.raises(UnknownElement, match=r"^unknown vertex 'z'$"):
        SimplicialMap(K, K, {"a": "z", "b": "b"})
    # an extra key is no vertex of the source
    sm = SimplicialMap(K, K, {"a": "a", "b": "a", "z": "a"})
    with pytest.raises(UnknownElement, match=r"^unknown vertex 'z'$"):
        sm("z")
    # both vertices go to a, a simplex, but (a, b) is no simplex of the source
    with pytest.raises(ValueError, match=r"^\('a', 'b'\) is not a simplex"):
        sm.image_simplex(("a", "b"))
    with pytest.raises(ValueError, match=r"^\('b', 'b'\) is not a simplex"):
        sm.image_simplex(("b", "b"))
    assert sm("b") == "a" and sm.image_simplex(("b",)) == ("a",)


def test_order_complex_of_circle(circle):
    K = order_complex(circle)
    assert [K.n_simplices(d) for d in (0, 1)] == [4, 4]
    assert K.euler_characteristic() == 0
    assert K.simplex_index(("a", "c")) in range(4)


def test_face_poset_roundtrip(circle):
    K = order_complex(circle)
    FP = face_poset(K)
    assert len(FP) == 8
    assert FP.leq(("a",), ("a", "c"))
    assert not FP.leq(("a", "c"), ("a",))


def _face_poset_by_closure(K):
    """Face inclusion through build_poset: codimension-one faces, closed up."""
    rels = [
        (s[:k] + s[k + 1:], s)
        for level in K.simplices[1:]
        for s in level
        for k in range(len(s))
    ]
    return build_poset(K.all_simplices(), rels)


def test_face_poset_matches_the_closure():
    sphere = build_poset(
        "abcdef",
        [("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"),
         ("c", "e"), ("c", "f"), ("d", "e"), ("d", "f")],
    )
    complexes = [(f"S2 level {n}", order_complex(X))
                 for n, X in enumerate(build_tower(sphere, 2).levels)]
    seed = 37
    rng = random.Random(seed)
    for k in range(60):
        facets = [rng.sample(range(7), rng.randint(1, 4))
                  for _ in range(rng.randint(1, 6))]
        complexes.append((f"seed {seed}, instance {k}: facets {facets}",
                          SimplicialComplex.from_simplices(facets)))
    for label, K in complexes:
        got, want = face_poset(K), _face_poset_by_closure(K)
        assert got.elements == want.elements, label
        assert np.array_equal(got.leq_matrix(), want.leq_matrix()), (
            f"{label}\n{serialize_poset(want)}")
        # the faces below each simplex come as an ascending index list
        assert got._down == want._down, label


def test_face_poset_rejects_a_complex_missing_a_face():
    K = SimplicialComplex.from_simplices([("a", "b", "c")])
    # drop the edge (a, b), bypassing the constructor's own face check:
    # the unchecked builder takes the simplices as vertex-position tuples
    ab = tuple(K._vindex[v] for v in "ab")
    broken = complexes._complex(K.vertices, K._vindex, [
        [s for s in level if s != ab] for level in K._isimplices])
    with pytest.raises(UnknownElement, match=r"\('a', 'b'\)"):
        face_poset(broken)


def test_subdivision_space_and_complex(circle):
    X1 = barycentric_subdivision_space(circle)
    assert len(X1) == len(circle.all_chains()) == 8
    K1 = barycentric_subdivision_complex(order_complex(circle))
    assert K1.euler_characteristic() == 0


def test_boundary_squares_to_zero(circle):
    K = order_complex(circle)
    for d in range(1, K.dimension + 1):
        prod = intmat.matmul(K.boundary_matrix(d), K.boundary_matrix(d + 1))
        assert not any(map(any, prod))
    assert K.boundary_matrix(0) == intmat.zeros(0, 4)
    assert K.boundary_matrix(5) == intmat.zeros(0, 0)


def test_simplicial_map_validation(circle):
    K = order_complex(circle)
    with pytest.raises(ValueError, match="no image for vertex 'd'"):
        SimplicialMap(K, K, {"a": "a", "b": "b", "c": "c"})
    # image of the edge (a, c) would be the non-simplex (a, b)
    with pytest.raises(
        ValueError, match=r"image of \('a', 'c'\) is not a simplex of the target"
    ):
        SimplicialMap(K, K, {"a": "a", "b": "b", "c": "b", "d": "d"})
    sm = SimplicialMap(K, K, {"a": "b", "b": "a", "c": "d", "d": "c"})
    assert sm.image_simplex(("a", "c")) == ("b", "d")


def _dense(columns, rows):
    """The dense matrix of sparse chain-map columns."""
    M = intmat.zeros(rows, len(columns))
    for j, col in enumerate(columns):
        for i, x in col.items():
            M[i][j] = x
    return M


def test_induced_simplicial_map_degenerates_to_zero(circle):
    f = PosetMap(circle, circle, {"a": "c", "b": "c", "c": "c", "d": "c"})
    K = order_complex(circle)
    cm = chain_map_of(induced_simplicial_map(f))
    assert not any(map(any, _dense(cm[1], K.n_simplices(1))))  # every edge collapses
    c = K.simplex_index(("c",))
    assert _dense(cm[0], K.n_simplices(0)) == [[int(i == c)] * 4 for i in range(4)]


def test_chain_map_signs():
    # a vertex swap sorts the image of the edge with an odd permutation
    K = SimplicialComplex("ab", [["a", "b"], [("a", "b")]])
    sm = SimplicialMap(K, K, {"a": "b", "b": "a"})
    cm = chain_map_of(sm)
    assert _dense(cm[1], 1) == [[-1]]


def _chain_map_oracle(sm):
    """The chain map recomputed from the vertex assignment alone: sort
    each image, look it up and count the inversions of its positions."""
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
            inversions = sum(
                keys[j] < keys[i] for i in range(len(keys)) for j in range(i + 1, len(keys))
            )
            cols.append({dst.simplex_index(t): (-1) ** inversions})
        out.append(cols)
    return out


def _reversed(X):
    """X with its elements listed in reverse order."""
    return build_poset(list(reversed(X.elements)), X.covers())


def test_chain_map_of_matches_the_oracle():
    # every fourth map is constant, so all its higher simplices degenerate;
    # reversed listings make images sort with odd permutations
    seed = 2004
    rng = random.Random(seed)
    maps = signs = degenerate = 0
    for i in range(300):
        X, Y = random_poset(rng, 5), random_poset(rng, 5)
        if i % 3 == 1:
            Y = _reversed(Y)
        if i % 5 == 2:
            X = _reversed(X)
        if i % 4 == 3:
            f = constant_map(X, Y, rng.choice(Y.elements))
        else:
            f = random_monotone_map(rng, X, Y)
            if f is None:
                continue
        sm = induced_simplicial_map(f)
        want = _chain_map_oracle(sm)
        assert chain_map_of(sm) == want, (
            f"seed {seed}, instance {i}\nX:\n{serialize_poset(X)}"
            f"Y:\n{serialize_poset(Y)}f:\n{serialize_map(f)}"
        )
        maps += 1
        cols = [col for level in want for col in level]
        signs += sum(-1 in col.values() for col in cols)
        degenerate += sum(not col for col in cols)
    assert maps >= 200 and signs and degenerate, (maps, signs, degenerate)


def test_chain_map_of_reads_the_columns_built_at_construction(monkeypatch):
    # the swap of a and b reverses the edge (a, b) of the triangle
    K = SimplicialComplex.from_simplices([("a", "b", "c")], vertices="abc")
    sm = SimplicialMap(K, K, {"a": "b", "b": "a", "c": "c"})
    want = _chain_map_oracle(sm)

    def refuse(*args):
        raise AssertionError("chain_map_of recomputed an image")

    monkeypatch.setattr(complexes, "_perm_sign", refuse)
    monkeypatch.setattr(SimplicialMap, "image_simplex", refuse)
    assert chain_map_of(sm) == want
    assert want[1][K.simplex_index(("a", "b"))] == {K.simplex_index(("a", "b")): -1}


def test_chain_map_of_returns_fresh_columns(circle):
    sm = induced_simplicial_map(identity_map(circle))
    first = chain_map_of(sm)
    want = copy.deepcopy(first)
    first[0][0][3] = 7
    first[1][0].clear()
    first[1].append({})
    assert chain_map_of(sm) == want


def test_chain_map_commutes_with_boundary(circle):
    sm = induced_simplicial_map(identity_map(circle))
    cm = chain_map_of(sm)
    K = order_complex(circle)
    for d in range(1, len(K.simplices)):
        lhs = intmat.matmul(K.boundary_matrix(d), _dense(cm[d], K.n_simplices(d)))
        rhs = intmat.matmul(_dense(cm[d - 1], K.n_simplices(d - 1)), K.boundary_matrix(d))
        assert lhs == rhs


def _chains_by_length(X):
    """all_chains grouped by length: the input of the checked constructor."""
    by_dim = []
    for c in X.all_chains():
        if len(c) > len(by_dim):
            by_dim.append([])
        by_dim[len(c) - 1].append(c)
    return by_dim


def _map_instances(seed, count):
    """Seeded (instance index, f) on random posets of up to 6 points: some
    listed in reverse, some maps endomorphisms, every fourth constant."""
    rng = random.Random(seed)
    for i in range(count):
        X, Y = random_poset(rng, 6), random_poset(rng, 6)
        if i % 3 == 1:
            Y = _reversed(Y)
        if i % 5 == 2:
            X = _reversed(X)
        if i % 7 == 4:
            Y = X
        if i % 4 == 3:
            yield i, constant_map(X, Y, rng.choice(Y.elements))
        else:
            f = random_monotone_map(rng, X, Y)
            if f is not None:
                yield i, f


def _label(seed, i, f):
    return (f"seed {seed}, instance {i}\nX:\n{serialize_poset(f.source)}"
            f"Y:\n{serialize_poset(f.target)}f:\n{serialize_map(f)}")


def test_order_complex_matches_the_checked_constructor():
    # order_complex skips the constructor's sort and face check; the
    # checked door on all_chains is the oracle
    seed = 1717
    checked = 0
    for i, f in _map_instances(seed, 240):
        for P in (f.source, f.target):
            label = _label(seed, i, f)
            K = order_complex(P)
            want = SimplicialComplex(P.elements, _chains_by_length(P))
            assert K.simplices == want.simplices and K == want, label
            for d in range(K.dimension + 2):
                assert K.boundary_columns(d) == want.boundary_columns(d), label
            # the walk lists chains level by level, each level in
            # lexicographic order, which _certify relies on
            levels = P._index_chains()[0]
            assert [len(c) for level in levels for c in level] == sorted(
                len(c) for c in P.all_chains()), label
            assert all(level == sorted(level) for level in levels), label
        checked += 1
    assert checked >= 200, checked


def test_positional_chain_maps_match_simplicial_maps(monkeypatch):
    # induced_map_of_poset_map pushes the source's free-basis cycles
    # through f's positions and hands that push to _induced; the checked
    # SimplicialMap on the element dict, through induced_on_homology, is
    # the oracle, also when the cache holds equal posets listed in reverse
    pushes = []
    real = homology_module._induced

    def spy(image, src, dst):
        pushes.append(image)
        return real(image, src, dst)

    monkeypatch.setattr(homology_module, "_induced", spy)
    seed = 1718
    checked = reindexed = cycles = 0
    for i, f in _map_instances(seed, 240):
        poset_homology.cache_clear()
        if i % 2:
            poset_homology(_reversed(f.source))
            poset_homology(_reversed(f.target))
        pushes.clear()
        got = induced_map_of_poset_map(f)
        (push,) = pushes
        src, dst = poset_homology(f.source), poset_homology(f.target)
        columns = chain_map_of(SimplicialMap(src.complex, dst.complex, f.assignment))
        label = _label(seed, i, f)
        assert got.matrices == induced_on_homology(columns, src, dst).matrices, label
        for d, basis in enumerate(src.free_basis):
            for cycle in basis:
                assert push(d, cycle) == homology_module._apply(columns[d], cycle), label
                cycles += 1
            # the push maps any chain: each simplex alone goes to its column
            assert [push(d, {j: 1}) for j in range(len(columns[d]))] == columns[d], label
        checked += 1
        reindexed += src.complex.vertices != f.source.elements
    poset_homology.cache_clear()
    assert checked >= 200 and reindexed >= 50 and cycles >= 200, (checked, reindexed, cycles)


def test_simplicial_map_rejects_an_image_above_the_target_dimension():
    # an edge sent onto two vertices that span no edge; the target has
    # no edges at all, so there is no index of edges to look in
    K = SimplicialComplex.from_simplices([("a", "b")])
    L = SimplicialComplex(["x", "y"], [[("x",), ("y",)]])
    with pytest.raises(ValueError, match="is not a simplex of the target"):
        SimplicialMap(K, L, {"a": "x", "b": "y"})


def test_derived_maps_match_the_checked_doors():
    # induced_map_of_poset_map skips the chain-map check, and GraphSpace
    # and projections_on_core build their maps from positions; the
    # checked doors (induced_on_homology on a SimplicialMap's columns,
    # PosetMap on element dicts) are the oracles
    seed = 1719
    checked = 0
    for i, f in _map_instances(seed, 240):
        poset_homology.cache_clear()
        if i % 2:
            poset_homology(_reversed(f.source))
            poset_homology(_reversed(f.target))
        got = induced_map_of_poset_map(f)
        src, dst = poset_homology(f.source), poset_homology(f.target)
        cm = chain_map_of(SimplicialMap(src.complex, dst.complex, f.assignment))
        assert got.matrices == induced_on_homology(cm, src, dst).matrices, _label(seed, i, f)
        checked += 1
    poset_homology.cache_clear()
    assert checked >= 200, checked

    shrunk = 0
    for name in ("_susc_acyclic", "_usc_maxima", "_selector"):
        instances = getattr(casebook, name)(random.Random(seed))
        for i, (_, parts) in enumerate(islice(instances, 20)):
            F = parts["F"]
            label = (f"seed {seed}, {name} instance {i}\nX:\n"
                     f"{serialize_poset(F.source)}F:\n{serialize_multimap(F)}")
            gs = graph(F)
            pairs = gs.space.elements
            p = PosetMap(gs.space, F.source, {pr: pr[0] for pr in pairs})
            q = PosetMap(gs.space, F.target, {pr: pr[1] for pr in pairs})
            assert gs.p == p and gs.q == q, label
            core = gs.space.core()
            inc = PosetMap(core, gs.space, {x: x for x in core.elements})
            want = [induced_map_of_poset_map(inc.then(g)).matrices for g in (p, q)]
            assert [m.matrices for m in projections_on_core(gs)] == want, label
            shrunk += len(core) < len(gs.space)
    assert shrunk >= 20, shrunk


posets = st.integers(1, 5).flatmap(
    lambda n: st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
        max_size=8,
    ).map(
        lambda pairs: build_poset(
            [f"e{i}" for i in range(n)],
            [(f"e{i}", f"e{j}") for i, j in pairs if i < j],
        )
    )
)


@settings(max_examples=60, deadline=None)
@given(posets)
def test_functor_properties(X):
    K = order_complex(X)
    # simplices of K(X) are exactly the chains of X
    assert sorted(K.all_simplices()) == sorted(X.all_chains())
    assert K.euler_characteristic() == X.euler_characteristic()
    # boundary composition vanishes in every dimension
    for d in range(1, K.dimension + 1):
        assert not any(map(any, intmat.matmul(K.boundary_matrix(d), K.boundary_matrix(d + 1))))
    # the face poset of K(X) is the subdivision
    assert face_poset(K) == barycentric_subdivision_space(X)
