"""Multivalued maps, graphs, semicontinuity and Vietoris-like checks."""

import dataclasses
import importlib
import itertools
import random
from importlib import resources

import pytest
from hypothesis import given, settings, strategies as st

from finspace.errors import (
    BudgetExceeded,
    EmptyValue,
    NoMaximum,
    NotComposable,
    NotContinuous,
    NotSurjective,
    NotUsc,
    ProjectionNotIso,
    UnknownElement,
)
from finspace import maps
from finspace.complexes import barycentric_subdivision_space, chain_max_map
from finspace.dynamics import build_tower, compose_h
from finspace.formats import (
    parse_map_text,
    parse_poset_text,
    serialize_map,
    serialize_multimap,
    serialize_poset,
)
from finspace.homology import lefschetz_number, poset_homology
from finspace.maps import (
    Certificate,
    MultiMap,
    as_multimap,
    classify_continuity,
    compose_map_then_multimap,
    compose_multimaps,
    enumerate_selectors,
    fiber_multimap,
    graph,
    induced_multimap_homology,
    is_vietoris_like_map,
    is_vietoris_like_multimap,
    selector_from_maxima,
)
from finspace.poset import (
    FinitePoset,
    PosetMap,
    build_poset,
    constant_map,
    identity_map,
    require_continuous,
)
from finspace.random_instances import (
    random_endomorphism,
    random_monotone_map,
    random_poset,
    susc_acyclic_multimap,
    usc_maxima_multimap,
    vietoris_map_corpus,
)

# the module, not the function finspace.homology that the package exports
homology_module = importlib.import_module("finspace.homology")
poset_module = importlib.import_module("finspace.poset")


@pytest.fixture
def circle():
    return build_poset("ABCD", [("C", "A"), ("D", "A"), ("C", "B"), ("D", "B")])


@pytest.fixture
def chain2():
    return build_poset("MN", [("M", "N")])


def test_multimap_validation(circle):
    with pytest.raises(EmptyValue):
        MultiMap(circle, circle, {"A": set()})
    with pytest.raises(UnknownElement):
        MultiMap(circle, circle, {x: {"zz"} for x in circle.elements})
    F = as_multimap(identity_map(circle))
    assert F("A") == frozenset({"A"})


def test_point_queries_reject_unknown_points(circle):
    f = identity_map(circle)
    assert f.preimage("A") == {"A"}
    for query in (f, f.preimage, as_multimap(f), circle.down_set):
        with pytest.raises(UnknownElement, match="unknown element 'zz'"):
            query("zz")


def test_graph_uses_componentwise_order(circle):
    F = MultiMap(circle, circle, {x: circle.down_set(x) for x in circle.elements})
    gs = graph(F)
    assert gs.space.leq(("C", "C"), ("A", "C"))
    assert gs.space.leq(("C", "C"), ("A", "A"))
    assert not gs.space.leq(("A", "C"), ("C", "C"))
    assert gs.p(("A", "C")) == "A" and gs.q(("A", "C")) == "C"


def test_graph_is_kept_on_the_multimap(circle):
    F = MultiMap(circle, circle, {x: circle.down_set(x) for x in circle.elements})
    assert graph(F) is graph(F)
    assert graph(F) is not graph(MultiMap(F.source, F.target, F.values))


def test_classify_continuity(chain2, circle):
    down = MultiMap(circle, circle, {x: circle.down_set(x) for x in circle.elements})
    flags = classify_continuity(down)
    assert flags.susc and flags.usc
    up = MultiMap(circle, circle, {x: circle.up_set(x) for x in circle.elements})
    flags = classify_continuity(up)
    assert flags.slsc and flags.lsc and not flags.susc


def _continuity_by_pairs(F):
    """Reference flags from the pairwise loop over x1 <= x2."""
    X, Y = F.source, F.target
    usc = lsc = susc = slsc = True
    for x1 in X.elements:
        for x2 in X.elements:
            if not X.leq(x1, x2):
                continue
            if not F(x1) <= F(x2):
                susc = False
            if not F(x2) <= F(x1):
                slsc = False
            if not all(any(Y.leq(y1, y2) for y2 in F(x2)) for y1 in F(x1)):
                usc = False
            if not all(any(Y.leq(y2, y1) for y1 in F(x1)) for y2 in F(x2)):
                lsc = False
    return {"usc": usc, "lsc": lsc, "susc": susc, "slsc": slsc}


def test_classify_continuity_matches_pairwise_loop():
    rng = random.Random(31)
    for k in range(1000):
        X = random_poset(rng, rng.randint(1, 6), density=rng.choice([0.2, 0.5, 0.8]))
        Y = random_poset(rng, rng.randint(1, 5), density=rng.choice([0.2, 0.5, 0.8]))
        ys = list(Y.elements)
        F = MultiMap(X, Y, {
            x: rng.sample(ys, rng.randint(1, min(3, len(ys)))) for x in X.elements
        })
        if k % 4 == 0:  # down-closed values are usc far more often
            down = {x: set().union(*map(Y.down_set, F(x))) for x in X.elements}
            F = MultiMap(X, Y, down)
        msg = (f"seed 31, instance {k}\nX:\n{serialize_poset(X)}Y:\n{serialize_poset(Y)}"
               f"F:\n{serialize_multimap(F)}")
        assert classify_continuity(F).as_dict() == _continuity_by_pairs(F), msg


def test_vietoris_like_map_certificates(chain2):
    # sphere-model collapse: fails exactly on the full chain of the target
    sphere = build_poset(
        "ABCDEF",
        [("C", "A"), ("D", "A"), ("C", "B"), ("D", "B"),
         ("E", "C"), ("F", "C"), ("E", "D"), ("F", "D")],
    )
    f = PosetMap(sphere, chain2,
                 {"A": "N", "B": "N", "C": "N", "D": "M", "E": "M", "F": "M"})
    cert = is_vietoris_like_map(f)
    assert not cert.ok and cert.failing_chain == ("M", "N")
    assert cert.profile.betti_at(2) == 1
    assert is_vietoris_like_map(identity_map(sphere)).ok


def test_vietoris_like_needs_surjectivity(chain2):
    f = constant_map(chain2, chain2, "N")
    cert = is_vietoris_like_map(f)
    assert not cert.ok and "surjective" in cert.reason


def _fixture(name):
    return resources.files("finspace.fixtures").joinpath(name).read_text()


def _refuse_recertification(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a certified map was certified again")

    monkeypatch.setattr(poset_module, "_stong_core", refuse)
    monkeypatch.setattr(homology_module, "poset_homology", refuse)


def _stong_path(monkeypatch):
    """Make the contraction check fail, so that every map takes the
    per-chain Stong walk."""
    monkeypatch.setattr(maps, "_contracts", lambda f, fibers: False)


@pytest.fixture
def by_stong(monkeypatch):
    """by_stong(f): the certificate a fresh copy of f gets from the
    per-chain Stong walk, with the contraction check made to fail."""
    def certify(f):
        with monkeypatch.context() as patch:
            _stong_path(patch)
            return is_vietoris_like_map(poset_module._map(f.source, f.target, f._pos))
    return certify


def _contracts(f):
    """maps._contracts of f, with f's own fibers."""
    return maps._contracts(f, maps._fibers(f._pos, len(f.target)))


def _outcome(f, certify=is_vietoris_like_map):
    """A map's certificate fields, or the pair NotContinuous names."""
    try:
        return _certificate_fields(certify(f))
    except NotContinuous as exc:
        return exc.pair


def _counting_stong_core(monkeypatch):
    """Count the Stong worklists run from now on: one entry per call."""
    real_core, worklists = poset_module._stong_core, []

    def counting_core(*args):
        worklists.append(1)
        return real_core(*args)

    monkeypatch.setattr(poset_module, "_stong_core", counting_core)
    return worklists


def test_certificate_is_kept_on_the_map(monkeypatch):
    _stong_path(monkeypatch)
    h1 = build_tower(parse_poset_text(_fixture("ex2_3_X.txt")), 2).h_maps[1]
    worklists = _counting_stong_core(monkeypatch)
    first = is_vietoris_like_map(h1)
    assert first.ok and worklists  # the first call ran Stong worklists
    _refuse_recertification(monkeypatch)
    assert is_vietoris_like_map(h1) is first


def test_failing_certificate_is_kept_on_the_map(monkeypatch):
    X = parse_poset_text(_fixture("ex2_3_X.txt"))
    Y = parse_poset_text(_fixture("ex2_3_Y.txt"))
    f = parse_map_text(_fixture("ex2_3_f.txt"), X, Y)
    first = is_vietoris_like_map(f)
    assert not first.ok and first.failing_chain == ("M", "N")
    assert first.profile.betti == [1, 0, 1]
    _refuse_recertification(monkeypatch)
    assert is_vietoris_like_map(f) is first


def test_non_monotone_map_keeps_no_certificate(chain2):
    f = PosetMap(chain2, chain2, {"M": "N", "N": "M"})
    for _ in range(2):
        with pytest.raises(NotContinuous) as info:
            is_vietoris_like_map(f)
        assert info.value.pair == ("M", "N")
        assert f._certificate is None


def test_certificates_are_frozen(chain2):
    cert = is_vietoris_like_map(identity_map(chain2))
    with pytest.raises(dataclasses.FrozenInstanceError):
        cert.ok = False
    assert cert.ok


def _vietoris_by_subposets(f, cache):
    """The certificate as computed before cores ran on index sets: one
    subposet per distinct fiber union, then its core and homology.  cache
    collects each union it reduced, mapped to None for a one-point core."""
    require_continuous(f)
    X, Y = f.source, f.target
    fibers = f.fibers()
    for chain in sorted(Y.all_chains(), key=lambda c: (len(c), tuple(map(Y.index, c)))):
        union = frozenset().union(*(fibers[y] for y in chain))
        if not union:
            return Certificate(
                ok=False, failing_chain=chain, reason="empty fiber union (f not surjective)"
            )
        if union not in cache:
            core = X.subposet(union).core()
            cache[union] = poset_homology(core) if len(core) > 1 else None
        hp = cache[union]
        if hp is not None and not hp.is_acyclic():
            return Certificate(ok=False, failing_chain=chain, profile=hp)
    return Certificate(ok=True)


def _certificate_fields(cert):
    summary = cert.profile.summary() if cert.profile is not None else None
    return cert.ok, cert.failing_chain, cert.reason, summary


@pytest.mark.parametrize("seed", range(4))
def test_vietoris_certificate_matches_subposet_cores(seed, monkeypatch):
    _stong_path(monkeypatch)
    rng = random.Random(900 + seed)
    corpus = [("corpus", f) for f in vietoris_map_corpus(rng, 8)]
    while len(corpus) < 48:
        X = random_poset(rng, 8, density=rng.choice([0.2, 0.4]))
        Y = random_poset(rng, 4, density=0.5)
        if len(corpus) % 2:  # a graph projection, surjective by construction
            F = MultiMap(X, Y, {
                x: rng.sample(Y.elements, rng.randint(1, len(Y))) for x in X.elements
            })
            corpus.append(("graph projection", graph(F).p))
        else:
            f = random_monotone_map(rng, X, Y)
            if f is not None:
                corpus.append(("random map", f))
    reached = []  # index sets of the unions that get past the cone test
    real_stong_core = poset_module._stong_core

    def counting_stong_core(P, points):
        points = list(points)
        reached.append(frozenset(points))
        return real_stong_core(P, points)

    monkeypatch.setattr(poset_module, "_stong_core", counting_stong_core)
    outcomes = set()
    skipped = passed_on = 0
    for i, (kind, f) in enumerate(corpus):
        reached.clear()
        unions = {}
        got = _certificate_fields(is_vietoris_like_map(f))
        certified = reached[:]  # the oracle's core() calls run the worklist too
        want = _certificate_fields(_vietoris_by_subposets(f, unions))
        label = (
            f"seed {900 + seed} instance {i} ({kind})\n"
            f"X:\n{serialize_poset(f.source)}Y:\n{serialize_poset(f.target)}"
            f"f:\n{serialize_map(f)}")
        assert got == want, label
        outcomes.add("ok" if got[0] else got[2] or "not acyclic")
        unions = {frozenset(map(f.source.index, u)): hp for u, hp in unions.items()}
        assert len(set(certified)) == len(certified) and set(certified) <= unions.keys(), label
        # a union skips the worklist iff it has a maximum or a minimum, and
        # then the oracle must have found it acyclic
        for u in unions:
            pts = [f.source.elements[k] for k in u]
            cone = f.source.maximum(pts) is not None or f.source.minimum(pts) is not None
            assert cone == (u not in certified), label
            assert unions[u] is None or not cone, label
        skipped += len(unions) - len(certified)
        passed_on += len(certified)
    assert outcomes == {"ok", "not acyclic", "empty fiber union (f not surjective)"}
    assert skipped and passed_on  # the cone test both short-circuits and passes on


@pytest.mark.parametrize("seed", range(2))
def test_identity_certificates_need_no_stong_core(seed, monkeypatch):
    """Under the identity each chain's fiber union is the chain, which has a
    maximum, so the cone test certifies every union."""
    def refuse(*args, **kwargs):
        raise AssertionError("a cone reached the Stong-core worklist")

    monkeypatch.setattr(poset_module, "_stong_core", refuse)
    rng = random.Random(1100 + seed)
    for i in range(40):
        X = random_poset(rng, 8, density=rng.choice([0.2, 0.4, 0.6]))
        assert is_vietoris_like_map(identity_map(X)).ok, (
            f"seed {1100 + seed} instance {i}\n{serialize_poset(X)}")


def test_certificate_builds_no_subposet(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("certification built a subposet")

    t = build_tower(build_poset("abcdef", [
        ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"),
        ("c", "e"), ("c", "f"), ("d", "e"), ("d", "f"),
    ]), 2)
    monkeypatch.setattr(FinitePoset, "subposet", refuse)
    h1 = t.h_maps[1]
    assert (len(h1.source), len(h1.target)) == (146, 26)
    assert is_vietoris_like_map(h1).ok


def test_certificate_worklists_take_only_a_fiber_unions_points(monkeypatch, by_stong):
    """The Stong worklist runs on the points of one fiber union, not the
    source: on the S^2 model at depth 3 every worklist a certificate runs
    receives exactly the points of one union of the map's fibers over a
    chain of its target (with the contraction check made to fail, so that
    the Stong path runs)."""
    real_core, received = poset_module._stong_core, []

    def recording_core(P, points):
        points = list(points)
        received.append((P, frozenset(points), len(points)))
        return real_core(P, points)

    monkeypatch.setattr(poset_module, "_stong_core", recording_core)
    t = build_tower(build_poset("abcdef", [
        ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"),
        ("c", "e"), ("c", "f"), ("d", "e"), ("d", "f"),
    ]), 3)
    for n, h in enumerate(t.h_maps):
        fibers, index = h.fibers(), h.source.index
        unions = {frozenset(index(x) for y in c for x in fibers[y])
                  for c in h.target.all_chains()}
        received.clear()
        assert by_stong(h).ok
        assert received, n
        for P, points, size in received:
            assert P is h.source and size == len(points) < len(h.source), n
            assert points in unions, n


@pytest.mark.filterwarnings("ignore:subdivision level")
@pytest.mark.parametrize("name, depth", [
    ("ex2_3_X.txt", 4), ("circle4.txt", 5), ("rp2.txt", 2),
])
def test_chain_max_certificates_match_the_stong_path(name, depth, monkeypatch, by_stong):
    """Each h_n is certified by its checked contraction, with no Stong
    worklist, to the certificate the Stong path gives it."""
    t = build_tower(parse_poset_text(_fixture(name)), depth)
    worklists = _counting_stong_core(monkeypatch)
    for n, h in enumerate(t.h_maps):
        assert h._certificate is None and _contracts(h), n
        got = is_vietoris_like_map(h).as_dict()
        assert not worklists, n
        assert got == by_stong(h).as_dict() == {"ok": True}, n
        worklists.clear()


@pytest.mark.parametrize("name, depth", [("ex2_3_X.txt", 3), ("circle4.txt", 3)])
def test_equal_maps_certify_alike(name, depth, monkeypatch):
    """Copies of h_n equal to it, however built, are certified by the
    contraction check too, with no Stong worklist: a copy from positions,
    the stacked h_{n,n+1} (the identity, then h_n) and h_n read back from
    its serialized text."""
    t = build_tower(parse_poset_text(_fixture(name)), depth)
    worklists = _counting_stong_core(monkeypatch)
    for n, h in enumerate(t.h_maps):
        copies = {
            "positions": poset_module._map(h.source, h.target, h._pos),
            "compose_h": compose_h(t, n, n + 1),
            "serialized": parse_map_text(serialize_map(h), h.source, h.target),
        }
        for how, g in copies.items():
            assert g == h and g._certificate is None, (n, how)
            assert is_vietoris_like_map(g).as_dict() == {"ok": True}, (n, how)
            assert not worklists, (n, how)


def test_non_tuple_points_over_a_one_point_chain_take_the_stong_path(by_stong):
    """A source that holds (y,) beside points that are no tuples of target
    points gets the Stong certificate: the contraction check fails and
    raises nothing."""
    one = build_poset("y", [])
    cases = {
        "a string point": build_poset([("y",), "b"], []),
        "an int point": build_poset([("y",), 7], []),
        "a tuple of unknown points": build_poset([("y",), ("z",)], []),
        "above (y,)": build_poset([("y",), "b", 7], [(("y",), "b"), (("y",), 7)]),
    }
    for what, X in cases.items():
        f = constant_map(X, one, "y")
        assert not _contracts(f), what
        got = is_vietoris_like_map(f)
        assert got.as_dict() == by_stong(f).as_dict(), what
        assert got.ok == (what == "above (y,)"), what


@pytest.mark.parametrize("seed", range(3))
def test_maps_that_are_no_chain_maximum_keep_the_stong_certificate(seed, monkeypatch, by_stong):
    """A map that is no chain-maximum map gets its Stong certificate,
    whether its source holds the one-point chains of its target or not:
    the contraction check fails and the Stong path runs, or it passes and
    proves the same result."""
    tried, real_contracts = [], maps._contracts

    def recording_contracts(f, fibers):
        tried.append(real_contracts(f, fibers))
        return tried[-1]

    monkeypatch.setattr(maps, "_contracts", recording_contracts)
    rng = random.Random(1300 + seed)
    t = build_tower(parse_poset_text(_fixture("ex2_3_X.txt")), 2)
    X0, X1, X2 = t.levels
    cases = [constant_map(X1, X0, X0.elements[-1]), t.h_maps[1].then(t.h_maps[0])]
    for source, target in ((X1, X0), (X2, X1), (X2, X0), (X1, X1)):
        for _ in range(6):
            f = random_monotone_map(rng, source, target)
            if f is not None:
                cases.append(f)
    outcomes = set()
    for i, f in enumerate(cases):
        got, want = is_vietoris_like_map(f), by_stong(f)
        label = f"seed {1300 + seed} case {i}\nf:\n{serialize_map(f)}"
        assert got.as_dict() == want.as_dict(), label
        assert _certificate_fields(got) == _certificate_fields(want), label
        outcomes.add("ok" if got.ok else got.reason or "not acyclic")
    assert {"ok", "empty fiber union (f not surjective)", "not acyclic"} <= outcomes
    assert False in tried  # the check ran and failed on some of the maps


def test_direct_lookup_of_g_decides_as_the_sorted_one(monkeypatch):
    """On a subdivision X' -> X, a map that fixes the one-point chains
    passes the contraction check iff it passes with g(x) found by sorting
    t into x, whether X's index order is a linear extension or not: a
    passing map is continuous, so every point of x lies below t, which
    sorts last.  Of every such map, only h passes."""
    posets = {
        "line": build_poset("abc", [("a", "b"), ("b", "c")]),
        "line relisted": build_poset("cab", [("a", "b"), ("b", "c")]),
        "vee": build_poset("abc", [("a", "c"), ("b", "c")]),
        "N relisted": build_poset("dcba", [("a", "c"), ("b", "c"), ("b", "d")]),
        "diamond": build_poset("abcd", [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")]),
    }
    for name, X in posets.items():
        h = chain_max_map(barycentric_subdivision_space(X), X)
        X1 = h.source
        free = [i for i, x in enumerate(X1.elements) if len(x) > 1]
        for values in itertools.product(range(len(X)), repeat=len(free)):
            pos = list(h._pos)
            for i, j in zip(free, values):
                pos[i] = j
            f = poset_module._map(X1, X, pos)
            with monkeypatch.context() as patch:
                patch.setattr(maps, "_index_extends", lambda X: False)
                sorted_lookup = _contracts(f)
            assert _contracts(f) == sorted_lookup == (pos == list(h._pos)), (name, pos)


def test_contraction_check_catches_each_broken_part(by_stong):
    """Each map fails exactly one part of the contraction check, and
    the Stong path finds it not Vietoris-like or not continuous: without
    that part, the check would certify it."""
    vee = build_poset("abc", [("a", "c"), ("b", "c")])
    V1 = barycentric_subdivision_space(vee)
    order = [(x, y) for x in V1.elements for y in V1.elements if V1.lt(x, y)]
    a, c, ac, bc = ("a",), ("c",), ("a", "c"), ("b", "c")

    def on_order(add=(), drop=()):
        """chain_max_map from the chains of vee under another order."""
        relations = [r for r in order if r not in drop] + list(add)
        return chain_max_map(build_poset(V1.elements, relations), vee)

    line = build_poset("abc", [("a", "b"), ("b", "c")])
    h = chain_max_map(barycentric_subdivision_space(line), line)
    pushed = list(h._pos)  # (a, b) sent above its maximum
    pushed[h.source.index(("a", "b"))] = line.index("c")
    two = build_poset("MN", [("M", "N")])
    apart = build_poset("ac", [])
    cases = {
        "g preserves the order": on_order(add=[(a, bc)]),
        "x <= g(x)": on_order(drop=[(a, ac)]),
        "m <= g(x)": on_order(drop=[(c, ac)]),
        "f(g(x)) = t": poset_module._map(h.source, line, pushed),
        "f(m) = t": constant_map(barycentric_subdivision_space(two), two, "N"),
        "x' < x lies in D": chain_max_map(build_poset([a, c], [(a, c)]), apart),
    }
    for part, f in cases.items():
        assert not _contracts(f), part
        want = _outcome(f, by_stong)
        assert want[0] is not True, part
        assert _outcome(f) == want, part


def test_non_monotone_map_over_one_point_chains_keeps_no_certificate(by_stong):
    t = build_tower(parse_poset_text(_fixture("circle4.txt")), 1)
    X0, X1 = t.levels
    h = t.h_maps[0]
    # send one edge point to its lower end: not order-preserving
    edge = next(x for x in X1.elements if len(x) == 2)
    low = next(v for v in edge if v != h(edge))
    pos = list(h._pos)
    pos[X1.index(edge)] = X0.index(low)
    f = poset_module._map(X1, X0, pos)
    assert not _contracts(f)
    with pytest.raises(NotContinuous) as info:
        is_vietoris_like_map(f)
    with pytest.raises(NotContinuous) as want:
        by_stong(f)
    assert info.value.pair == want.value.pair
    assert f._certificate is None


def test_composition_lemmas(circle):
    # g o f with f continuous and G Vietoris-like stays Vietoris-like
    rng = random.Random(3)
    for _ in range(20):
        X = random_poset(rng, 5)
        f = random_endomorphism(rng, X)
        G = susc_acyclic_multimap(rng, X)
        assert is_vietoris_like_multimap(compose_map_then_multimap(f, G)).ok


def test_composition_of_multimaps_can_fail(circle):
    F = MultiMap(circle, circle, {
        "A": {"A", "C", "D"}, "B": {"B", "C", "D"}, "C": {"C"}, "D": {"D"}})
    G = MultiMap(circle, circle, {
        "A": {"A"}, "B": {"B"}, "C": {"C", "A", "B"}, "D": {"D", "A", "B"}})
    assert is_vietoris_like_multimap(F).ok
    assert is_vietoris_like_multimap(G).ok
    GF = compose_multimaps(F, G)
    assert GF("A") == frozenset(circle.elements)
    assert not is_vietoris_like_multimap(GF).ok
    with pytest.raises(NotComposable):
        compose_multimaps(F, MultiMap(build_poset("z", []), circle, {"z": {"A"}}))


def test_induced_multimap_homology(circle):
    ident = as_multimap(identity_map(circle))
    m = induced_multimap_homology(ident)
    assert m.matrix_at(1) == [[1]]
    assert lefschetz_number(m) == 0
    # non-invertible first projection surfaces as ProjectionNotIso
    bad = MultiMap(circle, circle, {x: {"C", "D"} for x in circle.elements})
    if not is_vietoris_like_multimap(bad).ok:
        with pytest.raises(ProjectionNotIso):
            induced_multimap_homology(bad)


def test_fiber_multimap(chain2):
    sub = build_poset("xyz", [("x", "y"), ("y", "z")])
    f = PosetMap(sub, chain2, {"x": "M", "y": "N", "z": "N"})
    F = fiber_multimap(f)
    assert F("N") == frozenset({"y", "z"})
    with pytest.raises(NotSurjective):
        fiber_multimap(constant_map(sub, chain2, "N"))


def test_selector_from_maxima(chain2):
    F = MultiMap(chain2, chain2, {"M": {"M"}, "N": {"M", "N"}})
    g = selector_from_maxima(F)
    assert g("N") == "N" and g("M") == "M"
    # lsc-with-minima dual via opposite posets
    no_max = MultiMap(chain2, build_poset("ab", []), {"M": {"a", "b"}, "N": {"a", "b"}})
    with pytest.raises(NoMaximum):
        selector_from_maxima(no_max)
    not_usc = MultiMap(chain2, chain2, {"M": {"N"}, "N": {"M"}})
    with pytest.raises(NotUsc):
        selector_from_maxima(not_usc)


def test_enumerate_selectors(chain2):
    # x -> down-set of x on the 2-chain admits exactly two selectors:
    # the identity and the constant map to the bottom
    F = MultiMap(chain2, chain2, {x: chain2.down_set(x) for x in chain2.elements})
    sels = enumerate_selectors(F)
    assert len(sels) == 2
    assignments = sorted(tuple(s(x) for x in chain2.elements) for s in sels)
    assert assignments == [("M", "M"), ("M", "N")]
    with pytest.raises(BudgetExceeded):
        enumerate_selectors(F, budget=1)


def test_selector_lambda_matches_induced(chain2):
    rng = random.Random(5)
    hits = 0
    for _ in range(30):
        X = random_poset(rng, 6)
        F = usc_maxima_multimap(rng, X)
        if F is None:
            continue
        hits += 1
        g = selector_from_maxima(F)
        lam_g = lefschetz_number(induced_multimap_homology(as_multimap(g)))
        lam_F = lefschetz_number(induced_multimap_homology(F))
        assert lam_g == lam_F
    assert hits > 10


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_graph_of_single_valued_map_is_homeomorphic_copy(seed):
    rng = random.Random(seed)
    X = random_poset(rng, 5)
    f = random_endomorphism(rng, X)
    gs = graph(as_multimap(f))
    assert len(gs.space) == len(X)
    # p is a bijection preserving and reflecting the order
    hp_x, hp_g = poset_homology(X), poset_homology(gs.space)
    assert hp_x.same_shape(hp_g)
