"""Multivalued maps, graphs, semicontinuity and Vietoris-like checks."""

import dataclasses
import importlib
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
from finspace.dynamics import build_tower
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


def test_certificate_is_kept_on_the_map(monkeypatch):
    h1 = build_tower(parse_poset_text(_fixture("ex2_3_X.txt")), 2).h_maps[1]
    real_core, worklists = poset_module._stong_core, []

    def counting_core(*args):
        worklists.append(1)
        return real_core(*args)

    monkeypatch.setattr(poset_module, "_stong_core", counting_core)
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

    def counting_stong_core(by_rank, below, above):
        reached.append(frozenset(by_rank))
        return real_stong_core(by_rank, below, above)

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


def test_certificate_masks_no_wider_than_a_fiber_union(monkeypatch):
    """Rank masks cover the points of one fiber union, not the source: on
    the S^2 model at depth 3 no mask build takes more points than the
    largest union of the map it certifies."""
    real_masks, widths = poset_module._rank_masks, []

    def recording_masks(P, points):
        points = list(points)
        widths.append(len(points))
        return real_masks(P, points)

    monkeypatch.setattr(poset_module, "_rank_masks", recording_masks)
    t = build_tower(build_poset("abcdef", [
        ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"),
        ("c", "e"), ("c", "f"), ("d", "e"), ("d", "f"),
    ]), 3)
    for n, h in enumerate(t.h_maps):
        sizes = [len(fiber) for fiber in h.fibers().values()]
        index = h.target.index
        largest = max(sum(sizes[index(y)] for y in c) for c in h.target.all_chains())
        widths.clear()
        assert is_vietoris_like_map(h).ok
        assert widths and max(widths) <= largest < len(h.source), n


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
