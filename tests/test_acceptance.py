"""End-to-end acceptance suite.

Each criterion test prints a single "criterion N [...]: PASS/FAIL" line
(visible with -s, or in the captured output of a failure) and asserts
everything it checks, so the suite both documents and enforces the
advertised guarantees: the worked regression cases, the Lefschetz
fixed-point identities on randomized corpora, the certification
implications for multivalued maps, the subdivision-tower consistency
laws, and the exactness of the integer homology engine itself.

Criterion 2 and criterion 4 (a), (b), (c) and (e) run the seeded property
suites of finspace.casebook, the same code paper-suite runs, on larger
corpora (500 and 200 instances).  A failure's message is the suite's
label: "counterexample: seed S, instance i" and the serialized posets,
maps and multimaps of that instance.
"""

import random
import time
from contextlib import contextmanager

import pytest

from finspace import intmat
from finspace.casebook import ALL_CASES, _multimap, _map, _poset, _property_suite
from finspace.complexes import (
    barycentric_subdivision_space,
    chain_max_map,
    order_complex,
)
from finspace.dynamics import (
    attach_level_maps,
    build_tower,
    compose_h,
    fiber_H,
    fixed_points_of_level,
    lambda_nm,
)
from finspace.errors import (
    CertificationFailed,
    NotInvertible,
    SizeBudgetExceeded,
)
from finspace.homology import (
    induced_map_of_poset_map,
    invert,
    lefschetz_number,
    poset_homology,
)
from finspace.lefschetz import (
    theorem_A,
    theorem_B,
    theorem_C,
)
from finspace.maps import (
    compose_map_then_multimap,
    compose_multimaps,
    induced_multimap_homology,
    is_vietoris_like_map,
    is_vietoris_like_multimap,
)
from finspace.formats import serialize_map, serialize_multimap, serialize_poset
from finspace.random_instances import (
    random_monotone_map,
    random_poset,
    susc_acyclic_multimap,
    vietoris_map_corpus,
)


@contextmanager
def criterion(n, label):
    try:
        yield
    except BaseException:
        print(f"criterion {n} [{label}]: FAIL")
        raise
    print(f"criterion {n} [{label}]: PASS")


def _dump_map(f):
    return (
        f"source:\n{serialize_poset(f.source)}\n"
        f"target:\n{serialize_poset(f.target)}\nmap:\n{serialize_map(f)}"
    )


def _dump_multimap(F):
    return (
        f"source:\n{serialize_poset(F.source)}\n"
        f"target:\n{serialize_poset(F.target)}\nmultimap:\n{serialize_multimap(F)}"
    )


def _suite(name, seed, rng, count):
    """Run a casebook property suite; a failure names seed, instance and parts."""
    result = _property_suite(name, seed, rng, count)
    assert result.passed, result.checks[0][0]


# ---------------------------------------------------------------- criterion 1


def test_criterion_1_worked_example_regressions():
    with criterion(1, "worked example regressions"):
        for case in ALL_CASES:
            t0 = time.perf_counter()
            result = case()
            elapsed = time.perf_counter() - t0
            failing = [lab for lab, ok in result.checks if not ok]
            assert not failing, f"{result.name}: failed checks {failing}"
            assert elapsed < 1.0, f"{result.name} took {elapsed:.2f}s (limit 1s)"


@pytest.mark.xfail(
    strict=True,
    reason="the composed multimap fixes all four points, not only C and D: "
    "its value table contains A in the image of A and B in the image of B, "
    "so the recorded expectation of a fixed-point set equal to {C, D} is "
    "unattainable; the true set {A, B, C, D} is asserted in the casebook",
)
def test_criterion_1_composite_fixed_points_only_C_and_D():
    X = _poset("ex4_3_X.txt")
    G0 = _multimap("ex4_3_G0.txt", X, X)
    G1 = _multimap("ex4_3_G1.txt", X, X)
    F = compose_multimaps(G0, G1)
    fixed = {x for x in X.elements if x in F(x)}
    assert fixed == {"C", "D"}


# ---------------------------------------------------------------- criterion 2


def test_criterion_2_lefschetz_equals_euler_of_fixed_set():
    with criterion(2, "Lefschetz number equals Euler characteristic of Fix"):
        seed = 20260824
        t0 = time.perf_counter()
        _suite("lefschetz_number_equals_euler_of_fixed_set", seed, random.Random(seed), 500)
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0, f"500 instances took {elapsed:.1f}s (limit 60s)"


# ---------------------------------------------------------------- criterion 3


def test_criterion_3_certified_maps_invert_and_failures_do_not():
    with criterion(3, "certified maps induce unimodular isomorphisms"):
        rng = random.Random(30260824)
        corpus = vietoris_map_corpus(rng, 200)
        assert len(corpus) == 200
        for f in corpus:
            assert is_vietoris_like_map(f).ok, _dump_map(f)
            m = induced_map_of_poset_map(f)
            inv = invert(m)  # must not raise
            ident = m.then(inv)
            for d in range(len(m.source.betti)):
                M = ident.matrix_at(d)
                assert M == intmat.identity(len(M)), _dump_map(f)
        # contrapositive: the known failures are rejected by the checker,
        # and the sphere-model collapse is also non-invertible in homology
        X, Y = _poset("ex2_3_X.txt"), _poset("ex2_3_Y.txt")
        f23 = _map("ex2_3_f.txt", X, Y)
        assert not is_vietoris_like_map(f23).ok
        with pytest.raises(NotInvertible):
            invert(induced_map_of_poset_map(f23))
        X5, Y5 = _poset("ex2_5_X.txt"), _poset("ex2_5_Y.txt")
        assert not is_vietoris_like_map(_map("ex2_5_f.txt", X5, Y5)).ok
        W, XW = _poset("exW_W.txt"), _poset("exW_X.txt")
        assert not is_vietoris_like_map(_map("exW_g.txt", W, XW)).ok
        X16, C4 = _poset("ex2_16_X.txt"), _poset("circle4.txt")
        assert not is_vietoris_like_multimap(_multimap("ex2_16_F.txt", X16, C4)).ok


# ---------------------------------------------------------------- criterion 4


def test_criterion_4_certification_implication_suites():
    with criterion(4, "semicontinuity and composition implications"):
        seed = 40260824
        rng = random.Random(seed)

        # (a) strong usc with acyclic values implies Vietoris-like
        # (b) usc with all values having maxima implies Vietoris-like
        # (c) composition closure of Vietoris-like single-valued maps
        for name in (
            "susc_acyclic_implies_vietoris_like",
            "usc_with_maxima_implies_vietoris_like",
            "vietoris_like_closed_under_composition",
        ):
            _suite(name, seed, rng, 200)

        # (d) a Vietoris-like multimap after a Vietoris-like map stays
        #     Vietoris-like, and the induced maps compose
        done = 0
        while done < 200:
            X = random_poset(rng, 4, density=0.4)
            X1 = barycentric_subdivision_space(X)
            if len(X1) > 12:
                continue
            f = chain_max_map(X1, X)
            G = susc_acyclic_multimap(rng, X)
            GF = compose_map_then_multimap(f, G)
            assert is_vietoris_like_multimap(GF).ok, _dump_multimap(GF)
            lhs = induced_multimap_homology(GF)
            rhs = induced_map_of_poset_map(f).then(induced_multimap_homology(G))
            dims = max(len(lhs.matrices), len(rhs.matrices))
            for d in range(dims):
                assert lhs.matrix_at(d) == rhs.matrix_at(d), _dump_multimap(GF)
            done += 1

        # (e) a continuous selector of a Vietoris-like multimap has the
        #     same Lefschetz number as the multimap itself
        _suite("selector_has_same_lefschetz_number", seed, rng, 200)


# ---------------------------------------------------------------- criterion 5


def test_criterion_5_fixed_point_theorems_as_implications():
    with criterion(5, "nonzero Lefschetz number forces a witness"):
        rng = random.Random(50260824)

        # coincidence of a Vietoris-like map and an arbitrary continuous map
        done = 0
        while done < 60:
            X = random_poset(rng, 4, density=0.4)
            X1 = barycentric_subdivision_space(X)
            if len(X1) > 12:
                continue
            f = chain_max_map(X1, X)
            g = random_monotone_map(rng, X1, X, attempts=40)
            if g is None:
                continue
            rep = theorem_A(f, g)
            assert rep.conclusion_verified, _dump_map(f) + "\n" + _dump_map(g)
            if rep.lambda_ != 0:
                assert rep.witnesses, _dump_map(f) + "\n" + _dump_map(g)
            done += 1

        # fixed points of a single Vietoris-like endo-multimap
        for _ in range(150):
            X = random_poset(rng, 6)
            F = susc_acyclic_multimap(rng, X)
            rep = theorem_B(F)
            assert rep.conclusion_verified, _dump_multimap(F)
            if rep.lambda_ != 0:
                assert rep.witnesses, _dump_multimap(F)

        # fixed points of a composition of Vietoris-like multimaps
        for _ in range(60):
            X = random_poset(rng, 5)
            chain = [susc_acyclic_multimap(rng, X) for _ in range(2)]
            rep = theorem_C(chain)
            assert rep.conclusion_verified, "\n".join(map(_dump_multimap, chain))
            if rep.lambda_ != 0:
                assert rep.witnesses, "\n".join(map(_dump_multimap, chain))


# ---------------------------------------------------------------- criterion 6


def test_criterion_6_subdivision_tower_consistency():
    with criterion(6, "subdivision towers and approximative sequences"):
        rng = random.Random(60260824)
        t0 = time.perf_counter()
        accepted = rejected = 0
        seen_random_f = 0
        while accepted < 12:
            X0 = random_poset(rng, 6)
            try:
                t = build_tower(X0, 2, size_budget=40)
            except SizeBudgetExceeded:
                rejected += 1
                continue
            accepted += 1
            pairs = [(0, 1), (1, 2), (0, 2)]
            for n, m in pairs:
                assert is_vietoris_like_map(compose_h(t, n, m)).ok
                assert is_vietoris_like_multimap(fiber_H(t, n, m)).ok
            # the comparison maps themselves always form a valid sequence
            seq = attach_level_maps(t, t.h_maps)
            for n in (0, 1):
                lam_F = lefschetz_number(induced_multimap_homology(seq.F_maps[n]))
                assert lambda_nm(seq, n, n + 1) == lam_F
                fixed = fixed_points_of_level(seq, n + 1)
                coinc = [
                    x
                    for x in t.levels[n + 1].elements
                    if seq.f_maps[n](x) == t.h_maps[n](x)
                ]
                assert fixed == coinc
            # a random continuous level map, when it certifies
            f0 = random_monotone_map(rng, t.levels[1], t.levels[0], attempts=30)
            if f0 is not None:
                try:
                    seq2 = attach_level_maps(t, [f0, t.h_maps[1]])
                except CertificationFailed:
                    continue
                seen_random_f += 1
                lam_F = lefschetz_number(induced_multimap_homology(seq2.F_maps[0]))
                assert lambda_nm(seq2, 0, 1) == lam_F
                fixed = fixed_points_of_level(seq2, 1)
                coinc = [
                    x
                    for x in t.levels[1].elements
                    if f0(x) == t.h_maps[0](x)
                ]
                assert fixed == coinc
        assert rejected >= 1, "expected at least one size-budget rejection"
        assert seen_random_f >= 1, "expected at least one random level map"
        elapsed = time.perf_counter() - t0
        assert elapsed < 120.0, f"tower suite took {elapsed:.1f}s (limit 120s)"


# ---------------------------------------------------------------- criterion 7


def test_criterion_7_homology_engine_exactness():
    with criterion(7, "boundary squares to zero, Smith forms reconstruct"):
        rng = random.Random(70260824)
        complexes = [
            order_complex(_poset(name))
            for name in [
                "ex2_3_X.txt",
                "ex2_5_X.txt",
                "exW_W.txt",
                "circle4.txt",
                "ex3_9_Y.txt",
            ]
        ] + [order_complex(random_poset(rng, 6)) for _ in range(60)]
        for K in complexes:
            top = len(K.simplices)
            for d in range(1, top):
                D1, D2 = K.boundary_matrix(d), K.boundary_matrix(d + 1)
                if intmat.shape(D2)[1]:
                    assert not any(map(any, intmat.matmul(D1, D2)))
            for d in range(top + 1):
                M = K.boundary_matrix(d)
                sf = intmat.smith_normal_form(M, ncols=K.n_simplices(d))
                assert sf.S == intmat.matmul(intmat.matmul(sf.U, M), sf.V)
                assert (intmat.matmul(sf.U, intmat.unimodular_inverse(sf.U))
                        == intmat.identity(len(sf.U)))
                assert (intmat.matmul(sf.V, intmat.unimodular_inverse(sf.V))
                        == intmat.identity(len(sf.V)))
                facs = sf.invariant_factors
                assert all(
                    facs[i + 1] % facs[i] == 0 for i in range(len(facs) - 1)
                )
        # homology is invariant under barycentric subdivision
        for _ in range(100):
            X = random_poset(rng, 6)
            a = poset_homology(X.core())
            b = poset_homology(barycentric_subdivision_space(X).core())
            assert a.same_shape(b), serialize_poset(X)
