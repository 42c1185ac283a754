"""Every named regression case must pass end to end."""

import dataclasses
import random

import pytest

from finspace import casebook
from finspace.casebook import ALL_CASES, run_all, run_property_suites
from finspace.formats import serialize_multimap, serialize_poset
from finspace.random_instances import (
    random_poset,
    susc_acyclic_multimap,
    usc_maxima_multimap,
)


@pytest.mark.parametrize("case", ALL_CASES, ids=lambda fn: fn.__name__)
def test_case(case):
    result = case()
    failing = [lab for lab, ok in result.checks if not ok]
    assert not failing, f"{result.name}: failed checks {failing}"


def test_run_all_is_deterministic():
    first = [r.as_dict() for r in run_all()]
    second = [r.as_dict() for r in run_all()]
    assert first == second
    assert [r["name"] for r in first] == [
        "ex2_3", "ex2_5", "exW", "ex2_8", "ex2_12",
        "ex2_16", "ex3_9", "ex_postA", "ex4_2", "ex4_3",
    ]


def test_property_suites_pass_and_are_seed_deterministic():
    first = [r.as_dict() for r in run_property_suites(11)]
    second = [r.as_dict() for r in run_property_suites(11)]
    assert first == second
    assert all(r["passed"] for r in first)
    assert len(first) == 5


def test_property_suite_names_its_first_counterexample(monkeypatch):
    calls = []
    classify = casebook.classify_continuity

    def susc_fails_on_third_call(F):
        calls.append(F)
        flags = classify(F)
        return dataclasses.replace(flags, susc=flags.susc and len(calls) != 3)

    monkeypatch.setattr(casebook, "classify_continuity", susc_fails_on_third_call)
    results = run_property_suites(11)
    rng = random.Random(11)
    for _ in range(3):
        X = random_poset(rng, 7)
        F = susc_acyclic_multimap(rng, X)
    assert results[0].as_dict() == {
        "name": "susc_acyclic_implies_vietoris_like",
        "passed": False,
        "checks": [{
            "label": "counterexample: seed 11, instance 2\n"
                     f"X:\n{serialize_poset(X)}F:\n{serialize_multimap(F)}",
            "ok": False,
        }],
    }
    # the suite stops at its first counterexample: the fourth call already
    # checks the first instance of the next suite, drawn from seed 11 + 1
    rng = random.Random(12)
    G = None
    while G is None:
        G = usc_maxima_multimap(rng, random_poset(rng, 7))
    assert calls[3] == G
    assert all(r.passed for r in results[1:])
