"""Text format round trips and error handling."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from finspace.cli import main
from finspace.dynamics import build_tower
from finspace.errors import CycleError, InputError
from finspace.formats import (
    element_label,
    label_lookup,
    parse_map_text,
    parse_multimap_text,
    parse_poset_text,
    serialize_map,
    serialize_multimap,
    serialize_poset,
)
from finspace.maps import MultiMap
from finspace.poset import build_poset
from finspace.random_instances import random_endomorphism, random_poset


@pytest.fixture
def circle():
    return parse_poset_text(
        """
        # minimal circle model
        elements: a b c d
        rel: a < c
        rel: a < d
        rel: b < c
        rel: b < d
        """
    )


def test_poset_round_trip(circle):
    assert len(circle) == 4 and circle.leq("a", "c")
    assert parse_poset_text(serialize_poset(circle)) == circle


def test_poset_parse_errors():
    for text in [
        "rel: a < b",  # no elements line
        "elements: a\nelements: a",
        "elements: a b\nrel: a << b",
        "elements: a b\nsomething",
        "elements:",
    ]:
        with pytest.raises(InputError):
            parse_poset_text(text)


def test_self_relation_is_a_cycle(tmp_path, capsys):
    text = "elements: a b\nrel: a < b\nrel: a < a\n"
    with pytest.raises(CycleError, match="cycle through 'a'$"):
        parse_poset_text(text)
    path = tmp_path / "loop.txt"
    path.write_text(text)
    assert main(["homology", "--poset", str(path)]) == 2
    assert "cycle through 'a'" in capsys.readouterr().err


def test_map_round_trip(circle):
    f = parse_map_text("a -> b\nb -> a\nc -> d\nd -> c\n", circle, circle)
    assert f("a") == "b"
    assert parse_map_text(serialize_map(f), circle, circle) == f


def test_map_parse_errors(circle):
    with pytest.raises(InputError):
        parse_map_text("a -> b\n", circle, circle)  # missing assignments
    with pytest.raises(InputError):
        parse_map_text("a -> b c\n", circle, circle)  # two values
    with pytest.raises(InputError):
        parse_map_text("zz -> b\n", circle, circle)
    with pytest.raises(InputError):
        parse_map_text("a -> b\na -> c\nb -> a\nc -> c\nd -> d", circle, circle)


def test_multimap_round_trip(circle):
    F = parse_multimap_text(
        "a -> c d\nb -> c\nc -> c\nd -> d\n", circle, circle
    )
    assert F("a") == frozenset({"c", "d"})
    assert parse_multimap_text(serialize_multimap(F), circle, circle) == F


def test_multimap_parse_errors(circle):
    with pytest.raises(InputError):
        parse_multimap_text("a -> \nb -> a\nc -> a\nd -> a", circle, circle)
    with pytest.raises(InputError):
        parse_multimap_text("a -> zz", circle, circle)


def test_chain_labels_round_trip():
    t = build_tower(build_poset("MN", [("M", "N")]), 2)
    X2 = t.levels[2]
    assert element_label((("M",), ("M", "N"))) == "((M).(M.N))"
    lk = label_lookup(X2)
    assert len(lk) == len(X2)
    h = t.h_maps[1]
    assert parse_map_text(serialize_map(h), t.levels[2], t.levels[1]) == h


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_random_round_trips(seed):
    rng = random.Random(seed)
    X = random_poset(rng, 6)
    assert parse_poset_text(serialize_poset(X)) == X
    f = random_endomorphism(rng, X)
    assert parse_map_text(serialize_map(f), X, X) == f
    F = MultiMap(X, X, {x: X.down_set(f(x)) for x in X.elements})
    assert parse_multimap_text(serialize_multimap(F), X, X) == F
