import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from shippierce.core import (
    Family,
    ParseError,
    Ship,
    Ship2D,
    make_family,
    normalize_ship,
    normalize_ship_2d,
    parse_family,
    parse_family_2d,
    parse_family_file,
    reflect,
    scale,
    scale_reduce,
)

raw_ships = st.lists(st.integers(-20, 20), min_size=1, max_size=5, unique=True)
families = st.lists(raw_ships, min_size=1, max_size=3).map(make_family)
raw_ships_2d = st.lists(st.tuples(st.integers(-5, 5), st.integers(-5, 5)), min_size=1, max_size=4, unique=True)
families_2d = st.lists(raw_ships_2d, min_size=1, max_size=3).map(
    lambda raw: parse_family_2d(";".join(",".join(f"({x},{y})" for x, y in ship) for ship in raw))
)


def test_normalize_examples():
    assert normalize_ship([5, 7, 8]).offsets == (0, 2, 3)
    assert normalize_ship([3, 1]).offsets == (0, 2)
    with pytest.raises(ValueError, match="duplicate"):
        normalize_ship([0, 0, 2])


@given(raw_ships)
def test_normalize_idempotent(raw):
    once = normalize_ship(raw)
    assert normalize_ship(once.offsets) == once


def test_span_examples():
    assert normalize_ship([0, 1, 3]).span == 4
    assert Ship((0,)).span == 1
    assert make_family([[0, 1], [0, 2, 4]]).span == 5


def test_reflect_examples():
    assert reflect(make_family([[0, 2, 3]])) == make_family([[0, 1, 3]])
    assert reflect(make_family([[0, 1]])) == make_family([[0, 1]])
    closed = make_family([[0, 1, 3], [0, 2, 3]])
    assert reflect(closed) == closed


@given(families)
def test_reflect_involution(f):
    assert reflect(reflect(f)) == f


@given(families_2d)
def test_reflect_involution_2d(f):
    assert type(reflect(f)) is type(f)
    assert reflect(reflect(f)) == f


def test_reflect_2d_examples():
    ell = parse_family_2d("(0,0),(1,0),(0,1)")
    assert reflect(ell) == parse_family_2d("(0,0),(1,-1),(1,0)")
    # An L-triomino with its 180-degree rotation is closed under reflection.
    closed = parse_family_2d("(0,0),(1,0),(0,1);(0,0),(1,-1),(1,0)")
    assert reflect(closed) == closed


def test_scale_reduce_examples():
    assert scale_reduce(make_family([[0, 2], [0, 4]])) == (make_family([[0, 1], [0, 2]]), 2)
    assert scale_reduce(make_family([[0, 2], [0, 3]])) == (make_family([[0, 2], [0, 3]]), 1)
    assert scale_reduce(make_family([[0, 3], [0, 6]])) == (make_family([[0, 1], [0, 2]]), 3)


def test_scale_reduce_singletons():
    assert scale_reduce(make_family([[7]])) == (make_family([[0]]), 1)


@given(families, st.integers(1, 4))
def test_scale_reduce_span_relation(f, d):
    scaled = scale(f, d)
    reduced, factor = scale_reduce(scaled)
    assert reduced.span == (scaled.span - 1) // factor + 1
    # scaling an already-primitive family by d reduces straight back
    if scale_reduce(f)[1] == 1:
        assert (reduced, factor) == (f, d if f.span > 1 else 1)


def test_family_canonical_order_and_dedup():
    f = make_family([[0, 2], [0, 1], [5, 7]])
    assert [s.offsets for s in f.ships] == [(0, 1), (0, 2)]


def test_ship_invariants_enforced():
    with pytest.raises(ValueError):
        Ship((1, 2))
    with pytest.raises(ValueError):
        Ship((0, 2, 1))
    with pytest.raises(ValueError):
        Ship(())
    with pytest.raises(ValueError):
        Family(())


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: make_family([[]]), "a ship needs at least one cell"),
        (lambda: scale(make_family([[0, 1]]), 0), "scale factor must be positive"),
        (lambda: Ship2D(()), "a ship needs at least one cell"),
        (lambda: Ship2D(((0, 0), (0, 0))), "duplicate cell in 2D ship"),
        (lambda: Ship2D(((0, 0), (1, 0), (0, 1))), "2D ship cells must be sorted"),
        (lambda: Ship2D(((0, 1), (1, 0))), "2D ship must be anchored"),
        (lambda: normalize_ship_2d([]), "a ship needs at least one cell"),
    ],
    ids=["empty-ship", "scale-0", "empty-2d", "duplicate-2d", "unsorted-2d", "unanchored-2d", "normalize-empty-2d"],
)
def test_constructors_reject_bad_input(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_parse_family_roundtrip():
    f = parse_family(" 0 , 1 ; 0,2,4 ")
    assert str(f) == "0,1;0,2,4"
    assert parse_family(str(f)) == f


def test_parse_family_normalizes_arbitrary_integers():
    assert parse_family("-3,-1;5,7") == make_family([[0, 2], [0, 2]])


def test_parse_family_errors():
    for bad in ["", ";", "0,1;;0,2", "0,x", "0,0"]:
        with pytest.raises(ParseError):
            parse_family(bad)


def test_parse_family_file(tmp_path):
    p = tmp_path / "fam.txt"
    p.write_text("# two ships\n0,1\n\n0,2,4  # trailing comment\n")
    assert parse_family_file(p) == make_family([[0, 1], [0, 2, 4]])
    (tmp_path / "empty.txt").write_text("# nothing\n")
    with pytest.raises(ParseError):
        parse_family_file(tmp_path / "empty.txt")
    bad = tmp_path / "bad.txt"
    bad.write_text("0,1\n0,2\n0,x\n")
    with pytest.raises(ParseError) as info:
        parse_family_file(bad)
    assert str(info.value).startswith(f"{bad}:3: bad ship")
    (tmp_path / "dup.txt").write_text("0,1\n2,2\n")
    with pytest.raises(ParseError) as info:
        parse_family_file(tmp_path / "dup.txt")
    assert str(info.value) == "duplicate cell in ship [2, 2]"


def test_numpy_free_modules_import_without_numpy():
    # core, verifier and constructions never need the solver, so importing
    # them must not pull in numpy through the package root.
    code = ("import sys, shippierce.core, shippierce.verifier, shippierce.constructions; "
            "assert 'numpy' not in sys.modules")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_parse_family_2d():
    f = parse_family_2d("(0,0),(1,0),(0,1);(2,2),(3,1),(3,2)")
    assert str(f) == "(0,0),(0,1),(1,0);(0,0),(1,-1),(1,0)"
    with pytest.raises(ParseError):
        parse_family_2d("(0,0),(0,0)")
    with pytest.raises(ParseError):
        parse_family_2d("(0,0),junk")


def test_parse_family_2d_equals_family_of_its_ships():
    ell = normalize_ship_2d([(0, 0), (1, 0), (0, 1)])
    bar = normalize_ship_2d([(0, 0), (1, 1)])
    assert parse_family_2d("(0,0),(1,0),(0,1);(0,0),(1,1)") == Family((ell, bar))
    # Repeated and reordered ships, translated and with cells out of order.
    text = "(5,5),(6,6);(1,0),(0,0),(0,1);(3,-2),(2,-3);(0,1),(0,0),(1,0)"
    assert parse_family_2d(text) == Family((bar, ell))
    assert parse_family_2d(text).ships == (ell, bar)


def test_parse_family_2d_error_messages():
    for text, message in [
        ("", "bad 2D ship spec ''"),
        ("(0,0);", "bad 2D ship spec ''"),
        ("(0,0),(0,0)", "duplicate cell in 2D ship [(0, 0), (0, 0)]"),
    ]:
        with pytest.raises(ParseError) as info:
            parse_family_2d(text)
        assert str(info.value) == message
