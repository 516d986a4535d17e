import pytest
from hypothesis import given, strategies as st

from shippierce.core import (
    Family,
    ParseError,
    Ship,
    make_family,
    normalize_ship,
    parse_family,
    parse_family_2d,
    parse_family_file,
    reflect,
    scale,
    scale_reduce,
    span,
)

raw_ships = st.lists(st.integers(-20, 20), min_size=1, max_size=5, unique=True)
families = st.lists(raw_ships, min_size=1, max_size=3).map(make_family)


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
    assert span(normalize_ship([0, 1, 3])) == 4
    assert span(Ship((0,))) == 1
    assert span(make_family([[0, 1], [0, 2, 4]])) == 5


def test_reflect_examples():
    assert reflect(make_family([[0, 2, 3]])) == make_family([[0, 1, 3]])
    assert reflect(make_family([[0, 1]])) == make_family([[0, 1]])
    closed = make_family([[0, 1, 3], [0, 2, 3]])
    assert reflect(closed) == closed


@given(families)
def test_reflect_involution(f):
    assert reflect(reflect(f)) == f


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
    assert span(reduced) == (span(scaled) - 1) // factor + 1
    # scaling an already-primitive family by d reduces straight back
    if scale_reduce(f)[1] == 1:
        assert (reduced, factor) == (f, d if span(f) > 1 else 1)


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


def test_parse_family_2d():
    f = parse_family_2d("(0,0),(1,0),(0,1);(2,2),(3,1),(3,2)")
    assert str(f) == "(0,0),(0,1),(1,0);(0,0),(1,-1),(1,0)"
    with pytest.raises(ParseError):
        parse_family_2d("(0,0),(0,0)")
    with pytest.raises(ParseError):
        parse_family_2d("(0,0),junk")
