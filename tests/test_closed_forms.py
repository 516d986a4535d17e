import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from shippierce.closed_forms import (
    density_bounds,
    easiest_value,
    three_ship_reflection_2d,
    three_ship_reflection_2d_witness,
    toughest_2ships_family,
    toughest_2ships_value,
    two_2ships_density,
    two_2ships_density_2d,
)
from shippierce.core import Family, Family2D, Ship, make_family, normalize_ship_2d
from shippierce.solver import exact_density
from shippierce.verifier import verify_pattern_2d


def test_two_2ships_examples():
    assert two_2ships_density(Ship((0, 1)), Ship((0, 2))) == Fraction(2, 3)
    assert two_2ships_density(Ship((0, 1)), Ship((0, 3))) == Fraction(1, 2)
    assert two_2ships_density(Ship((0, 2)), Ship((0, 3))) == Fraction(3, 5)


def test_two_2ships_rejects_wrong_size():
    with pytest.raises(ValueError):
        two_2ships_density(Ship((0, 1, 2)), Ship((0, 1)))


@given(st.integers(1, 9), st.integers(1, 9), st.integers(1, 3))
def test_two_2ships_symmetric_and_scale_invariant(a, b, d):
    s1, s2 = Ship((0, d * a)), Ship((0, d * b))
    assert two_2ships_density(s1, s2) == two_2ships_density(s2, s1)
    assert two_2ships_density(s1, s2) == two_2ships_density(Ship((0, a)), Ship((0, b)))


def test_two_2ships_matches_solver_on_coprime_pairs():
    for a in range(1, 12):
        for b in range(a + 1, 12):
            if a + b > 12 or math.gcd(a, b) != 1:
                continue
            formula = two_2ships_density(Ship((0, a)), Ship((0, b)))
            solved = exact_density(make_family([[0, a], [0, b]])).density
            assert formula == solved, (a, b)


def test_toughest_2ships():
    assert toughest_2ships_value(1) == Fraction(1, 2)
    assert toughest_2ships_value(2) == Fraction(2, 3)
    assert toughest_2ships_value(5) == Fraction(5, 6)
    assert toughest_2ships_family(3) == make_family([[0, 1], [0, 2], [0, 3]])


@pytest.mark.parametrize("n", range(1, 7))
def test_toughest_2ships_agrees_with_solver(n):
    fam = toughest_2ships_family(n)
    assert exact_density(fam).density == toughest_2ships_value(n)


def test_easiest_value():
    assert easiest_value(3, 4) == Fraction(1, 4)
    assert easiest_value(1, 1) == 1
    assert easiest_value(2, 2) == Fraction(1, 2)


def test_bounds_examples():
    r = density_bounds(1, 2)
    assert r.upper == 0.5 and r.upper_rational_part == Fraction(1, 2)
    r = density_bounds(1, 3)
    assert r.lower == pytest.approx(1 - math.e, abs=1e-9)
    assert r.vacuous_lower
    r = density_bounds(100, 3)
    assert r.lower == pytest.approx(1 - math.e / 10, abs=1e-9)
    assert not r.vacuous_lower


def test_bounds_envelope_shape():
    for n in range(1, 8):
        for k in range(2, 7):
            r = density_bounds(n, k)
            assert r.upper <= 1
            if r.lower > 0:
                assert r.lower <= r.upper
    with pytest.raises(ValueError):
        density_bounds(1, 1)


def test_two_2ships_2d_examples():
    assert two_2ships_density_2d((1, 0), (0, 1)) == Fraction(1, 2)
    assert two_2ships_density_2d((1, 1), (3, 3)) == Fraction(1, 2)
    assert two_2ships_density_2d((1, 0), (2, 0)) == Fraction(2, 3)
    with pytest.raises(ValueError):
        two_2ships_density_2d((0, 0), (1, 0))


@given(
    st.tuples(st.integers(-3, 3), st.integers(-3, 3)).filter(lambda w: w != (0, 0)),
    st.integers(-5, 5).filter(lambda a: a != 0),
    st.integers(-5, 5).filter(lambda b: b != 0),
)
@settings(max_examples=60, deadline=None)
def test_two_2ships_2d_collinear_reduces_to_1d(w, a, b):
    u = (a * w[0], a * w[1])
    v = (b * w[0], b * w[1])
    expected = two_2ships_density(Ship((0, abs(a))), Ship((0, abs(b))))
    assert two_2ships_density_2d(u, v) == expected


def test_three_ship_reflection_2d_examples():
    assert three_ship_reflection_2d((1, 0), (0, 1)) == Fraction(1, 3)
    assert three_ship_reflection_2d((2, 0), (3, 0)) == Fraction(2, 5)
    # collinear reduction to {[0,1,2], mirror}, solved exactly
    assert three_ship_reflection_2d((1, 2), (2, 4)) == Fraction(1, 3)
    with pytest.raises(ValueError):
        three_ship_reflection_2d((1, 1), (1, 1))
    with pytest.raises(ValueError):
        three_ship_reflection_2d((0, 0), (1, 1))


@pytest.mark.parametrize("u,v", [((1, 0), (0, 1)), ((1, 1), (0, 1)), ((1, -1), (1, 1)), ((2, 1), (1, 2))])
def test_three_ship_reflection_2d_witness_pierces(u, v):
    ship = normalize_ship_2d([(0, 0), u, v])
    fam = Family2D((ship, ship.reflect()))
    w = three_ship_reflection_2d_witness(u, v)
    assert w.density == Fraction(1, 3)
    assert verify_pattern_2d(w, fam) is None


def test_three_ship_reflection_2d_witness_rejects_collinear():
    with pytest.raises(ValueError):
        three_ship_reflection_2d_witness((1, 2), (2, 4))
