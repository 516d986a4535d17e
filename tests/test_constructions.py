import math
from fractions import Fraction
from itertools import combinations

import pytest

from shippierce.constructions import (
    GreedyHorizonError,
    easiest_family,
    greedy_two_sided,
    reference_family_2d,
    reference_pattern,
    slab_family,
    slab_pattern,
)
from shippierce.core import make_family
from shippierce.verifier import verify_pattern_1d, verify_pattern_2d


def gap_family(gaps):
    return make_family([[0, g] for g in gaps])


def test_greedy_examples():
    pattern = greedy_two_sided([1, 2])
    density = pattern.density
    assert density == Fraction(2, 3)
    # equivalent to "everything except multiples of 3"
    assert pattern.period == 3 and len(pattern.residues) == 2

    pattern = greedy_two_sided([1])
    density = pattern.density
    assert density == Fraction(1, 2)
    assert pattern.period == 2

    pattern = greedy_two_sided([2, 3])
    density = pattern.density
    assert density == Fraction(3, 5)  # frozen from the sweep itself
    assert Fraction(3, 5) <= density <= Fraction(3, 4)
    assert verify_pattern_1d(pattern, gap_family([2, 3])) is None


def test_greedy_pierces_and_respects_bound_everywhere():
    for n in range(1, 5):
        for gaps in combinations(range(1, 9), n):
            pattern = greedy_two_sided(gaps)
            density = pattern.density
            assert density <= Fraction(n, n + 1), gaps
            assert verify_pattern_1d(pattern, gap_family(gaps)) is None, gaps


@pytest.mark.parametrize("n", range(1, 6))
def test_greedy_consecutive_gaps_hit_worst_case(n):
    pattern = greedy_two_sided(range(1, n + 1))
    density = pattern.density
    assert density == Fraction(n, n + 1)
    zeros = set(range(pattern.period)) - set(pattern.residues)
    assert len(zeros) * (n + 1) == pattern.period


def test_greedy_horizon_refusal():
    with pytest.raises(GreedyHorizonError):
        greedy_two_sided([3, 5], horizon=3)
    with pytest.raises(ValueError):
        greedy_two_sided([])
    with pytest.raises(ValueError):
        greedy_two_sided([0, 2])


def test_slab_examples():
    density = slab_pattern(6, 1).density
    assert density == Fraction(7, 18)
    pattern = slab_pattern(4, 3)
    density = pattern.density
    assert density == Fraction(5, 12)
    assert slab_family(4, 3) == make_family([[0, 4, 7], [0, 3, 7]])
    assert verify_pattern_1d(pattern, slab_family(4, 3)) is None
    density = slab_pattern(7, 2).density
    assert density == Fraction(8, 21)


def test_slab_all_coprime_pairs_up_to_10():
    for a in range(1, 11):
        for b in range(1, a + 1):
            if math.gcd(a, b) != 1:
                continue
            pattern = slab_pattern(a, b)
            density = pattern.density
            assert density == Fraction(a + 1, 3 * a)
            assert pattern.density == density
            assert verify_pattern_1d(pattern, slab_family(a, b)) is None, (a, b)
            if a >= 6:
                assert density < Fraction(2, 5)


def test_slab_rejects_bad_input():
    with pytest.raises(ValueError):
        slab_pattern(4, 2)
    with pytest.raises(ValueError):
        slab_pattern(2, 3)
    with pytest.raises(ValueError):
        slab_pattern(3, 0)


def test_easiest_family_examples():
    fam, pattern = easiest_family(2, 2)
    assert fam == make_family([[0, 1], [0, 3]])
    assert (pattern.period, set(pattern.residues)) == (2, {0})

    fam, pattern = easiest_family(1, 3)
    assert fam == make_family([[0, 1, 2]])
    assert (pattern.period, set(pattern.residues)) == (3, {0})

    fam, pattern = easiest_family(1, 1)
    assert fam == make_family([[0]])
    assert (pattern.period, set(pattern.residues)) == (1, {0})


def test_easiest_family_verifies_across_grid():
    for n in range(1, 9):
        for k in range(1, 9):
            fam, pattern = easiest_family(n, k)
            assert pattern.density == Fraction(1, k)
            assert verify_pattern_1d(pattern, fam) is None, (n, k)


def test_reference_patterns():
    evens = reference_pattern("evens")
    assert (evens.period, set(evens.residues)) == (2, {0})
    assert evens.density == Fraction(1, 2)

    skip = reference_pattern("skip", n=3)
    assert (skip.period, set(skip.residues)) == (4, {1, 2, 3})
    assert verify_pattern_1d(skip, make_family([[0, 1], [0, 2], [0, 3]])) is None

    diag3 = reference_pattern("diag3")
    assert diag3.density == Fraction(1, 3)
    rows = reference_pattern("even-rows")
    assert (rows.periods, set(rows.residues)) == ((1, 2), {(0, 0)})

    with pytest.raises(ValueError):
        reference_pattern("nope")
    with pytest.raises(ValueError):
        reference_pattern("skip")


def test_reference_families_and_planar_checks():
    diag3 = reference_pattern("diag3")
    rows = reference_pattern("even-rows")
    f180 = reference_family_2d("l180")
    f90 = reference_family_2d("l90")
    assert verify_pattern_2d(diag3, f180) is None
    assert verify_pattern_2d(rows, f90) is None
    assert verify_pattern_2d(diag3, f90) is not None
    with pytest.raises(ValueError):
        reference_family_2d("l270")
