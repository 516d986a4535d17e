"""End-to-end acceptance checks.

One test per headline result, each asserting the exact value (or the
stated tolerance) and printing a PASS line; run with -s to see them.
"""

import math
import random
import time
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

import pytest

from shippierce.closed_forms import density_bounds, toughest_2ships_value, two_2ships_density
from shippierce.constructions import (
    greedy_two_sided,
    reference_family_2d,
    reference_pattern,
    slab_family,
    slab_pattern,
)
from shippierce.core import Family, Ship, make_family, parse_family, reflect, scale, scale_reduce
from shippierce.search import check_mirror_triples, compute_extremes
from shippierce.solver import WindowGraph, exact_density, min_mean_cycle
from shippierce.verifier import verify_pattern_1d, verify_pattern_2d

from oracles import min_mean_by_closed_walks, min_mean_by_cycle_enumeration


def ok(line: str) -> None:
    print(f"PASS {line}")


@lru_cache(maxsize=None)
def _search(n, k, budget):
    t0 = time.perf_counter()
    report = compute_extremes(n, k, budget)
    return report, time.perf_counter() - t0


def _span6_universe():
    ships = []
    for r in range(1, 6):
        for rest in combinations(range(1, 6), r):
            ships.append(Ship((0,) + rest))
    return ships


def _canonical_span6_families(max_ships=2):
    """Every canonical family of at most max_ships ships with span <= 6.

    Canonical means family-wide offset gcd 1 and not lexicographically
    above its mirror image; this quotient is exactly the set of reduced
    forms, so it covers all families with reduced span <= 6 up to the
    density-preserving symmetries.
    """
    ships = _span6_universe()
    fams = []
    for n in range(1, max_ships + 1):
        for combo in combinations(ships, n):
            d = 0
            for s in combo:
                for a in s.offsets:
                    d = math.gcd(d, a)
            if d != 1:
                continue
            fam = Family(combo)
            if reflect(fam) < fam:
                continue
            fams.append(fam)
    return fams


def test_01_single_three_cell_ship_exact():
    t0 = time.perf_counter()
    result = exact_density(parse_family("0,1,3"))
    elapsed = time.perf_counter() - t0
    assert result.density == Fraction(2, 5)
    assert elapsed < 1.0
    ok(f"[1] density of [0,1,3] is 2/5 ({elapsed * 1000:.0f} ms)")


def test_02_two_ship_headline_values():
    assert exact_density(parse_family("0,1;0,2")).density == Fraction(2, 3)
    assert exact_density(parse_family("0,1;0,2,4")).density == Fraction(3, 5)
    ok("[2] {[0,1],[0,2]} -> 2/3 and {[0,1],[0,2,4]} -> 3/5")


@lru_cache(maxsize=None)
def _pair_agreement():
    pairs = [
        (a, b)
        for a in range(1, 12)
        for b in range(a + 1, 12)
        if a + b <= 12 and math.gcd(a, b) == 1
    ]
    t0 = time.perf_counter()
    mismatches = []
    checked = 0
    for a, b in pairs:
        expected = two_2ships_density(Ship((0, a)), Ship((0, b)))
        for d in (1, 2, 3):
            fam = make_family([[0, d * a], [0, d * b]])
            if exact_density(fam).density != expected:
                mismatches.append((a, b, d))
            checked += 1
    return pairs, checked, mismatches, time.perf_counter() - t0


def test_03_formula_matches_solver_on_all_coprime_pairs():
    pairs, checked, mismatches, elapsed = _pair_agreement()
    assert mismatches == []
    assert elapsed < 30.0
    ok(
        f"[3] formula == solver on {len(pairs)} coprime pairs (a+b<=12) "
        f"x 3 scales = {checked} solves, 0 mismatches ({elapsed:.1f} s)"
    )


@lru_cache(maxsize=None)
def _mirror_report():
    t0 = time.perf_counter()
    report = check_mirror_triples()
    return report, time.perf_counter() - t0


def test_04_mirrored_triples_exhaustive_check():
    report, elapsed = _mirror_report()
    bound = Fraction(2, 5)
    assert len(report.rows) == 10
    assert all(r.density <= bound for r in report.rows)
    extremes = {(r.a, r.b) for r in report.rows if r.density == bound}
    assert extremes == {(2, 1), (3, 1), (4, 2)}
    assert all(r.reduced in {(2, 1), (3, 1)} for r in report.rows if r.is_extreme)
    assert elapsed < 10.0
    ok(
        "[4] all 10 three-cell-ship/mirror cases (b < a <= 5) are <= 2/5; "
        f"equality exactly at primitive (2,1) and (3,1) ({elapsed:.1f} s)"
    )


def test_05_search_reproduces_headline_extremes():
    rep5, t5 = _search(1, 5, 10)
    rep3, t3 = _search(1, 3, 10)
    rep2, t2 = _search(2, 2, 9)
    assert rep5.max_density >= Fraction(3, 11)
    assert rep5.max_density == Fraction(3, 11)  # regression golden
    assert rep3.max_density == Fraction(2, 5)
    assert rep3.max_witness == make_family([[0, 1, 3]])
    assert rep2.max_density == Fraction(2, 3)
    assert rep2.max_witness == make_family([[0, 1], [0, 2]])
    total = t5 + t3 + t2
    assert total < 1800.0
    ok(
        f"[5] search maxima: (1,5,<=10) {rep5.max_density} >= 3/11; "
        f"(1,3,<=10) = 2/5; (2,2,<=9) = 2/3 ({total:.1f} s)"
    )


def test_06_four_cell_search_golden():
    report, _ = _search(1, 4, 8)
    assert report.max_density <= Fraction(1, 3)
    # regression goldens frozen from the first verified run
    assert report.max_density == Fraction(1, 3)
    assert report.max_witness == make_family([[0, 1, 2, 4]])
    assert report.min_density == Fraction(1, 4)
    ok("[6] search (1,4,<=8): max = 1/3 (witness 0,1,2,4), min = 1/4")


def test_07_greedy_verifies_and_meets_bound_everywhere():
    cases = 0
    for n in range(1, 5):
        for gaps in combinations(range(1, 9), n):
            pattern = greedy_two_sided(gaps)
            density = pattern.density
            assert density <= Fraction(n, n + 1), gaps
            assert verify_pattern_1d(pattern, make_family([[0, g] for g in gaps])) is None, gaps
            cases += 1
    for n in range(1, 5):
        density = greedy_two_sided(range(1, n + 1)).density
        assert density == toughest_2ships_value(n)
    ok(f"[7] greedy pattern verifies with density <= n/(n+1) on {cases} gap sets; "
       "= n/(n+1) on consecutive gaps")


def test_08_slab_construction_everywhere():
    cases = 0
    for a in range(1, 11):
        for b in range(1, a):
            if math.gcd(a, b) != 1:
                continue
            pattern = slab_pattern(a, b)
            density = pattern.density
            assert density == Fraction(a + 1, 3 * a)
            assert pattern.density == density
            assert verify_pattern_1d(pattern, slab_family(a, b)) is None, (a, b)
            if a >= 6:
                assert density < Fraction(2, 5)
            cases += 1
    ok(f"[8] slab pattern exact at (a+1)/(3a) and verified on {cases} coprime "
       "pairs b < a <= 10; < 2/5 for a >= 6")


def test_09_planar_verifier_fixtures():
    diag3 = reference_pattern("diag3")
    rows = reference_pattern("even-rows")
    f180 = reference_family_2d("l180")
    f90 = reference_family_2d("l90")
    assert verify_pattern_2d(diag3, f180) is None and diag3.density == Fraction(1, 3)
    assert verify_pattern_2d(rows, f90) is None and rows.density == Fraction(1, 2)
    witness = verify_pattern_2d(diag3, f90)
    assert witness == (1, (0, 2))  # frozen first miss
    ok(f"[9] diag3 pierces the 180-pair, even-rows pierces the 90-pair, "
       f"diag3 misses the 90-pair at {witness}")


def test_10_scaling_invariance_on_random_families():
    rng = random.Random(20250810)
    universe = _span6_universe()
    checked = 0
    while checked < 50:
        ships = rng.sample(universe, rng.randint(1, 3))
        fam, _ = scale_reduce(Family(tuple(ships)))
        base = exact_density(fam).density
        for d in (2, 3):
            assert exact_density(scale(fam, d)).density == base, (fam, d)
        checked += 1
    ok("[10] 50 random reduced families (span <= 6): density equal under "
       "scaling by 2 and 3")


def test_11_oracle_equivalence_span6():
    fams = _canonical_span6_families(max_ships=2)
    t0 = time.perf_counter()
    mismatches = []
    enumerated = 0
    for fam in fams:
        graph = WindowGraph.from_family(fam)
        mean = min_mean_cycle(graph)[0]
        if mean != min_mean_by_closed_walks(graph):
            mismatches.append(("walks", fam))
        # full simple-cycle enumeration where the cycle count is sane;
        # span-6 graphs with very few constraints have >10^7 cycles
        if fam.span <= 5:
            enumerated += 1
            if mean != min_mean_by_cycle_enumeration(graph):
                mismatches.append(("cycles", fam))
    elapsed = time.perf_counter() - t0
    assert mismatches == []
    ok(
        f"[11] oracle equivalence on {len(fams)} canonical families "
        f"(span <= 6): closed-walk oracle on all, cycle enumeration on "
        f"{enumerated} (span <= 5), 0 mismatches ({elapsed:.1f} s)"
    )


def _produced_densities():
    """(density, n, k) for every value produced by checks 1-6.

    For the mixed family {[0,1],[0,2,4]} the envelope of (2,2) applies:
    deleting the cell 4 can only raise the density, so the value is
    bracketed by the uniform 2-cell bounds.
    """
    values = [
        (Fraction(2, 5), 1, 3),
        (Fraction(2, 3), 2, 2),
        (Fraction(3, 5), 2, 2),
    ]
    pairs, _, _, _ = _pair_agreement()
    for a, b in pairs:
        values.append((two_2ships_density(Ship((0, a)), Ship((0, b))), 2, 2))
    report, _ = _mirror_report()
    for row in report.rows:
        values.append((row.density, 2, 3))
    for n, k, budget in [(1, 5, 10), (1, 3, 10), (2, 2, 9), (1, 4, 8)]:
        rep, _ = _search(n, k, budget)
        values.append((rep.max_density, n, k))
        values.append((rep.min_density, n, k))
    return values


def test_12_bounds_envelope_over_all_produced_densities():
    tol = 1e-9
    checked = 0
    for density, n, k in _produced_densities():
        env = density_bounds(n, k)
        low = max(1.0 / k, env.lower)
        assert float(density) >= low - tol, (density, n, k)
        assert float(density) <= env.upper + tol, (density, n, k)
        checked += 1
    ok(f"[12] all {checked} produced densities sit inside the "
       "[max(1/k, lower), upper] envelope at 1e-9")
