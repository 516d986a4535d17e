import os
import random
import resource
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from shippierce.core import Family, ParseError, make_family, normalize_ship_2d, scale
from shippierce.verifier import (
    Pattern1D,
    Pattern2D,
    parse_pattern_1d,
    parse_pattern_2d,
    scale_pattern,
    verify_pattern_1d,
    verify_pattern_2d,
)

from oracles import first_missed_translate_1d


def test_density_examples():
    assert Pattern1D(2, {0}).density == Fraction(1, 2)
    assert Pattern1D(5, {0, 2}).density == Fraction(2, 5)
    diag3 = Pattern2D((3, 3), {(0, 0), (1, 1), (2, 2)})
    assert diag3.density == Fraction(1, 3)


def test_verify_1d_examples():
    evens = Pattern1D(2, {0})
    assert verify_pattern_1d(evens, make_family([[0, 1]])) is None
    assert verify_pattern_1d(evens, make_family([[0, 2]])) == (0, 1)


def test_witness_is_lexicographically_first():
    empty = Pattern1D(3, set())
    assert verify_pattern_1d(empty, make_family([[0, 1], [0, 2]])) == (0, 0)
    x = Pattern2D((2, 2), set())
    fam = Family((normalize_ship_2d([(0, 0), (1, 0)]),))
    assert verify_pattern_2d(x, fam) == (0, (0, 0))


def test_first_miss_of_a_huge_period_is_found_at_once():
    # The first anchor missing from the hit set is found in at most
    # len(hit) + 1 steps, without a set of all the period's anchors.  It
    # runs in a subprocess under a 1.5 GB address-space limit, so that a
    # set of all 10^12 anchors fails this test with a MemoryError rather
    # than exhausting the machine's memory and killing the test run.
    limit = 1_500_000 * 1024
    code = (
        "from shippierce.core import make_family\n"
        "from shippierce.verifier import Pattern1D, verify_pattern_1d\n"
        "print(verify_pattern_1d(Pattern1D(10**12, {0}), make_family([[0, 1]])))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "(0, 1)\n", "")
    assert time.perf_counter() - start < 5


def test_verify_1d_matches_the_definition():
    rng = random.Random(24)
    late_misses = 0
    for _ in range(3000):
        period = rng.randint(1, 12)
        raw = [rng.sample(range(-8, 9), rng.randint(1, 4)) for _ in range(rng.randint(1, 3))]
        f = make_family(raw)
        # Empty, full, random, or full but for the cells of one translate.
        residues = rng.choice([
            set(),
            set(range(period)),
            {r for r in range(period) if rng.random() < 0.5},
            None,
        ])
        if residues is None:
            ship, n = rng.choice(f.ships), rng.randrange(period)
            residues = set(range(period)) - {(n + a) % period for a in ship.offsets}
        x = Pattern1D(period, residues)
        expected = first_missed_translate_1d(x, f)
        assert verify_pattern_1d(x, f) == expected, (x, f)
        late_misses += expected is not None and min(expected) > 0
    # Enough first misses lie past ship 0 and past anchor 0 to tell the
    # first failure from a later one.
    assert late_misses >= 50


def test_verify_translation_invariant():
    evens = Pattern1D(2, {0})
    assert verify_pattern_1d(evens, make_family([[10, 11]])) is None
    assert verify_pattern_1d(evens, make_family([[-7, -6]])) is None


def test_verify_2d_l_shapes():
    diag3 = Pattern2D((3, 3), {(i, j) for i in range(3) for j in range(3) if (i - j) % 3 == 0})
    ell = normalize_ship_2d([(0, 0), (1, 0), (0, 1)])
    fam_180 = Family((ell, ell.reflect()))
    assert verify_pattern_2d(diag3, fam_180) is None

    rot90 = normalize_ship_2d([(0, 0), (0, 1), (-1, 0)])
    fam_90 = Family((ell, rot90))
    even_rows = Pattern2D((1, 2), {(0, 0)})
    assert verify_pattern_2d(even_rows, fam_90) is None
    # frozen first missed translate of the diagonal pattern on the 90-pair
    assert verify_pattern_2d(diag3, fam_90) == (1, (0, 2))


def test_sub_family_and_super_ship_monotonicity():
    pattern = Pattern1D(5, {0, 4})
    fam = make_family([[0, 1, 3]])
    assert verify_pattern_1d(pattern, fam) is None
    # super-ship: add a cell to the ship
    assert verify_pattern_1d(pattern, make_family([[0, 1, 3, 4]])) is None
    # sub-family of a larger pierced family
    bigger = make_family([[0, 1, 3], [0, 1]])
    assert (verify_pattern_1d(pattern, bigger) is None) == (
        verify_pattern_1d(pattern, fam) is None
        and verify_pattern_1d(pattern, make_family([[0, 1]])) is None
    )


@given(
    st.integers(2, 8).flatmap(
        lambda p: st.tuples(st.just(p), st.sets(st.integers(0, p - 1)))
    ),
    st.lists(
        st.lists(st.integers(0, 6), min_size=1, max_size=3, unique=True),
        min_size=1,
        max_size=2,
    ),
    st.integers(2, 3),
)
def test_scaled_verify_matches_original(pat_spec, raw, d):
    period, residues = pat_spec
    x = Pattern1D(period, residues)
    f = make_family(raw)
    assert (verify_pattern_1d(x, f) is None) == (
        verify_pattern_1d(scale_pattern(x, d), scale(f, d)) is None
    )


def test_scale_pattern_density_unchanged():
    x = Pattern1D(5, {0, 2})
    assert scale_pattern(x, 3).density == x.density
    assert scale_pattern(x, 1) is x


def test_scale_pattern_rejects_factor_0():
    with pytest.raises(ValueError, match="scale factor must be positive"):
        scale_pattern(Pattern1D(5, {0, 2}), 0)


def test_pattern_text_roundtrip():
    x = parse_pattern_1d("5:0,2")
    assert (x.period, sorted(x.residues)) == (5, [0, 2])
    assert str(x) == "5:0,2"
    assert parse_pattern_1d("3:").residues == frozenset()

    y = parse_pattern_2d("3,3:(0,0),(1,1),(2,2)")
    assert y.periods == (3, 3)
    assert str(y) == "3,3:(0,0),(1,1),(2,2)"


def test_pattern_parse_errors():
    for bad in ["5", "x:0", "5:9", "5:-1"]:
        with pytest.raises(ParseError):
            parse_pattern_1d(bad)
    for bad in ["3:(0,0)", "3,3:(5,0)", "3,3:(0,0)x"]:
        with pytest.raises(ParseError):
            parse_pattern_2d(bad)
    with pytest.raises(ParseError) as info:
        parse_pattern_2d("3,3")
    assert str(info.value) == "pattern '3,3' needs a ':' separator"


def test_pattern_invariants():
    with pytest.raises(ValueError):
        Pattern1D(0, set())
    with pytest.raises(ValueError):
        Pattern1D(3, {3})
    with pytest.raises(ValueError):
        Pattern2D((2, 2), {(2, 0)})
