import math
import os
import re
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

import shippierce.search
from shippierce.closed_forms import density_bounds
from shippierce.core import Family, make_family, offset_gcd, parse_family, reflect, scale_reduce
from shippierce.search import (
    check_mirror_triples,
    compute_extremes,
    enumerate_families,
    raw_family_count,
    ships_with_span,
)


def test_ships_with_span():
    assert [s.offsets for s in ships_with_span(2, 3)] == [(0, 1), (0, 2)]
    assert [s.offsets for s in ships_with_span(1, 5)] == [(0,)]
    assert ships_with_span(3, 2) == []


def test_enumerate_hand_counted_cases():
    assert [str(f) for f in enumerate_families(1, 2, 3)] == ["0,1"]
    assert [str(f) for f in enumerate_families(1, 3, 4)] == ["0,1,2", "0,1,3"]
    fams = [str(f) for f in enumerate_families(2, 2, 4)]
    assert fams == ["0,1;0,2", "0,1;0,3", "0,2;0,3"]


def test_enumerate_emits_canonical_forms_only():
    for f in map(parse_family, enumerate_families(2, 3, 7)):
        assert not reflect(f) < f
        assert scale_reduce(f) == (f, 1)
        assert len(f.ships) == 2
        assert all(s.size == 3 and s.span <= 7 for s in f.ships)


def assert_enumerate_equals_the_definition(n):
    # Straight from the definition: combinations of sorted ships, with
    # family-wide offset gcd at most 1, that are <= their mirror image.
    # k = 1 and small budgets leave fewer ships than n.
    for k in range(1, 6):
        for budget in range(k, 9):
            reference = []
            for combo in combinations(ships_with_span(k, budget), n):
                family = Family(combo)
                if offset_gcd(combo) <= 1 and not reflect(family) < family:
                    reference.append(str(family))
            assert list(enumerate_families(n, k, budget)) == reference, (n, k, budget)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_enumerate_equals_the_definition(n):
    assert_enumerate_equals_the_definition(n)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_enumerate_equals_the_definition_across_small_blocks(monkeypatch, n):
    # Blocks of 7 rows: kept and dropped rows fall on both sides of many
    # block boundaries, and the last block of most types is partial.
    monkeypatch.setattr(shippierce.search, "ENUM_BLOCK_ROWS", 7)
    assert_enumerate_equals_the_definition(n)


def test_enumerate_equals_the_per_combination_filter():
    # The same two tests made one index tuple at a time, as a reference
    # for the numpy blocks.  (2, 3, 30) has C(406, 2) = 82,215
    # combinations, so it spans two blocks of the default size.
    n, k, budget = 2, 3, 30
    ships = ships_with_span(k, budget)
    assert raw_family_count(n, k, budget) == 82_215 > shippierce.search.ENUM_BLOCK_ROWS
    index = {ship: i for i, ship in enumerate(ships)}
    mirror = [index[ship.reflect()] for ship in ships]
    gcd = [offset_gcd([ship]) for ship in ships]
    reference = [
        ";".join(str(ships[i]) for i in combo)
        for combo in combinations(range(len(ships)), n)
        if tuple(sorted(mirror[i] for i in combo)) >= combo
        and math.gcd(*(gcd[i] for i in combo)) <= 1
    ]
    assert list(enumerate_families(n, k, budget)) == reference


def test_enumerate_streams_one_block_at_a_time(monkeypatch):
    # The first text needs only the first block of combinations, however
    # many the type has: (4, 3, 20) has C(171, 4), about 34.4M.  Draws are
    # counted per combination size r, since ships_with_span draws its
    # ships' offsets from combinations too.
    drawn = Counter()

    def counting(iterable, r):
        for combo in combinations(iterable, r):
            drawn[r] += 1
            yield combo

    monkeypatch.setattr(shippierce.search, "combinations", counting)
    monkeypatch.setattr(shippierce.search, "ENUM_BLOCK_ROWS", 1000)
    families = enumerate_families(4, 3, 20)
    assert drawn[4] == 0
    assert next(families) == "0,1,2;0,1,3;0,1,4;0,1,5"
    assert 0 < drawn[4] <= 1000
    assert next(families) == "0,1,2;0,1,3;0,1,4;0,1,6"
    assert drawn[4] <= 1000


def test_raw_family_count_counts_ships_with_span():
    for n in range(5):
        for k in range(-1, 8):
            for budget in range(-2, 12):
                expected = math.comb(len(ships_with_span(k, budget)), n)
                assert raw_family_count(n, k, budget) == expected, (n, k, budget)


def test_enumerate_is_deterministic_stream():
    a = list(enumerate_families(2, 3, 6))
    b = list(enumerate_families(2, 3, 6))
    families = [parse_family(t) for t in a]
    assert a == b and families == sorted(families)


def test_sweep_runs_the_public_enumerator(monkeypatch):
    # perfbench's tracer hooks enumerate_families by name and calls
    # raw_family_count(*args[:3]), so the sweep must call it once, with
    # positional arguments, and sweep exactly what it yields.
    calls, yielded = [], []
    enumerate_all = shippierce.search.enumerate_families

    def recording(*args, **kwargs):
        calls.append((args, kwargs))
        for text in enumerate_all(*args, **kwargs):
            yielded.append(text)
            yield text

    monkeypatch.setattr(shippierce.search, "enumerate_families", recording)
    report = compute_extremes(2, 3, 7)
    assert calls == [((2, 3, 7), {})]
    assert report.families_examined == len(yielded) > 0


def test_extremes_small_sweeps():
    rep = compute_extremes(1, 3, 10)
    assert rep.max_density == Fraction(2, 5)
    assert rep.max_witness == make_family([[0, 1, 3]])
    assert rep.min_density == Fraction(1, 3)

    rep = compute_extremes(2, 2, 9)
    assert rep.max_density == Fraction(2, 3)
    assert rep.max_witness == make_family([[0, 1], [0, 2]])
    assert rep.min_density == Fraction(1, 2)  # easiest witness fits the budget

    rep = compute_extremes(1, 4, 8)
    assert rep.min_density == Fraction(1, 4)
    assert rep.max_density <= Fraction(1, 3)


def test_extremes_counts_raw_and_canonical():
    rep = compute_extremes(2, 2, 4)
    assert rep.families_examined == 3
    assert rep.families_raw == raw_family_count(2, 2, 4) == 3
    rep = compute_extremes(1, 3, 4)
    assert (rep.families_examined, rep.families_raw) == (2, 3)


def test_extremes_within_bounds_envelope():
    for n, k, budget in [(1, 3, 7), (2, 2, 7), (1, 4, 7), (2, 3, 6)]:
        rep = compute_extremes(n, k, budget)
        env = density_bounds(n, k)
        assert rep.min_density >= Fraction(1, k)
        assert float(rep.max_density) <= env.upper + 1e-9
        if env.lower > 0:
            assert float(rep.max_density) >= env.lower - 1e-9


def test_min_is_one_over_k_when_easiest_witness_fits():
    # the easiest family of n k-cell ships spans n*k cells
    from shippierce.constructions import easiest_family

    for n, k in [(1, 3), (2, 2), (2, 3), (1, 4)]:
        fam, _ = easiest_family(n, k)
        budget = fam.span
        assert compute_extremes(n, k, budget).min_density == Fraction(1, k)


def test_search_monotone_in_span_budget():
    prev_max, prev_min = None, None
    for budget in range(3, 8):
        rep = compute_extremes(1, 3, budget)
        if prev_max is not None:
            assert rep.max_density >= prev_max
            assert rep.min_density <= prev_min
        prev_max, prev_min = rep.max_density, rep.min_density


@pytest.mark.parametrize("workers", [1, 2])
def test_results_file_roundtrip_and_resume(tmp_path, monkeypatch, workers):
    # 9 families, and 7 left to solve after the truncation: chunks of 4
    # send both runs through the pool at workers=2.
    monkeypatch.setattr(shippierce.search, "POOL_CHUNKSIZE", 4)
    out = tmp_path / "results.txt"
    rep1 = compute_extremes(2, 2, 6, results_path=out, workers=workers)
    first = out.read_text()
    assert f"max {rep1.max_density} witness {rep1.max_witness}" in first  # 2/3 formats identically
    assert first.splitlines()[0].split("\t")[0] == "0,1;0,2"

    # truncate to simulate an interrupted run; the rerun must reuse
    # surviving lines and produce a byte-identical file
    lines = first.splitlines()
    out.write_text("\n".join(lines[:2]) + "\n")
    rep2 = compute_extremes(2, 2, 6, results_path=out, workers=workers)
    assert rep2 == rep1
    assert out.read_text() == first


def test_invalid_cached_lines_are_solved_again(tmp_path):
    clean = tmp_path / "clean.txt"
    rep_clean = compute_extremes(2, 2, 6, results_path=clean)
    seeded = tmp_path / "seeded.txt"
    # 1/0 used to crash the sweep, and 7/3 was reused as the maximum.
    # 2/4 is not reduced, 0/1 lies below 1/k, and the rerun appends to
    # a last line cut off without its newline.
    seeded.write_text(
        "0,1;0,2\t1/0\n0,1;0,3\t7/3\n0,1;0,4\t2/4\n0,1;0,5\t0/1\n0,2;0,3\t1/"
    )
    assert compute_extremes(2, 2, 6, results_path=seeded) == rep_clean
    assert seeded.read_bytes() == clean.read_bytes()

    # A kill while "1/10" is written can leave "1/1", a valid density
    # for 10-cell ships; without its newline the line is not trusted.
    cut = tmp_path / "cut.txt"
    cut.write_text("0,1,2,3,4,5,6,7,8,9\t1/1")
    assert compute_extremes(1, 10, 10, results_path=cut).max_density == Fraction(1, 10)


def test_repeated_invalid_densities_are_each_solved_again(tmp_path, monkeypatch):
    clean = tmp_path / "clean.txt"
    rep_clean = compute_extremes(2, 3, 7, results_path=clean)
    lines = clean.read_text().splitlines()[:rep_clean.families_examined]
    # The commonest density stays valid on its lines; 2/4 (not reduced)
    # and 7/3 (above 1) each replace it on several others.
    common, _ = Counter(line.split("\t")[1] for line in lines).most_common(1)[0]
    seeded_lines, kept, bad = [], set(), set()
    for i, line in enumerate(lines):
        text, frac = line.split("\t")
        if frac == common and i % 3 == 0:
            kept.add(text)
        else:
            frac = "2/4" if i % 2 else "7/3"
            bad.add(text)
        seeded_lines.append(f"{text}\t{frac}")
    assert len(kept) >= 3 and len(bad) >= 6
    seeded = tmp_path / "seeded.txt"
    seeded.write_text("\n".join(seeded_lines) + "\n")

    real = shippierce.search.exact_density
    solved = []

    def recording(f, span_cap):
        solved.append(str(f))
        return real(f, span_cap=span_cap)

    monkeypatch.setattr(shippierce.search, "exact_density", recording)
    assert compute_extremes(2, 3, 7, results_path=seeded) == rep_clean
    assert sorted(solved) == sorted(bad)
    assert seeded.read_bytes() == clean.read_bytes()


def test_tie_across_cached_and_solved_lines_keeps_first_achiever(tmp_path, monkeypatch):
    clean = tmp_path / "clean.txt"
    rep_clean = compute_extremes(2, 3, 7, results_path=clean)
    lines = clean.read_text().splitlines()[:rep_clean.families_examined]
    top = f"{rep_clean.max_density.numerator}/{rep_clean.max_density.denominator}"
    achievers = [line.split("\t")[0] for line in lines if line.endswith("\t" + top)]
    assert achievers[0] == str(rep_clean.max_witness) and len(achievers) >= 2
    # The first achiever is solved again and appended after the later
    # ones, which stay cached; it must still be the witness.
    seeded = tmp_path / "seeded.txt"
    kept = [line for line in lines if not line.startswith(achievers[0] + "\t")]
    seeded.write_text("".join(line + "\n" for line in kept))

    real = shippierce.search.exact_density
    solved = []

    def recording(f, span_cap):
        solved.append(str(f))
        return real(f, span_cap=span_cap)

    monkeypatch.setattr(shippierce.search, "exact_density", recording)
    assert compute_extremes(2, 3, 7, results_path=seeded) == rep_clean
    assert solved == [achievers[0]]
    assert seeded.read_bytes() == clean.read_bytes()


def test_density_one_is_written_as_p_over_q(tmp_path, monkeypatch):
    # One-cell ships need every cell pierced; 1 must be written "1/1"
    # for the line to be reused.
    out = tmp_path / "results.txt"
    compute_extremes(1, 1, 3, results_path=out)
    assert out.read_text().splitlines()[0] == "0\t1/1"
    monkeypatch.setattr(shippierce.search, "exact_density", None)
    assert compute_extremes(1, 1, 3, results_path=out).max_density == 1


def test_failed_sweep_keeps_finished_lines(tmp_path, monkeypatch):
    out = tmp_path / "results.txt"
    texts = [str(f) for f in enumerate_families(2, 3, 7)]
    real = shippierce.search.exact_density
    calls = 0

    def failing(f, span_cap):
        nonlocal calls
        calls += 1
        if calls == 20:
            raise RuntimeError("solver died")
        return real(f, span_cap=span_cap)

    monkeypatch.setattr(shippierce.search, "exact_density", failing)
    with pytest.raises(RuntimeError):
        compute_extremes(2, 3, 7, results_path=out, checkpoint_every=7)
    kept = [line.split("\t")[0] for line in out.read_text().splitlines()]
    assert kept == texts[:19]

    monkeypatch.setattr(shippierce.search, "exact_density", real)
    clean = tmp_path / "clean.txt"
    assert compute_extremes(2, 3, 7, results_path=out) == compute_extremes(
        2, 3, 7, results_path=clean
    )
    assert out.read_bytes() == clean.read_bytes()


def test_failed_rewrite_keeps_appended_lines(tmp_path, monkeypatch):
    clean = tmp_path / "clean.txt"
    rep_clean = compute_extremes(2, 3, 7, results_path=clean)
    solved_lines = clean.read_text().splitlines()[:rep_clean.families_examined]

    def failing(src, dst):
        raise OSError("disk full")

    out = tmp_path / "results.txt"
    with monkeypatch.context() as m:
        m.setattr(os, "replace", failing)
        with pytest.raises(OSError, match="disk full"):
            compute_extremes(2, 3, 7, results_path=out)
    assert out.read_text().splitlines() == solved_lines
    assert sorted(p.name for p in tmp_path.iterdir()) == ["clean.txt", "results.txt"]

    assert compute_extremes(2, 3, 7, results_path=out) == rep_clean
    assert out.read_bytes() == clean.read_bytes()


def test_append_after_a_cut_line_keeps_every_family(tmp_path, monkeypatch):
    clean = tmp_path / "clean.txt"
    rep = compute_extremes(2, 2, 6, results_path=clean)
    lines = clean.read_text().splitlines()[:rep.families_examined]
    assert len(lines) == 9
    # A kill cut the third line two characters short, and the rerun is
    # killed before its final rewrite.  The first appended line must not
    # be glued onto the fragment, so all 9 families reload.
    out = tmp_path / "results.txt"
    out.write_text("\n".join(lines[:3])[:-2])

    def no_rewrite(*args):
        raise RuntimeError("killed before the final rewrite")

    with monkeypatch.context() as m:
        m.setattr(shippierce.search, "_write_results", no_rewrite)
        with pytest.raises(RuntimeError):
            compute_extremes(2, 2, 6, results_path=out)
    monkeypatch.setattr(shippierce.search, "exact_density", None)
    assert compute_extremes(2, 2, 6, results_path=out) == rep
    assert out.read_bytes() == clean.read_bytes()


@pytest.mark.parametrize("workers", [1, 2])
def test_lines_are_appended_in_enumeration_order(tmp_path, monkeypatch, workers):
    # 55 families in chunks of 8 reach the pool at workers=2.
    monkeypatch.setattr(shippierce.search, "POOL_CHUNKSIZE", 8)

    def no_rewrite(*args):
        raise RuntimeError("killed before the final rewrite")

    monkeypatch.setattr(shippierce.search, "_write_results", no_rewrite)
    out = tmp_path / "results.txt"
    with pytest.raises(RuntimeError):
        compute_extremes(2, 3, 7, results_path=out, workers=workers)
    kept = [line.split("\t")[0] for line in out.read_text().splitlines()]
    expected = [str(f) for f in enumerate_families(2, 3, 7)]
    if workers > 1:
        # Chunks are cut in span order, largest first, and in enumeration
        # order within a span.
        expected.sort(key=lambda t: parse_family(t).span, reverse=True)
    assert kept == expected


@pytest.mark.parametrize("n, k, budget", [(2, 2, 7), (2, 3, 7)])
def test_workers_give_byte_identical_results(tmp_path, monkeypatch, n, k, budget):
    # 11 and 55 families in chunks of 8 reach the pool at workers=2.
    monkeypatch.setattr(shippierce.search, "POOL_CHUNKSIZE", 8)
    seq = tmp_path / "seq.txt"
    par = tmp_path / "par.txt"
    rep_seq = compute_extremes(n, k, budget, results_path=seq, workers=1)
    rep_par = compute_extremes(n, k, budget, results_path=par, workers=2)
    assert rep_seq == rep_par
    assert seq.read_text() == par.read_text()


GOLDEN_RESULTS = Path(__file__).resolve().parents[1] / "perfbench" / "golden" / "results"


@pytest.mark.parametrize("n, k, budget", [(2, 2, 9), (2, 3, 9), (2, 4, 9), (3, 2, 8), (3, 3, 8)])
def test_pool_batches_match_golden_results(tmp_path, monkeypatch, n, k, budget):
    # Pool workers solve same-span families as one batch; their results
    # files must equal those the one-family-at-a-time solver wrote.
    # Chunks of 8 put all five types (21 families and up) in the pool.
    monkeypatch.setattr(shippierce.search, "POOL_CHUNKSIZE", 8)
    name = f"type_n{n}_k{k}_span{budget}.txt"
    compute_extremes(n, k, budget, results_path=tmp_path / name, workers=2)
    assert (tmp_path / name).read_bytes() == (GOLDEN_RESULTS / name).read_bytes()


@pytest.mark.parametrize("workers", [1, 2])
def test_golden_table_resumes_without_solving(tmp_path, monkeypatch, workers):
    def no_solve(*args, **kwargs):
        raise AssertionError("a cached family was solved again")

    def no_rewrite(src, dst):
        raise AssertionError("a canonical file was rewritten")

    monkeypatch.setattr(shippierce.search, "exact_density", no_solve)
    monkeypatch.setattr(shippierce.search, "_densities", no_solve)
    monkeypatch.setattr(os, "replace", no_rewrite)
    goldens = sorted(GOLDEN_RESULTS.glob("type_*.txt"))
    assert len(goldens) == 15
    for golden in goldens:
        name = re.fullmatch(r"type_n(\d+)_k(\d+)_span(\d+)\.txt", golden.name)
        n, k, budget = map(int, name.groups())
        path = tmp_path / golden.name
        path.write_bytes(golden.read_bytes())
        report = compute_extremes(n, k, budget, results_path=path, workers=workers)
        assert path.read_bytes() == golden.read_bytes(), golden.name
        expected = [
            ("max", report.max_density, report.max_witness),
            ("min", report.min_density, report.min_witness),
        ]
        for line, (tag, density, witness) in zip(golden.read_text().splitlines()[-2:], expected):
            _, got_tag, frac, _, text = line.split(" ")
            got = (got_tag, Fraction(frac), parse_family(text))
            assert got == (tag, density, witness), golden.name


def record_pool_sizes(monkeypatch) -> list:
    sizes = []

    class RecordingPool(ProcessPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            sizes.append(max_workers)
            super().__init__(max_workers=max_workers, **kwargs)

    # compute_extremes imports the pool class only when it starts a pool.
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", RecordingPool)
    return sizes


def test_one_chunk_starts_no_pool(monkeypatch):
    sizes = record_pool_sizes(monkeypatch)
    report = compute_extremes(2, 2, 7, workers=4)
    assert report.families_examined == 11  # one chunk of POOL_CHUNKSIZE
    assert report == compute_extremes(2, 2, 7, workers=1)
    assert sizes == []


def test_one_chunk_is_solved_as_one_batch(tmp_path, monkeypatch):
    # At workers=2, the 21 families of (2,2,9) fill one chunk: they are
    # solved in one batch in this process, not one family at a time.
    calls = []
    real = shippierce.search._densities

    def batch(texts, span_cap):
        calls.append(len(texts))
        return real(texts, span_cap)

    def no_single(*args, **kwargs):
        raise AssertionError("a family was solved on its own")

    monkeypatch.setattr(shippierce.search, "_densities", batch)
    monkeypatch.setattr(shippierce.search, "exact_density", no_single)
    name = "type_n2_k2_span9.txt"
    report = compute_extremes(2, 2, 9, results_path=tmp_path / name, workers=2)
    assert calls == [report.families_examined]
    assert (tmp_path / name).read_bytes() == (GOLDEN_RESULTS / name).read_bytes()


def test_chunk_families_equal_parsed_families(monkeypatch):
    # _densities parses each distinct ship text of a chunk once; the
    # families it hands to exact_densities are those parse_family gives.
    seen = []
    monkeypatch.setattr(shippierce.search, "exact_densities", lambda fs, span_cap: seen.extend(fs) or [])
    texts = list(enumerate_families(3, 3, 7)) + ["0,2;0,1", "0,1,3;0,1,3;0,1,3"]
    shippierce.search._densities(texts, 7)
    assert seen == [parse_family(t) for t in texts]


def test_pool_gets_no_more_workers_than_chunks(monkeypatch):
    sizes = record_pool_sizes(monkeypatch)
    monkeypatch.setattr(shippierce.search, "POOL_CHUNKSIZE", 64)
    report = compute_extremes(2, 3, 9, workers=4)
    assert report.families_examined == 189  # three chunks of 64
    assert report == compute_extremes(2, 3, 9, workers=1)
    assert sizes == [3]


@pytest.mark.parametrize("workers", [0, -3])
def test_workers_below_one_are_refused(workers):
    with pytest.raises(ValueError, match="workers must be at least 1"):
        compute_extremes(2, 2, 6, workers=workers)


@pytest.mark.parametrize("workers", [1, 2])
def test_over_guard_sweep_is_refused_before_any_solve(tmp_path, monkeypatch, workers):
    # With room for span 8 only, (2, 2, 9) holds families of spans 3 to 9:
    # the span-9 ones are refused before any family is solved or the
    # results file is opened.
    from shippierce import solver

    def no_solve(*args, **kwargs):
        raise AssertionError("solved before the memory guard")

    monkeypatch.setattr(solver, "MEMORY_GUARD_BYTES", (1 << 8) * solver.BYTES_PER_WINDOW)
    monkeypatch.setattr(shippierce.search, "exact_density", no_solve)
    monkeypatch.setattr(shippierce.search, "exact_densities", no_solve)
    out = tmp_path / "results.txt"
    with pytest.raises(solver.MemoryGuardError, match="solving span 9 needs"):
        compute_extremes(2, 2, 9, workers=workers, results_path=out)
    assert not out.exists()


def guard_room_for_span_8(monkeypatch):
    from shippierce import solver

    monkeypatch.setattr(solver, "MEMORY_GUARD_BYTES", (1 << 8) * solver.BYTES_PER_WINDOW)


@pytest.mark.parametrize("workers", [1, 2])
def test_over_guard_sweep_runs_when_its_large_spans_are_cached(tmp_path, monkeypatch, workers):
    # The guard looks only at the families left to solve: with every
    # span-9 family of (2, 2, 9) in the results file, the spans 3 to 8
    # left fit, and the sweep gives a clean run's file.
    clean = tmp_path / "clean.txt"
    rep_clean = compute_extremes(2, 2, 9, results_path=clean)
    cached = [
        line for line in clean.read_text().splitlines(keepends=True)
        if "\t" in line and parse_family(line.partition("\t")[0]).span == 9
    ]
    assert len(cached) == 4  # 0,a;0,8 for odd a: the even ones have gcd 2
    out = tmp_path / "results.txt"
    out.write_text("".join(cached))
    guard_room_for_span_8(monkeypatch)
    assert compute_extremes(2, 2, 9, workers=workers, results_path=out) == rep_clean
    assert out.read_text() == clean.read_text()


@pytest.mark.parametrize("workers", [1, 2])
def test_over_guard_resume_of_a_complete_file_solves_nothing(tmp_path, monkeypatch, workers):
    # With nothing left to solve, neither the guard nor a solver is
    # reached, and the complete file is left as it is.
    out = tmp_path / "results.txt"
    rep = compute_extremes(2, 2, 9, results_path=out)
    before = out.read_text()

    def no_solve(*args, **kwargs):
        raise AssertionError("solved a cached family")

    guard_room_for_span_8(monkeypatch)
    monkeypatch.setattr(shippierce.search, "exact_density", no_solve)
    monkeypatch.setattr(shippierce.search, "exact_densities", no_solve)
    assert compute_extremes(2, 2, 9, workers=workers, results_path=out) == rep
    assert out.read_text() == before


def test_budget_must_fit_cap():
    with pytest.raises(ValueError):
        compute_extremes(1, 3, 12, span_cap=10)


def test_mirror_triples_report():
    rep = check_mirror_triples()
    assert len(rep.rows) == 10
    assert rep.all_below_bound and rep.extremes_as_expected
    by_pair = {(r.a, r.b): r for r in rep.rows}
    assert by_pair[(2, 1)].density == Fraction(2, 5)
    assert by_pair[(3, 1)].density == Fraction(2, 5)
    assert by_pair[(4, 2)].density == Fraction(2, 5)  # scaled copy of (2,1)
    assert by_pair[(4, 2)].reduced == (2, 1)
    assert by_pair[(5, 2)].density < Fraction(2, 5)
    assert by_pair[(2, 1)].family == parse_family("0,2,3;0,1,3")
