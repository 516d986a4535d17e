from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction
from pathlib import Path

import pytest

import shippierce.search
from shippierce.closed_forms import density_bounds
from shippierce.core import make_family, parse_family, reflect, scale_reduce
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
    for f in enumerate_families(2, 3, 7):
        assert not reflect(f) < f
        assert scale_reduce(f) == (f, 1)
        assert len(f.ships) == 2
        assert all(s.size == 3 and s.span <= 7 for s in f.ships)


def test_enumerate_is_deterministic_stream():
    a = list(enumerate_families(2, 3, 6))
    b = list(enumerate_families(2, 3, 6))
    assert a == b == sorted(a)


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
def test_results_file_roundtrip_and_resume(tmp_path, workers):
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


@pytest.mark.parametrize("workers", [1, 2])
def test_lines_are_appended_in_enumeration_order(tmp_path, monkeypatch, workers):
    def no_rewrite(*args):
        raise RuntimeError("killed before the final rewrite")

    monkeypatch.setattr(shippierce.search, "_write_results", no_rewrite)
    out = tmp_path / "results.txt"
    with pytest.raises(RuntimeError):
        compute_extremes(2, 3, 7, results_path=out, workers=workers)
    kept = [line.split("\t")[0] for line in out.read_text().splitlines()]
    assert kept == [str(f) for f in enumerate_families(2, 3, 7)]


@pytest.mark.parametrize("n, k, budget", [(2, 2, 7), (2, 3, 7)])
def test_workers_give_byte_identical_results(tmp_path, n, k, budget):
    seq = tmp_path / "seq.txt"
    par = tmp_path / "par.txt"
    rep_seq = compute_extremes(n, k, budget, results_path=seq, workers=1)
    rep_par = compute_extremes(n, k, budget, results_path=par, workers=2)
    assert rep_seq == rep_par
    assert seq.read_text() == par.read_text()


GOLDEN_RESULTS = Path(__file__).resolve().parents[1] / "perfbench" / "golden" / "results"


@pytest.mark.parametrize("n, k, budget", [(2, 2, 9), (2, 3, 9), (2, 4, 9), (3, 2, 8), (3, 3, 8)])
def test_pool_batches_match_golden_results(tmp_path, n, k, budget):
    # Pool workers solve same-span families as one batch; their results
    # files must equal those the one-family-at-a-time solver wrote.
    name = f"type_n{n}_k{k}_span{budget}.txt"
    compute_extremes(n, k, budget, results_path=tmp_path / name, workers=2)
    assert (tmp_path / name).read_bytes() == (GOLDEN_RESULTS / name).read_bytes()


def test_pool_gets_no_more_workers_than_chunks(monkeypatch):
    sizes = []

    class RecordingPool(ProcessPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            sizes.append(max_workers)
            super().__init__(max_workers=max_workers, **kwargs)

    monkeypatch.setattr(shippierce.search, "ProcessPoolExecutor", RecordingPool)
    report = compute_extremes(2, 2, 7, workers=4)
    assert report.families_examined == 11  # one chunk of POOL_CHUNKSIZE
    assert report == compute_extremes(2, 2, 7, workers=1)
    assert sizes == [1]


@pytest.mark.parametrize("workers", [0, -3])
def test_workers_below_one_are_refused(workers):
    with pytest.raises(ValueError, match="workers must be at least 1"):
        compute_extremes(2, 2, 6, workers=workers)


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
