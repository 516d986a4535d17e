import json
import time
from pathlib import Path

import pytest

from shippierce.cli import main
from shippierce.core import parse_family
from shippierce.solver import BYTES_PER_WINDOW, MEMORY_GUARD_BYTES, exact_density
from shippierce.verifier import parse_pattern_1d, verify_pattern_1d


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_density_plain_and_json_agree(capsys):
    code, out, _ = run(capsys, "density", "0,1,3")
    assert code == 0
    lines = dict(line.split(" ", 1) for line in out.strip().splitlines())
    assert lines["density"] == "2/5"
    assert lines["pattern"].startswith("5:")

    code, jout, _ = run(capsys, "density", "0,1,3", "--json")
    payload = json.loads(jout)
    assert payload["density"] == lines["density"]
    assert payload["pattern"] == lines["pattern"]
    assert payload["nodes"] == int(lines["nodes"])
    assert payload["cycle"] == int(lines["cycle"])


# `density --json` output of slow shapes at reduced spans 14 and 16,
# captured before the solver moved to the dense window graph, of the
# dense family at span 19, captured before the witness search dropped its
# predecessor lists, and of a span-17 family whose shortest optimal cycle
# (32) is longer than its window, captured before the witness search
# took one bounded search per root at lengths >= s.
SLOW_SHAPES = {
    family: out
    for name in ("density_span13_16.json", "density_span19.json", "density_span17.json")
    for family, out in json.loads((Path(__file__).parent / "data" / name).read_text()).items()
}


@pytest.mark.parametrize("family", SLOW_SHAPES)
def test_density_pinned_on_slow_shapes(capsys, family):
    assert run(capsys, "density", family, "--json") == (0, SLOW_SHAPES[family], "")


def test_density_examples(capsys):
    assert run(capsys, "density", "0")[1].splitlines()[0] == "density 1/1"
    assert "density 3/5" in run(capsys, "density", "0,1;0,2,4")[1]


def test_density_round_trips_through_verify(capsys):
    for fam in ["0,1,3", "0,2;0,3", "0,1;0,2,4", "0,2,5;0,3,5"]:
        _, out, _ = run(capsys, "density", fam)
        pattern = dict(l.split(" ", 1) for l in out.strip().splitlines())["pattern"]
        code, _, _ = run(capsys, "verify", "--pattern", pattern, fam)
        assert code == 0


def test_verify_exit_codes(capsys):
    assert run(capsys, "verify", "--pattern", "2:0", "0,1")[0] == 0
    code, out, _ = run(capsys, "verify", "--pattern", "2:0", "0,2")
    assert code == 1
    assert "miss ship 0 offset 1" in out


def test_verify_2d(capsys):
    f180 = "(0,0),(0,1),(1,0);(0,0),(1,-1),(1,0)"
    code, out, _ = run(
        capsys, "verify", "--2d", "--pattern", "3,3:(0,0),(1,1),(2,2)", f180
    )
    assert (code, out.strip()) == (0, "ok")
    f90 = "(0,0),(0,1),(1,0);(0,0),(1,0),(1,1)"
    code, out, _ = run(
        capsys, "verify", "--2d", "--pattern", "3,3:(0,0),(1,1),(2,2)", f90
    )
    assert code == 1 and out.startswith("miss ship")


def test_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "density", "0,x")
    assert code == 2 and "error" in err
    code, _, err = run(capsys, "verify", "--pattern", "junk", "0,1")
    assert code == 2


def test_span_cap_exit_code_and_message(capsys):
    code, _, err = run(capsys, "density", "0,1,40", "--span-cap", "20")
    assert code == 3
    assert "41" in err  # required span reported


def test_memory_guard_refuses_span_24(capsys):
    # The first span whose estimate exceeds the guard; span 23 fits.
    assert (1 << 23) * BYTES_PER_WINDOW <= MEMORY_GUARD_BYTES
    code, out, err = run(capsys, "density", "0,1,23", "--span-cap", "24")
    assert (code, out) == (3, "")
    assert err.startswith("refused: solving span 24 needs ~")


def test_large_offset_gcd_finishes_at_once(capsys):
    # density scales its optimal pattern by the offset gcd, and refuses a
    # pattern the memory guard cannot hold before building it;
    # formula mirror3-2d solves on the batch entry point, which certifies
    # on the reduced family.  Both once ran out of memory or time.
    start = time.perf_counter()
    code, out, err = run(capsys, "density", "0,99999999999999999999")
    assert (code, out) == (3, "")
    assert err.startswith("refused: scaling the optimal pattern of period 2 by 99999999999999999999 needs ~")
    assert run(capsys, "formula", "mirror3-2d", "--u", "30000000,0", "--v", "60000000,0") == (0, "1/3\n", "")
    assert run(capsys, "formula", "mirror3-2d", "--u", "3,0", "--v", "6,0") == (0, "1/3\n", "")
    assert time.perf_counter() - start < 5


def test_verify_of_a_huge_period_finishes_at_once_in_bounded_memory():
    # A console-script run under a 1.5 GB address-space limit: a set of
    # all 10^9 anchors of the period once raised MemoryError here.
    # OpenBLAS reserves address space per thread when numpy is imported,
    # so one thread keeps the limit about verify on many-core machines.
    import os
    import resource
    import subprocess
    import sys

    limit = 1_500_000 * 1024
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src"), "OPENBLAS_NUM_THREADS": "1"}
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from shippierce.cli import main; sys.exit(main())",
         "verify", "--pattern", "1000000000:0", "0,1"],
        env=env, capture_output=True, text=True, timeout=60,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "miss ship 0 offset 1\n", "")
    assert time.perf_counter() - start < 5


def test_span_cap_env_default(capsys, monkeypatch):
    monkeypatch.setenv("SHIPPIERCE_SPAN_CAP", "5")
    code, _, err = run(capsys, "density", "0,1,9")
    assert code == 3
    monkeypatch.setenv("SHIPPIERCE_SPAN_CAP", "12")
    assert run(capsys, "density", "0,1,9")[0] == 0


def test_span_cap_env_ignored_without_span_cap_option(capsys, monkeypatch):
    monkeypatch.delenv("SHIPPIERCE_SPAN_CAP", raising=False)
    commands = [
        ("verify", "--pattern", "2:0", "0,1"),
        ("bounds", "--n", "3", "--k", "2"),
        ("construct", "ref", "evens"),
    ]
    expected = [run(capsys, *argv) for argv in commands]
    assert all(code == 0 and out and not err for code, out, err in expected)
    monkeypatch.setenv("SHIPPIERCE_SPAN_CAP", "x")
    assert [run(capsys, *argv) for argv in commands] == expected
    code, _, err = run(capsys, "density", "0,1,9")
    assert code == 2 and err == "error: bad SHIPPIERCE_SPAN_CAP value 'x'\n"


def test_family_file_argument(capsys, tmp_path):
    p = tmp_path / "fam.txt"
    p.write_text("0,1\n0,2,4\n")
    code, out, _ = run(capsys, "density", f"@{p}")
    assert code == 0 and "density 3/5" in out


# An unreadable @path or an unwritable --out is an input error (exit 2),
# not a failed verification (exit 1) or a traceback.
@pytest.mark.parametrize(
    "argv, path",
    [
        (("verify", "--pattern", "5:0,4", "@{}"), "missing.txt"),
        (("density", "@{}"), "missing.txt"),
        (("density", "@{}"), ""),  # a directory
        (("search", "--n", "2", "--k", "2", "--max-span", "6", "--out", "{}"), "no/such/r.txt"),
    ],
    ids=["verify-missing", "density-missing", "density-directory", "search-out"],
)
def test_file_errors_are_input_errors(capsys, tmp_path, argv, path):
    target = str(tmp_path / path)
    code, out, err = run(capsys, *(arg.format(target) for arg in argv))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and target in err


def test_search_command(capsys, tmp_path):
    out_file = tmp_path / "res.txt"
    code, out, _ = run(
        capsys, "search", "--n", "2", "--k", "2", "--max-span", "9",
        "--out", str(out_file),
    )
    assert code == 0
    assert "max 2/3 witness 0,1;0,2" in out
    assert out_file.exists() and "# summary" in out_file.read_text()
    summary = out_file.read_text().splitlines()[-3:]
    assert out.splitlines() == [line.removeprefix("# ") for line in summary]

    code, jout, _ = run(
        capsys, "search", "--n", "2", "--k", "2", "--max-span", "9", "--json"
    )
    payload = json.loads(jout)
    assert payload["max"] == "2/3" and payload["max_witness"] == "0,1;0,2"


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_search_refuses_workers_below_one(capsys, workers):
    code, out, err = run(
        capsys, "search", "--n", "2", "--k", "2", "--max-span", "6", "--workers", workers
    )
    assert (code, out, err) == (2, "", "error: workers must be at least 1\n")


def test_mirror_triples_command(capsys):
    code, out, _ = run(capsys, "mirror-triples")
    assert code == 0
    assert "all_below_2/5 true" in out
    assert "extremes_as_expected true" in out


# mirror-triples and formula mirror3-2d solve on the batch entry point;
# their refusals were captured when both still solved one family at a
# time with exact_density.
@pytest.mark.parametrize("argv, reason", [
    (
        ["mirror-triples", "--span-cap", "5"],
        "family requires window length 6, above the span cap 5; rerun with span_cap >= 6",
    ),
    (
        ["formula", "mirror3-2d", "--u", "2,0", "--v", "30,0", "--span-cap", "15"],
        "family requires window length 16, above the span cap 15; rerun with span_cap >= 16",
    ),
    (
        ["formula", "mirror3-2d", "--u", "1,0", "--v", "24,0", "--span-cap", "30"],
        "solving span 25 needs ~8589934592 bytes, above the guard of 2147483648",
    ),
])
def test_density_only_commands_refuse(capsys, argv, reason):
    assert run(capsys, *argv) == (3, "", f"refused: {reason}\n")


@pytest.mark.parametrize("argv, message", [
    (["formula", "toughest2", "--n", "0"], "need n >= 1"),
    (["bounds", "--n", "0", "--k", "2"], "need n >= 1"),
    (["formula", "easiest", "--n", "0", "--k", "2"], "need n, k >= 1"),
    (["construct", "easiest", "--n", "0", "--k", "2"], "need n, k >= 1"),
    (
        ["search", "--n", "3", "--k", "2", "--max-span", "3"],
        "no families of 3 distinct 2-cell ships with span <= 3",
    ),
    (["search", "--n", "0", "--k", "2", "--max-span", "5"], "need n >= 1, k >= 1, span_budget >= k"),
    (["search", "--n", "2", "--k", "5", "--max-span", "3"], "need n >= 1, k >= 1, span_budget >= k"),
    (["verify", "--2d", "--pattern", "0,3:(0,0)", "(0,0),(1,0)"], "periods must be positive"),
    (["bounds", "--n", "1" + "0" * 400, "--k", "2"], "int too large to convert to float"),
    (["bounds", "--n", "2", "--k", "1" + "0" * 400], "int too large to convert to float"),
    (["construct", "greedy", "--gaps", "1,9", "--horizon", "0"], "need horizon >= 1"),
    (["construct", "greedy", "--gaps", "1,9", "--horizon", "-1"], "need horizon >= 1"),
    (
        ["construct", "greedy", "--gaps", ""],
        "bad --gaps value ''; expected comma-separated integers",
    ),
    (
        ["construct", "greedy", "--gaps", "1,,2"],
        "bad --gaps value '1,,2'; expected comma-separated integers",
    ),
])
def test_bad_arguments_are_input_errors(capsys, argv, message):
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


def test_formula_commands(capsys):
    assert run(capsys, "formula", "pair22", "0,2;0,3")[1].strip() == "3/5"
    assert run(capsys, "formula", "pair22", "0,3;0,3")[1].strip() == "1/2"
    assert run(capsys, "formula", "toughest2", "--n", "5")[1].strip() == "5/6"
    assert run(capsys, "formula", "easiest", "--n", "3", "--k", "4")[1].strip() == "1/4"
    assert run(capsys, "formula", "pair22-2d", "--u", "1,0", "--v", "0,1")[1].strip() == "1/2"
    # A vector with a leading minus sign must be glued to its option with
    # '=': argparse reads a separate "-1,0" as an option.
    assert run(capsys, "formula", "pair22-2d", "--u=-1,0", "--v", "0,1")[1].strip() == "1/2"
    assert run(capsys, "formula", "mirror3-2d", "--u", "2,0", "--v", "3,0")[1].strip() == "2/5"
    assert run(capsys, "formula", "pair22", "0,1,2;0,1")[0] == 2
    code, out, err = run(capsys, "formula", "pair22", "0,1;0,2;0,3")
    assert (code, out, err) == (2, "", "error: pair22 needs exactly two ships\n")


def test_bounds_command(capsys):
    code, out, _ = run(capsys, "bounds", "--n", "3", "--k", "2")
    assert code == 0
    assert "upper 3/4" in out
    code, jout, _ = run(capsys, "bounds", "--n", "3", "--k", "2", "--json")
    payload = json.loads(jout)
    assert payload["upper"] == 0.75 and payload["upper_rational_part"] == "3/4"
    assert "(vacuous)" in run(capsys, "bounds", "--n", "1", "--k", "3")[1]


def test_construct_commands(capsys):
    code, out, _ = run(capsys, "construct", "slab", "--a", "6", "--b", "1")
    assert code == 0 and "density 7/18" in out
    pattern_line = [l for l in out.splitlines() if l.startswith("pattern ")][0]
    pattern = parse_pattern_1d(pattern_line.split(" ", 1)[1])
    fam = parse_family("0,6,7;0,1,7")
    assert verify_pattern_1d(pattern, fam) is None

    code, out, _ = run(capsys, "construct", "greedy", "--gaps", "1,2")
    assert code == 0 and "density 2/3" in out

    code, out, _ = run(capsys, "construct", "easiest", "--n", "2", "--k", "2")
    assert code == 0 and "family 0,1;0,3" in out and "pattern 2:0" in out

    code, out, _ = run(capsys, "construct", "ref", "evens")
    assert code == 0 and "pattern 2:0" in out and "density 1/2" in out
    assert run(capsys, "construct", "ref", "diag3")[0] == 0
    assert run(capsys, "construct", "ref", "mystery")[0] == 2


@pytest.mark.parametrize("horizon", ["3"])
def test_construct_greedy_short_horizon_is_an_input_error(capsys, horizon):
    code, out, err = run(
        capsys, "construct", "greedy", "--gaps", "1,9", "--horizon", horizon
    )
    assert (code, out) == (2, "")
    assert err == f"error: no cycle within horizon {horizon}; increase the horizon\n"
