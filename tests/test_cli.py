import json

import pytest

from shippierce.cli import main
from shippierce.core import parse_family
from shippierce.solver import exact_density
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


def test_span_cap_env_default(capsys, monkeypatch):
    monkeypatch.setenv("SHIPPIERCE_SPAN_CAP", "5")
    code, _, err = run(capsys, "density", "0,1,9")
    assert code == 3
    monkeypatch.setenv("SHIPPIERCE_SPAN_CAP", "12")
    assert run(capsys, "density", "0,1,9")[0] == 0


def test_family_file_argument(capsys, tmp_path):
    p = tmp_path / "fam.txt"
    p.write_text("0,1\n0,2,4\n")
    code, out, _ = run(capsys, "density", f"@{p}")
    assert code == 0 and "density 3/5" in out


def test_search_command(capsys, tmp_path):
    out_file = tmp_path / "res.txt"
    code, out, _ = run(
        capsys, "search", "--n", "2", "--k", "2", "--max-span", "9",
        "--out", str(out_file),
    )
    assert code == 0
    assert "max 2/3 witness 0,1;0,2" in out
    assert out_file.exists() and "# summary" in out_file.read_text()

    code, jout, _ = run(
        capsys, "search", "--n", "2", "--k", "2", "--max-span", "9", "--json"
    )
    payload = json.loads(jout)
    assert payload["max"] == "2/3" and payload["max_witness"] == "0,1;0,2"


def test_search_refuses_checkpoint_every_below_one(capsys, tmp_path):
    code, _, err = run(
        capsys, "search", "--n", "2", "--k", "2", "--max-span", "6",
        "--out", str(tmp_path / "res.txt"), "--checkpoint-every", "0",
    )
    assert code == 2
    assert err.startswith("error:") and "checkpoint_every" in err


def test_mirror_triples_command(capsys):
    code, out, _ = run(capsys, "mirror-triples")
    assert code == 0
    assert "all_below_2/5 true" in out
    assert "extremes_as_expected true" in out


def test_formula_commands(capsys):
    assert run(capsys, "formula", "pair22", "0,2;0,3")[1].strip() == "3/5"
    assert run(capsys, "formula", "pair22", "0,3;0,3")[1].strip() == "1/2"
    assert run(capsys, "formula", "toughest2", "--n", "5")[1].strip() == "5/6"
    assert run(capsys, "formula", "easiest", "--n", "3", "--k", "4")[1].strip() == "1/4"
    assert run(capsys, "formula", "pair22-2d", "--u", "1,0", "--v", "0,1")[1].strip() == "1/2"
    assert run(capsys, "formula", "mirror3-2d", "--u", "2,0", "--v", "3,0")[1].strip() == "2/5"
    assert run(capsys, "formula", "pair22", "0,1,2;0,1")[0] == 2


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
