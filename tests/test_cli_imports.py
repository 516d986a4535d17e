"""Each command imports only the modules it runs.

These tests start fresh interpreters.  The pytest process has already
imported every shippierce module, so in it every module looks loaded,
and a command that reaches a module it never imports itself still finds
it in sys.modules.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from shippierce.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"

# Modules that `density` never runs: the commands that do import them.
LAZY = [
    "shippierce.search",
    "shippierce.closed_forms",
    "shippierce.constructions",
    "concurrent.futures",
    "multiprocessing",
]

# After `import shippierce.cli`, and again after main(argv): which of
# LAZY are loaded, one JSON list per line, around the command's output.
PROBE = f"""
import json, sys
import shippierce.cli
report = lambda: print(json.dumps([m for m in {LAZY!r} if m in sys.modules]))
report()
shippierce.cli.main(sys.argv[1:])
report()
"""

# What the `shippierce` console script runs.
CONSOLE = "import sys; from shippierce.cli import main; sys.exit(main())"


def fresh_python(code, argv):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    env.pop("SHIPPIERCE_SPAN_CAP", None)
    return subprocess.run(
        [sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True, timeout=120
    )


def loaded_around(argv):
    proc = fresh_python(PROBE, argv)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return json.loads(lines[0]), json.loads(lines[-1])


def test_density_loads_no_search_closed_forms_constructions_or_pool():
    assert loaded_around(["density", "0,1,3", "--json"]) == ([], [])


def test_one_worker_search_loads_search_but_no_pool():
    # Only check_mirror_triples builds slab families, so a sweep never
    # loads constructions.
    after_import, after_run = loaded_around(["search", "--n", "2", "--k", "2", "--max-span", "5"])
    assert after_import == []
    assert "shippierce.search" in after_run
    assert "multiprocessing" not in after_run
    assert "shippierce.constructions" not in after_run


LEAVES = [
    ["density", "0,1,3", "--json"],
    ["verify", "--pattern", "5:0,4", "0,1,3"],
    ["verify", "--2d", "--pattern", "3,3:(0,0),(1,1),(2,2)", "(0,0),(0,1),(1,0);(0,0),(1,0),(1,1)"],
    ["search", "--n", "2", "--k", "2", "--max-span", "5", "--json"],
    ["mirror-triples"],
    ["formula", "pair22", "0,2;0,3"],
    ["formula", "toughest2", "--n", "5"],
    ["formula", "easiest", "--n", "3", "--k", "4"],
    ["formula", "pair22-2d", "--u=-1,0", "--v", "0,1"],
    ["formula", "mirror3-2d", "--u", "2,0", "--v", "3,0"],
    ["bounds", "--n", "2", "--k", "2"],
    ["construct", "greedy", "--gaps", "1,2"],
    ["construct", "slab", "--a", "2", "--b", "1"],
    ["construct", "easiest", "--n", "3", "--k", "4", "--json"],
    ["construct", "ref", "skip", "--n", "3"],
    ["construct", "ref", "mystery"],
]


@pytest.mark.parametrize("argv", LEAVES, ids=" ".join)
def test_console_script_matches_main(argv, capsys, monkeypatch):
    monkeypatch.delenv("SHIPPIERCE_SPAN_CAP", raising=False)
    code = main(argv)
    out = capsys.readouterr()
    proc = fresh_python(CONSOLE, argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out.out, out.err)
