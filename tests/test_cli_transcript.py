"""Byte-for-byte CLI transcript: stdout, stderr and exit code of `main()`.

The expected data in data/cli_transcript.json was captured from the CLI
while each command still built its plain-text and --json output
separately.  It covers the README examples, every subcommand in plain
text and --json, exits 1, 2 and 3, usage errors and the --help of every
parser and leaf.  argparse wraps help and usage at COLUMNS, so it is
pinned to 80.
"""

import json
from pathlib import Path

import pytest

from shippierce.cli import main

CASES = json.loads((Path(__file__).parent / "data" / "cli_transcript.json").read_text())


def _case_id(case):
    env = [f"{name}={value}" for name, value in case["env"].items()]
    return " ".join(env + case["argv"]) or "(no arguments)"


@pytest.mark.parametrize("case", CASES, ids=[_case_id(c) for c in CASES])
def test_cli_transcript(case, capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)  # `search --out results.txt` writes here
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.delenv("SHIPPIERCE_SPAN_CAP", raising=False)
    for name, value in case["env"].items():
        monkeypatch.setenv(name, value)
    try:
        code = main(case["argv"])
    except SystemExit as exc:  # --help and usage errors
        code = exc.code
    out = capsys.readouterr()
    assert (out.out, out.err, code) == (case["stdout"], case["stderr"], case["code"])
