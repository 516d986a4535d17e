"""The benchmark's workloads: sweep, ladder and resume.

Each workload is a list of operations.  An operation prepares its
input untimed, makes one timed call into shippierce's public API, and
is then checked byte for byte against the golden data in ``golden/``.
Why each workload exists is written up in README.md.
"""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import shippierce.cli
import shippierce.search

GOLDEN = Path(__file__).resolve().parent / "golden"

# Every type of the default scripts/run_search_table.py table.
TABLE_TYPES = [(n, k, 11 - n) for n in (1, 2, 3) for k in range(2, 7)]
SWEEP_TYPES = [(2, 2, 9), (2, 3, 9), (2, 4, 9), (3, 2, 8), (3, 3, 8)]
SWEEP_WORKERS = 2
# One family per rung is drawn from these.  All are 3-cell ships
# {0, a, span-1} with reduced span `span`, so all have 7/8 of the 2^span
# windows valid; and each rung's optimal cycles are as long as that of
# {0, 1, span-1}.  So the draw changes the family but not the work.
LADDER = {
    8: ["0,1,7", "0,6,7"],
    10: ["0,1,9", "0,8,9"],
    12: ["0,1,11", "0,4,11", "0,7,11", "0,10,11"],
}


def results_name(n: int, k: int, span: int) -> str:
    """File name scripts/run_search_table.py gives a type's results."""
    return f"type_n{n}_k{k}_span{span}.txt"


def ladder_families(seed: int) -> dict[int, str]:
    """One family per rung, drawn from the rung's candidates by seed."""
    rng = random.Random(seed)
    return {span: rng.choice(candidates) for span, candidates in LADDER.items()}


def first_mismatch(output: bytes, golden: bytes) -> str | None:
    """None if output equals golden, else where the first difference is."""
    if output == golden:
        return None
    out_lines = output.decode(errors="replace").splitlines()
    gold_lines = golden.decode(errors="replace").splitlines()
    for number, (got, want) in enumerate(zip(out_lines, gold_lines), 1):
        if got != want:
            return f"line {number}: got {got!r}, golden {want!r}"
    return f"got {len(out_lines)} lines, golden has {len(gold_lines)}"


@dataclass
class SearchOp:
    """compute_extremes on one type, from an empty or a complete results file."""

    n: int
    k: int
    span: int
    workers: int
    resume: bool
    work_dir: Path

    def __post_init__(self):
        name = results_name(self.n, self.k, self.span)
        self.key = f"n{self.n}_k{self.k}_span{self.span}"
        self.golden = (GOLDEN / "results" / name).read_bytes()
        self.families = sum(
            1 for line in self.golden.splitlines() if line and not line.startswith(b"#")
        )
        self.path = self.work_dir / name

    def prepare(self) -> None:
        if self.resume:
            self.path.write_bytes(self.golden)
        else:
            self.path.unlink(missing_ok=True)

    def call(self):
        return shippierce.search.compute_extremes(
            self.n, self.k, self.span, workers=self.workers, results_path=self.path
        )

    def check(self, report) -> str | None:
        if report.families_examined != self.families:
            return f"{report.families_examined} families, golden has {self.families}"
        return first_mismatch(self.path.read_bytes(), self.golden)


@dataclass
class DensityOp:
    """`shippierce density FAMILY --json`, run in-process."""

    span: int
    family: str
    golden: bytes

    def __post_init__(self):
        self.key = f"span{self.span}"
        self.families = 1

    def prepare(self) -> None:
        pass

    def call(self):
        out = io.StringIO()
        with redirect_stdout(out):
            code = shippierce.cli.main(["density", self.family, "--json"])
        return code, out.getvalue().encode()

    def check(self, result) -> str | None:
        code, output = result
        if code != 0:
            return f"exit code {code}"
        return first_mismatch(output, self.golden)


def load_ladder_golden() -> dict[str, str]:
    return json.loads((GOLDEN / "ladder.json").read_text())


def make_ops(workload: str, seed: int, work_dir: Path, traced: bool) -> list:
    """The operations of one pass of a workload.

    ``sweep`` and ``resume`` are exhaustive and ignore the seed.  A
    traced pass runs ``sweep`` with one worker, because spans do not
    cross processes.
    """
    if workload == "sweep":
        workers = 1 if traced else SWEEP_WORKERS
        return [SearchOp(n, k, s, workers, False, work_dir) for n, k, s in SWEEP_TYPES]
    if workload == "resume":
        return [SearchOp(n, k, s, 1, True, work_dir) for n, k, s in TABLE_TYPES]
    if workload == "ladder":
        golden = load_ladder_golden()
        return [
            DensityOp(span, family, golden.get(family, "").encode())
            for span, family in ladder_families(seed).items()
        ]
    raise ValueError(f"unknown workload {workload!r}")

