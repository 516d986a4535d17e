#!/usr/bin/env python3
"""Regenerate perfbench/golden/ from the source tree.

Run from the repository root: ``python3 perfbench/make_golden.py``.
It writes the results file of every type of the default search table
(the sweep goldens and the resume inputs) and the `density --json`
output of every ladder candidate.  Only regenerate when a change is
meant to alter outputs; the benchmark treats any difference as a
failure.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import shippierce.search  # noqa: E402
from workloads import (  # noqa: E402
    GOLDEN,
    LADDER,
    SWEEP_WORKERS,
    TABLE_TYPES,
    DensityOp,
    results_name,
)


def main() -> int:
    results = GOLDEN / "results"
    results.mkdir(parents=True, exist_ok=True)
    for n, k, s in TABLE_TYPES:
        path = results / results_name(n, k, s)
        path.unlink(missing_ok=True)
        shippierce.search.compute_extremes(n, k, s, workers=SWEEP_WORKERS, results_path=path)
    ladder = {}
    for span, candidates in LADDER.items():
        for family in candidates:
            code, output = DensityOp(span, family, b"").call()
            if code != 0:
                print(f"density {family} exited {code}", file=sys.stderr)
                return 1
            ladder[family] = output.decode()
    (GOLDEN / "ladder.json").write_text(json.dumps(ladder, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
