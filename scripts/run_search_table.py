#!/usr/bin/env python3
"""Reproduce the toughest/easiest-instance table for small ship types.

For each (n, k) with n ships of k cells, sweep every canonical family
with span up to 11 - n and record the exact extremes.  The per-type
maximum is a lower bound on the density needed for the toughest family
of that type; the minimum hits 1/k whenever the easiest witness fits
the span budget.

Usage:
    python scripts/run_search_table.py [--max-n 3] [--max-k 6]
        [--workers 4] [--out-dir results] [--quick]

--quick caps every span budget at 6 for a fast smoke run.  Results are
written one file per (n, k) and are resumable: rerunning reuses any
densities already on disk.
"""

import argparse
import sys
import time
from pathlib import Path

from shippierce.closed_forms import density_bounds
from shippierce.search import compute_extremes, raw_family_count


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int, default=3)
    parser.add_argument("--max-k", type=int, default=6)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--out-dir", default="results")
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args(argv)
    if args.workers < 1:
        parser.error("workers must be at least 1")

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    rows = []
    for n in range(1, args.max_n + 1):
        budget = 11 - n
        if args.quick:
            budget = min(budget, 6)
        for k in range(2, args.max_k + 1):
            if budget < k or raw_family_count(n, k, budget) == 0:
                continue
            t0 = time.time()
            report = compute_extremes(
                n,
                k,
                budget,
                workers=args.workers,
                results_path=out_dir / f"type_n{n}_k{k}_span{budget}.txt",
            )
            elapsed = time.time() - t0
            env = density_bounds(n, k)
            rows.append((n, k, budget, report, env, elapsed))
            print(
                f"n={n} k={k} span<={budget}: max {report.max_density} "
                f"(witness {report.max_witness}), min {report.min_density}, "
                f"{report.families_examined} canonical / {report.families_raw} raw "
                f"families, {elapsed:.1f}s",
                flush=True,
            )

    print("\nLower bounds on the toughest-instance density (max over the sweep):")
    print(f"{'n':>3} {'k':>3} {'span':>5} {'max':>8} {'min':>8} {'upper bound':>12}")
    for n, k, budget, report, env, _ in rows:
        print(
            f"{n:>3} {k:>3} {budget:>5} {str(report.max_density):>8} "
            f"{str(report.min_density):>8} {env.upper:>12.4f}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
