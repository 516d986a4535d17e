#!/usr/bin/env python3
"""Benchmark for shippierce: end-to-end and per-layer timings.

Run from the repository root:

    python3 perfbench/run.py --workload {sweep,ladder,resume} \\
        --seed N --seconds S --trace {0,1}

It imports shippierce from ``src/`` of the checkout it sits in and
refuses (exit code 2, no result) when that source is missing.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it is a
JSON report with the per-operation timings, the failures and the
machine.  Both are also written under ``.bench_out/``.

With ``--trace 0`` the metrics are the end-to-end ones, from untraced
runs: after one untimed warm-up pass, the workload's operations run
round-robin for ``--seconds`` seconds (every operation at least once),
and ``families_per_s`` is the families of one pass over the sum of the
per-operation median times.  With ``--trace 1`` the metrics are the
per-layer ones, from one traced single-process pass, together with
the tracing overhead: the median ratio of traced to untraced passes of
the same operations, alternated for ``--seconds`` seconds.

Times are in reference seconds.  On the 2-vCPU machine this
was written on, each CPU changes speed by up to 1.8x, on its own, for
fractions of a second to minutes at a time.  So every timed call is
bracketed by a fixed calibration job that does not use shippierce, and
its time t is reported as t * CALIBRATION_S / c, where c is the mean
calibration time measured just before and just after it.  The raw wall
times are in the report.  README.md lists the workloads and what each
metric is expected to move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import contextmanager
from dataclasses import asdict
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("sweep", "ladder", "resume")
SETUP_REPEATS = 7
# About the median time of calibration_job() on the 2-vCPU Xeon
# (2.1 GHz) the benchmark was defined on, at its fast speed.
CALIBRATION_S = 0.002
_CALIBRATION_WORDS = np.arange(2048, dtype=np.int64)
_CALIBRATION_INDEX = (_CALIBRATION_WORDS * 7919) % 2048


def calibration_job() -> int:
    """Fixed work shaped like the solver's: small numpy steps, a Python loop."""
    d = _CALIBRATION_WORDS.copy()
    for _ in range(100):
        d = np.minimum(np.where(_CALIBRATION_INDEX > 5, d[_CALIBRATION_INDEX], 1 << 40), d) + 1
    s = 0
    for i in range(20000):
        s += i & 7
    return s + int(d[0])


def _calibration_time() -> float:
    times = []
    for _ in range(5):
        start = time.perf_counter()
        calibration_job()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


@contextmanager
def pinned(cpu: int):
    """Run this process, and the processes it starts, on one CPU only."""
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {cpu})
    try:
        yield
    finally:
        os.sched_setaffinity(0, cpus)


def calibrate(every_cpu: bool) -> float:
    """Median seconds of five calibration jobs: the machine's speed now.

    The CPUs change speed independently of each other.  Work in this
    process is compared with a calibration where it runs.  Work spread
    over other processes is compared with the mean over every CPU this
    process may use, running the calibration pinned to each in turn.
    """
    if not every_cpu:
        return _calibration_time()
    times = []
    for cpu in sorted(os.sched_getaffinity(0)):
        with pinned(cpu):
            times.append(_calibration_time())
    return statistics.mean(times)


def to_reference(seconds: float, before: float, after: float) -> float:
    """Wall seconds scaled to the speed at which calibration takes CALIBRATION_S."""
    return seconds * 2 * CALIBRATION_S / (before + after)


def parse_args(argv):
    parser = argparse.ArgumentParser(description="shippierce benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0, help="draws the ladder's families")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class Runner:
    """Runs operations, checks each result and counts the failures."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def run(self, op) -> float:
        """Seconds the operation's call took; failures are recorded."""
        op.prepare()
        start = time.perf_counter()
        try:
            result = op.call()
        except Exception as exc:  # a failing operation is counted, not fatal
            elapsed = time.perf_counter() - start
            traceback.print_exc()
            error = f"{type(exc).__name__}: {exc}"
        else:
            elapsed = time.perf_counter() - start
            error = op.check(result)
        self.attempted += 1
        if error:
            self.failures.append(f"{op.key}: {error}")
            print(f"FAILED {op.key}: {error}", file=sys.stderr)
        return elapsed

    def run_pass(self, ops) -> dict[str, float]:
        return {op.key: self.run(op) for op in ops}

    def run_for(self, ops, seconds: float):
        """Round-robin over ops until seconds pass, each at least once.

        Returns the raw and the reference-second samples of each op.
        """
        raw: dict[str, list[float]] = {op.key: [] for op in ops}
        ref: dict[str, list[float]] = {op.key: [] for op in ops}
        pool = pool_size(ops) > 1
        deadline = time.perf_counter() + seconds
        before = calibrate(pool)
        i = 0
        while i < len(ops) or time.perf_counter() < deadline:
            op = ops[i % len(ops)]
            elapsed = self.run(op)
            after = calibrate(pool)
            raw[op.key].append(elapsed)
            ref[op.key].append(to_reference(elapsed, before, after))
            before = after
            i += 1
        return raw, ref


def children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest child so far."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024


def setup_seconds() -> tuple[float, float]:
    """Median time of a fresh interpreter importing shippierce.cli.

    Returns it in reference and in raw seconds.  Each import runs pinned
    to one CPU, taking the CPUs in turn, between two calibrations on
    that CPU.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, "-c", "import shippierce.cli"]
    cpus = sorted(os.sched_getaffinity(0))
    raw, ref = [], []
    for i in range(SETUP_REPEATS + 1):
        with pinned(cpus[i % len(cpus)]):
            before = _calibration_time()
            start = time.perf_counter()
            subprocess.run(cmd, env=env, cwd=ROOT, check=True)
            elapsed = time.perf_counter() - start
            after = _calibration_time()
        if i:  # the first run may write the bytecode caches
            raw.append(elapsed)
            ref.append(to_reference(elapsed, before, after))
    return statistics.median(ref), statistics.median(raw)


def git_commit() -> str | None:
    """HEAD of the checkout's git repository, read from .git if present."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment() -> dict:
    return {
        "machine": platform.machine(),
        "platform": platform.platform(),
        "processor": platform.processor(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": git_commit(),
        "src_sha256": src_sha256(),
    }


def pool_size(ops) -> int:
    return max(getattr(op, "workers", 1) for op in ops)


def pool_utilization(runner: Runner, ops) -> float:
    """Children's CPU over workers x wall for one untraced pass; 0 without a pool."""
    workers = pool_size(ops)
    if workers == 1:
        return 0.0
    cpu = children_cpu()
    wall = sum(runner.run_pass(ops).values())
    return (children_cpu() - cpu) / (workers * wall)


def measure_end_to_end(runner: Runner, args, work: Path, report: dict) -> dict:
    from workloads import make_ops

    ops = make_ops(args.workload, args.seed, work, traced=False)
    runner.run_pass(ops)  # warm-up: a process's first solves are slower
    raw, ref = runner.run_for(ops, args.seconds)
    raw_median = {key: statistics.median(values) for key, values in raw.items()}
    ref_median = {key: statistics.median(values) for key, values in ref.items()}
    families = sum(op.families for op in ops)
    rss = peak_rss_mb()  # before the set-up interpreters become children
    setup_ref, setup_raw = setup_seconds()
    report.update(
        operations={
            op.key: {
                "family": getattr(op, "family", None),
                "families": op.families,
                "median_s": ref_median[op.key],
                "raw_median_s": raw_median[op.key],
                "raw_samples_s": raw[op.key],
            }
            for op in ops
        },
        raw_families_per_s=families / sum(raw_median.values()),
        raw_setup_s=setup_raw,
    )
    return {
        "setup_s": (setup_ref, "s"),
        "families_per_s": (families / sum(ref_median.values()), "1/s"),
        "peak_rss_mb": (rss, "MB"),
    }


def measure_layers(runner: Runner, args, work: Path, report: dict) -> dict:
    from trace_layers import Tracer, layer_metrics
    from workloads import make_ops

    ops = make_ops(args.workload, args.seed, work, traced=False)
    single = make_ops(args.workload, args.seed, work, traced=True)
    runner.run_pass(ops)  # warm-up
    utilization = pool_utilization(runner, ops)

    def timed_pass(tracer=None) -> float:
        """One pass of `single` in reference seconds, traced if given a tracer."""
        before = calibrate(False)
        if tracer:
            tracer.install()
        try:
            elapsed = sum(runner.run_pass(single).values())
        finally:
            if tracer:
                tracer.uninstall()
        return to_reference(elapsed, before, calibrate(False))

    # Untraced and traced passes alternate for --seconds (one pair at
    # least); the overhead is the median ratio, the metrics come from
    # the first traced pass.
    tracer = Tracer()
    ratios = []
    deadline = time.perf_counter() + args.seconds
    while not ratios or time.perf_counter() < deadline:
        plain = timed_pass()
        ratios.append(timed_pass(tracer if not ratios else Tracer()) / plain)
    overhead = statistics.median(ratios) - 1
    rungs = {op.family: op.key for op in single if hasattr(op, "family")}
    metrics = layer_metrics(
        tracer,
        rungs,
        {"search.pool_utilization": utilization, "trace.overhead_ratio": overhead},
    )
    report.update(
        traced_over_untraced=ratios,
        absent_layers=tracer.absent,
        hook_errors=tracer.hook_errors,
    )
    origin = tracer.spans[0].start if tracer.spans else 0.0
    spans = [
        dict(asdict(s), start=s.start - origin, end=s.end - origin) for s in tracer.spans
    ]
    (OUT / f"spans-{args.workload}-seed{args.seed}.json").write_text(json.dumps(spans))
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "shippierce" / "__init__.py").is_file():
        print(f"error: no shippierce source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import shippierce

    if SRC.resolve() not in Path(shippierce.__file__).resolve().parents:
        print(f"error: imported shippierce from {shippierce.__file__}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{args.workload}-{os.getpid()}"
    work.mkdir()
    runner = Runner()
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
    }
    start = time.perf_counter()
    try:
        measure = measure_layers if args.trace else measure_end_to_end
        metrics = measure(runner, args, work, report)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    report.update(
        wall_s=time.perf_counter() - start,
        attempted=runner.attempted,
        failed=len(runner.failures),
        failed_ratio=len(runner.failures) / runner.attempted,
        failures=runner.failures[:20],
    )
    result = {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps({**report, "result": result}, indent=1) + "\n")
    print(json.dumps(report, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
