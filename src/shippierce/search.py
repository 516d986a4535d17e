"""Exhaustive search over canonical families of n k-cell ships.

Families are enumerated once per equivalence class under the three
density-preserving symmetries: translation (ships are normalized),
family-wide scaling (only families whose offsets have gcd 1 are
emitted), and whole-family mirroring (the lexicographically smaller of
a family and its mirror image is emitted).  The per-class extremes of
the exact solver reproduce the extremes over all families.

A sweep solves its families in one process, one exact_density call per
family, or across a process pool, where each task solves a chunk of
families with the batch entry point solver.exact_densities.  It can keep
a resumable results file: one `family<TAB>p/q` line per family in
lexicographic order, then a '#'-prefixed summary block.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from contextlib import ExitStack
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations, repeat
from pathlib import Path
from typing import Iterator

from .constructions import slab_family
from .core import Family, Ship, format_density, offset_gcd, parse_family, reflect
from .solver import DEFAULT_SPAN_CAP, exact_densities, exact_density


def ships_with_span(k: int, span_budget: int) -> list[Ship]:
    """All normalized k-cell ships of span at most span_budget, sorted."""
    if k < 1 or span_budget < k:
        return []
    return [
        Ship((0,) + rest)
        for rest in combinations(range(1, span_budget), k - 1)
    ]


def raw_family_count(n: int, k: int, span_budget: int) -> int:
    """Families of n distinct k-cell ships before the symmetry quotient."""
    return math.comb(len(ships_with_span(k, span_budget)), n)


def enumerate_families(n: int, k: int, span_budget: int) -> Iterator[Family]:
    """Canonical families of n distinct k-cell ships, lexicographically.

    Emitted exactly once per symmetry class: offsets have family-wide
    gcd 1, and a family is emitted only if it is <= its mirror image.
    """
    if n < 1 or k < 1 or span_budget < k:
        raise ValueError("need n >= 1, k >= 1, span_budget >= k")
    ships = ships_with_span(k, span_budget)
    for combo in combinations(ships, n):
        if offset_gcd(combo) > 1:
            continue
        family = Family(combo)
        if reflect(family) < family:
            continue
        yield family


@dataclass(frozen=True)
class SearchReport:
    n: int
    k: int
    span_budget: int
    max_density: Fraction
    max_witness: Family
    min_density: Fraction
    min_witness: Family
    families_examined: int
    families_raw: int


# Families sent to a worker process per task, which solves them in one
# batch per reduced span.  Larger chunks make larger batches, with fewer
# numpy calls per family, but leave a worker idle at the end of a small
# type and hold a chunk's lines back from the results file until all of
# it is solved.  On a 2-core x86-64 machine, `perfbench/run.py --workload
# sweep --seconds 30` gave 3,630-4,080 families/s at 32, 3,870-4,090 at
# 64 and 3,840-3,870 at 128 (4 runs each), and the default search table
# at 2 workers took 3.4-4.0 s, 3.1-3.7 s and 3.3-4.0 s (3 runs each).
POOL_CHUNKSIZE = 64


def _density(text: str, span_cap: int) -> Fraction:
    return exact_density(parse_family(text), span_cap=span_cap).density


def _densities(texts: list[str], span_cap: int) -> list[Fraction]:
    return exact_densities([parse_family(t) for t in texts], span_cap=span_cap)


def _load_results(path: Path, k: int) -> dict[str, Fraction]:
    """Per-family densities of a results file that are safe to reuse.

    A line without its newline may have been cut short by a kill and is
    not read.  A density is kept only if format_density writes it so
    (reduced, positive denominator) and it lies in [1/k, 1], where every
    density of k-cell ships lies.
    """
    cached: dict[str, Fraction] = {}
    if not path.exists():
        return cached
    lowest = Fraction(1, k)
    for line in path.read_text().split("\n")[:-1]:
        fam_text, _, frac = line.partition("\t")
        try:
            num, den = frac.split("/")
            density = Fraction(int(num), int(den))
        except (ValueError, ZeroDivisionError):
            continue
        if format_density(density) == frac and lowest <= density <= 1:
            cached[fam_text] = density
    return cached


def compute_extremes(
    n: int,
    k: int,
    span_budget: int,
    span_cap: int = DEFAULT_SPAN_CAP,
    workers: int = 1,
    results_path: str | Path | None = None,
    checkpoint_every: int = 500,
) -> SearchReport:
    """Exact max/min of the solver density over enumerate_families.

    Witnesses are the lexicographically smallest achievers, so reports
    are identical across runs and worker counts.  If results_path is
    given, valid densities already there are reused (see _load_results),
    and each newly solved family is appended as a `family<TAB>p/q` line
    in enumeration order at every worker count, flushed every
    checkpoint_every lines, so a killed sweep keeps its flushed lines.
    At the end the file is rewritten in canonical order with a summary
    block.
    """
    if span_budget > span_cap:
        raise ValueError("span_budget exceeds span_cap")
    if checkpoint_every < 1:
        raise ValueError("checkpoint_every must be at least 1")
    if workers < 1:
        raise ValueError("workers must be at least 1")
    families = list(enumerate_families(n, k, span_budget))
    if not families:
        raise ValueError(
            f"no families of {n} distinct {k}-cell ships with span <= {span_budget}"
        )
    texts = [str(f) for f in families]

    densities = _load_results(Path(results_path), k) if results_path else {}
    todo = [t for t in texts if t not in densities]

    with ExitStack() as stack:
        out = stack.enter_context(open(results_path, "a")) if results_path else None
        if workers > 1 and todo:
            # The pool forks all its workers at the first submit, so it
            # gets no more of them than there are chunks to solve.
            chunks = [todo[i:i + POOL_CHUNKSIZE] for i in range(0, len(todo), POOL_CHUNKSIZE)]
            pool = ProcessPoolExecutor(max_workers=min(workers, len(chunks)))
            stack.callback(pool.shutdown, cancel_futures=True)
            solved = chain.from_iterable(pool.map(_densities, chunks, repeat(span_cap)))
        else:
            # One worker solves in this process, so wrappers installed on
            # this module's functions (tracing, tests) see every call.
            solved = map(_density, todo, repeat(span_cap))
        for i, (text, density) in enumerate(zip(todo, solved), 1):
            densities[text] = density
            if out:
                out.write(f"{text}\t{format_density(density)}\n")
                if i % checkpoint_every == 0:
                    out.flush()

    max_d = max_w = min_d = min_w = None
    for text, family in zip(texts, families):
        d = densities[text]
        if max_d is None or d > max_d:
            max_d, max_w = d, family
        if min_d is None or d < min_d:
            min_d, min_w = d, family

    report = SearchReport(
        n=n,
        k=k,
        span_budget=span_budget,
        max_density=max_d,
        max_witness=max_w,
        min_density=min_d,
        min_witness=min_w,
        families_examined=len(families),
        families_raw=raw_family_count(n, k, span_budget),
    )
    if results_path:
        _write_results(Path(results_path), texts, densities, report)
    return report


def _write_results(path: Path, texts, densities, report: SearchReport) -> None:
    lines = [f"{t}\t{format_density(densities[t])}" for t in texts]
    lines.append("# summary")
    lines.append(f"# n {report.n} k {report.k} span_budget {report.span_budget}")
    lines.append(
        f"# families {report.families_examined} raw {report.families_raw}"
    )
    lines.append(
        f"# max {format_density(report.max_density)} witness {report.max_witness}"
    )
    lines.append(
        f"# min {format_density(report.min_density)} witness {report.min_witness}"
    )
    path.write_text("\n".join(lines) + "\n")


@dataclass(frozen=True)
class MirrorTripleRow:
    a: int
    b: int
    family: Family
    density: Fraction
    is_extreme: bool  # density == 2/5
    reduced: tuple[int, int]


@dataclass(frozen=True)
class MirrorTripleReport:
    rows: tuple[MirrorTripleRow, ...]
    all_below_bound: bool
    extremes_as_expected: bool


def check_mirror_triples(span_cap: int = DEFAULT_SPAN_CAP) -> MirrorTripleReport:
    """Solve {[0,a,a+b], mirror} exactly for every b < a <= 5.

    All ten cases must come out at most 2/5, with equality exactly when
    (a, b) reduces to (2, 1) or (3, 1), i.e. for the ships [0,2d,3d]
    and [0,3d,4d].
    """
    bound = Fraction(2, 5)
    rows = []
    for a in range(2, 6):
        for b in range(1, a):
            family = slab_family(a, b)
            density = exact_density(family, span_cap=span_cap).density
            g = math.gcd(a, b)
            rows.append(
                MirrorTripleRow(
                    a=a,
                    b=b,
                    family=family,
                    density=density,
                    is_extreme=density == bound,
                    reduced=(a // g, b // g),
                )
            )
    all_below = all(r.density <= bound for r in rows)
    expected = all(
        r.is_extreme == (r.reduced in {(2, 1), (3, 1)}) for r in rows
    )
    return MirrorTripleReport(
        rows=tuple(rows),
        all_below_bound=all_below,
        extremes_as_expected=expected,
    )
