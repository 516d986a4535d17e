"""Exhaustive search over canonical families of n k-cell ships.

Families are enumerated once per equivalence class under the three
density-preserving symmetries: translation (ships are normalized),
family-wide scaling (only families whose offsets have gcd 1 are
emitted), and whole-family mirroring (the lexicographically smaller of
a family and its mirror image is emitted).  The per-class extremes of
the exact solver reproduce the extremes over all families.

Long sweeps can shard work across processes and write a resumable
results file: one `family<TAB>p/q` line per family in lexicographic
order, then a '#'-prefixed summary block.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from pathlib import Path
from typing import Iterator

from .core import Family, Ship, format_density, offset_gcd, parse_family, reflect
from .solver import DEFAULT_SPAN_CAP, exact_density


def ships_with_span(k: int, span_budget: int) -> list[Ship]:
    """All normalized k-cell ships of span at most span_budget, sorted."""
    if k < 1 or span_budget < k:
        return []
    if k == 1:
        return [Ship((0,))]
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


def _solve_shard(args) -> list[tuple[str, int, int]]:
    families, span_cap = args
    out = []
    for text in families:
        result = exact_density(parse_family(text), span_cap=span_cap)
        out.append((text, result.density.numerator, result.density.denominator))
    return out


def _load_results(path: Path) -> dict[str, Fraction]:
    cached: dict[str, Fraction] = {}
    if not path.exists():
        return cached
    for line in path.read_text().splitlines():
        if not line or line.startswith("#"):
            continue
        try:
            fam_text, frac = line.split("\t")
            num, den = frac.split("/")
            cached[fam_text] = Fraction(int(num), int(den))
        except ValueError:
            continue  # truncated checkpoint line
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
    given, per-family densities already present there are reused and
    the file is rewritten in canonical order with a summary block.
    """
    if span_budget > span_cap:
        raise ValueError("span_budget exceeds span_cap")
    families = list(enumerate_families(n, k, span_budget))
    if not families:
        raise ValueError(
            f"no families of {n} distinct {k}-cell ships with span <= {span_budget}"
        )
    texts = [str(f) for f in families]

    cached = _load_results(Path(results_path)) if results_path else {}
    todo = [t for t in texts if t not in cached]

    densities: dict[str, Fraction] = dict(cached)
    if todo:
        if workers > 1:
            shards: dict[str, list[str]] = {}
            for text in todo:
                shards.setdefault(text.split(";")[0], []).append(text)
            with ProcessPoolExecutor(max_workers=workers) as pool:
                shard_args = [(chunk, span_cap) for chunk in shards.values()]
                for rows in pool.map(_solve_shard, shard_args):
                    for text, num, den in rows:
                        densities[text] = Fraction(num, den)
        else:
            out_fh = None
            if results_path:
                out_fh = open(results_path, "a")
            try:
                for i, text in enumerate(todo, 1):
                    result = exact_density(parse_family(text), span_cap=span_cap)
                    densities[text] = result.density
                    if out_fh:
                        out_fh.write(f"{text}\t{format_density(result.density)}\n")
                        if i % checkpoint_every == 0:
                            out_fh.flush()
            finally:
                if out_fh:
                    out_fh.close()

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
            ship = Ship((0, a, a + b))
            family = Family((ship, ship.reflect()))
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
