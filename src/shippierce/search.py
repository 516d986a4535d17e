"""Exhaustive search over canonical families of n k-cell ships.

Families are enumerated once per equivalence class under the three
density-preserving symmetries: translation (ships are normalized),
family-wide scaling (only families whose offsets have gcd 1 are
emitted), and whole-family mirroring (the lexicographically smaller of
a family and its mirror image is emitted).  The per-class extremes of
the exact solver reproduce the extremes over all families.  The
enumeration works on indices into the sorted list of ships, and makes
both tests on numpy blocks of index rows (see enumerate_families).

A sweep builds no object per family: each family's text is joined from
the texts of its ships, and each density is kept as its `p/q` string.
The max and min come from the distinct density strings, one Fraction
each, and a Family is built only for the two witnesses.

A sweep takes one of two paths for the families left to solve.  At one
worker it solves them in this process, one exact_density call per
family, in enumeration order.  At more workers it sorts them by span,
largest first, cuts them into chunks and solves each chunk with the
batch entry point solver.exact_densities: across a process pool from
two chunks up, and in this process when there is one chunk.  A sweep
with nothing left to solve calls no solver.  It can keep a resumable
results file.  Lines are appended to it in the order the families are
solved, and at the end it holds one `family<TAB>p/q` line per family in
lexicographic order, then a '#'-prefixed summary block.
"""

from __future__ import annotations

import math
import os
from contextlib import ExitStack
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations, islice, repeat
from pathlib import Path
from typing import Iterator

import numpy as np

from .core import Family, Ship, format_density, parse_family
from .solver import DEFAULT_SPAN_CAP, _guard_memory, exact_densities, exact_density


def ships_with_span(k: int, span_budget: int) -> list[Ship]:
    """All normalized k-cell ships of span at most span_budget, sorted."""
    if k < 1 or span_budget < k:
        return []
    return [
        Ship((0,) + rest)
        for rest in combinations(range(1, span_budget), k - 1)
    ]


def raw_family_count(n: int, k: int, span_budget: int) -> int:
    """Families of n distinct k-cell ships before the symmetry quotient:
    n of the C(span_budget - 1, k - 1) ships of ships_with_span."""
    ships = math.comb(span_budget - 1, k - 1) if 1 <= k <= span_budget else 0
    return math.comb(ships, n)


# Index combinations tested per numpy block by enumerate_families.  A
# block of 2^16 rows of n indices takes n/2 MiB per intp array, while all
# combinations of a large type at once would not fit: (4, 3, 20) has
# C(171, 4), about 34.4M, rows, about 1.1 GB of intp.
ENUM_BLOCK_ROWS = 1 << 16


def enumerate_families(n: int, k: int, span_budget: int) -> Iterator[str]:
    """Texts of the canonical families of n distinct k-cell ships, in
    lexicographic order: each family's ship texts joined by ';', as
    str(Family) writes them.  Bad arguments raise ValueError on the
    first next().

    Emitted exactly once per symmetry class: offsets have family-wide
    gcd 1, and a family is emitted only if it is <= its mirror image.
    Each ship's mirror index and offset gcd are computed once, and both
    tests are made on the index combination into
    ships_with_span(k, span_budget).  This keeps the same families as
    testing each family of ships directly:
    - mirroring a k-cell ship keeps its span, so it maps the list onto
      itself and every mirror ship has an index;
    - mirroring is one-to-one and the list is sorted, so the sorted
      mirror index row is the mirror family, and comparing it with the
      combination compares the mirror family with the family;
    - gcd is associative, so the family-wide gcd is the gcd of the
      ships' gcds.

    The combinations are drawn in lexicographic order and tested in
    numpy blocks of at most ENUM_BLOCK_ROWS index rows, one array
    operation per test and block instead of Python work per
    combination.  A text is joined only for a kept row.  Blocks keep
    the generator streaming with bounded memory on types too large to
    hold all their combinations at once.
    """
    if n < 1 or k < 1 or span_budget < k:
        raise ValueError("need n >= 1, k >= 1, span_budget >= k")
    # The offsets of ships_with_span(k, span_budget) as plain tuples: a
    # validated Ship per entry, and a second one per reflect(), cost more
    # than the tables built from them.
    ships = [(0,) + rest for rest in combinations(range(1, span_budget), k - 1)]
    index = {ship: i for i, ship in enumerate(ships)}
    mirror = [index[tuple(ship[-1] - a for a in reversed(ship))] for ship in ships]
    mirror = np.array(mirror, dtype=np.intp)
    gcd = np.array([math.gcd(*ship) for ship in ships], dtype=np.intp)
    ship_text = np.array([",".join(map(str, ship)) for ship in ships], dtype=object)
    combos = chain.from_iterable(combinations(range(len(ships)), n))
    while True:
        block = np.fromiter(islice(combos, ENUM_BLOCK_ROWS * n), dtype=np.intp).reshape(-1, n)
        if not len(block):
            return
        # Each row against its sorted mirror row: the first column where
        # they differ decides, and a row equal to its mirror is kept.
        diff = np.sort(mirror[block], axis=1) - block
        first = diff[np.arange(len(block)), (diff != 0).argmax(axis=1)]
        keep = (first >= 0) & (np.gcd.reduce(gcd[block], axis=1) <= 1)
        yield from map(";".join, ship_text[block[keep]].tolist())


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

    def summary_lines(self) -> list[str]:
        """The counts, max and min lines that the `search` command prints
        and that close a results file's summary block after a '# '."""
        return [
            f"families {self.families_examined} raw {self.families_raw}",
            f"max {format_density(self.max_density)} witness {self.max_witness}",
            f"min {format_density(self.min_density)} witness {self.min_witness}",
        ]


# Families sent to a worker process per task, which solves them in one
# batch per reduced span.  Larger chunks make larger batches, with fewer
# numpy calls per family and fewer ship masks per family, but leave a
# worker idle at the end of a small type and hold a chunk's lines back
# from the results file until it and every earlier chunk are solved.  On
# a 2-core x86-64 machine, `perfbench/run.py --workload sweep --seconds 10
# --trace 0` gave 9,056-9,505 families/s at 64, 9,683-9,846 at 128 and
# 9,953-10,341 at 256 (4 alternating runs each), but its peak RSS rose
# from 71 MB to 74 MB at 256.  The default search table at 2 workers took
# 1.40-1.71 s at 64 and 1.19-1.68 s at 128 (6 alternating runs each).
POOL_CHUNKSIZE = 128


def _text_span(text: str) -> int:
    """The span of a family text: its largest last offset plus 1."""
    return 1 + max(int(ship.rpartition(",")[2]) for ship in text.split(";"))


def _densities(texts: list[str], span_cap: int) -> list[str]:
    """exact_densities of the family texts of one chunk, as the `p/q`
    strings format_density writes.  A sweep's families are drawn from few
    ships, so each distinct ship text is parsed once.  A pool worker sends
    its results back pickled, and strings pickle several times faster
    than Fractions."""
    ships: dict[str, Ship] = {}
    for text in texts:
        for ship in text.split(";"):
            if ship not in ships:
                ships[ship] = parse_family(ship).ships[0]
    families = [Family(tuple(map(ships.__getitem__, text.split(";")))) for text in texts]
    return [format_density(density) for density in exact_densities(families, span_cap=span_cap)]


def _is_valid_density(frac: str, lowest: Fraction) -> bool:
    """Whether frac is a p/q that format_density writes so and that lies
    in [lowest, 1]."""
    try:
        density = Fraction(frac)
    except (ValueError, ZeroDivisionError):
        return False
    return format_density(density) == frac and lowest <= density <= 1


def _load_results(path: Path, k: int) -> tuple[str, dict[str, str]]:
    """The text of a results file ("" if there is none), and the
    per-family density strings in it that are safe to reuse.

    A line without its newline may have been cut short by a kill and is
    not read.  A density is kept only if format_density writes it so
    (reduced, positive denominator) and it lies in [1/k, 1], where every
    density of k-cell ships lies.  A file holds few distinct density
    strings, so each is checked once.
    """
    cached: dict[str, str] = {}
    if not path.exists():
        return "", cached
    text = path.read_text()
    lowest = Fraction(1, k)
    valid: dict[str, bool] = {}
    for line in text.split("\n")[:-1]:
        fam_text, _, frac = line.partition("\t")
        if frac not in valid:
            valid[frac] = _is_valid_density(frac, lowest)
        if valid[frac]:
            cached[fam_text] = frac
    return text, cached


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

    Families are handled as the texts enumerate_families yields, and
    densities as format_density strings: those reused from
    results_path, and each newly solved density formatted once.  The
    max and min are found over the distinct strings, with one Fraction
    each.  Witnesses are the lexicographically smallest achievers, so
    reports are identical across runs and worker counts; a Family is
    parsed only for them.

    The families left to solve take one of two paths.  At workers=1
    each is solved on its own with exact_density, in this process.  At
    more workers they are sorted by span, largest first and in
    enumeration order within a span, and cut into chunks of
    POOL_CHUNKSIZE, each solved as one batch by _densities: in a pool of
    at most one worker per chunk from two chunks up, and in this process
    for a single chunk.  With nothing left to solve, no solver is
    called.

    A sweep with a family left to solve whose span trips the solver's
    memory guard is refused by it before it solves anything or opens
    results_path.

    If results_path is given, valid densities already there are reused
    (see _load_results), and each newly solved family is appended as a
    `family<TAB>p/q` line in the order it was solved: enumeration order
    at one worker, span order at more.  Lines are flushed every
    checkpoint_every lines, so a killed sweep keeps its flushed lines.
    A last line cut off without its newline is closed first, so the
    first appended line is not glued onto it.  At the end the file is
    replaced by one in canonical order with a summary block, unless it
    already holds exactly that.
    """
    if span_budget > span_cap:
        raise ValueError("span_budget exceeds span_cap")
    if checkpoint_every < 1:
        raise ValueError("checkpoint_every must be at least 1")
    if workers < 1:
        raise ValueError("workers must be at least 1")
    texts = list(enumerate_families(n, k, span_budget))
    if not texts:
        raise ValueError(
            f"no families of {n} distinct {k}-cell ships with span <= {span_budget}"
        )

    old_text, densities = _load_results(Path(results_path), k) if results_path else ("", {})
    todo = [t for t in texts if t not in densities]
    # Each family left to solve has offset gcd 1, so its text's span is
    # its reduced span.  A sweep whose largest one trips the memory guard
    # is refused before it solves or writes anything.
    span = {t: _text_span(t) for t in todo}
    if span:
        _guard_memory(max(span.values()))

    with ExitStack() as stack:
        out = stack.enter_context(open(results_path, "a")) if results_path else None
        if old_text and not old_text.endswith("\n"):
            out.write("\n")
        if workers > 1:
            # Largest span first, enumeration order within a span (a stable
            # sort).  This is the reduced span that exact_densities stacks
            # by, so chunks make fewer, fuller stacks, and the pool gets its
            # heaviest chunks first.
            todo.sort(key=span.__getitem__, reverse=True)
            chunks = [todo[i:i + POOL_CHUNKSIZE] for i in range(0, len(todo), POOL_CHUNKSIZE)]
            # A single chunk is solved as one batch in this process: only
            # one pool worker could run on it, and the fork costs more
            # than the chunk's solve.  No chunk means no solver call.
            solve = map
            if len(chunks) > 1:
                # Imported only here, so that a sweep that starts no pool
                # never loads multiprocessing (about 20 ms of import).
                from concurrent.futures import ProcessPoolExecutor

                # The pool forks all its workers at the first submit, so it
                # gets no more of them than there are chunks to solve.
                pool = ProcessPoolExecutor(max_workers=min(workers, len(chunks)))
                stack.callback(pool.shutdown, cancel_futures=True)
                solve = pool.map
            solved = chain.from_iterable(solve(_densities, chunks, repeat(span_cap)))
        else:
            # One worker solves one family at a time in this process, so
            # wrappers installed on this module's functions (tracing,
            # tests) see every call.
            solved = (
                format_density(exact_density(parse_family(t), span_cap=span_cap).density) for t in todo
            )
        for i, (text, frac) in enumerate(zip(todo, solved), 1):
            densities[text] = frac
            if out:
                out.write(f"{text}\t{frac}\n")
                if i % checkpoint_every == 0:
                    out.flush()

    fracs = [densities[t] for t in texts]
    # Distinct strings are distinct values: each is reduced.
    value = {frac: Fraction(frac) for frac in set(fracs)}
    max_frac = max(value, key=value.__getitem__)
    min_frac = min(value, key=value.__getitem__)

    report = SearchReport(
        n=n,
        k=k,
        span_budget=span_budget,
        max_density=value[max_frac],
        max_witness=parse_family(texts[fracs.index(max_frac)]),
        min_density=value[min_frac],
        min_witness=parse_family(texts[fracs.index(min_frac)]),
        families_examined=len(texts),
        families_raw=raw_family_count(n, k, span_budget),
    )
    if results_path:
        _write_results(Path(results_path), texts, fracs, report, old_text)
    return report


def _write_results(path: Path, texts, fracs, report: SearchReport, old_text: str) -> None:
    """Replace path by its canonical form: one line per family, then the
    summary block, unless old_text (path before the sweep) is that
    already.  The text goes to a sibling file first, which is then
    renamed onto path, so a kill or an error leaves path as it was."""
    lines = [f"{t}\t{frac}" for t, frac in zip(texts, fracs)]
    lines.append("# summary")
    lines.append(f"# n {report.n} k {report.k} span_budget {report.span_budget}")
    lines += [f"# {line}" for line in report.summary_lines()]
    text = "\n".join(lines) + "\n"
    if text == old_text:
        return
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


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
    from .constructions import slab_family  # only this check builds slabs

    bound = Fraction(2, 5)
    pairs = [(a, b, math.gcd(a, b)) for a in range(2, 6) for b in range(1, a)]
    families = [slab_family(a, b) for a, b, _ in pairs]
    densities = exact_densities(families, span_cap=span_cap)
    rows = tuple(
        MirrorTripleRow(a, b, family, density, density == bound, (a // g, b // g))
        for (a, b, g), family, density in zip(pairs, families, densities)
    )
    return MirrorTripleReport(
        rows=rows,
        all_below_bound=all(r.density <= bound for r in rows),
        extremes_as_expected=all(
            r.is_extreme == (r.reduced in {(2, 1), (3, 1)}) for r in rows
        ),
    )
