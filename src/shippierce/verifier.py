"""Periodic shooting patterns and ground-truth piercing checks.

A pattern is given by a period and the set of shot residues inside one
fundamental domain.  Verification is exhaustive over that domain: a
pattern pierces a family iff every translate of every ship hits at
least one shot, and by periodicity only translates with anchor in the
fundamental domain need checking.  Failures report the
lexicographically first missed translate so tests are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .core import Family, ParseError, parse_cells_2d


@dataclass(frozen=True)
class Pattern1D:
    """Periodic 1D pattern: shots at cells congruent to a residue mod period."""

    period: int
    residues: frozenset[int]

    def __init__(self, period: int, residues):
        if period < 1:
            raise ValueError("period must be positive")
        res = frozenset(int(r) for r in residues)
        if any(r < 0 or r >= period for r in res):
            raise ValueError("residues must lie in [0, period)")
        object.__setattr__(self, "period", period)
        object.__setattr__(self, "residues", res)

    @property
    def density(self) -> Fraction:
        return Fraction(len(self.residues), self.period)

    def __str__(self) -> str:
        return f"{self.period}:" + ",".join(str(r) for r in sorted(self.residues))


@dataclass(frozen=True)
class Pattern2D:
    """Periodic 2D pattern over a p x q fundamental domain."""

    periods: tuple[int, int]
    residues: frozenset[tuple[int, int]]

    def __init__(self, periods, residues):
        p, q = int(periods[0]), int(periods[1])
        if p < 1 or q < 1:
            raise ValueError("periods must be positive")
        res = frozenset((int(i), int(j)) for i, j in residues)
        if any(not (0 <= i < p and 0 <= j < q) for i, j in res):
            raise ValueError("residues must lie in the fundamental domain")
        object.__setattr__(self, "periods", (p, q))
        object.__setattr__(self, "residues", res)

    @property
    def density(self) -> Fraction:
        p, q = self.periods
        return Fraction(len(self.residues), p * q)

    def __str__(self) -> str:
        p, q = self.periods
        cells = ",".join(f"({i},{j})" for i, j in sorted(self.residues))
        return f"{p},{q}:{cells}"


def verify_pattern_1d(x: Pattern1D, f: Family) -> tuple[int, int] | None:
    """None if the pattern pierces every translate of every ship of f.

    Otherwise the lexicographically first failure as (ship index,
    translate offset n), with n in [0, period).

    It checks the set of anchors that each ship's translates hit: the
    translate anchored at n hits the shot r through its offset a iff
    n = (r - a) mod p.  So the pattern pierces the ship iff that set is
    all of [0, p), and the ship's first failure is the smallest anchor
    missing from it.
    """
    p = x.period
    for i, ship in enumerate(f.ships):
        hit = {(r - a) % p for r in x.residues for a in ship.offsets}
        if len(hit) < p:
            return (i, next(n for n in range(p) if n not in hit))
    return None


def verify_pattern_2d(x: Pattern2D, f: Family) -> tuple[int, tuple[int, int]] | None:
    """2D analogue of verify_pattern_1d; witness is (ship index, (n, m))."""
    p, q = x.periods
    shot = x.residues
    for i, ship in enumerate(f.ships):
        for n in range(p):
            for m in range(q):
                if not any(((n + dx) % p, (m + dy) % q) in shot for dx, dy in ship.points):
                    return (i, (n, m))
    return None


def scale_pattern(x: Pattern1D, d: int) -> Pattern1D:
    """Stretch a pattern by d, duplicating each shot across all d phases.

    The result pierces the d-scaled family exactly when the original
    pierces the original family, and the density is unchanged.
    """
    if d < 1:
        raise ValueError("scale factor must be positive")
    if d == 1:
        return x
    residues = {d * r + t for r in x.residues for t in range(d)}
    return Pattern1D(d * x.period, residues)


# ----------------------------------------------------------------------
# Text formats: "p:r1,r2,..." (1D) and "p,q:(i1,j1),(i2,j2),..." (2D).
# ----------------------------------------------------------------------

def parse_pattern_1d(text: str) -> Pattern1D:
    head, sep, tail = text.partition(":")
    if not sep:
        raise ParseError(f"pattern {text!r} needs a ':' separator")
    try:
        period = int(head.strip())
        tail = tail.strip()
        residues = [int(tok) for tok in tail.split(",")] if tail else []
        return Pattern1D(period, residues)
    except ValueError as exc:
        raise ParseError(f"bad 1D pattern {text!r}: {exc}") from exc


def parse_pattern_2d(text: str) -> Pattern2D:
    head, sep, tail = text.partition(":")
    if not sep:
        raise ParseError(f"pattern {text!r} needs a ':' separator")
    try:
        p_str, q_str = head.split(",")
        periods = (int(p_str), int(q_str))
    except ValueError as exc:
        raise ParseError(f"bad 2D periods in {text!r}") from exc
    cells = parse_cells_2d(tail)
    if cells is None:
        raise ParseError(f"bad 2D pattern residues in {text!r}")
    try:
        return Pattern2D(periods, cells)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
