"""Ships, ship families, and their canonical forms.

A ship is a finite set of integer cells identified up to translation;
we store it as a strictly increasing tuple of offsets anchored at 0.
A family is a non-empty, duplicate-free, lexicographically sorted
collection of ships.  Because the minimum piercing density is invariant
under translating individual ships, scaling the whole family by a
positive integer, and mirroring, these are the only normal forms the
rest of the package ever sees.

2D variants (`Ship2D`, `Family2D`) anchor the lexicographically
smallest cell at the origin.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass


class ParseError(ValueError):
    """A family or pattern string/file could not be parsed."""


@dataclass(frozen=True, order=True)
class Ship:
    """A 1D ship: strictly increasing cell offsets, first offset 0."""

    offsets: tuple[int, ...]

    def __post_init__(self):
        if not self.offsets:
            raise ValueError("a ship needs at least one cell")
        if self.offsets[0] != 0:
            raise ValueError("ship offsets must be anchored at 0")
        if any(b <= a for a, b in zip(self.offsets, self.offsets[1:])):
            raise ValueError("ship offsets must be strictly increasing")

    @property
    def size(self) -> int:
        return len(self.offsets)

    @property
    def span(self) -> int:
        return self.offsets[-1] + 1

    def reflect(self) -> "Ship":
        """Mirror image, re-anchored at 0."""
        last = self.offsets[-1]
        return Ship(tuple(last - a for a in reversed(self.offsets)))

    def __str__(self) -> str:
        return ",".join(str(a) for a in self.offsets)


@dataclass(frozen=True, order=True)
class Family:
    """A canonical family: sorted, duplicate-free, non-empty ships."""

    ships: tuple[Ship, ...]

    def __post_init__(self):
        if not self.ships:
            raise ValueError("a family needs at least one ship")
        canon = tuple(sorted(set(self.ships)))
        object.__setattr__(self, "ships", canon)

    @property
    def span(self) -> int:
        return max(s.span for s in self.ships)

    def __len__(self) -> int:
        return len(self.ships)

    def __iter__(self):
        return iter(self.ships)

    def __str__(self) -> str:
        return ";".join(str(s) for s in self.ships)


def format_density(d) -> str:
    """Render a Fraction as p/q even when it is integral (1 -> "1/1")."""
    return f"{d.numerator}/{d.denominator}"


def normalize_ship(raw) -> Ship:
    """Sort raw offsets and translate them so the smallest becomes 0.

    Duplicate offsets are rejected: a ship is a set of cells.
    """
    cells = sorted(raw)
    if not cells:
        raise ValueError("a ship needs at least one cell")
    if any(b == a for a, b in zip(cells, cells[1:])):
        raise ValueError(f"duplicate cell in ship {list(raw)}")
    lo = cells[0]
    return Ship(tuple(c - lo for c in cells))


def make_family(raw_ships) -> Family:
    """Normalize each raw offset list and canonicalize the collection."""
    return Family(tuple(normalize_ship(s) for s in raw_ships))


def span(x: Ship | Family) -> int:
    """Extent of a ship (last offset + 1), or the max over a family."""
    return x.span


def reflect(f: Family) -> Family:
    """Mirror every ship and re-canonicalize the family."""
    return Family(tuple(s.reflect() for s in f.ships))


def scale(f: Family, d: int) -> Family:
    """Multiply every offset of every ship by d >= 1."""
    if d < 1:
        raise ValueError("scale factor must be positive")
    return Family(tuple(Ship(tuple(a * d for a in s.offsets)) for s in f.ships))


def offset_gcd(ships) -> int:
    """gcd of all offsets of all ships; 0 when every ship is a single cell."""
    d = 0
    for ship in ships:
        for a in ship.offsets:
            d = math.gcd(d, a)
    return d


def scale_reduce(f: Family) -> tuple[Family, int]:
    """Divide out the family-wide gcd of all nonzero offsets.

    Returns the reduced family and the factor d (1 when the family is
    already primitive, or consists only of single-cell ships).  The
    minimum piercing density is invariant under this reduction.
    """
    d = offset_gcd(f.ships)
    if d <= 1:
        return f, 1
    reduced = Family(tuple(Ship(tuple(a // d for a in s.offsets)) for s in f.ships))
    return reduced, d


# ----------------------------------------------------------------------
# 2D types
# ----------------------------------------------------------------------

@dataclass(frozen=True, order=True)
class Ship2D:
    """A 2D ship: distinct grid cells, lexicographically smallest at (0,0)."""

    points: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if not self.points:
            raise ValueError("a ship needs at least one cell")
        if len(set(self.points)) != len(self.points):
            raise ValueError("duplicate cell in 2D ship")
        if tuple(sorted(self.points)) != self.points:
            raise ValueError("2D ship cells must be sorted")
        if self.points[0] != (0, 0):
            raise ValueError("2D ship must be anchored at (0,0)")

    @property
    def size(self) -> int:
        return len(self.points)

    def reflect(self) -> "Ship2D":
        """Point reflection through the origin, re-anchored."""
        return normalize_ship_2d([(-x, -y) for x, y in self.points])

    def __str__(self) -> str:
        return ",".join(f"({x},{y})" for x, y in self.points)


@dataclass(frozen=True, order=True)
class Family2D:
    """Canonical 2D family: sorted, duplicate-free, non-empty."""

    ships: tuple[Ship2D, ...]

    def __post_init__(self):
        if not self.ships:
            raise ValueError("a family needs at least one ship")
        object.__setattr__(self, "ships", tuple(sorted(set(self.ships))))

    def __len__(self) -> int:
        return len(self.ships)

    def __iter__(self):
        return iter(self.ships)

    def __str__(self) -> str:
        return ";".join(str(s) for s in self.ships)


def normalize_ship_2d(raw_points) -> Ship2D:
    """Sort cells and translate the lexicographically smallest to (0,0)."""
    pts = sorted(tuple(p) for p in raw_points)
    if not pts:
        raise ValueError("a ship needs at least one cell")
    if any(q == p for p, q in zip(pts, pts[1:])):
        raise ValueError(f"duplicate cell in 2D ship {list(raw_points)}")
    ax, ay = pts[0]
    return Ship2D(tuple((x - ax, y - ay) for x, y in pts))


def reflect_2d(f: Family2D) -> Family2D:
    return Family2D(tuple(s.reflect() for s in f.ships))


# ----------------------------------------------------------------------
# Text formats
#
# 1D family: ships separated by ';', offsets by ',', whitespace ignored,
# e.g. "0,1;0,2,4".  File format: one ship per line, '#' starts a comment.
# 2D family: ships separated by ';', cells as "(x,y)" pairs,
# e.g. "(0,0),(1,0),(0,1);(0,0),(1,-1),(1,0)".
# ----------------------------------------------------------------------

def parse_family(text: str) -> Family:
    """Parse "0,1;0,2,4"-style text; offsets may be arbitrary integers."""
    raw = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            raise ParseError(f"empty ship in family spec {text!r}")
        try:
            raw.append([int(tok) for tok in chunk.split(",")])
        except ValueError as exc:
            raise ParseError(f"bad offset in ship {chunk!r}: {exc}") from exc
    try:
        return make_family(raw)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def parse_family_file(path) -> Family:
    """Read a family from a file: one ship per line, '#' comments."""
    raw = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            try:
                raw.append([int(tok) for tok in line.split(",")])
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: bad ship {line!r}") from exc
    if not raw:
        raise ParseError(f"{path}: no ships found")
    try:
        return make_family(raw)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


_POINT_RE = re.compile(r"\(\s*(-?\d+)\s*,\s*(-?\d+)\s*\)")


def parse_cells_2d(text: str) -> list[tuple[int, int]] | None:
    """The "(x,y)" cells of comma-separated text; None if anything else is left."""
    leftover = _POINT_RE.sub("", text).replace(",", "").strip()
    if leftover:
        return None
    return [(int(x), int(y)) for x, y in _POINT_RE.findall(text)]


def parse_family_2d(text: str) -> Family2D:
    """Parse "(0,0),(1,0),(0,1);(0,0),(1,1)"-style 2D family text."""
    ships = []
    for chunk in text.split(";"):
        pts = parse_cells_2d(chunk)
        if not pts:
            raise ParseError(f"bad 2D ship spec {chunk!r}")
        try:
            ships.append(normalize_ship_2d(pts))
        except ValueError as exc:
            raise ParseError(str(exc)) from exc
    try:
        return Family2D(tuple(ships))
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
