"""Constructive piercing patterns.

Three explicit constructions with exact densities, plus a handful of
named reference patterns used across tests and the CLI:

* a greedy sweep for families {[0,a_1], ..., [0,a_n]} whose periodic
  tail has density at most n/(n+1);
* a width-a slab construction of density (a+1)/(3a) piercing the ship
  [0, a, a+b] and its mirror image for coprime a >= b;
* the easiest family of n k-cell ships, pierced by every k-th cell.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .core import Family, Ship, normalize_ship, normalize_ship_2d
from .verifier import Pattern1D, Pattern2D


class GreedyHorizonError(ValueError):
    """The greedy sweep did not close a cycle within the horizon."""


def greedy_two_sided(gaps, horizon: int | None = None) -> Pattern1D:
    """Periodic tail of the greedy pattern for {[0,a_1], ..., [0,a_n]}.

    Sweeping upward from an all-shot initial segment, every cell not
    yet forced is left unshot and the cells one gap above it are shot.
    Each unshot cell forces at most n shots, so the density is at most
    n/(n+1).  The sweep state (the forced shots among the next a_n
    cells) is a deterministic a_n-bit word, so the sweep enters a cycle
    within 2^(a_n) steps; the cycle is returned as the pattern.  The
    mirrored downward sweep adds nothing to the asymptotic density, so
    only the upward tail is materialized.  horizon caps the sweep's
    steps, and GreedyHorizonError is raised if no cycle closes within it.
    """
    gaps = sorted(set(int(g) for g in gaps))
    if not gaps or gaps[0] < 1:
        raise ValueError("gaps must be distinct positive integers")
    top = gaps[-1]
    if horizon is None:
        horizon = (1 << top) * (top + 1) + top
    elif horizon < 1:
        raise ValueError("need horizon >= 1")

    # Bit i of the state: cell (current + i) already forced to 1.
    force = 0
    for g in gaps:
        force |= 1 << (g - 1)
    state = 0
    seen: dict[int, int] = {}
    outputs: list[int] = []
    for t in range(horizon):
        if state in seen:
            start = seen[state]
            period = t - start
            bits = outputs[start:t]
            pattern = Pattern1D(period, {i for i, b in enumerate(bits) if b})
            if pattern.density > Fraction(len(gaps), len(gaps) + 1):
                raise AssertionError("greedy density exceeded n/(n+1)")
            return pattern
        seen[state] = t
        if state & 1:
            outputs.append(1)
            state >>= 1
        else:
            outputs.append(0)
            state = (state >> 1) | force
    raise GreedyHorizonError(
        f"no cycle within horizon {horizon}; increase the horizon"
    )


def slab_pattern(a: int, b: int) -> Pattern1D:
    """Period-3a pattern of density (a+1)/(3a) piercing [0,a,a+b] and
    its mirror image, for coprime a >= b >= 1.

    Lay the integers into a width-a slab via (i,j) -> i*b + j*a.  Off
    the seam, translates of the ship and of its mirror become L-shaped
    triples spanning three consecutive anti-diagonals, so shooting the
    cells with i + j divisible by 3 (density 1/3) hits them all.
    Translates crossing the seam wrap onto column 0 shifted by b rows;
    raising column 0 to density 2/3 with one extra residue class
    (chosen as (b - a) mod 3, which is where the wrapped cells land)
    covers those as well.
    """
    if a < b or b < 1:
        raise ValueError("need a >= b >= 1")
    if math.gcd(a, b) != 1:
        raise ValueError("need gcd(a, b) = 1")
    period = 3 * a
    binv = pow(b, -1, a) if a > 1 else 0
    boost = (b - a) % 3 or 1
    residues = set()
    for cell in range(period):
        i = (cell * binv) % a
        j = ((cell - i * b) // a) % 3
        if (i + j) % 3 == 0 or (i == 0 and j == boost):
            residues.add(cell)
    assert len(residues) == a + 1
    return Pattern1D(period, residues)


def slab_family(a: int, b: int) -> Family:
    """The family {[0, a, a+b], mirror image} that slab_pattern pierces."""
    ship = Ship((0, a, a + b))
    return Family((ship, ship.reflect()))


def easiest_family(n: int, k: int) -> tuple[Family, Pattern1D]:
    """n k-cell ships pierced by shooting every k-th cell.

    Ship j consists of the cells 1..k-1 plus j*k (then normalized), so
    every translate covers all residues mod k and the density-1/k
    pattern {0 mod k} pierces the family.
    """
    if n < 1 or k < 1:
        raise ValueError("need n, k >= 1")
    ships = tuple(
        normalize_ship(list(range(1, k)) + [j * k]) for j in range(1, n + 1)
    )
    return Family(ships), Pattern1D(k, {0})


def reference_pattern(name: str, n: int | None = None) -> Pattern1D | Pattern2D:
    """Named fixture patterns with exact densities.

    * "evens": shots at even cells, density 1/2.
    * "skip": shots everywhere except multiples of n+1, density n/(n+1).
    * "diag3": planar shots where i - j is divisible by 3, density 1/3.
    * "even-rows": planar shots filling every other row, density 1/2.
    """
    if name == "evens":
        return Pattern1D(2, {0})
    if name == "skip":
        if n is None or n < 1:
            raise ValueError('"skip" needs n >= 1')
        return Pattern1D(n + 1, set(range(1, n + 1)))
    if name == "diag3":
        return Pattern2D((3, 3), {(i, j) for i in range(3) for j in range(3) if (i - j) % 3 == 0})
    if name == "even-rows":
        return Pattern2D((1, 2), {(0, 0)})
    raise ValueError(f"unknown pattern {name!r}; known: evens, skip, diag3, even-rows")


_L_CORNER = ((0, 0), (1, 0), (0, 1))


def reference_family_2d(name: str) -> Family:
    """Named planar test families built from an L-triomino.

    * "l180": the corner L together with its 180-degree rotation.
    * "l90": the corner L together with its 90-degree rotation.
    """
    base = normalize_ship_2d(_L_CORNER)
    if name == "l180":
        other = base.reflect()
    elif name == "l90":
        other = normalize_ship_2d([(-y, x) for x, y in _L_CORNER])
    else:
        raise ValueError(f"unknown family {name!r}; known: l180, l90")
    return Family((base, other))
