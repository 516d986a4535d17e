"""Closed-form densities and bounds for small ship families.

Covers: the exact formula for two 2-cell ships, the toughest families
of n 2-cell ships, general lower/upper bounds for n ships of k cells,
the easiest-family value 1/k, and the 2D classifiers for pairs of
2-cell ships and for a 3-cell ship together with its point reflection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .core import Family, Ship, normalize_ship
from .solver import DEFAULT_SPAN_CAP, exact_densities
from .verifier import Pattern2D


def two_2ships_density(s1: Ship, s2: Ship) -> Fraction:
    """Exact minimum density for a family of two 2-cell ships.

    Writing the ships as [0, d*a] and [0, d*b] with a, b coprime, the
    value is 1/2 when a and b are both odd and (a+b+1)/(2(a+b))
    otherwise; the family-wide factor d never matters.
    """
    for s in (s1, s2):
        if s.size != 2:
            raise ValueError(f"expected 2-cell ships, got {s}")
    g = math.gcd(s1.offsets[1], s2.offsets[1])
    a = s1.offsets[1] // g
    b = s2.offsets[1] // g
    if a % 2 == 1 and b % 2 == 1:
        return Fraction(1, 2)
    return Fraction(a + b + 1, 2 * (a + b))


def toughest_2ships_value(n: int) -> Fraction:
    """Worst-case density over families of n 2-cell ships: n/(n+1)."""
    if n < 1:
        raise ValueError("need n >= 1")
    return Fraction(n, n + 1)


def toughest_2ships_family(n: int) -> Family:
    """The witness family {[0,1], ..., [0,n]}."""
    if n < 1:
        raise ValueError("need n >= 1")
    return Family(tuple(Ship((0, i)) for i in range(1, n + 1)))


def easiest_value(n: int, k: int) -> Fraction:
    """Best-case density over families of n k-cell ships: 1/k."""
    if n < 1 or k < 1:
        raise ValueError("need n, k >= 1")
    return Fraction(1, k)


@dataclass(frozen=True)
class BoundsReport:
    """Float envelope for the toughest-instance density at (n, k).

    lower may be <= 0 for small n; it is reported raw with
    vacuous_lower set rather than clamped.  upper_rational_part is the
    n/(n+1) term of the upper bound, kept exact.
    """

    n: int
    k: int
    lower: float
    upper: float
    upper_rational_part: Fraction
    vacuous_lower: bool


def density_bounds(n: int, k: int) -> BoundsReport:
    """Bounds on the toughest-instance density for n ships of k cells.

    lower = 1 - e / n**(1/(k-1)); upper = min(n/(n+1), (1+ln(kn))/k),
    with the natural logarithm.  Both sides are floats and documented
    as non-exact.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if k < 2:
        raise ValueError("bounds are defined for k >= 2")
    lower = 1.0 - math.e / n ** (1.0 / (k - 1))
    rational_part = Fraction(n, n + 1)
    upper = min(float(rational_part), (1.0 + math.log(k * n)) / k)
    return BoundsReport(
        n=n,
        k=k,
        lower=lower,
        upper=upper,
        upper_rational_part=rational_part,
        vacuous_lower=lower <= 0.0,
    )


# ----------------------------------------------------------------------
# 2D classifiers.  A 2-cell ship in the plane is the vector from its
# first cell to its second, so a pair of them is a pair of vectors.
# ----------------------------------------------------------------------

def _cross(u: tuple[int, int], v: tuple[int, int]) -> int:
    return u[0] * v[1] - u[1] * v[0]


def _collinear_multiples(u, v) -> tuple[int, int]:
    """For collinear u, v return integers a, b with u = a*w, v = b*w,
    w being the primitive direction of u."""
    a = math.gcd(abs(u[0]), abs(u[1]))
    w = (u[0] // a, u[1] // a)
    b = v[0] // w[0] if w[0] != 0 else v[1] // w[1]
    return a, b


def two_2ships_density_2d(u: tuple[int, int], v: tuple[int, int]) -> Fraction:
    """Minimum density for the planar family {[0,u], [0,v]}.

    1/2 when u and v are linearly independent; otherwise the pair lives
    on one line and the 1D two-ship formula applies to the multiples of
    the primitive direction (signs drop out by reflection symmetry).
    """
    if u == (0, 0) or v == (0, 0):
        raise ValueError("ship vectors must be nonzero")
    if _cross(u, v) != 0:
        return Fraction(1, 2)
    a, b = _collinear_multiples(u, v)
    return two_2ships_density(Ship((0, abs(a))), Ship((0, abs(b))))


def three_ship_reflection_2d(
    u: tuple[int, int], v: tuple[int, int], span_cap: int = DEFAULT_SPAN_CAP
) -> Fraction:
    """Minimum density for {S, -S} where S is the 3-cell ship {0, u, v}.

    1/3 when u and v are linearly independent (see
    three_ship_reflection_2d_witness for the piercing pattern).  When
    they are collinear the problem is one-dimensional and the exact
    value comes from the solver on {S', reflect(S')} for the
    corresponding 1D 3-cell ship S'.
    """
    if u == (0, 0) or v == (0, 0) or u == v:
        raise ValueError("need distinct nonzero cell vectors")
    if _cross(u, v) != 0:
        return Fraction(1, 3)
    a, b = _collinear_multiples(u, v)
    ship = normalize_ship([0, a, b])
    family = Family((ship, ship.reflect()))
    return exact_densities([family], span_cap=span_cap)[0]


def three_ship_reflection_2d_witness(
    u: tuple[int, int], v: tuple[int, int]
) -> Pattern2D:
    """Density-1/3 pattern piercing {S, -S} for independent u, v.

    Inside the lattice spanned by u and v the ship is an L-triomino and
    its reflection is the 180-degree rotation, and the sublattice where
    the two coordinates agree mod 3 pierces both.  The plane is a
    disjoint union of translated copies of the lattice; assigning each
    cell the floor of its rational (u, v)-coordinates picks one
    translated sublattice per copy, and the result is periodic with
    period 3*|det(u, v)| in both axes.
    """
    det = _cross(u, v)
    if det == 0:
        raise ValueError("cell vectors must be linearly independent")
    big = 3 * abs(det)
    residues = set()
    for i in range(big):
        for j in range(big):
            # (alpha, beta) = M^-1 (i, j) with columns u, v; exact floors.
            a = (v[1] * i - v[0] * j) // det
            b = (u[0] * j - u[1] * i) // det
            if (a - b) % 3 == 0:
                residues.add((i, j))
    pattern = Pattern2D((big, big), residues)
    assert 3 * len(residues) == big * big
    return pattern
