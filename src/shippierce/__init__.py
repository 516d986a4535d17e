"""Exact minimum-density shooting patterns for ship families on the grid.

Given a finite family of ships (finite sets of cells in Z or Z^2,
identified up to translation), this package computes the lowest
asymptotic density of a periodic shooting pattern that hits every
translate of every ship: exactly in 1D via a minimum mean cycle over
valid sliding windows, in closed form for several small-ship families,
and constructively for the classical witness patterns.  A verifier
certifies any pattern against any family, and an exhaustive search
reproduces the toughest-instance tables for small spans.
"""

from .core import (
    Family,
    Family2D,
    ParseError,
    Ship,
    Ship2D,
    make_family,
    normalize_ship,
    normalize_ship_2d,
    parse_family,
    parse_family_2d,
    parse_family_file,
    reflect,
    scale,
    scale_reduce,
)
from .solver import (
    DEFAULT_SPAN_CAP,
    MemoryGuardError,
    SolveResult,
    SpanCapError,
    WindowGraph,
    exact_density,
    min_mean_cycle,
)
from .verifier import (
    Pattern1D,
    Pattern2D,
    parse_pattern_1d,
    parse_pattern_2d,
    scale_pattern,
    verify_pattern_1d,
    verify_pattern_2d,
)
from .closed_forms import (
    BoundsReport,
    density_bounds,
    easiest_value,
    three_ship_reflection_2d,
    three_ship_reflection_2d_witness,
    toughest_2ships_family,
    toughest_2ships_value,
    two_2ships_density,
    two_2ships_density_2d,
)
from .constructions import (
    GreedyHorizonError,
    easiest_family,
    greedy_two_sided,
    reference_family_2d,
    reference_pattern,
    slab_family,
    slab_pattern,
)
from .search import (
    MirrorTripleReport,
    SearchReport,
    check_mirror_triples,
    compute_extremes,
    enumerate_families,
)

__version__ = "0.1.0"
