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

__version__ = "0.1.0"
