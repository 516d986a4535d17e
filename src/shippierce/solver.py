"""Exact minimum piercing density for 1D ship families.

The computation runs on the graph of valid length-s windows, where s is
the span of the (scale-reduced) family.  A window is an s-bit word,
most significant bit oldest, that hits every ship translate lying fully
inside it.  Sliding one cell to the right drops the oldest bit and
appends a fresh one, so every node has at most two out-edges and the
appended bit is the edge weight.  Bi-infinite piercing patterns are
exactly the bi-infinite walks through valid windows, so the minimum
density equals the minimum mean weight over directed cycles.

The minimum mean is found by parametric Bellman-Ford: Lawler's search
over the mean, with the parent-pointer negative-cycle test of
Cherkassky and Goldberg (see min_mean_cycle).  Its final node
potentials certify the lower bound: no edge has a negative reduced
cost, so no cycle has a lower mean, and this is checked on every
solve.  Optimal cycles are then exactly the cycles of tight (zero
reduced cost) edges, and one is extracted from them.  Ties are broken
deterministically: shortest cycle first, then the lexicographically
smallest node sequence.  The pattern read off the cycle is re-checked
against the input family before it is returned, which certifies the
upper bound.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import Family, scale_reduce, span
from .verifier import Pattern1D, scale_pattern, verify_pattern_1d

DEFAULT_SPAN_CAP = 22

# Refuse window enumerations whose working arrays would exceed this.
MEMORY_GUARD_BYTES = 2 << 30

_INF = 1 << 40


class SpanCapError(RuntimeError):
    """The reduced family needs a longer window than the caller allows."""

    def __init__(self, required_span: int, span_cap: int):
        self.required_span = required_span
        self.span_cap = span_cap
        super().__init__(
            f"family requires window length {required_span}, above the span cap "
            f"{span_cap}; rerun with span_cap >= {required_span}"
        )


class MemoryGuardError(RuntimeError):
    """Estimated working-set size exceeds the memory guard."""


@dataclass(frozen=True, eq=False)
class WindowGraph:
    """Directed graph of valid s-bit windows.

    Nodes are a sorted int64 array of window words (MSB = oldest cell,
    so integer order is lexicographic order on the 01-strings).  Edges
    go from w to ((w << 1) & mask) | b for b in {0, 1} whenever the
    target is also a node; the weight of an edge is the appended bit b.
    """

    s: int
    nodes: np.ndarray

    def __post_init__(self):
        if self.s < 1:
            raise ValueError("window length must be positive")
        nodes = np.asarray(self.nodes, dtype=np.int64)
        if nodes.ndim != 1 or (nodes[1:] <= nodes[:-1]).any():
            raise ValueError("nodes must be sorted and duplicate-free")
        if len(nodes) and not (0 <= nodes[0] and nodes[-1] < (1 << self.s)):
            raise ValueError("node words must fit in s bits")
        object.__setattr__(self, "nodes", nodes)

    @classmethod
    def from_family(cls, family: Family) -> "WindowGraph":
        """Enumerate all valid windows of length span(family).

        Validity is checked against one bitmask per (ship, translate)
        pair: a window w is valid iff w AND mask != 0 for every mask.
        """
        s = span(family)
        estimate = (1 << s) * 9  # int64 word array + bool validity array
        if estimate > MEMORY_GUARD_BYTES:
            raise MemoryGuardError(
                f"window enumeration for span {s} needs ~{estimate} bytes, "
                f"above the guard of {MEMORY_GUARD_BYTES}"
            )
        masks = translate_masks(family, s)
        words = np.arange(1 << s, dtype=np.int64)
        ok = np.ones(1 << s, dtype=bool)
        for m in masks:
            ok &= (words & m) != 0
        return cls(s, words[ok])

    def predecessors(self) -> tuple[np.ndarray, np.ndarray]:
        """Predecessor indices of every node, shape (2, n), and a found mask.

        Row b holds the index of the word with oldest bit b followed by
        the node's older s - 1 bits; the mask is False where that word
        is not a node.
        """
        words = self.nodes
        wanted = np.stack([words >> 1, (words >> 1) | (1 << (self.s - 1))])
        idx = np.minimum(np.searchsorted(words, wanted), len(words) - 1)
        return idx, words[idx] == wanted


def translate_masks(family: Family, s: int) -> list[int]:
    """One bitmask per ship translate that fits inside an s-window."""
    masks = []
    for ship in family.ships:
        t = ship.span
        if t > s:
            raise ValueError(f"ship span {t} exceeds window length {s}")
        for j in range(s - t + 1):
            m = 0
            for a in ship.offsets:
                m |= 1 << (s - 1 - (j + a))
            masks.append(m)
    return masks


@dataclass(frozen=True)
class SolveResult:
    density: Fraction
    pattern: Pattern1D
    node_count: int
    cycle_length: int
    window_length: int
    scale: int


def min_mean_cycle(graph: WindowGraph) -> tuple[Fraction, list[int]]:
    """Exact minimum cycle mean and one witness cycle.

    Starts from the bound lambda = p/q = 1, the mean of the all-ones
    window's self-loop, and sweeps all nodes at once on the integer edge
    weights q*w - p from zero potentials; a node's potential and parent
    pointer change only on a strict decrease.  When the parent pointers
    close a cycle, lambda drops to that cycle's mean and the sweeps
    restart from zero potentials.  The first sweep that changes no
    potential ends the search, and it always comes:

    * every cycle among the parent pointers has negative weight, that
      is a mean below lambda, so lambda strictly decreases;
    * lambda therefore runs through the finite set of cycle means;
    * while the parent pointers are acyclic, each potential is at least
      the weight of a simple parent path from a node still at potential
      0, so potentials are bounded below.  They are integers and every
      sweep lowers one, so each lambda round ends.

    The witness is the shortest optimal cycle; among equally short
    ones, the one whose node sequence (rotated to start at its smallest
    node) is lexicographically smallest.

    Raises ValueError if the graph has no cycle, and AssertionError if
    the final potentials fail to certify the mean.
    """
    words = graph.nodes
    n = len(words)
    if n == 0:
        raise ValueError("graph has no nodes")
    pred, found = graph.predecessors()
    # All edges into a node carry the same weight: the node's newest bit.
    w_in = words & 1

    p, q = 1, 1
    d = np.zeros(n, dtype=np.int64)
    parent = np.full(n, -1)
    while True:
        via0, via1 = np.where(found, d[pred] + (q * w_in - p), _INF)
        best = np.minimum(via0, via1)
        improved = best < d
        if not improved.any():
            break
        d = np.where(improved, best, d)
        parent = np.where(improved, np.where(via1 < via0, pred[1], pred[0]), parent)
        cycle = _parent_cycle(parent)
        if cycle is not None:
            mean = Fraction(int(w_in[cycle].sum()), len(cycle))
            assert mean < Fraction(p, q), "parent cycle is not negative"
            p, q = mean.numerator, mean.denominator
            d[:] = 0
            parent[:] = -1

    # Lower-bound certificate: no edge has a negative reduced cost.
    reduced = d[pred] + (q * w_in - p) - d
    if (found & (reduced < 0)).any():
        raise AssertionError("potentials do not certify the minimum cycle mean")
    cycle = _extract_cycle(words, pred, found & (reduced == 0))
    assert q * sum(w & 1 for w in cycle) == p * len(cycle)
    return Fraction(p, q), cycle


def _parent_cycle(parent: np.ndarray) -> list[int] | None:
    """Node indices of one cycle of parent pointers, if there is one.

    Pointer doubling sends every node at least n steps up its parent
    chain (nodes without a parent point at a sentinel that points at
    itself), which lands exactly on the nodes of parent cycles.
    """
    n = len(parent)
    jump = np.append(np.where(parent >= 0, parent, n), n)
    for _ in range(n.bit_length()):
        jump = jump[jump]
    on_cycle = np.flatnonzero(jump[:n] < n)
    if not len(on_cycle):
        return None
    cycle = [int(jump[on_cycle[0]])]
    while (u := int(parent[cycle[-1]])) != cycle[0]:
        cycle.append(u)
    return cycle


def _extract_cycle(words, pred, tight) -> list[int]:
    """Deterministic optimal cycle among the tight edges.

    tight masks the edges pred[b, v] -> v of zero reduced cost.  Every
    cycle of tight edges is optimal and every optimal cycle is tight.
    Nodes without a tight edge both in and out lie on no such cycle and
    are trimmed until none is left.  Inside the tight subgraph, any
    closed walk whose length equals the minimum cycle length is
    automatically a simple optimal cycle, which reduces the tie-break
    to breadth-first searches plus one greedy descent.
    """
    n = len(words)
    alive = np.ones(n, dtype=bool)
    while True:
        edge = tight & alive & alive[pred]
        keep = edge.any(axis=0) & (np.bincount(pred[edge], minlength=n) > 0)
        if np.array_equal(keep, alive):
            break
        alive = keep
    if not alive.any():
        raise ValueError("graph has no cycle")

    # Tight successor lists, ascending by target (hence lexicographic):
    # both out-edges of a node sit in the row of its oldest bit, and
    # nonzero() walks each row by ascending target.
    tight_succ: dict[int, list[int]] = {v: [] for v in np.flatnonzero(alive).tolist()}
    rows, targets = np.nonzero(edge)
    for u, v in zip(pred[rows, targets].tolist(), targets.tolist()):
        tight_succ[u].append(v)

    # Smallest node carrying a shortest tight closed walk.
    best_len = None
    start = None
    for v in tight_succ:
        cap = best_len if best_len is not None else n + 1
        length = _closed_walk_length(tight_succ, v, cap)
        if length is not None and (best_len is None or length < best_len):
            best_len = length
            start = v

    # Exact-length feasibility, then greedy lexicographic descent.
    feasible = [set() for _ in range(best_len + 1)]
    feasible[0] = {start}
    for r in range(1, best_len + 1):
        prev = feasible[r - 1]
        feasible[r] = {u for u, out in tight_succ.items() if any(v in prev for v in out)}

    cycle_idx = [start]
    u = start
    for step_no in range(best_len - 1):
        remaining = best_len - step_no - 1
        u = next(v for v in tight_succ[u] if v in feasible[remaining])
        cycle_idx.append(u)
    assert start in tight_succ[cycle_idx[-1]]
    assert len(set(cycle_idx)) == len(cycle_idx)
    return [int(words[i]) for i in cycle_idx]


def _closed_walk_length(tight: dict[int, list[int]], v: int, cap: int) -> int | None:
    """Length of the shortest tight closed walk through v, if < cap."""
    seen = {u: 1 for u in tight[v]}
    if v in seen:
        return 1
    queue = deque(tight[v])
    while queue:
        u = queue.popleft()
        depth = seen[u]
        if depth + 1 >= cap:
            continue
        for t in tight[u]:
            if t == v:
                return depth + 1
            if t not in seen:
                seen[t] = depth + 1
                queue.append(t)
    return None


def exact_density(f: Family, span_cap: int = DEFAULT_SPAN_CAP) -> SolveResult:
    """Exact minimum density of a periodic pattern piercing f.

    The family is scale-reduced first; the window graph is built from
    the reduced family and must fit within span_cap.  The returned
    pattern is scaled back so that it pierces f itself, which is
    re-verified before returning.
    """
    if any(ship.size == 1 for ship in f.ships):
        # A single-cell ship forces every cell to be shot.
        return SolveResult(Fraction(1), Pattern1D(1, {0}), 1, 1, 1, 1)

    reduced, d = scale_reduce(f)
    s = span(reduced)
    if s > span_cap:
        raise SpanCapError(s, span_cap)

    graph = WindowGraph.from_family(reduced)
    density, cycle = min_mean_cycle(graph)

    length = len(cycle)
    residues = {i for i in range(length) if cycle[(i + 1) % length] & 1}
    pattern = scale_pattern(Pattern1D(length, residues), d)

    if pattern.density != density:
        raise AssertionError("optimal cycle density mismatch")
    witness = verify_pattern_1d(pattern, f)
    if witness is not None:
        raise AssertionError(f"optimal pattern failed verification at {witness}")

    return SolveResult(
        density=density,
        pattern=pattern,
        node_count=len(graph.nodes),
        cycle_length=length,
        window_length=s,
        scale=d,
    )
