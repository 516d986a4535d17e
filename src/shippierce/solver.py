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

exact_densities is the batch entry point for sweeps.  It solves
families of one reduced span together, on a stack of their window
masks, and returns densities only.  Both bounds are still certified for
every family; the upper bound comes from the last parent cycle of the
search, so no tie-broken witness is extracted.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import Family, scale_reduce
from .verifier import Pattern1D, scale_pattern, verify_pattern_1d

DEFAULT_SPAN_CAP = 22

# Refuse solves whose estimated peak working set would exceed this.
MEMORY_GUARD_BYTES = 2 << 30

# Peak RSS growth of a whole density command per s-bit window at spans 18
# and 20 on 0,1,s-1, 0,1,s-2;0,s-2,s-1 and 0,5,s-2,s-1;0,s-1 (x86-64,
# Python 3.11, numpy 2.4): 82-88 B, or 76-83 B with glibc's mmap threshold
# fixed by MALLOC_MMAP_THRESHOLD_=131072.  Kept at 256 so span 24 stays the
# first refused; lowering it goes with the ROADMAP item on the span cap.
# exact_densities charges every row of a stack at this rate.
BYTES_PER_WINDOW = 256

# Potential of an invalid word.  An edge into one costs 2 * _INF, more than
# any potential can fall, so edges touching one are never tight or negative.
_INF = 1 << 60


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


class WindowGraph:
    """Directed graph of valid s-bit windows, kept as a boolean mask.

    valid[w] says whether word w (MSB = oldest cell, so integer order is
    lexicographic order on the 01-strings) is a node.  Edges go from w
    to ((w << 1) & mask) | b for b in {0, 1} whenever the target is also
    a node; the weight of an edge is the appended bit b.  It is a
    subgraph of the binary de Bruijn graph: the predecessors of v are
    v >> 1 and (v >> 1) | 2^(s-1).
    """

    def __init__(self, s: int, valid: np.ndarray):
        if s < 1:
            raise ValueError("window length must be positive")
        if valid.shape != (1 << s,):
            raise ValueError(f"need a mask of {1 << s} words, got shape {valid.shape}")
        self.s = s
        self.valid = valid

    @property
    def nodes(self) -> np.ndarray:
        """The valid words, ascending."""
        return np.flatnonzero(self.valid)

    @classmethod
    def from_family(cls, family: Family) -> "WindowGraph":
        """Enumerate all valid windows of length family.span.

        With one length-2 axis per cell, oldest first, the mask's C-order
        flattening is the MSB-first word order.  Each ship translate
        clears one block: the windows that are 0 on all of its cells.
        """
        s = family.span
        estimate = (1 << s) * BYTES_PER_WINDOW
        if estimate > MEMORY_GUARD_BYTES:
            raise MemoryGuardError(
                f"solving span {s} needs ~{estimate} bytes, "
                f"above the guard of {MEMORY_GUARD_BYTES}"
            )
        cells = np.ones((2,) * s, dtype=bool)
        for ship in family.ships:
            for j in range(s - ship.span + 1):
                block = [slice(None)] * s
                for a in ship.offsets:
                    block[j + a] = 0
                cells[tuple(block)] = False
        return cls(s, cells.reshape(-1))


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

    Runs _min_means on the one-row stack of graph.valid, then extracts
    the witness from the tight edges of its certified potentials: the
    shortest optimal cycle; among equally short ones, the one whose
    node sequence (rotated to start at its smallest node) is
    lexicographically smallest.

    Raises ValueError if the graph has no cycle, and AssertionError if
    the final potentials fail to certify the mean.
    """
    [(_, p, q, _, reduced)] = _min_means(graph.valid[None])
    cycle = _extract_cycle(graph, reduced == 0, q)
    assert q * sum(w & 1 for w in cycle) == p * len(cycle)
    return Fraction(p, q), cycle


def _min_means(valid: np.ndarray):
    """Certified minimum cycle mean of each row of a (B, 2^s) mask stack.

    Yields (row, p, q, cycle, reduced) once per row, in the order the
    rows finish: the minimum mean p/q of row's window graph, the last
    parent cycle found (in parent order, None if lambda never dropped
    below 1) and the reduced edge costs, laid out as in _extract_cycle,
    under potentials that certify p/q.

    Each row starts from the bound lambda = p/q = 1, the mean of the
    all-ones window's self-loop, and all rows are swept at once on the
    integer edge weights q*w - p of their own lambda, from zero
    potentials; a node's potential and parent pointer change only on a
    strict decrease.  One sweep counter serves the whole stack: the
    parent pointers of every row are checked for a cycle after 1, 2,
    4, ... sweeps since the last time any row's lambda dropped.  When a
    row's pointers close a cycle, that row's lambda drops to the cycle's
    mean and its sweeps restart from zero potentials.  The first sweep
    that changes no potential in any row ends the search, and it always
    comes:

    * every cycle among the parent pointers has negative weight, that
      is a mean below lambda, so lambda strictly decreases;
    * each row's lambda therefore runs through the finite set of its
      cycle means, so the counter is reset finitely often, and from
      the last reset on the checks come at 1, 2, 4, ... sweeps;
    * while a row's parent pointers are acyclic, each potential is at
      least the weight of a simple parent path from a node still at
      potential 0, so potentials are bounded below.  They are integers
      and every sweep that changes the row lowers one, so a lambda
      round with no negative cycle stops changing the row;
    * potentials only fall, so once one is below that bound the parent
      pointers stay cyclic.  A negative cycle lets the sweeps lower
      potentials forever, so every check from some point on finds a
      parent cycle in that row.

    A row that a sweep leaves unchanged has no improving edge, so no
    later sweep changes it.  Its parent pointers hold no cycle: every
    parent edge is then tight, so a parent cycle would have weight zero,
    not below it.  Such rows are final.  They leave the stack only at
    the checks, so a one-row stack issues the same numpy calls per sweep
    as a loop without rows.

    Raises AssertionError if the final potentials of a row fail to
    certify its mean.
    """
    n = valid.shape[1]
    half = n >> 1
    newest = np.arange(n) & 1
    means = [(1, 1)] * len(valid)
    cycles = [None] * len(valid)
    rows = np.arange(len(valid))
    # The rows lie end to end, so that a sweep is the same numpy calls at
    # any B; row i of an array a is a.reshape(-1, n)[i].  All edges into
    # a word carry the same weight: its newest bit.
    cost = np.where(valid, newest - 1, 2 * _INF).ravel()
    d = np.where(valid, 0, _INF).ravel()
    pick = np.zeros(d.size, dtype=bool)  # parent is up + half * pick once d < 0
    # Word 2a + b of a row has the predecessors a and a + half of that row.
    up = np.arange(d.size) - (np.arange(d.size) % n + 1) // 2
    sweep = 0
    while True:
        low, high = d.reshape(-1, half)[0::2], d.reshape(-1, half)[1::2]
        while True:
            sweep += 1
            best = np.minimum(low, high).repeat(2) + cost
            improved = best < d
            if not improved.any():
                yield from _certified(rows, means, cycles, d, cost, n)
                return
            pick ^= improved & (pick ^ (high < low).repeat(2))
            np.minimum(d, best, out=d)
            if sweep & (sweep - 1) == 0:
                break
        for i, cycle in enumerate(_parent_cycle(np.where(d < 0, up + half * pick, -1), n)):
            if cycle is None:
                continue
            r = rows[i]
            mean = Fraction(sum(w & 1 for w in cycle), len(cycle))
            assert mean < Fraction(*means[r]), "parent cycle is not negative"
            p, q = means[r] = mean.numerator, mean.denominator
            cycles[r] = cycle
            cost.reshape(-1, n)[i] = np.where(valid[i], q * newest - p, 2 * _INF)
            d.reshape(-1, n)[i] = np.where(valid[i], 0, _INF)
            pick.reshape(-1, n)[i] = False
            sweep = 0
        if len(rows) == 1:
            continue  # a lone row that a sweep leaves unchanged ends the loop
        done = ~improved.reshape(-1, n).any(axis=1)
        if done.any():
            words = np.repeat(done, n)
            yield from _certified(rows[done], means, cycles, d[words], cost[words], n)
            rows, valid = rows[~done], valid[~done]
            cost, d, pick = cost[~words], d[~words], pick[~words]
            up = up[:d.size]


def _certified(rows, means, cycles, d, cost, n):
    """Lower-bound certificate of finished rows, laid end to end in d and
    cost: no edge has a negative reduced cost under their final
    potentials."""
    d, cost = d.reshape(-1, n), cost.reshape(-1, n)
    reduced = d.reshape(len(d), 2, -1).repeat(2, axis=2) + (cost - d)[:, None]
    if (reduced < 0).any():
        raise AssertionError("potentials do not certify the minimum cycle mean")
    for r, row_reduced in zip(rows.tolist(), reduced):
        yield (r, *means[r], cycles[r], row_reduced)


def _parent_cycle(parent: np.ndarray, n: int) -> list[list[int] | None]:
    """One cycle of parent pointers in each n-word row that has one.

    parent holds the rows end to end and points into the whole array;
    -1 marks a word without a parent.  A cycle is returned as the word
    indices within its row.  Pointer doubling sends every node at least
    n steps up its parent chain (nodes without a parent point at a
    sentinel that points at itself), which lands exactly on the nodes
    of parent cycles.  It stops early once every chain has reached the
    sentinel.
    """
    end = len(parent)
    jump = np.append(np.where(parent >= 0, parent, end), end)
    for _ in range(n.bit_length()):
        jump = jump[jump]
        if jump.min() == end:
            return [None] * (end // n)
    on_cycle = (jump[:end] < end).reshape(-1, n)
    cycles = [None] * (end // n)
    for r in np.flatnonzero(on_cycle.any(axis=1)).tolist():
        cycle = [int(jump[r * n + on_cycle[r].argmax()])]
        while (u := int(parent[cycle[-1]])) != cycle[0]:
            cycle.append(u)
        cycles[r] = [w - r * n for w in cycle]
    return cycles


def _extract_cycle(graph, tight, q) -> list[int]:
    """Deterministic optimal cycle among the tight edges.

    tight[c, v] masks the edge into word v from (v >> 1) + c * 2^(s-1)
    of zero reduced cost: the tight cycles are exactly the optimal ones.
    Nodes without a tight edge in from a kept node lie on none and are
    trimmed away.  Nodes without one out are kept: a search only enters
    nodes that reach its root, so trimming them would not shrink it.
    Then:

    * reduced costs sum to zero on a tight cycle, so q*W = p*L and, as
      gcd(p, q) = 1, every optimal length L is a multiple of q;
    * a closed walk of length L through r re-appends r's own bits, so
      r is L-periodic: r >> L == r mod 2^max(s-L, 0), true for L >= s;
    * the start, the smallest node on any shortest optimal cycle, is
      the first root whose search over the nodes above it closes a walk
      of the current length: those cycles through it lie above it, and
      a smaller root lies on none;
    * no word on the cycle is below its start r, and the word j steps on
      has r's low s-j bits on top, so only prenecklaces are roots:
      r mod 2^(s-j) >= r >> j for every j in 1..s-1;
    * a closed walk of the shortest length is a simple cycle, so a
      successor finishes it in exactly r steps iff its distance back to
      the start is r; the descent takes the smallest such one.
    """
    half = len(graph.valid) >> 1
    alive = graph.valid
    while True:
        preds = alive.reshape(2, half).repeat(2, axis=1)
        keep = alive & (tight & preds).any(axis=0)
        if not (keep ^ alive).any():
            break
        alive = keep
    words = np.flatnonzero(alive)
    if not words.size:
        raise ValueError("graph has no cycle")
    # Tight edges from surviving words, viewed for cheap scalar lookups.
    edge = memoryview(tight & preds)
    roots = words
    for j in range(1, graph.s):
        roots = roots[(roots & ((1 << (graph.s - j)) - 1)) >= (roots >> j)]

    for length in range(q, words.size + 1, q):
        low = (1 << max(graph.s - length, 0)) - 1
        for start in roots[(roots >> length) == (roots & low)].tolist():
            dist = _distances_to(edge, start, length)
            if dist is None:
                continue
            cycle = [start]
            for remaining in range(length - 1, 0, -1):
                u = cycle[-1]
                cycle.append(next(v for v in (u % half * 2, u % half * 2 + 1)
                                  if dist.get(v) == remaining and edge[u // half, v]))
            assert edge[cycle[-1] // half, start]
            return cycle
    raise AssertionError("tight subgraph has no cycle")


def _distances_to(edge, root: int, length: int) -> dict[int, int] | None:
    """Breadth-first tight distances back to root from the nodes above
    it, returned once a walk through root closes within length steps.
    """
    half = edge.shape[1] >> 1
    dist = {root: 0}
    frontier = [root]
    for depth in range(1, length + 1):
        reached = []
        for v in frontier:
            for c in (0, 1):
                if edge[c, v]:
                    u = (v >> 1) + c * half
                    if u == root:
                        return dist
                    if u > root and u not in dist:
                        dist[u] = depth
                        reached.append(u)
        frontier = reached
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
    s = reduced.span
    if s > span_cap:
        raise SpanCapError(s, span_cap)

    graph = WindowGraph.from_family(reduced)
    density, cycle = min_mean_cycle(graph)
    pattern = _verified_pattern(cycle, density, d, f)

    return SolveResult(
        density=density,
        pattern=pattern,
        node_count=int(np.count_nonzero(graph.valid)),
        cycle_length=len(cycle),
        window_length=s,
        scale=d,
    )


def exact_densities(families: list[Family], span_cap: int = DEFAULT_SPAN_CAP) -> list[Fraction]:
    """exact_density(f).density for each f in families, solved in batches.

    The families are scale-reduced and grouped by reduced span, and each
    group is solved as one stack of window masks by _min_means, split
    so that no stack charges more than MEMORY_GUARD_BYTES at
    BYTES_PER_WINDOW per window.  Both bounds are certified on every
    family: _min_means checks the potentials, and the pattern of the
    row's last parent cycle is scaled back and verified as in
    exact_density.  Parent pointers point back along a walk, so the
    cycle is reversed first: read forwards, it pierces the mirrored
    family.  A row whose lambda stayed 1 is certified by the all-ones
    window's self-loop.  No witness is tie-broken.
    """
    densities = [Fraction(1)] * len(families)  # a single-cell ship forces 1
    groups: dict[int, list[tuple[int, Family, int]]] = {}
    for i, f in enumerate(families):
        if any(ship.size == 1 for ship in f.ships):
            continue
        reduced, d = scale_reduce(f)
        if reduced.span > span_cap:
            raise SpanCapError(reduced.span, span_cap)
        groups.setdefault(reduced.span, []).append((i, reduced, d))

    for s, group in groups.items():
        size = max(1, MEMORY_GUARD_BYTES // ((1 << s) * BYTES_PER_WINDOW))
        for start in range(0, len(group), size):
            batch = group[start:start + size]
            valid = np.stack([WindowGraph.from_family(reduced).valid for _, reduced, _ in batch])
            for row, p, q, cycle, _ in _min_means(valid):
                i, _, d = batch[row]
                densities[i] = Fraction(p, q)
                walk = cycle[::-1] if cycle else [(1 << s) - 1]
                _verified_pattern(walk, densities[i], d, families[i])
    return densities


def _verified_pattern(walk: list[int], density: Fraction, d: int, f: Family) -> Pattern1D:
    """The pattern a closed walk appends, scaled by d, checked to have
    the given density and to pierce f: the upper-bound certificate."""
    length = len(walk)
    residues = {i for i in range(length) if walk[(i + 1) % length] & 1}
    pattern = scale_pattern(Pattern1D(length, residues), d)
    if pattern.density != density:
        raise AssertionError("optimal cycle density mismatch")
    witness = verify_pattern_1d(pattern, f)
    if witness is not None:
        raise AssertionError(f"optimal pattern failed verification at {witness}")
    return pattern
