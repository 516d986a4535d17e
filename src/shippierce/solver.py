"""Exact minimum piercing density for 1D ship families.

The computation runs on the valid length-s windows, where s is the span
of the (scale-reduced) family.  A window is an s-bit word, most
significant bit oldest, that hits every ship translate lying fully
inside it.  The valid windows are the edges of the state graph: its
nodes are the 2^(s-1) states of s-1 bits, window w goes from state
w >> 1, its oldest s-1 bits, to state w mod 2^(s-1), its newest, and
its weight is its newest bit, the cell it appends.  Bi-infinite
piercing patterns are exactly the bi-infinite walks of this graph, so
the minimum density equals the minimum mean weight over its directed
cycles.  Cycles are kept as window sequences.  They are also the cycles
of the window graph, the line graph of the state graph, in which each
window leads to the windows whose oldest s-1 bits are its newest.

The minimum mean is found by parametric Bellman-Ford on the states:
Lawler's search over the mean, with the parent-pointer negative-cycle
test of Cherkassky and Goldberg (see _min_means).  Each search starts
at the least mean over the cycles no longer than the window, read off
the periodic words (see _short_cycles), instead of at the all-ones
self-loop.  The search converges from the mean of any real cycle, and
its last round, which alone decides the outputs, is the same from any
such start, so only the number of rounds changes.  Its final state
potentials certify the lower bound: no window has a negative reduced
cost, so no cycle has a lower mean, and this is checked on every solve.
Ties are broken deterministically: shortest cycle first, then the
lexicographically smallest window sequence.  When the search never
drops below its start, the start's cycle, read off the periodic words
with this tie-break, is the witness.  Otherwise every optimal cycle is
longer than the window.  Optimal cycles are exactly the cycles of tight
(zero reduced cost) windows, and one is then extracted from them.
Every cycle is kept in walk order, the order a pattern appends its
cells, so the pattern is read straight off it and checked against the
reduced family, which certifies the upper bound (see _verified_pattern).

exact_densities is the batch entry point for callers that need only
densities: sweeps at more than one worker, the mirrored-triple check
and collinear planar reflections.  It solves families of one reduced
span together, on a stack of their window masks.  Both entry points
build masks with _window_masks, which makes one mask per distinct ship
and ANDs it into the rows that hold it: the families of a sweep share
most of their ships.  Both bounds are still certified for every family;
the upper bound comes from the search's last cycle, so no tie-broken
witness is extracted.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import Family, Ship, scale, scale_reduce
from .verifier import Pattern1D, scale_pattern, verify_pattern_1d

DEFAULT_SPAN_CAP = 22

# Refuse solves whose estimated peak working set would exceed this.
MEMORY_GUARD_BYTES = 2 << 30

# Peak RSS growth of a whole density command per s-bit window at spans 18
# and 20 on 0,1,s-1, 0,1,s-2;0,s-2,s-1 and 0,5,s-2,s-1;0,s-1 (x86-64,
# Python 3.11, numpy 2.4): 50-53 B, or 38 B with glibc's mmap threshold
# fixed by MALLOC_MMAP_THRESHOLD_=131072.  Kept at 256 so span 24 stays the
# first refused; lowering it goes with the ROADMAP item on the span cap.
# _guard_memory charges every row of a mask stack at this rate.
BYTES_PER_WINDOW = 256

# Peak RSS growth of a density command per cell of the period of its
# scaled pattern, whose shots are a Python set of ints: 17-153 B between
# scales 3*10^5 and 8*10^5 on 0,1, 0,1;0,2, 0,1,3, 0,1,7, 0,2;0,3,
# 0,1,2,...,7, 0,1;0,2;0,3;0,4 and 0,1;...;0,7 (x86-64, Python 3.11).
# Kept at 320, so d = 3,355,444 is the first refused at a period of 2.
# exact_density refuses a pattern the guard cannot hold at this rate.
BYTES_PER_SCALED_CELL = 320

# An invalid window costs at least 2 * _INF, more than any potential can
# fall, so it never improves a potential and is never tight, and a window is
# valid exactly when it costs less than _INF.
_INF = 1 << 60

# _short_cycles scans the cycle lengths up to this in one flat pass, and
# each longer one in a pass of its own.  Flat passes up to 13 or 14 saved
# at most 0.1 ms at spans 13-16 (x86-64, numpy 2.4) with tables two and
# four times as large; one up to 10 took twice as long at span 12.
_FLAT_LENGTHS = 12


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
        """Enumerate all valid windows of length family.span: the one-row
        stack of _window_masks, built once the memory guard passes."""
        s = family.span
        _guard_memory(s)
        return cls(s, _window_masks(s, [family.ships])[0])


def _guard_memory(s: int) -> int:
    """The number of span-s rows a mask stack may hold within
    MEMORY_GUARD_BYTES.  Raises MemoryGuardError if even one span-s
    solve is estimated to need more."""
    estimate = (1 << s) * BYTES_PER_WINDOW
    if estimate > MEMORY_GUARD_BYTES:
        raise MemoryGuardError(
            f"solving span {s} needs ~{estimate} bytes, "
            f"above the guard of {MEMORY_GUARD_BYTES}"
        )
    return MEMORY_GUARD_BYTES // estimate


def _window_masks(s: int, ship_lists: list[tuple[Ship, ...]]) -> np.ndarray:
    """The (B, 2^s) stack of valid s-bit window masks, one row per list
    of ships: the windows that hit every translate of the row's ships
    lying inside them.

    With one length-2 axis per cell, oldest first, a mask's C-order
    flattening is the MSB-first word order, and each translate clears
    one block: the windows that are 0 on all of its cells.  Each
    distinct ship's mask is built once and ANDed into the rows that
    hold it, as rows often share ships.
    """
    holders: dict[Ship, list[int]] = {}
    for row, ships in enumerate(ship_lists):
        for ship in ships:
            holders.setdefault(ship, []).append(row)
    valid = np.ones((len(ship_lists), 1 << s), dtype=bool)
    for ship, rows in holders.items():
        cells = np.ones((2,) * s, dtype=bool)
        for j in range(s - ship.span + 1):
            block = [slice(None)] * s
            for a in ship.offsets:
                block[j + a] = 0
            cells[tuple(block)] = False
        valid[rows] &= cells.reshape(-1)
    return valid


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

    The witness is the shortest optimal cycle; among equally short
    ones, the one whose node sequence (rotated to start at its smallest
    node) is lexicographically smallest.  Runs _min_means on the
    one-row stack of graph.valid.  A cycle it yields of length at most s
    is its start, so lambda never dropped and that cycle is the witness
    (see _short_cycles).  Otherwise every optimal cycle is longer than
    the window, and the witness is extracted from the tight windows of the
    certified potentials.

    Raises ValueError if the graph has no cycle, and AssertionError if
    the final potentials fail to certify the mean.
    """
    [(_, mean, cycle, tight)] = _min_means(graph.valid[None])
    if cycle is None or len(cycle) > graph.s:
        cycle = _extract_cycle(tight, mean.denominator)
    assert mean * len(cycle) == sum(w & 1 for w in cycle)
    return mean, cycle


def _min_means(valid: np.ndarray):
    """Certified minimum cycle mean of each row of a (B, 2^s) mask stack.

    Yields (row, mean, cycle, tight) once per row, in the order the rows
    finish: the minimum mean of row's window graph as a Fraction, a
    cycle of that mean in walk order, and the (2^s,) mask of tight (zero
    reduced cost) windows, as _extract_cycle reads it, under potentials
    that certify the mean.  A row with no cycle yields mean 1 and cycle
    None.

    The search runs on the state graph, of which the window graph is the
    line graph: its nodes are the 2^(s-1) states of s-1 bits, and each
    valid window w is an edge from state w >> 1 to state w mod 2^(s-1),
    weighted by its newest bit.  A closed walk of windows is a closed
    walk of these edges of the same length and weight, so both graphs
    have the same cycle means and the same optimal cycles, but the
    potentials, parent picks and parent pointers cover half as many
    nodes.  State 2a + b is entered by the windows 2a + b and
    2a + b + 2^(s-1), from the states a and a + 2^(s-2).

    The window costs are kept halves-major, shape (2, B, 2^(s-1)):
    cost[h, i, x] is the cost of window h * 2^(s-1) + x of row i, so the
    two windows entering state x sit at the same place in the two
    contiguous halves.  A stack gets one int64 buffer of that shape,
    placed so that its stores do not alias the costs' loads (see
    _buffer_beside).  Every sweep fills it with the potential of the
    state each window leaves, by two strided copies of the potentials'
    halves (see _source_views; at span 1 the one state fills it by
    broadcasting), and adds the costs to it in place.  Its halves are
    then the two offers to each state, and no sweep repeats or copies
    the potentials into a new array.  The buffer and every view of it are dropped before rows
    are certified, and a new one is made for the rows left, so that the
    certificate's reduced costs take its place rather than adding to the
    peak.

    Each row starts from lambda = p/q, the least mean over its cycles of
    length at most s, and the tie-broken one of them (see
    _short_cycles).  A row with no cycle that short starts at lambda = 1
    with no cycle: a longer cycle is not the all-ones self-loop, so its
    mean is below 1.  All rows are swept at once on the integer window
    weights q*b - p of their own lambda, b being the window's newest
    bit, from zero potentials; a state's potential and parent pointer
    change only on a strict decrease.  The parent pointers of every row
    are checked for a cycle after sweeps 1, 2, 4, ... of the stack,
    whatever any row's lambda does.  When a row's pointers close a cycle
    of states, that row's lambda drops to the cycle's mean, the cycle is
    reversed into a walk of windows, and the row's sweeps restart from
    zero potentials.  The first sweep that changes no potential in any
    row ends the search, and it always comes:

    * every cycle among the parent pointers has negative weight, that
      is a mean below lambda, so lambda strictly decreases;
    * each row's lambda therefore runs through its start and the finite
      set of its cycle means, and checks recur at every power of two,
      so a row with a negative cycle is caught at some check;
    * while a row's parent pointers are acyclic, each potential is at
      least the weight of a simple parent path from a state still at
      potential 0, so potentials are bounded below.  They are integers
      and every sweep that changes the row lowers one, so a lambda
      round with no negative cycle stops changing the row;
    * potentials only fall, so once one is below that bound the parent
      pointers stay cyclic.  A negative cycle lets the sweeps lower
      potentials forever, so every check from some point on finds a
      parent cycle in that row.

    A row that a sweep leaves unchanged has no improving window, so no
    later sweep changes it.  Its parent pointers hold no cycle: every
    parent window is then tight, so a parent cycle would have weight
    zero, not below it.  Such a row is final, and no pointers are
    checked after a sweep that changes no row.  Rows leave at one exit:
    after a check, or after a sweep that changes no row, every row that
    sweep left unchanged is certified on every window, all of them in
    one reduced-cost pass (see _certified_tight) that reads the costs
    themselves when every row leaves and a copy of the leaving rows'
    costs otherwise.  They are then yielded and dropped from the stack,
    and the loop ends when no row is left.
    Every other sweep issues the same numpy calls at any B.  As the
    schedule is fixed and rows touch only their own slices, a row's
    lambda drops and final potentials are those it reaches alone: its
    result does not depend on its stack.

    The start changes how many rounds a row takes, not what it yields.
    The argument above needs only that lambda is the mean of a real
    cycle of the row and that the row's cycle is that cycle, or that
    lambda = 1 lies above every cycle mean of a row with no cycle of
    length at most s.  So the last round of a row that has a cycle
    always starts from zero potentials at the minimum mean, where no
    check finds a parent cycle.  Its sweeps, the final potentials, the
    tight windows and so the tie-broken witness are those of any other
    start.

    Raises AssertionError if the final potentials of a row fail to
    certify its mean.
    """
    means, cycles = _short_cycles(valid)  # before the large arrays below
    states = valid.shape[1] >> 1
    quarter = states >> 1
    rows = np.arange(len(valid))
    p, q = np.array([mean.as_integer_ratio() for mean in means]).T[:, :, None]
    # Halves-major: cost[h, i, x] is the cost of window h * states + x.
    cost = _window_costs(valid, p, q).reshape(len(valid), 2, states).transpose(1, 0, 2).copy()
    d = np.zeros((len(valid), states), dtype=np.int64)
    pick = np.zeros(d.shape, dtype=bool)  # which of a state's two parents, once d < 0
    sweep = 0
    enter = None
    while rows.size:
        sweep += 1
        if enter is None:
            # enter[h, i, x] = d[i, h * quarter + (x >> 1)] + cost[h, i, x] is
            # offered to state x of row i.  One buffer serves every sweep
            # until rows leave.
            enter = _buffer_beside(cost)
            even, odd, source = _source_views(enter, d)
            low, high = enter
        np.copyto(even, source)
        np.copyto(odd, source)
        enter += cost
        best = np.minimum(low, high)
        improved = best < d
        if improved.any():
            pick ^= improved & (pick ^ (high < low))
            np.minimum(d, best, out=d)
            if sweep & (sweep - 1):
                continue
            # State 2a + b of row i is entered from the states a and
            # a + quarter of that row.  parent points into the rows laid end
            # to end, as _parent_cycle reads them, and is built in place at
            # each check rather than from bases kept for the whole solve.
            parent = quarter * pick
            parent += np.arange(states) >> 1
            parent += states * np.arange(len(d))[:, None]
            parent = np.where(d < 0, parent, -1).ravel()
            for i, cycle in enumerate(_parent_cycle(parent, states)):
                if cycle is None:
                    continue
                r = rows[i]
                # Parent pointers run against the walk; window
                # (u << 1) | (v & 1) leads from state u to state v.
                walk = cycle[::-1]
                windows = [(u << 1) | (v & 1) for u, v in zip(walk, walk[1:] + walk[:1])]
                mean = Fraction(sum(w & 1 for w in windows), len(windows))
                assert mean < means[r], "parent cycle is not negative"
                means[r], cycles[r] = mean, windows
                cost[:, i] = _window_costs(valid[r], mean.numerator, mean.denominator).reshape(
                    2, states
                )
                d[i] = 0
                pick[i] = False
        done = ~improved.any(axis=1)
        if not done.any():
            continue
        # The buffer and every view of it go before the certificate
        # allocates its reduced costs, and a new one is made for the rows left.
        enter = even = odd = source = low = high = best = None
        keep = ~done
        if keep.any():
            tight = _certified_tight(d[done], cost.compress(done, axis=1))
        else:  # no copy of the costs when every row leaves
            tight = _certified_tight(d, cost)
        for j, i in enumerate(np.flatnonzero(done).tolist()):
            r = int(rows[i])
            yield r, means[r], cycles[r], tight[:, j].reshape(-1)
        rows, cost, d, pick = rows[keep], cost.compress(keep, axis=1), d[keep], pick[keep]


def _window_costs(valid: np.ndarray, p, q) -> np.ndarray:
    """The integer weight q * (w & 1) - p of each valid window w of a
    mask or mask stack at lambda = p/q, and 2 * _INF of each invalid one."""
    cost = np.where(valid, -p, 2 * _INF)
    cost[..., 1::2] += q
    return cost


def _buffer_beside(cost: np.ndarray) -> np.ndarray:
    """An uninitialized int64 array of cost's shape whose data starts half a
    4 KB page away from cost's, modulo 4 KB.

    malloc tends to place an array right after the last one of its size,
    16 B of header apart, and `enter += cost` on two arrays 16 B apart
    modulo 4 KB ran 2.2-3x as slow as at any larger offset: each store
    to enter aliases, in its low 12 address bits, a load of cost a few
    elements ahead (x86-64, span 20, 8 MB each).
    """
    base = np.empty(cost.size + 512, dtype=np.int64)
    start = (cost.ctypes.data + 2048 - base.ctypes.data) % 4096 // 8
    return base[start:start + cost.size].reshape(cost.shape)


def _source_views(enter: np.ndarray, d: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Views (even, odd, source) such that copying source into even and
    into odd fills a halves-major (2, B, 2^(s-1)) window array with the
    potentials d, shape (B, 2^(s-1)), of the states its windows leave.

    Window h * 2^(s-1) + 2a + b leaves state h * 2^(s-2) + a, so the two
    strided copies of d's halves give enter[h, r, 2a + b] =
    d[r, h * 2^(s-2) + a], for b = 0 and b = 1.  At span 1 both windows
    leave the one state: even and odd are enter itself, which d fills by
    broadcasting.
    """
    quarter = d.shape[1] >> 1
    if not quarter:
        return enter, enter, d
    pairs = enter.reshape(2, len(d), quarter, 2)
    return pairs[..., 0], pairs[..., 1], d.reshape(len(d), 2, quarter).transpose(1, 0, 2)


def _certified_tight(d: np.ndarray, cost: np.ndarray) -> np.ndarray:
    """The lower-bound certificate of rows leaving the search: checks that
    no window w has a negative reduced cost
    d[w >> 1] + cost[w] - d[w mod 2^(s-1)] under the rows' potentials d,
    shape (B, 2^(s-1)), and halves-major costs, shape (2, B, 2^(s-1)), and
    returns the tight (zero reduced cost) windows, halves-major too.

    Raises AssertionError if a window has a negative reduced cost.
    """
    reduced = np.empty(cost.shape, dtype=np.int64)
    even, odd, source = _source_views(reduced, d)
    np.copyto(even, source)
    np.copyto(odd, source)
    reduced += cost
    reduced -= d
    if (reduced < 0).any():
        raise AssertionError("potentials do not certify the minimum cycle mean")
    return reduced == 0


def _short_cycles(valid: np.ndarray) -> tuple[list[Fraction], list[list[int] | None]]:
    """The least mean over the cycles of length at most s of each row of
    a (B, 2^s) mask stack, and its tie-broken cycle in walk order, or
    mean 1 and None for a row with none.

    A closed walk of length L <= s re-appends its own bits, so its words
    are the s-bit prefixes of the L-periodic sequence u u u ... and of
    its rotations, for an L-bit word u, and its weight is popcount(u).
    The pair (L, u) is valid when all L rotations spell valid words.

    The lengths up to k = min(s, _FLAT_LENGTHS) are scanned in one flat
    pass over every pair (L, u), ordered by L and then by u, from the
    tables of _flat_tables: one gather of each pair's window u u u ...;
    ceil(log2 k) gather-ANDs with the pair rotated, which AND in all of
    its rotations; and one argmax over the valid pairs of the gain
    lcm + 1 - popcount(u) * lcm / L, with lcm = lcm(1..12) = 27720, so
    that every gain is an exact integer that fits in uint16.  The argmax
    is the first least mean in this order: the least mean, then the
    shortest L, then the smallest u.  No word of that mean has a shorter
    period at that L, so u is its own least rotation, and, as L <= s,
    the window u u u ... is the smallest on its cycle.  The cycle walks
    from that window, so it is min_mean_cycle's tie-broken witness among
    the cycles of length at most s: shortest first, then the
    lexicographically smallest node sequence.

    Longer lengths, L = _FLAT_LENGTHS + 1 .. s, have too many words for
    a flat table, and are scanned one length at a time, ascending: the
    rotations are ANDed in ceil(log2 L) doubling steps, each a transpose
    of the high and low bits of u, and the first least-weight u is that
    length's candidate.  It replaces the row's best only at a strictly
    lower mean, compared by cross-multiplying weights and lengths (at
    most s + 1 and s), so shorter lengths keep ties and no common
    denominator over 1..s is needed.
    """
    rows, n = valid.shape
    s = n.bit_length() - 1
    k = min(s, _FLAT_LENGTHS)
    prefix, turns, gain, lengths = _flat_tables(k)
    ok = np.take(valid.T, prefix >> (63 - s), axis=0)  # (pairs, B)
    for turn in turns:
        ok &= np.take(ok, turn, axis=0)
    best = (ok.T * gain).argmax(axis=1)
    period = lengths[best].astype(np.int64)
    word = best + 2 - (1 << period)
    weight = np.where(ok[best, np.arange(rows)], np.bitwise_count(word), period + 1)  # L + 1: none
    for length in range(k + 1, s + 1):
        u = np.arange(1 << length)
        reps = -(-s // length)
        spell = u * sum(1 << (length * j) for j in range(reps))
        ok = valid[:, spell >> (reps * length - s)]
        step = 1
        while step < length:
            # ok[u] &= ok[u rotated left by step bits]
            top = ok.reshape(rows, 1 << step, -1)
            np.bitwise_and(top, ok.reshape(rows, -1, 1 << step).transpose(0, 2, 1), out=top)
            step *= 2
        score = np.where(ok, np.bitwise_count(u), np.uint8(length + 1))
        pick = score.argmin(axis=1)
        least = score[np.arange(rows), pick]
        lower = least * period < weight * length
        weight[lower], period[lower], word[lower] = least[lower], length, pick[lower]
    means, cycles = [Fraction(1)] * rows, [None] * rows
    for r, (w, q, u) in enumerate(zip(weight.tolist(), period.tolist(), word.tolist())):
        if w <= q:  # else no valid word of any length
            # The first s + q - 1 bits of u u u ... hold the q windows in turn.
            spelled = int((format(u, f"0{q}b") * (s // q + 2))[:s + q - 1], 2)
            means[r] = Fraction(w, q)
            cycles[r] = [spelled >> j & (n - 1) for j in range(q - 1, -1, -1)]
    return means, cycles


@functools.cache
def _flat_tables(k: int):
    """_short_cycles' tables over the pairs (L, u) of a length L in
    1..k and an L-bit word u, built once per process for each k that a
    solve needs.  Pair (L, u) sits at index 2^L - 2 + u, so the pairs
    are ordered by L, then by u.

    * prefix: the first 63 bits of u u u ..., so the pair's s-bit
      window is prefix >> (63 - s), exact for s <= 52;
    * turns: the ceil(log2 k) steps of the scan, each the map from a
      pair to (L, u rotated left by b bits), for b = 1, 2, 4, ...: after
      the steps before it have ANDed in b rotations, a step ANDs in 2b;
    * gain: lcm + 1 - popcount(u) * lcm / L, with
      lcm = lcm(1.._FLAT_LENGTHS) = 27720, so it fits in uint16;
    * lengths: L.

    At k = 12 they take about 350 KB.  They are not built at import:
    a fresh process pays for every page of them.
    """
    bits = np.arange(1, k + 1)
    sizes = 1 << bits
    u = np.arange((2 << k) - 2) - np.repeat(sizes - 2, sizes)
    lcm = math.lcm(*range(1, _FLAT_LENGTHS + 1))
    gain = (lcm + 1 - np.bitwise_count(u) * np.repeat(lcm // bits, sizes)).astype(np.uint16)
    # Rotating u left by one bit moves its top bit to the bottom.
    turn = np.arange(len(u)) + u - (u >= np.repeat(sizes >> 1, sizes)) * np.repeat(sizes - 1, sizes)
    turns = []
    while 1 << len(turns) < k:
        turns.append(turn)
        turn = turn[turn]
    spread = [sum(1 << (63 - length * j) for j in range(1, 63 // length + 1)) for length in bits.tolist()]
    prefix = u * np.repeat(spread, sizes)
    return prefix, turns, gain, np.repeat(bits.astype(np.uint8), sizes)


def _parent_cycle(parent: np.ndarray, n: int) -> list[list[int] | None]:
    """One cycle of parent pointers in each n-word row that has one.

    parent holds the rows end to end and points into the whole array;
    -1 marks a word without a parent.  A cycle is returned as the word
    indices within its row.  Pointer doubling sends every node at least
    n steps up its parent chain, which lands exactly on the nodes of
    parent cycles.  The jump table is parent with a sentinel appended
    that holds -1, so -1 both marks a word without a parent and indexes
    the sentinel, which points at itself: no pass rewrites the -1s.
    Doubling stops early once every chain has reached the sentinel.
    """
    end = len(parent)
    cycles = [None] * (end // n)
    jump = np.append(parent, -1)
    for _ in range(n.bit_length()):
        jump = jump[jump]
        if jump.max() < 0:
            return cycles
    on_cycle = (jump[:end] >= 0).reshape(len(cycles), n)
    for r in np.flatnonzero(on_cycle.any(axis=1)).tolist():
        cycle = [int(jump[r * n + on_cycle[r].argmax()])]
        while (u := int(parent[cycle[-1]])) != cycle[0]:
            cycle.append(u)
        cycles[r] = [w - r * n for w in cycle]
    return cycles


def _extract_cycle(tight, q) -> list[int]:
    """Deterministic optimal cycle among the tight windows, when every
    optimal cycle is longer than the window.

    tight[w] flags the s-bit windows w of zero reduced cost, s read off
    its 2^s entries: a closed walk is optimal exactly when all of its
    windows are tight.  A window is kept while it has a kept
    predecessor; the others lie on no such walk.  Windows without a kept
    successor are kept: a search only enters windows that reach its
    root, so trimming them would not shrink it.  Then:

    * reduced costs sum to zero on a tight cycle, so q*W = p*L and, as
      gcd(p, q) = 1, every optimal length L is a multiple of q;
    * the start, the smallest window on any shortest optimal cycle, is
      the root with the smallest (c(r), r), c(r) being the shortest
      closed walk through r over the windows above it: those cycles
      through the start lie above it, and a smaller root lies on none;
    * no window on the cycle is below its start r, and the window j
      steps on has r's low s-j bits on top, so only prenecklaces are
      roots: r mod 2^(s-j) >= r >> j for every j in 1..s-1;
    * one pass over the roots, ascending, searches each to best - q,
      best being the least c(r) so far (words.size, the longest simple
      cycle, before the first): every closed tight walk has a length
      that is a multiple of q, so ties keep the smaller root, and the
      pass stops once best - q <= s, as no optimal cycle is that short.
      This is the (c(r), r) that trying every root at each length in
      turn picks, with one search per root;
    * a closed walk of the shortest length is a simple cycle, so a
      successor finishes it in exactly r steps iff its distance back to
      the start is r; the descent takes the smallest such one.
    """
    half = len(tight) >> 1
    s = half.bit_length()
    alive = tight
    while True:
        keep = alive & (alive[:half] | alive[half:]).repeat(2)
        if not (keep ^ alive).any():
            break
        alive = keep
    words = np.flatnonzero(alive)
    if not words.size:
        raise ValueError("graph has no cycle")
    kept = memoryview(alive)  # for cheap scalar lookups
    roots = words
    for j in range(1, s):
        roots = roots[(roots & ((1 << (s - j)) - 1)) >= (roots >> j)]

    limit = words.size
    for start in roots.tolist():
        if limit <= s:
            break
        if found := _distances_to(kept, start, limit):
            witness, limit = (start, found), found[0] - q
    start, (length, dist) = witness
    cycle = [start]
    for remaining in range(length - 1, 0, -1):
        u = cycle[-1] % half * 2
        cycle.append(next(v for v in (u, u + 1) if dist.get(v) == remaining))
    assert kept[cycle[-1]] and cycle[-1] % half == start >> 1
    return cycle


def _distances_to(kept, root: int, length: int) -> tuple[int, dict[int, int]] | None:
    """Breadth-first distances back to root from the kept windows above
    it, complete below the depth at which a walk through root first
    closes, and returned with that depth if it is at most length."""
    half = len(kept) >> 1
    dist = {root: 0}
    frontier, depth = [root], 0
    while frontier and depth < length:
        depth += 1
        reached = []
        for v in frontier:
            for u in (v >> 1, (v >> 1) + half):
                if kept[u]:
                    if u == root:
                        return depth, dist
                    if u > root and u not in dist:
                        dist[u] = depth
                        reached.append(u)
        frontier = reached
    return None


def exact_density(f: Family, span_cap: int = DEFAULT_SPAN_CAP) -> SolveResult:
    """Exact minimum density of a periodic pattern piercing f.

    The family is scale-reduced first; the window graph is built from
    the reduced family and must fit within span_cap.  The pattern is
    certified on the reduced family, then scaled back by the offset gcd
    d, which keeps its density and pierces f exactly when it pierces the
    reduced family.  A scaled pattern whose period is estimated to need
    more than MEMORY_GUARD_BYTES, at BYTES_PER_SCALED_CELL per cell, is
    refused with MemoryGuardError before it is built.
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
    estimate = d * len(cycle) * BYTES_PER_SCALED_CELL
    if estimate > MEMORY_GUARD_BYTES:
        raise MemoryGuardError(
            f"scaling the optimal pattern of period {len(cycle)} by {d} needs "
            f"~{estimate} bytes, above the guard of {MEMORY_GUARD_BYTES}"
        )
    pattern = scale_pattern(_verified_pattern(cycle, density, reduced, d, f), d)
    if pattern.density != density:
        raise AssertionError("optimal cycle density mismatch")

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

    The families are scale-reduced and grouped by reduced span.  A
    family whose own span trips the memory guard is refused before
    anything is built.  Each group is cut into stacks of at most the
    rows _guard_memory allows, and each stack is built by _window_masks,
    so a row is the from_family mask of its reduced family, and solved
    by _min_means.  Both bounds are certified on every family:
    _min_means checks the potentials, and the pattern of the walk it
    yields for the row is verified against the reduced family, which
    scaled by d is checked to be the family itself.  So no scaled
    pattern is built, and a family with a large offset gcd costs what
    its reduced family does.  No witness is tie-broken.
    search.compute_extremes at more than one worker,
    search.check_mirror_triples and closed_forms.three_ship_reflection_2d
    call it.
    """
    densities = [Fraction(1)] * len(families)  # a single-cell ship forces 1
    groups: dict[int, list[tuple[int, Family]]] = {}
    for i, f in enumerate(families):
        if any(ship.size == 1 for ship in f.ships):
            continue
        reduced, d = scale_reduce(f)
        s = reduced.span
        if s > span_cap:
            raise SpanCapError(s, span_cap)
        groups.setdefault(s, []).append((i, reduced, d))
    sizes = {s: _guard_memory(s) for s in groups}

    for s, group in groups.items():
        for start in range(0, len(group), sizes[s]):
            batch = group[start:start + sizes[s]]
            valid = _window_masks(s, [reduced.ships for _, reduced, _ in batch])
            for row, mean, cycle, _ in _min_means(valid):
                i, reduced, d = batch[row]
                densities[i] = mean
                _verified_pattern(cycle, mean, reduced, d, families[i])
    return densities


def _verified_pattern(walk: list[int], density: Fraction, reduced: Family, d: int, f: Family) -> Pattern1D:
    """The upper-bound certificate: the pattern a closed walk appends has
    the given density and pierces reduced, and scale(reduced, d) == f."""
    if d > 1 and scale(reduced, d) != f:
        raise AssertionError(f"{f} is not its reduced family scaled by {d}")
    length = len(walk)
    residues = {i for i in range(length) if walk[(i + 1) % length] & 1}
    pattern = Pattern1D(length, residues)
    if pattern.density != density:
        raise AssertionError("optimal cycle density mismatch")
    witness = verify_pattern_1d(pattern, reduced)
    if witness is not None:
        raise AssertionError(f"optimal pattern failed verification at {witness}")
    return pattern
