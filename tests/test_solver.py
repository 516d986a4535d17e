import re
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shippierce import solver
from shippierce.core import Family, Ship, make_family, parse_family, reflect, scale, scale_reduce
from shippierce.search import enumerate_families
from shippierce.solver import (
    BYTES_PER_WINDOW,
    SpanCapError,
    WindowGraph,
    _parent_cycle,
    exact_densities,
    exact_density,
    min_mean_cycle,
)
from shippierce.verifier import Pattern1D, scale_pattern, verify_pattern_1d

from oracles import (
    brute_force_cycles_tiny,
    graph_edges,
    min_mean_by_closed_walks,
    min_mean_by_cycle_enumeration,
    short_cycle_by_periodic_words,
    short_cycles_by_length,
)

small_families = st.lists(
    st.lists(st.integers(0, 6), min_size=2, max_size=4, unique=True),
    min_size=1,
    max_size=2,
).map(make_family)


def test_known_densities():
    assert exact_density(parse_family("0,1,3")).density == Fraction(2, 5)
    single = exact_density(parse_family("0"))
    assert single.density == 1 and single.pattern.period == 1
    assert exact_density(parse_family("0,1;0,2,4")).density == Fraction(3, 5)
    assert exact_density(parse_family("0,1;0,2")).density == Fraction(2, 3)


def test_size_one_fast_path():
    r = exact_density(make_family([[4], [0, 1]]))
    assert r.density == 1
    assert (r.pattern.period, set(r.pattern.residues)) == (1, {0})


def test_window_graph_nodes():
    g = WindowGraph.from_family(parse_family("0,1"))
    assert g.s == 2
    assert g.nodes.tolist() == [1, 2, 3]  # 01, 10, 11; never 00
    assert (1 << g.s) - 1 in g.nodes.tolist()  # all-ones is always valid
    edges = sorted(graph_edges(g))
    assert [(v, b) for u, v, b in edges if u == 2] == [(1, 1)]
    assert [(v, b) for u, v, b in edges if u == 3] == [(2, 0), (3, 1)]


def mask(*bits):
    return np.array(bits, dtype=bool)


@pytest.mark.parametrize(
    "s, nodes",
    [(0, mask(1)), (-1, mask(1)), (3, mask(1, 1, 1, 1)), (3, np.ones(16, dtype=bool)), (1, mask(1))],
)
def test_window_graph_rejects_bad_input(s, nodes):
    # s < 1, then node masks whose length is not 2^s
    with pytest.raises(ValueError):
        WindowGraph(s, nodes)


def test_window_graph_nodes_from_mask():
    g = WindowGraph(3, mask(0, 1, 0, 0, 0, 1, 0, 1))
    assert g.nodes.tolist() == [1, 5, 7]


def test_parent_cycle_none_on_a_deep_acyclic_chain():
    # Node i points at i - 1 and node 0 is the root: a chain of depth 99
    # reaches the sentinel only after 7 doubling passes.
    parent = np.arange(-1, 99)
    assert _parent_cycle(parent, 100) == [None]


def test_parent_cycle_found_behind_a_long_tail():
    # Nodes 0..29 lead up a tail into the cycle 30 -> 31 -> ... -> 34 -> 30
    # of parent pointers; nodes 35..39 have no parent.
    parent = np.full(40, -1)
    parent[:30] = np.arange(1, 31)
    parent[30:35] = [31, 32, 33, 34, 30]
    [cycle] = _parent_cycle(parent, 40)
    assert sorted(cycle) == [30, 31, 32, 33, 34]
    assert [int(parent[u]) for u in cycle] == cycle[1:] + cycle[:1]
    # Behind an acyclic row and ahead of a one-word self-loop, each row's
    # cycle comes back in that row's own word indices.
    loop = np.full(40, -1)
    loop[7] = 87
    stacked = np.concatenate([np.arange(-1, 39), np.where(parent >= 0, parent + 40, -1), loop])
    assert _parent_cycle(stacked, 40) == [None, cycle, [7]]


# Every canonical family of at most 2 ships of at most 3 cells within
# span 7, plus a two-ship family of unequal spans, a family with a
# one-cell ship and the one-cell family.
BRUTE_FORCE_NODE_FAMILIES = ["0,1,3;0,2", "4;0,1", "0"] + [
    str(f) for n in (1, 2) for k in (1, 2, 3) for f in enumerate_families(n, k, 7)
]


def test_window_nodes_match_brute_force():
    # Word w holds cell i of the window at bit s - 1 - i (oldest cell in
    # the MSB); it is a node iff every ship translate inside the window
    # has a shot.  Stacked by span through _window_masks, where rows
    # share ships, each row must be its family's mask too.
    assert len(BRUTE_FORCE_NODE_FAMILIES) == 77
    by_span = {}
    for text in BRUTE_FORCE_NODE_FAMILIES:
        f = parse_family(text)
        s = f.span
        expected = [
            w for w in range(1 << s)
            if all(
                any(w >> (s - 1 - j - a) & 1 for a in ship.offsets)
                for ship in f.ships
                for j in range(s - ship.span + 1)
            )
        ]
        assert WindowGraph.from_family(f).nodes.tolist() == expected, text
        by_span.setdefault(s, []).append((f, expected))
    for s, group in by_span.items():
        stack = solver._window_masks(s, [f.ships for f, _ in group])
        assert stack.shape == (len(group), 1 << s)
        for row, (f, expected) in zip(stack, group):
            assert np.flatnonzero(row).tolist() == expected, f


def test_min_mean_cycle_forced_graphs():
    # single self-loop of weight 1
    mean, cycle = min_mean_cycle(WindowGraph(1, mask(0, 1)))
    assert (mean, cycle) == (Fraction(1), [1])
    # pure two-cycle with weights 1 and 0
    mean, cycle = min_mean_cycle(WindowGraph(2, mask(0, 1, 1, 0)))
    assert (mean, cycle) == (Fraction(1, 2), [1, 2])


def test_min_mean_cycle_rejects_acyclic():
    with pytest.raises(ValueError):
        min_mean_cycle(WindowGraph(2, mask(0, 1, 0, 0)))  # 01 alone has no cycle


def test_min_mean_cycle_matches_brute_force_on_random_masks():
    # Hand-built masks up to span 5, many of them without the all-ones
    # window: the mean, the shortest-then-lexicographic witness, and a
    # ValueError exactly when there is no cycle.  First, the one 4-cycle
    # 001 -> 011 -> 110 -> 100, longer than the window.
    g = WindowGraph(3, mask(0, 1, 0, 1, 1, 0, 1, 0))
    assert min_mean_cycle(g) == (Fraction(1, 2), [1, 3, 6, 4])
    rng = np.random.default_rng(20)
    for _ in range(1000):
        s = int(rng.integers(1, 6))
        g = WindowGraph(s, rng.random(1 << s) < rng.uniform(0.2, 0.9))
        cycles = brute_force_cycles_tiny(g)
        if not cycles:
            with pytest.raises(ValueError):
                min_mean_cycle(g)
            continue
        best = min(Fraction(sum(w & 1 for w in c), len(c)) for c in cycles)
        witness = min((len(c), c) for c in cycles
                      if best.denominator * sum(w & 1 for w in c) == best.numerator * len(c))[1]
        assert min_mean_cycle(g) == (best, witness), g.nodes


def test_cycle_enumeration_oracle_on_01_graph():
    # Frozen from the brute-force enumeration of the 3-node graph:
    # cycles {01,10}, {11}, {01,11,10} with means 1/2, 1, 2/3.
    g = WindowGraph.from_family(parse_family("0,1"))
    cycles = brute_force_cycles_tiny(g)
    assert sorted(cycles) == [[1, 2], [1, 3, 2], [3]]
    means = sorted(Fraction(sum(w & 1 for w in c), len(c)) for c in cycles)
    assert means == [Fraction(1, 2), Fraction(2, 3), Fraction(1)]
    assert min_mean_cycle(g)[0] == Fraction(1, 2) == min(means)


# {[0,2]} at span 3, whose optimal mean 1/2 is achieved by many cycles,
# plus every canonical family of at most 3 ships of at most 4 cells
# within span 5; 8 of them have no optimal cycle as short as the mean's
# denominator.
TIE_BREAK_FAMILIES = ["0,2"] + [
    str(f) for n in (1, 2, 3) for k in range(1, 5) for f in enumerate_families(n, k, 5)
]


@pytest.mark.parametrize("text", TIE_BREAK_FAMILIES)
def test_tie_break_is_shortest_then_lexicographic(text):
    # The contract picks the shortest optimal cycle, then the
    # lexicographically first one rooted at its smallest node.
    g = WindowGraph.from_family(parse_family(text))
    mean, cycle = min_mean_cycle(g)
    cycles = brute_force_cycles_tiny(g)
    assert mean == min(Fraction(sum(w & 1 for w in c), len(c)) for c in cycles)
    others = [c for c in cycles
              if mean.denominator * sum(w & 1 for w in c) == mean.numerator * len(c)]
    shortest = min(len(c) for c in others)
    assert len(cycle) == shortest
    assert cycle == min(c for c in others if len(c) == shortest)


@pytest.mark.parametrize(
    "text, window, cycle_length",
    [("0,5,12,13;0,13", 14, 2), ("0,1,11", 12, 3), ("0,1,7", 8, 8)],
)
def test_no_witness_search_when_an_optimal_cycle_fits_the_window(monkeypatch, text, window, cycle_length):
    # The shortest optimal cycle is no longer than the window, so it is
    # read off the window mask and no tight-edge search runs, down to a
    # witness exactly as long as the window.
    searches = []
    monkeypatch.setattr(solver, "_distances_to", lambda *args: searches.append(args))
    r = exact_density(parse_family(text))
    assert (r.window_length, r.cycle_length) == (window, cycle_length)
    assert searches == []


def test_witness_search_starts_only_from_prenecklaces(monkeypatch):
    # The start of the witness is the smallest word on its cycle, and the
    # word j steps later carries the start's low s - j bits on top, so
    # only prenecklaces can start one.  Span 9, mean 1/2, shortest
    # optimal cycle 16, so most searches run at lengths >= s, where no
    # periodicity narrows the roots; 972 ran before this rule, 755 of
    # them from words that are not prenecklaces.
    searches = []
    real = solver._distances_to

    def recording(edge, root, length):
        searches.append(root)
        return real(edge, root, length)

    monkeypatch.setattr(solver, "_distances_to", recording)
    r = exact_density(parse_family("0,7,8;0,8"))
    assert (r.window_length, r.cycle_length, str(r.pattern)) == (9, 16, "16:0,1,2,3,4,5,6,15")
    s = r.window_length
    for root in searches:
        assert all(root & ((1 << (s - j)) - 1) >= root >> j for j in range(1, s)), root
    assert 1 <= len(searches) <= 217


def test_patterns_pinned_on_small_canonical_families():
    # family, density and pattern for every canonical family of at most
    # 3 ships of 2 to 4 cells within span 9 - n; 64 of the patterns are
    # longer than the mean's denominator, so they pin the tie-break.
    path = Path(__file__).parent / "data" / "tie_break_patterns.tsv"
    for line in path.read_text().splitlines():
        text, density, pattern = line.split("\t")
        r = exact_density(parse_family(text))
        assert (str(r.density), str(r.pattern)) == (density, pattern), text


@pytest.mark.parametrize(
    "text",
    ["0,1", "0,2", "0,1,3", "0,1,2", "0,1;0,2", "0,2;0,3", "0,1,4;0,2,4", "0,3;0,1,2"],
)
def test_oracle_agreement_assorted(text):
    g = WindowGraph.from_family(parse_family(text))
    mean = min_mean_cycle(g)[0]
    assert mean == min_mean_by_cycle_enumeration(g)
    assert mean == min_mean_by_closed_walks(g)


def test_closed_walk_oracle_agreement_random_up_to_span8():
    import random

    rng = random.Random(8)
    for _ in range(30):
        span = rng.randint(3, 8)
        raws = []
        for _ in range(rng.randint(1, 3)):
            size = rng.randint(2, min(4, span))
            raws.append([0] + rng.sample(range(1, span), size - 1))
        f, _ = scale_reduce(make_family(raws))
        g = WindowGraph.from_family(f)
        assert min_mean_cycle(g)[0] == min_mean_by_closed_walks(g), f


def test_memory_guard_refuses_before_allocating():
    from shippierce.solver import MemoryGuardError

    huge = make_family([[0, 1, 34]])  # span 35: guard trips before arange
    with pytest.raises(MemoryGuardError):
        WindowGraph.from_family(huge)


def test_batch_memory_guard_refuses_before_allocating(monkeypatch):
    # The batch path builds its masks without from_family, so it checks
    # the guard itself, before any mask or stack of a span-35 family.
    from shippierce.solver import MemoryGuardError

    def no_allocation(*args, **kwargs):
        raise AssertionError("allocated before the memory guard")

    monkeypatch.setattr(solver, "_window_masks", no_allocation)
    monkeypatch.setattr(solver, "_min_means", no_allocation)
    huge = make_family([[0, 1, 34]])
    with pytest.raises(MemoryGuardError):
        exact_densities([parse_family("0,1,3"), huge], span_cap=40)


def test_scaled_pattern_guard_refuses_before_building(monkeypatch):
    # exact_density scales its pattern by the offset gcd d, to a period of
    # d times the cycle length.  The guard charges BYTES_PER_SCALED_CELL
    # per cell of that period, and refuses before scale_pattern runs.
    from shippierce.solver import BYTES_PER_SCALED_CELL, MemoryGuardError

    monkeypatch.setattr(solver, "MEMORY_GUARD_BYTES", 1000 * 2 * BYTES_PER_SCALED_CELL)
    r = exact_density(parse_family("0,1000"))
    assert (r.density, r.cycle_length, r.scale, r.pattern.period) == (Fraction(1, 2), 2, 1000, 2000)

    def no_scaling(pattern, d):
        raise AssertionError("scaled before the guard")

    monkeypatch.setattr(solver, "scale_pattern", no_scaling)
    with pytest.raises(MemoryGuardError, match="scaling the optimal pattern of period 2 by 1001 needs ~"):
        exact_density(parse_family("0,1001"))


def test_batch_certifies_on_the_reduced_family(monkeypatch):
    # exact_densities verifies each walk's pattern against the reduced
    # family, so a family with a huge offset gcd is solved as its reduced
    # family is: with no scaled pattern and no guard refusal.
    def no_scaling(pattern, d):
        assert d == 1, "built a scaled pattern"
        return pattern

    monkeypatch.setattr(solver, "scale_pattern", no_scaling)
    d = 10**20
    families = [parse_family(t) for t in ("0,1,3", "0,1", "0,2;0,3")]
    assert exact_densities([scale(f, d) for f in families]) == [Fraction(2, 5), Fraction(1, 2), Fraction(3, 5)]


# Every canonical family of two 3-cell ships within span 7 (reduced
# spans 4 to 7), some of them scaled by 2 or 3, and families with a
# single-cell ship.
BATCH_FAMILIES = [str(f) for f in enumerate_families(2, 3, 7)]
BATCH_FAMILIES += [str(scale(parse_family(t), d)) for t, d in zip(BATCH_FAMILIES[::9], [2, 3] * 9)]
BATCH_FAMILIES += ["0", "4;0,1", "0;0,2,5"]


def test_batch_densities_equal_exact_density():
    families = [parse_family(t) for t in BATCH_FAMILIES]
    assert {scale_reduce(f)[0].span for f in families} == {1, 2, 4, 5, 6, 7}
    assert any(scale_reduce(f)[1] > 1 for f in families)
    assert exact_densities(families) == [exact_density(f).density for f in families]
    with pytest.raises(SpanCapError) as exc:
        exact_densities(families, span_cap=6)
    assert exc.value.required_span == 7


def test_batch_is_split_by_the_memory_guard(monkeypatch):
    # With room for three span-7 window graphs, no stack has more rows.
    stacks = []
    real = solver._min_means

    def recording(valid):
        stacks.append(valid.shape)
        return real(valid)

    monkeypatch.setattr(solver, "_min_means", recording)
    monkeypatch.setattr(solver, "MEMORY_GUARD_BYTES", 3 * (1 << 7) * BYTES_PER_WINDOW)
    families = [parse_family(t) for t in BATCH_FAMILIES]
    assert exact_densities(families) == [exact_density(f).density for f in families]
    assert all(rows * n * BYTES_PER_WINDOW <= solver.MEMORY_GUARD_BYTES for rows, n in stacks)
    assert [rows for rows, n in stacks if n == 1 << 7].count(3) > 1


def test_batch_stacks_equal_from_family_masks(monkeypatch):
    # exact_densities ANDs one mask per distinct ship of a stack into its
    # rows; each row must be the reduced family's from_family mask.  In
    # the second call the ship 0,1,3 (0,2,6 reduced) sits in stacks of
    # spans 4 and 7, so its mask depends on the stack's span.
    stacks = []
    real = solver._min_means

    def recording(valid):
        stacks.append(valid.copy())
        return real(valid)

    monkeypatch.setattr(solver, "_min_means", recording)
    for texts in [BATCH_FAMILIES, ["0,1,3", "0,1,3;0,5,6", "0,2,6;0,6,8,12", "0,1,3;0,1,4"]]:
        stacks.clear()
        families = [parse_family(t) for t in texts]
        exact_densities(families)
        groups = {}
        for f in families:
            if all(ship.size > 1 for ship in f.ships):
                reduced = scale_reduce(f)[0]
                groups.setdefault(reduced.span, []).append(WindowGraph.from_family(reduced).valid)
        assert len(stacks) == len(groups)
        for valid, expected in zip(stacks, groups.values()):
            assert np.array_equal(valid, np.stack(expected))


def test_batch_reverses_parent_cycles_into_walk_order():
    # Parent pointers run backwards along a walk; read forwards, a parent
    # cycle spells a pattern for the mirror image.  None of these
    # families is its own mirror image, and the last parent cycle of
    # each, read forwards, misses a ship translate.
    texts = ["0,1,3,8", "0,1,4,6", "0,2,3,7", "0,1,3;0,2,6", "0,2,3;0,1,4", "0,2,5;0,3,7"]
    families = [parse_family(t) for t in texts]
    assert all(reflect(f) != f for f in families)
    assert exact_densities(families) == [exact_density(f).density for f in families]


def test_parent_checks_follow_the_doubling_schedule(monkeypatch):
    # Parent pointers are checked after sweeps 1, 2, 4, ... of the stack,
    # and never after the sweep that ends a solve.
    calls = []
    real = solver._parent_cycle

    def counting(parent, n):
        cycles = real(parent, n)
        calls.append(len(cycles))
        return cycles

    monkeypatch.setattr(solver, "_parent_cycle", counting)
    expected = {"0,1,3": 4, "0,1,11": 5, "0,5,12,13;0,13": 5, "0,1,12;0,12,13": 8, "0,15,16;0,16": 6}
    for text, count in expected.items():
        calls.clear()
        exact_density(parse_family(text))
        assert len(calls) == count, text
    calls.clear()
    exact_densities([parse_family(t) for t in BATCH_FAMILIES])
    assert (len(calls), sum(calls)) == (22, 296)


def test_stacked_rows_solve_as_they_do_alone(monkeypatch):
    # A row's lambda drops and result do not depend on the other rows of
    # its stack: each row yields the mean, cycle and tight mask of its
    # one-row solve, and the stack checks as often as its slowest row.
    calls = []
    real = solver._parent_cycle

    def counting(parent, n):
        calls.append(None)
        return real(parent, n)

    monkeypatch.setattr(solver, "_parent_cycle", counting)
    groups = {}
    for f in map(parse_family, BATCH_FAMILIES):
        if all(ship.size > 1 for ship in f.ships):
            reduced = scale_reduce(f)[0]
            groups.setdefault(reduced.span, []).append(reduced)
    groups[10] = [parse_family(f"0,{a},9") for a in (1, 2, 4, 5, 7, 8)]
    for span, group in groups.items():
        valid = np.stack([WindowGraph.from_family(f).valid for f in group])
        alone, checks = [], []
        for row in valid:
            calls.clear()
            [(_, mean, cycle, tight)] = solver._min_means(row[None])
            alone.append((mean, cycle, tight))
            checks.append(len(calls))
        calls.clear()
        stacked = {row: (mean, cycle, tight) for row, mean, cycle, tight in solver._min_means(valid)}
        assert len(calls) == max(checks), span
        assert sorted(stacked) == list(range(len(group)))
        for row, (mean, cycle, tight) in stacked.items():
            assert (mean, cycle) == alone[row][:2], (span, str(group[row]))
            assert np.array_equal(tight, alone[row][2]), (span, str(group[row]))


def test_stacked_random_rows_at_tiny_spans_solve_as_they_do_alone(monkeypatch):
    # Seeded random stacks at spans 1-5: the sweep buffer's smallest
    # shapes, span 1 filled from its one state by broadcasting, and exits
    # that several rows leave at once.  Each row yields the mean, cycle
    # and tight mask of its one-row solve.
    exits = []
    real = solver._certified_tight

    def counting(d, cost):
        exits.append(len(d))
        return real(d, cost)

    monkeypatch.setattr(solver, "_certified_tight", counting)
    rng = np.random.default_rng(1)
    for s in range(1, 6):
        exits.clear()
        for _ in range(30):
            valid = rng.random((int(rng.integers(2, 9)), 1 << s)) < rng.uniform(0.3, 0.9)
            alone = [next(solver._min_means(row[None]))[1:] for row in valid]
            stacked = {row: rest for row, *rest in solver._min_means(valid)}
            assert sorted(stacked) == list(range(len(valid)))
            for row, (mean, cycle, tight) in stacked.items():
                assert (mean, cycle) == alone[row][:2], (s, valid[row])
                assert np.array_equal(tight, alone[row][2]), (s, valid[row])
        assert max(exits) > 1, s


@pytest.mark.parametrize("rows", [1, 2], ids=["one-row-exit", "multi-row-exit"])
def test_lower_bound_certificate_fires(monkeypatch, rows):
    # Lowering every window cost of the last row leaving at an exit by 1
    # gives the tight windows of its optimal cycle a reduced cost of -1.
    # The certificate refuses it, whether that row leaves alone or with
    # others: 0,1,9 and its mirror image leave a stack at one exit.
    real = solver._certified_tight
    broken = []

    def breaking(d, cost):
        if len(d) >= rows:
            cost = cost.copy()
            cost[:, -1] -= 1
            broken.append(len(d))
        return real(d, cost)

    monkeypatch.setattr(solver, "_certified_tight", breaking)
    texts = ["0,1,9", "0,8,9"][:rows]
    valid = np.stack([WindowGraph.from_family(parse_family(t)).valid for t in texts])
    with pytest.raises(AssertionError, match="potentials do not certify the minimum cycle mean"):
        list(solver._min_means(valid))
    assert broken == [len(texts)]


@pytest.mark.parametrize("text", ["0,1,15", "0,1,17"])
def test_min_means_peak_memory_per_window(monkeypatch, text):
    # The tracemalloc peak of a one-row solve at spans 16 and 18 is pinned
    # at 40 B per window.  It reads 37 B at spans 16-22 (x86-64, numpy
    # 2.4), reached at the parent checks while the sweep buffer is alive;
    # building the parent pointers in one np.where expression reads 41.5 B.
    # The certificate's own peak is pinned at 30 B per window.  It reads
    # 26 B; keeping a view of the sweep buffer alive through it reads 34 B,
    # and certifying a copy of the costs rather than the costs 38 B.
    real = solver._certified_tight
    sweeps, certificate = [], []

    def measured(d, cost):
        sweeps.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.reset_peak()
        tight = real(d, cost)
        certificate.append(tracemalloc.get_traced_memory()[1])
        return tight

    monkeypatch.setattr(solver, "_certified_tight", measured)
    valid = WindowGraph.from_family(parse_family(text)).valid[None]
    solver._flat_tables(solver._FLAT_LENGTHS)  # built once per process
    tracemalloc.start()
    try:
        [(_, mean, _, _)] = solver._min_means(valid)
        peak = max(sweeps + [tracemalloc.get_traced_memory()[1]])
    finally:
        tracemalloc.stop()
    assert mean == exact_density(parse_family(text)).density
    assert peak <= 40 * valid.size, peak / valid.size
    assert certificate[0] <= 30 * valid.size, certificate[0] / valid.size


@pytest.mark.parametrize("text, cycle_length", [("0,1,11", 3), ("0,6,7", 8)])
def test_search_starts_at_an_optimal_short_cycle(monkeypatch, text, cycle_length):
    # The optimal cycle is no longer than the window, so the search starts
    # at the minimum mean and lambda never drops: no check finds a cycle.
    found = []
    real = solver._parent_cycle

    def recording(parent, n):
        cycles = real(parent, n)
        found.extend(cycles)
        return cycles

    monkeypatch.setattr(solver, "_parent_cycle", recording)
    r = exact_density(parse_family(text))
    assert r.cycle_length == cycle_length <= r.window_length
    assert found and found == [None] * len(found)


def test_short_cycles_equal_the_closed_walk_oracle():
    # On random families up to span 13, and on one stack of several rows,
    # each row's start is the least mean over closed walks of length at
    # most s, and its cycle is a closed walk of that row with that mean:
    # in walk order, the one of the shortest, then smallest, periodic word.
    # The closed-walk oracle keeps n x n tables, so it runs up to span 10.
    import random

    rng = random.Random(19)
    graphs = []
    for count, spans in ((40, (2, 8)), (10, (9, 13))):
        for _ in range(count):
            span = rng.randint(*spans)
            raws = [[0] + rng.sample(range(1, span), rng.randint(1, min(3, span - 1)))
                    for _ in range(rng.randint(1, 3))]
            f, _ = scale_reduce(make_family(raws))
            if f.span > 1:
                graphs.append([WindowGraph.from_family(f)])
    graphs.append([WindowGraph.from_family(parse_family(t)) for t in ("0,1,7", "0,3,7", "0,1;0,4,7", "0,2,5,7")])
    graphs.append([WindowGraph.from_family(parse_family(t)) for t in ("0,1,12", "0,5,12", "0,1,11;0,11,12")])
    assert max(stack[0].s for stack in graphs) == 13
    for stack in graphs:
        means, cycles = solver._short_cycles(np.stack([g.valid for g in stack]))
        for g, mean, cycle in zip(stack, means, cycles):
            assert isinstance(mean, Fraction)
            if g.s <= 10:
                assert mean == min_mean_by_closed_walks(g, max_length=g.s), g.nodes
            assert Fraction(sum(w & 1 for w in cycle), len(cycle)) == mean
            assert len(cycle) <= g.s and all(g.valid[w] for w in cycle)
            # Walk order: each word's successor comes next.
            assert all(v == (u << 1) & ((1 << g.s) - 1) | (v & 1) for u, v in zip(cycle, cycle[1:] + cycle[:1]))
            assert (mean, cycle) == short_cycle_by_periodic_words(g), g.nodes


def _periodic_mask(s, *words):
    """The span-s mask whose valid windows are those of the cycles of the
    given periodic words."""
    valid = np.zeros(1 << s, dtype=bool)
    for bits in words:
        valid[[int(((bits[j:] + bits[:j]) * s)[:s], 2) for j in range(len(bits))]] = True
    return valid


def test_flat_scan_equals_the_per_length_scan():
    # The flat scan of the lengths up to _FLAT_LENGTHS, with a pass per
    # longer length, gives the means and cycles of the per-length scan it
    # replaced, on stacks of seeded random masks at spans 1-18 and of rows
    # built to reach each branch: a least mean only at a length above
    # _FLAT_LENGTHS, a tie between lengths L and 2L, and no short cycle.
    rng = np.random.default_rng(23)
    lengths = set()
    for s in range(1, 19):
        rows = [rng.random(1 << s) < density for density in (0.97, 0.9, 0.7, 0.5, 0.3)]
        rows[1][0] = rows[2][0] = False  # no all-zero self-loop of mean 0
        rows.append(np.zeros(1 << s, dtype=bool))
        if s >= 2:
            rows.append(np.arange(1 << s) == 1)  # one window, not a cycle
        if s >= 6:
            rows.append(_periodic_mask(s, "011", "001111"))  # 2/3 at 3 and 6
        if s >= 14:
            rows.append(_periodic_mask(s, "0010011", "00010010011011"))  # 3/7 at 7 and 14
            rows.append(_periodic_mask(s, "0010010010001" + "0" * (s - 14)))  # one cycle of s - 1
        valid = np.stack(rows)
        expected = short_cycles_by_length(valid)
        means, cycles = solver._short_cycles(valid)
        assert (means, cycles) == expected, s
        lengths.update(len(c) if c else None for c in cycles)
        assert cycles[5] is None and means[5] == 1
        if s >= 2:
            assert cycles[6] is None and means[6] == 1
        if s >= 6:
            assert (means[7], len(cycles[7])) == (Fraction(2, 3), 3)
        if s >= 14:
            assert (means[8], len(cycles[8])) == (Fraction(3, 7), 7)
            assert len(cycles[9]) == s - 1 > solver._FLAT_LENGTHS
    assert None in lengths and max(lengths - {None}) > solver._FLAT_LENGTHS


def test_min_means_yields_fraction_means_walks_and_tight_masks():
    # One span-10 stack: lambda drops in the first two rows (witnesses of
    # 17 and 11 windows), and the last two start at the optimum (10 and 2
    # windows).  Each row's cycle is a closed walk in walk order over
    # valid words with the row's mean, on tight windows only.
    texts = ["0,1,9", "0,2,9", "0,1,2,9", "0,1,8;0,8,9"]
    graphs = [WindowGraph.from_family(parse_family(t)) for t in texts]
    n = 1 << 10
    lengths = {}
    for row, mean, cycle, tight in solver._min_means(np.stack([g.valid for g in graphs])):
        valid = graphs[row].valid
        assert isinstance(mean, Fraction)
        assert mean == exact_density(parse_family(texts[row])).density
        assert all(valid[w] for w in cycle)
        assert all(v == (u << 1) & (n - 1) | (v & 1) for u, v in zip(cycle, cycle[1:] + cycle[:1]))
        assert Fraction(sum(w & 1 for w in cycle), len(cycle)) == mean
        # tight[w] flags window w, one flag per window.
        assert tight.shape == (n,)
        assert all(tight[w] for w in cycle)
        lengths[row] = len(cycle)
    assert lengths == {0: 17, 1: 11, 2: 10, 3: 2}


def test_optimal_cycles_are_exactly_the_tight_cycles():
    # On random masks up to span 8, the tight mask _min_means yields is
    # one flag per window, set on valid windows only.  A cycle is optimal
    # exactly when every window on it is tight, so every window of an
    # optimal closed walk (a union of optimal cycles) is flagged.  Masks
    # above span 5 are kept sparse, so that their cycles can be listed.
    rng = np.random.default_rng(27)
    optimal_cycles = 0
    for _ in range(300):
        s = int(rng.integers(1, 9))
        g = WindowGraph(s, rng.random(1 << s) < rng.uniform(0.2, 0.9 if s <= 5 else 0.5))
        [(_, mean, _, tight)] = solver._min_means(g.valid[None])
        assert tight.shape == g.valid.shape and not (tight & ~g.valid).any(), g.nodes
        for cycle in brute_force_cycles_tiny(g):
            optimal = Fraction(sum(w & 1 for w in cycle), len(cycle)) == mean
            assert optimal == all(tight[w] for w in cycle), (g.nodes, cycle)
            optimal_cycles += optimal
    assert optimal_cycles > 100


def _drop_a_residue(period, residues):
    return Pattern1D(period, sorted(residues)[1:])


BOTH_ENTRY_POINTS = pytest.mark.parametrize(
    "solve", [exact_density, lambda f: exact_densities([f])], ids=["single", "batch"]
)


@BOTH_ENTRY_POINTS
@pytest.mark.parametrize(
    "name, fake, message",
    [
        ("verify_pattern_1d", lambda x, f: (0, 0), "optimal pattern failed verification at (0, 0)"),
        ("Pattern1D", _drop_a_residue, "optimal cycle density mismatch"),
    ],
)
def test_upper_bound_certificate_fires_in_both_entry_points(monkeypatch, solve, name, fake, message):
    # A pattern that misses a ship translate, or whose density is not the
    # cycle's, is refused rather than returned.  0,2,6 is scaled by 2.
    monkeypatch.setattr(solver, name, fake)
    with pytest.raises(AssertionError, match=re.escape(message)):
        solve(parse_family("0,2,6"))


@BOTH_ENTRY_POINTS
def test_scale_check_fires_in_both_entry_points(monkeypatch, solve):
    # The certificate checks that the family is its reduced family scaled
    # by d.  0,2,7 has offset gcd 1, so a scale_reduce claiming it is
    # 0,1,3 scaled by 2 is caught, though 0,1,3 is solved and pierced.
    monkeypatch.setattr(solver, "scale_reduce", lambda f: (parse_family("0,1,3"), 2))
    with pytest.raises(AssertionError, match="0,2,7 is not its reduced family scaled by 2"):
        solve(parse_family("0,2,7"))


def test_scaled_pattern_density_is_checked(monkeypatch):
    # exact_density scales the certified pattern back by d; a scaling that
    # drops a shot changes the density, and is refused.
    def drop_a_scaled_residue(x, d):
        scaled = scale_pattern(x, d)
        return _drop_a_residue(scaled.period, scaled.residues)

    monkeypatch.setattr(solver, "scale_pattern", drop_a_scaled_residue)
    with pytest.raises(AssertionError, match="optimal cycle density mismatch"):
        exact_density(parse_family("0,2,6"))


def test_exact_density_certifies_on_the_reduced_family(monkeypatch):
    # The pattern is verified once, at the reduced family's period, and
    # only then scaled back by the offset gcd 2000.
    calls = []
    real = solver.verify_pattern_1d

    def recording(x, f):
        calls.append((x, str(f)))
        return real(x, f)

    monkeypatch.setattr(solver, "verify_pattern_1d", recording)
    r = exact_density(parse_family("0,2000,6000"))
    assert [(x.period, f) for x, f in calls] == [(5, "0,1,3")]
    assert (r.density, r.scale, r.cycle_length, r.pattern.period) == (Fraction(2, 5), 2000, 5, 10000)
    assert r.pattern == scale_pattern(calls[0][0], 2000)


def test_batch_yields_every_row_once_as_it_finishes(monkeypatch):
    # Rows of one span-14 stack finish after different numbers of sweeps
    # and leave the stack out of order; each is yielded exactly once.
    yielded = []
    real = solver._min_means

    def recording(valid):
        for row, *rest in real(valid):
            yielded.append(row)
            yield (row, *rest)

    monkeypatch.setattr(solver, "_min_means", recording)
    texts = ["0,1,12;0,12,13", "0,1,13", "0,5,12,13;0,13", "0,1,3,13"]
    families = [parse_family(t) for t in texts]
    assert {scale_reduce(f)[0].span for f in families} == {14}
    densities = exact_densities(families)
    assert yielded == [1, 2, 3, 0]
    assert densities == [Fraction(1, 2), Fraction(5, 14), Fraction(1, 2), Fraction(3, 11)]
    assert densities == [exact_density(f).density for f in families]


def test_span_cap_refusal_reports_required_span():
    f = parse_family("0,1,9")
    with pytest.raises(SpanCapError) as exc:
        exact_density(f, span_cap=8)
    assert exc.value.required_span == 10
    # the cap applies after scale reduction
    assert exact_density(scale(f, 3), span_cap=10).density == exact_density(f).density


def test_pattern_certified_and_density_exact():
    expected = {
        "0,1,3": "5:0,4",
        "0,2;0,3": "5:0,3,4",
        "0,1;0,2,4": "5:1,3,4",
        "0,2,5;0,3,5": "8:0,1,7",
        "0,2,4": "6:4,5",
        "0,1,4;0,2,4": "7:0,1,6",
        "0,3;0,1,2": "2:1",
        "0,1,2,5;0,3,4": "5:1,3",
        "0,6,11;0,11": "2:1",
        "0,1,12;0,12;0,15": "27:0,1,2,3,4,5,6,7,8,9,10,23,24,25,26",
        "0,3,7,11;0,10;0,15": "25:0,1,2,3,4,5,6,7,8,19,20,21,22,23,24",
        "0,5,9,15;0,8,13,15;0,12": "24:0,1,2,3,4,5,6,7,20,21,22,23",
        "0,5,14,15;0,15": "2:1",
    }
    for text, pattern in expected.items():
        r = exact_density(parse_family(text))
        assert verify_pattern_1d(r.pattern, parse_family(text)) is None
        assert r.pattern.density == r.density
        assert str(r.pattern) == pattern, text


@given(small_families)
@settings(max_examples=40, deadline=None)
def test_reflection_invariance(f):
    assert exact_density(f).density == exact_density(reflect(f)).density


@given(small_families, st.sampled_from([2, 3]))
@settings(max_examples=40, deadline=None)
def test_scaling_invariance_through_reduction(f, d):
    assert exact_density(f).density == exact_density(scale(f, d)).density


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("text", ["0,1", "0,1,2", "0,1,3", "0,1;0,2"])
def test_scaling_invariance_without_reduction(text, d):
    # Solve the scaled family on its own window graph, bypassing the
    # reduction step, to exercise the invariance rather than assume it.
    f = parse_family(text)
    scaled = scale(f, d)
    g = WindowGraph.from_family(scaled)
    assert min_mean_cycle(g)[0] == exact_density(f).density


@given(small_families)
@settings(max_examples=30, deadline=None)
def test_family_monotonicity(f):
    d = exact_density(f).density
    assert d <= 1
    for ship in f.ships:
        assert exact_density(Family((ship,))).density <= d


@given(small_families, st.randoms(use_true_random=False))
@settings(max_examples=30, deadline=None)
def test_sub_ship_monotonicity(f, rng):
    ships = list(f.ships)
    i = rng.randrange(len(ships))
    victim = ships[i]
    if victim.size == 1:
        return
    cells = list(victim.offsets)
    cells.pop(rng.randrange(len(cells)))
    lo = cells[0]
    ships[i] = Ship(tuple(c - lo for c in cells))
    harder = Family(tuple(ships))
    assert exact_density(harder).density >= exact_density(f).density


@given(
    small_families,
    st.integers(2, 9).flatmap(
        lambda p: st.tuples(st.just(p), st.sets(st.integers(0, p - 1)))
    ),
)
@settings(max_examples=40, deadline=None)
def test_any_piercing_pattern_is_at_least_optimal(f, pat_spec):
    from shippierce.verifier import Pattern1D

    period, residues = pat_spec
    x = Pattern1D(period, residues)
    if verify_pattern_1d(x, f) is None:
        assert x.density >= exact_density(f).density


def test_stats_reported():
    r = exact_density(parse_family("0,1,3"))
    assert r.window_length == 4
    assert r.cycle_length == r.pattern.period == 5
    assert r.node_count == 14
    assert r.scale == 1
