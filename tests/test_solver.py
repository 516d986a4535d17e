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
from shippierce.verifier import verify_pattern_1d

from oracles import (
    brute_force_cycles_tiny,
    graph_edges,
    min_mean_by_closed_walks,
    min_mean_by_cycle_enumeration,
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
    # has a shot.
    assert len(BRUTE_FORCE_NODE_FAMILIES) == 77
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


def test_witness_search_starts_only_where_a_walk_can_close(monkeypatch):
    # A closed walk of length L < s through a word re-appends its own
    # bits, so only L-periodic words can start one.  Span 14, mean 1/2,
    # shortest optimal cycle 2: at most the four 2-periodic words are
    # searched from.
    searches = []
    real = solver._distances_to

    def recording(edge, root, length):
        searches.append((root, length))
        return real(edge, root, length)

    monkeypatch.setattr(solver, "_distances_to", recording)
    r = exact_density(parse_family("0,5,12,13;0,13"))
    assert (r.window_length, r.cycle_length) == (14, 2)
    s = r.window_length
    for root, length in searches:
        if length < s:
            assert root >> length == root & ((1 << (s - length)) - 1), (root, length)
    assert 1 <= len(searches) <= 4


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


def test_batch_reverses_parent_cycles_into_walk_order():
    # Parent pointers run backwards along a walk; read forwards, a parent
    # cycle spells a pattern for the mirror image.  None of these
    # families is its own mirror image, and the last parent cycle of
    # each, read forwards, misses a ship translate.
    texts = ["0,1,3,8", "0,1,4,6", "0,2,3,7", "0,1,3;0,2,6", "0,2,3;0,1,4", "0,2,5;0,3,7"]
    families = [parse_family(t) for t in texts]
    assert all(reflect(f) != f for f in families)
    assert exact_densities(families) == [exact_density(f).density for f in families]


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
