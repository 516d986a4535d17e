from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from shippierce.core import Family, Ship, make_family, parse_family, reflect, scale, scale_reduce
from shippierce.solver import (
    SpanCapError,
    WindowGraph,
    exact_density,
    min_mean_cycle,
    translate_masks,
)
from shippierce.verifier import pattern_density, verify_pattern_1d

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


def test_translate_masks_cover_every_fit():
    f = parse_family("0,2;0,1,3")  # canonical order: [0,1,3] then [0,2]
    masks = translate_masks(f, 4)
    # [0,1,3] fits only at 0; [0,2] at 0 and 1 (MSB-first bit layout)
    assert masks == [0b1101, 0b1010, 0b0101]


def test_min_mean_cycle_forced_graphs():
    # single self-loop of weight 1
    mean, cycle = min_mean_cycle(WindowGraph(1, (1,)))
    assert (mean, cycle) == (Fraction(1), [1])
    # pure two-cycle with weights 1 and 0
    mean, cycle = min_mean_cycle(WindowGraph(2, (1, 2)))
    assert (mean, cycle) == (Fraction(1, 2), [1, 2])


def test_min_mean_cycle_rejects_acyclic():
    with pytest.raises(ValueError):
        min_mean_cycle(WindowGraph(2, (1,)))  # 01 alone has no cycle


def test_cycle_enumeration_oracle_on_01_graph():
    # Frozen from the brute-force enumeration of the 3-node graph:
    # cycles {01,10}, {11}, {01,11,10} with means 1/2, 1, 2/3.
    g = WindowGraph.from_family(parse_family("0,1"))
    cycles = brute_force_cycles_tiny(g)
    assert sorted(cycles) == [[1, 2], [1, 3, 2], [3]]
    means = sorted(Fraction(sum(w & 1 for w in c), len(c)) for c in cycles)
    assert means == [Fraction(1, 2), Fraction(2, 3), Fraction(1)]
    assert min_mean_cycle(g)[0] == Fraction(1, 2) == min(means)


def test_tie_break_is_shortest_then_lexicographic():
    # {[0,2]} at span 3: optimal mean 1/2 is achieved by many cycles;
    # the contract picks the shortest and lexicographically first.
    g = WindowGraph.from_family(parse_family("0,2"))
    mean, cycle = min_mean_cycle(g)
    assert mean == Fraction(1, 2)
    others = [c for c in brute_force_cycles_tiny(g)
              if 2 * sum(w & 1 for w in c) == len(c)]
    shortest = min(len(c) for c in others)
    assert len(cycle) == shortest
    assert cycle == min(c for c in others if len(c) == shortest)


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
    }
    for text, pattern in expected.items():
        r = exact_density(parse_family(text))
        assert verify_pattern_1d(r.pattern, parse_family(text)) is None
        assert pattern_density(r.pattern) == r.density
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
    from shippierce.verifier import Pattern1D, pierces

    period, residues = pat_spec
    x = Pattern1D(period, residues)
    if pierces(x, f):
        assert pattern_density(x) >= exact_density(f).density


def test_stats_reported():
    r = exact_density(parse_family("0,1,3"))
    assert r.window_length == 4
    assert r.cycle_length == r.pattern.period == 5
    assert r.node_count == 14
    assert r.scale == 1
