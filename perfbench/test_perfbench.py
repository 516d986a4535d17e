"""Tests of the benchmark's own arithmetic and checks."""

import json
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import shippierce.search  # noqa: E402
import trace_layers  # noqa: E402
from trace_layers import PER_LAYER, Span, Tracer, layer_metrics, self_times  # noqa: E402

GIVEN = {"search.pool_utilization": 0.0, "trace.overhead_ratio": 0.0}
from workloads import GOLDEN, LADDER, first_mismatch, load_ladder_golden  # noqa: E402


def test_self_time_subtracts_the_union_of_children_clipped_to_the_parent():
    spans = [
        Span("root", 0.0, 10.0, None, None),
        Span("a", 1.0, 4.0, 0, None),
        Span("a.child", 2.0, 3.0, 1, None),
        Span("b", 3.0, 6.0, 0, None),  # overlaps a: [1, 6] is covered once
        Span("c", 9.0, 12.0, 0, None),  # runs past the parent: only [9, 10] counts
    ]
    assert self_times(spans) == [4.0, 2.0, 1.0, 3.0, 3.0]


def test_golden_check_rejects_a_corrupted_density_line():
    golden = (GOLDEN / "results" / "type_n2_k2_span9.txt").read_bytes()
    lines = golden.decode().splitlines(keepends=True)
    family, density = lines[2].rstrip("\n").split("\t")
    corrupted = "1/7" if density != "1/7" else "1/8"
    lines[2] = f"{family}\t{corrupted}\n"
    output = "".join(lines).encode()
    assert first_mismatch(golden, golden) is None
    message = first_mismatch(output, golden)
    assert message is not None and message.startswith("line 3:")


def test_traced_search_records_nested_spans_and_counts(tmp_path):
    tracer = Tracer()
    tracer.install()
    try:
        report = shippierce.search.compute_extremes(1, 3, 5, results_path=tmp_path / "r.txt")
    finally:
        tracer.uninstall()
    assert shippierce.search.exact_density.__name__ == "exact_density"
    metrics = layer_metrics(tracer, {}, GIVEN)
    assert set(metrics) == set(PER_LAYER)
    families = report.families_examined
    assert metrics["solver.exact_density.calls"][0] == families
    assert metrics["search.cache_hit_ratio"][0] == 0.0
    root = tracer.spans[0]
    assert root.name == "search.compute_extremes" and root.family == "n1_k3_span5"
    solves = [s for s in tracer.spans if s.name == "solver.exact_density"]
    assert all(tracer.spans[s.parent] is root for s in solves)
    inner = [s for s in tracer.spans if s.name == "solver.min_mean_cycle"]
    assert [s.family for s in inner] == [s.family for s in solves]
    assert all(not math.isnan(s.end) for s in tracer.spans)


def test_missing_layer_is_reported_absent_not_fatal(monkeypatch):
    layers = dict(trace_layers.LAYERS)
    layers["solver.min_mean_cycle"] = ([("shippierce.solver", "no_such_name")], None, None)
    monkeypatch.setattr(trace_layers, "LAYERS", layers)
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["solver.min_mean_cycle"]
    metrics = layer_metrics(tracer, {}, GIVEN)
    assert "solver.min_mean_cycle.s" not in metrics
    assert "solver.nodes_per_s" not in metrics
    assert "solver.exact_density.s" in metrics


def test_benchmark_json_names_the_reported_layer_metrics():
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in declared["per_layer"]] == list(PER_LAYER)
    assert [m["unit"] for m in declared["per_layer"]] == [u for u, _, _ in PER_LAYER.values()]


def test_ladder_candidates_of_a_rung_do_the_same_work():
    golden = load_ladder_golden()
    for span, candidates in LADDER.items():
        shapes = {
            (out["window"], out["nodes"], out["cycle"])
            for out in (json.loads(golden[family]) for family in candidates)
        }
        cycle = json.loads(golden[f"0,1,{span - 1}"])["cycle"]
        assert shapes == {(span, 7 * 2**span // 8, cycle)}
