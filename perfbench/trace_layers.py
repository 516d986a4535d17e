"""Spans and counters recorded around shippierce's public layers.

The tracer replaces module attributes at the places where shippierce
looks them up (for example ``shippierce.search.exact_density``, which
``compute_extremes`` calls through its module globals), so the package
itself is not edited.  Each call records one span: name, start, end,
parent span and the family it works on.  Spans stay in memory until
the run ends.  A name that no longer exists is skipped and listed in
``Tracer.absent``; the metrics of that layer are then left out.

Spans do not cross process boundaries, so traced passes run in one
process.
"""

from __future__ import annotations

import importlib
import inspect
import math
from dataclasses import dataclass
from time import perf_counter


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into the span list
    family: str | None


def _graph_counts(args, kwargs, graph, counts):
    counts["graph_nodes"] += len(graph.nodes)
    counts["graph_windows"] += 1 << graph.s


def _cycle_counts(args, kwargs, result, counts):
    graph = args[0] if args else kwargs["graph"]
    length = len(result[1])
    counts["solved_nodes"] += len(graph.nodes)
    counts["cycle_length_sum"] += length
    counts["cycle_length_max"] = max(counts["cycle_length_max"], length)


def _verify_counts(args, kwargs, result, counts):
    pattern, family = args[:2]
    counts["cell_checks"] += pattern.period * sum(ship.size for ship in family.ships)


def _extremes_counts(args, kwargs, report, counts):
    counts["families"] += report.families_examined


def _enumerate_counts(args, kwargs, yielded, counts):
    from shippierce.search import raw_family_count

    counts["canonical"] += yielded
    counts["raw"] += raw_family_count(*args[:3])


def _family_of_call(args, kwargs):
    f = args[0] if args else kwargs.get("f")
    return None if f is None else str(f)


def _family_of_main(args, kwargs):
    argv = args[0] if args else kwargs.get("argv")
    return argv[1] if argv and len(argv) > 1 else None


def _type_of_search(args, kwargs):
    return "n{}_k{}_span{}".format(*args[:3]) if len(args) >= 3 else None


# Span name -> (places it is looked up, family of a call, counter hook).
# A place is (module, dotted attribute); the span name is the public
# name the layer is known by, independent of where it is called from.
LAYERS = {
    "cli.main": ([("shippierce.cli", "main")], _family_of_main, None),
    "core.parse_family": (
        [("shippierce.cli", "parse_family"), ("shippierce.search", "parse_family")],
        None,
        None,
    ),
    "core.scale_reduce": ([("shippierce.solver", "scale_reduce")], None, None),
    "search.compute_extremes": (
        [("shippierce.search", "compute_extremes")],
        _type_of_search,
        _extremes_counts,
    ),
    "search.enumerate_families": (
        [("shippierce.search", "enumerate_families")],
        None,
        _enumerate_counts,
    ),
    "solver.exact_density": (
        [("shippierce.cli", "exact_density"), ("shippierce.search", "exact_density")],
        _family_of_call,
        None,
    ),
    "solver.WindowGraph.from_family": (
        [("shippierce.solver", "WindowGraph.from_family")],
        None,
        _graph_counts,
    ),
    "solver.min_mean_cycle": ([("shippierce.solver", "min_mean_cycle")], None, _cycle_counts),
    "verifier.verify_pattern_1d": (
        [("shippierce.solver", "verify_pattern_1d")],
        None,
        _verify_counts,
    ),
}


class Tracer:
    """Wraps the layers in LAYERS while installed; see the module doc."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {
            key: 0
            for key in (
                "graph_nodes", "graph_windows", "solved_nodes", "cycle_length_sum",
                "cycle_length_max", "cell_checks", "families", "canonical", "raw",
            )
        }
        self.absent: list[str] = []
        self.hook_errors: dict[str, str] = {}
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for name, (places, family_of, hook) in LAYERS.items():
            found = False
            for module_name, dotted in places:
                try:
                    owner = importlib.import_module(module_name)
                    *path, attr = dotted.split(".")
                    for part in path:
                        owner = getattr(owner, part)
                    raw = inspect.getattr_static(owner, attr)
                except (ImportError, AttributeError):
                    continue
                setattr(owner, attr, self._wrap_raw(raw, name, family_of, hook))
                self._restore.append((owner, attr, raw))
                found = True
            if not found:
                self.absent.append(name)

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._restore):
            setattr(owner, attr, raw)
        self._restore.clear()

    def _wrap_raw(self, raw, name, family_of, hook):
        if isinstance(raw, (classmethod, staticmethod)):
            return type(raw)(self._wrap(raw.__func__, name, family_of, hook))
        return self._wrap(raw, name, family_of, hook)

    def _open(self, name, family):
        parent = self._stack[-1] if self._stack else None
        if family is None and parent is not None:
            family = self.spans[parent].family
        self.spans.append(Span(name, perf_counter(), math.nan, parent, family))
        self._stack.append(len(self.spans) - 1)

    def _close(self):
        self.spans[self._stack.pop()].end = perf_counter()

    def _count(self, name, hook, args, kwargs, result):
        try:
            hook(args, kwargs, result, self.counts)
        except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
            self.hook_errors.setdefault(name, f"{type(exc).__name__}: {exc}")

    def _wrap(self, fn, name, family_of, hook):
        tracer = self

        def family(args, kwargs):
            return family_of(args, kwargs) if family_of else None

        if inspect.isgeneratorfunction(fn):
            # The span runs from the first next() to exhaustion, so it is
            # the enumeration time only while the caller drains it at once
            # (compute_extremes does list(...)).
            def traced_gen(*args, **kwargs):
                tracer._open(name, family(args, kwargs))
                yielded = 0
                try:
                    for item in fn(*args, **kwargs):
                        yielded += 1
                        yield item
                finally:
                    tracer._close()
                if hook:
                    tracer._count(name, hook, args, kwargs, yielded)

            return traced_gen

        def traced(*args, **kwargs):
            tracer._open(name, family(args, kwargs))
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close()
            if hook:
                tracer._count(name, hook, args, kwargs, result)
            return result

        return traced


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out = []
    for i, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for child in sorted(children.get(i, []), key=lambda c: c.start):
            lo, hi = max(child.start, reach), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span.end - span.start - covered)
    return out


def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 for no values."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def _under(spans: list[Span], i: int, ancestor: str) -> bool:
    parent = spans[i].parent
    while parent is not None:
        if spans[parent].name == ancestor:
            return True
        parent = spans[parent].parent
    return False


# Per-layer metric -> (unit, layer it needs, whether it needs that layer's
# counter hook).  A metric is left out when its layer is absent or its
# hook failed; a layer that is present but not called reads 0.
PER_LAYER = {
    "search.enumerate_families.s": ("s", "search.enumerate_families", False),
    "search.canonical_ratio": ("ratio", "search.enumerate_families", True),
    "search.compute_extremes.self_s": ("s", "search.compute_extremes", False),
    "search.cache_hit_ratio": ("ratio", "search.compute_extremes", True),
    "search.pool_utilization": ("ratio", "search.compute_extremes", False),
    "solver.exact_density.s": ("s", "solver.exact_density", False),
    "solver.exact_density.calls": ("count", "solver.exact_density", False),
    "solver.exact_density.p50_s": ("s", "solver.exact_density", False),
    "solver.exact_density.p99_s": ("s", "solver.exact_density", False),
    "solver.exact_density.self_s": ("s", "solver.exact_density", False),
    "solver.WindowGraph.from_family.s": ("s", "solver.WindowGraph.from_family", False),
    "solver.nodes": ("count", "solver.WindowGraph.from_family", True),
    "solver.window_valid_ratio": ("ratio", "solver.WindowGraph.from_family", True),
    "solver.min_mean_cycle.s": ("s", "solver.min_mean_cycle", False),
    "solver.nodes_per_s": ("1/s", "solver.min_mean_cycle", True),
    "solver.cycle_length.sum": ("count", "solver.min_mean_cycle", True),
    "solver.cycle_length.max": ("count", "solver.min_mean_cycle", True),
    "verifier.verify_pattern_1d.s": ("s", "verifier.verify_pattern_1d", False),
    "verifier.verify_pattern_1d.calls": ("count", "verifier.verify_pattern_1d", False),
    "verifier.cell_checks": ("count", "verifier.verify_pattern_1d", True),
    "core.parse_family.s": ("s", "core.parse_family", False),
    "core.scale_reduce.s": ("s", "core.scale_reduce", False),
    "cli.main.self_s": ("s", "cli.main", False),
    "cli.main.span8_s": ("s", "cli.main", False),
    "cli.main.span10_s": ("s", "cli.main", False),
    "cli.main.span12_s": ("s", "cli.main", False),
    "trace.overhead_ratio": ("ratio", None, False),
}


def layer_metrics(
    tracer: Tracer, rung_of_family: dict[str, str], given: dict[str, float]
) -> dict[str, tuple[float, str]]:
    """Per-layer (value, unit) of one traced pass, keyed as in PER_LAYER.

    ``rung_of_family`` maps a ladder family to its rung ("span8", ...),
    so each ``cli.main`` call is reported under its rung.  ``given``
    holds the metrics that do not come from spans: the pool utilization
    and the tracing overhead.
    """
    spans = tracer.spans
    total: dict[str, float] = {}
    own: dict[str, float] = {}
    durations: dict[str, list[float]] = {}
    for span, self_s in zip(spans, self_times(spans)):
        d = span.end - span.start
        total[span.name] = total.get(span.name, 0.0) + d
        own[span.name] = own.get(span.name, 0.0) + self_s
        durations.setdefault(span.name, []).append(d)
    c = tracer.counts
    ed = sorted(durations.get("solver.exact_density", []))
    solves = sum(
        1
        for i, s in enumerate(spans)
        if s.name == "solver.exact_density" and _under(spans, i, "search.compute_extremes")
    )
    mmc_s = total.get("solver.min_mean_cycle", 0.0)
    values = dict(given)
    values.update({
        "search.enumerate_families.s": total.get("search.enumerate_families", 0.0),
        "search.canonical_ratio": c["canonical"] / c["raw"] if c["raw"] else 0.0,
        "search.compute_extremes.self_s": own.get("search.compute_extremes", 0.0),
        "search.cache_hit_ratio": 1 - solves / c["families"] if c["families"] else 0.0,
        "solver.exact_density.s": total.get("solver.exact_density", 0.0),
        "solver.exact_density.calls": len(ed),
        "solver.exact_density.p50_s": _percentile(ed, 0.50),
        "solver.exact_density.p99_s": _percentile(ed, 0.99),
        "solver.exact_density.self_s": own.get("solver.exact_density", 0.0),
        "solver.WindowGraph.from_family.s": total.get("solver.WindowGraph.from_family", 0.0),
        "solver.nodes": c["graph_nodes"],
        "solver.window_valid_ratio": (
            c["graph_nodes"] / c["graph_windows"] if c["graph_windows"] else 0.0
        ),
        "solver.min_mean_cycle.s": mmc_s,
        "solver.nodes_per_s": c["solved_nodes"] / mmc_s if mmc_s else 0.0,
        "solver.cycle_length.sum": c["cycle_length_sum"],
        "solver.cycle_length.max": c["cycle_length_max"],
        "verifier.verify_pattern_1d.s": total.get("verifier.verify_pattern_1d", 0.0),
        "verifier.verify_pattern_1d.calls": len(durations.get("verifier.verify_pattern_1d", [])),
        "verifier.cell_checks": c["cell_checks"],
        "core.parse_family.s": total.get("core.parse_family", 0.0),
        "core.scale_reduce.s": total.get("core.scale_reduce", 0.0),
        "cli.main.self_s": own.get("cli.main", 0.0),
    })
    for rung in ("span8", "span10", "span12"):
        values[f"cli.main.{rung}_s"] = sum(
            (
                s.end - s.start
                for s in spans
                if s.name == "cli.main" and rung_of_family.get(s.family) == rung
            ),
            0.0,
        )
    return {
        name: (values[name], unit)
        for name, (unit, layer, counted) in PER_LAYER.items()
        if layer not in tracer.absent and not (counted and layer in tracer.hook_errors)
    }
