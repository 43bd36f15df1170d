"""In-process traced replay of a workload and the per-layer metrics it yields.

The replay runs the workload's commands through ``labelkit.cli.main`` in
this process. While tracing, the benchmark wraps, from the outside, each
labelkit function the CLI calls across a module boundary (plus the report
writers and the per-threshold calls inside ``metrics.sweep``), so every
wrapped call records a span: name, start, end, parent span, workload and run
id. Spans stay in memory and are written out when the run ends. No span is
recorded inside labelkit's own code. The edit-distance kernel, which the
dupes scan calls millions of times, is timed without spans: each span keeps
the kernel time spent directly inside it (``kernel_s``).

A layer's self time is the summed duration of its spans minus the time their
child spans and kernel calls cover; the kernel time is textkit's. ``trace.overhead_s`` is the traced replay's wall time
minus that of the same replay with tracing off, each command run both ways
back to back.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import statistics
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import workloads

LAYERS = ("catalog", "textkit", "cleanse", "relgraph", "metrics", "metricmp", "reports", "cli")
# Functions wrapped in the namespaces of labelkit modules that call them
# within their own module (reports' writers, the per-threshold steps of sweep).
INTRA_MODULE = {"reports": ("file_digest", "render_json", "write_text"),
                "metrics": ("threshold", "fbeta_report", "graph_fbeta_report")}
# The kernel as the dupes scan calls it: imported by name into cleanse.
KERNEL = ("cleanse", "edit_distance_capped")
KERNEL_REPLAY_PAIRS = 20_000
KERNEL_REPLAY_REPEATS = 3
DUPES_SIMILARITY = 0.9


@dataclass
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: int | None
    workload: str
    run_id: str
    kernel_s: float = 0.0


class Tracer:
    """Span recorder for one run. Calls come from one thread: labelkit's
    worker threads only run code that is never wrapped."""

    def __init__(self, workload: str, run_id: str):
        self.workload = workload
        self.run_id = run_id
        self.spans: list[Span] = []
        self.counters: dict[str, float] = {}
        self.kernel_s = 0.0  # kernel time inside the innermost open span
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = Span(span_id, name, time.perf_counter(), math.nan, parent, self.workload, self.run_id)
        self.spans.append(record)
        self._stack.append(span_id)
        outer_kernel_s, self.kernel_s = self.kernel_s, 0.0
        try:
            yield record
        finally:
            self._stack.pop()
            record.end = time.perf_counter()
            record.kernel_s, self.kernel_s = self.kernel_s, outer_kernel_s

    def count(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for s in self.spans:
                handle.write(json.dumps(s.__dict__) + "\n")

    def inclusive(self, name: str) -> float:
        return sum(s.end - s.start for s in self.spans if s.name == name)

    def self_times(self) -> dict[str, float]:
        """Self time per layer: each span's duration minus its children's
        and its kernel calls'; the kernel time counts for textkit."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.end - s.start
        totals = {layer: 0.0 for layer in LAYERS}
        for s in self.spans:
            layer = s.name.split(".", 1)[0]
            if layer in totals:
                totals[layer] += (s.end - s.start) - child_time[s.span_id] - s.kernel_s
            totals["textkit"] += s.kernel_s
        return totals


# ---------------------------------------------------------------------------
# Wrapping labelkit from the outside


def _observers(tracer: Tracer, captured: dict) -> dict[str, Callable]:
    """Counters recorded after a wrapped call returns: (args, kwargs, result)."""

    def find_duplicates(args, kwargs, pairs):
        catalog = args[0]
        pools: dict[str, int] = {}
        for record in catalog:
            pools[record.category] = pools.get(record.category, 0) + 1
        tracer.count("cleanse.find_duplicates.pairs_total", sum(n * (n - 1) // 2 for n in pools.values()))
        tracer.count("cleanse.find_duplicates.pairs_found", len(pairs))

    def graph_fbeta_report(args, kwargs, report):
        captured.setdefault("graph_call", (args, kwargs))

    return {
        "catalog.parse_annotations": lambda a, k, r: tracer.count("catalog.parse_annotations.rows", len(r)),
        "metrics.parse_scores": lambda a, k, r: tracer.count("metrics.parse_scores.rows", sum(len(s) for _, s in r)),
        "metrics.threshold": lambda a, k, r: tracer.count("metrics.threshold.predicted", sum(len(p) for _, p in r)),
        "metrics.sweep": lambda a, k, r: tracer.count("metrics.sweep.thresholds", len(r)),
        "relgraph.build_graph": lambda a, k, r: captured.update(graph_size=(r.n_nodes, r.n_edges)),
        "reports.write_text": lambda a, k, r: tracer.count("reports.bytes_written", len(a[0].encode("utf-8"))),
        "cleanse.find_duplicates": find_duplicates,
        "metrics.graph_fbeta_report": graph_fbeta_report,
    }


def _wrap(tracer: Tracer, func: Callable, name: str, observe: Callable | None) -> Callable:
    def traced(*args, **kwargs):
        with tracer.span(name):
            result = func(*args, **kwargs)
        if observe is not None:
            observe(args, kwargs, result)
        return result

    return traced


def _wrap_kernel(tracer: Tracer, func: Callable) -> Callable:
    clock = time.perf_counter

    def timed(*args):
        start = clock()
        result = func(*args)
        tracer.kernel_s += clock() - start
        return result

    return timed


@contextlib.contextmanager
def traced_labelkit(tracer: Tracer, captured: dict):
    """Wrap labelkit's cross-module calls for the duration of the block."""
    import labelkit
    from labelkit import cli

    observers = _observers(tracer, captured)
    patches: list[tuple[object, str, Callable]] = []

    def span_name(func: Callable) -> str:
        return f"{func.__module__.rsplit('.', 1)[-1]}.{func.__name__}"

    for attr, value in vars(cli).items():
        if callable(value) and getattr(value, "__module__", "").startswith("labelkit.") \
                and value.__module__ != cli.__name__ and not isinstance(value, type):
            patches.append((cli, attr, value))
    for module_name, attrs in INTRA_MODULE.items():
        module = getattr(labelkit, module_name)
        patches.extend((module, attr, getattr(module, attr)) for attr in attrs)
    kernel_module = getattr(labelkit, KERNEL[0])
    kernel = getattr(kernel_module, KERNEL[1])
    try:
        for module, attr, func in patches:
            name = span_name(func)
            setattr(module, attr, _wrap(tracer, func, name, observers.get(name)))
        setattr(kernel_module, KERNEL[1], _wrap_kernel(tracer, kernel))
        yield
    finally:
        for module, attr, func in patches:
            setattr(module, attr, func)
        setattr(kernel_module, KERNEL[1], kernel)


def replay(workload: str, tracer: Tracer, captured: dict,
           check: Callable[[workloads.Command, int], None]) -> tuple[float, float]:
    """Run each of the workload's commands in this process (cwd: the corpus
    directory) twice back to back, once with tracing off and once on, the
    order alternating from command to command so that drift in machine speed
    and first-run effects fall on both sides alike. ``check`` sees each
    execution's command and exit status. Returns the untraced and the traced
    wall time."""
    from labelkit import cli

    totals = {False: 0.0, True: 0.0}
    for index, command in enumerate(workloads.commands(workload, "out")):
        argv = [command.name, *command.args]
        for traced in (False, True) if index % 2 == 0 else (True, False):
            for name in command.outputs:
                Path("out", name).unlink(missing_ok=True)
            with contextlib.redirect_stdout(io.StringIO()), contextlib.ExitStack() as stack:
                if traced:
                    stack.enter_context(traced_labelkit(tracer, captured))
                    stack.enter_context(tracer.span(f"cli.{command.name}"))
                start = time.perf_counter()
                status = cli.main(argv)
                totals[traced] += time.perf_counter() - start
            check(command, status)
    return totals[False], totals[True]


# ---------------------------------------------------------------------------
# Probes outside the replay


def kernel_replay_us(labels_path: str, seed: int) -> float:
    """Median microseconds per ``edit_distance_capped`` call over a fixed,
    seeded sample of same-category pairs, capped as ``dupes`` caps them."""
    from labelkit import catalog as lk_catalog
    from labelkit import textkit

    with open(labels_path, encoding="utf-8", newline="") as handle:
        records = list(lk_catalog.parse_labels(handle))
    pools: dict[str, list[str]] = {}
    for record in records:
        pools.setdefault(record.category, []).append(record.canonical)
    rng = random.Random(f"kernel-replay:{seed}")
    names = sorted(pools)
    weights = [len(pools[c]) * (len(pools[c]) - 1) for c in names]
    pairs = []
    for _ in range(KERNEL_REPLAY_PAIRS):
        a, b = rng.sample(pools[rng.choices(names, weights)[0]], 2)
        longest = max(len(a), len(b))
        pairs.append((a, b, min(longest, int((1.0 - DUPES_SIMILARITY) * longest) + 1)))
    kernel = textkit.edit_distance_capped
    samples = []
    for _ in range(KERNEL_REPLAY_REPEATS):
        start = time.perf_counter()
        for a, b, cap in pairs:
            kernel(a, b, cap)
        samples.append((time.perf_counter() - start) / len(pairs) * 1e6)
    return statistics.median(samples)


def graph_probe(call: tuple, threads: int) -> tuple[float, int]:
    """Re-run a captured ``graph_fbeta_report`` call on a cold copy of its
    graph. Returns the wall time and the sum of |truth| x |predicted| over
    the scored samples."""
    from labelkit import metrics, relgraph

    args, kwargs = call
    predictions, truth, graph = args[:3]
    cold = relgraph.RelationGraph(graph.nodes, graph.edges())
    kwargs = dict(kwargs, threads=threads)
    start = time.perf_counter()
    metrics.graph_fbeta_report(predictions, truth, cold, *args[3:], **kwargs)
    elapsed = time.perf_counter() - start
    pairs = sum(len(t) * len(predictions.labels_for(sid)) for sid, t in truth)
    return elapsed, pairs


def per_layer_metrics(tracer: Tracer, captured: dict, traced_s: float, untraced_s: float,
                      kernel_us: float, probes: dict, cli_children: dict) -> dict[str, tuple[float, str]]:
    """Every per-layer metric, by name, as (value, unit). Functions the
    workload never calls read 0."""
    m: dict[str, tuple[float, str]] = {}
    seconds = lambda name: (tracer.inclusive(name), "s")  # noqa: E731
    m["textkit.edit_distance_capped.us_per_call"] = (kernel_us, "us")
    for name in ("cleanse.find_duplicates", "cleanse.find_hierarchy_candidates", "cleanse.classify_connectives",
                 "cleanse.load_plan", "cleanse.apply_merges", "cleanse.apply_and_splits",
                 "cleanse.propagate_supercategories", "catalog.parse_labels", "catalog.parse_annotations",
                 "catalog.compute_stats", "catalog.write_annotations", "relgraph.parse_curated_edges",
                 "relgraph.build_graph", "relgraph.graph_summary", "metrics.parse_scores", "metrics.threshold",
                 "metrics.fbeta_report", "metrics.or_aware_report", "metrics.enforce_exclusion",
                 "metrics.graph_fbeta_report", "metrics.sweep", "metricmp.family_from_sweep", "metricmp.compare",
                 "reports.render_json", "reports.write_text", "reports.file_digest"):
        m[f"{name}.s"] = seconds(name)
    c = tracer.counters
    total = c.get("cleanse.find_duplicates.pairs_total", 0)
    found = c.get("cleanse.find_duplicates.pairs_found", 0)
    m["cleanse.find_duplicates.pairs_total"] = (total, "count")
    m["cleanse.find_duplicates.pairs_found"] = (found, "count")
    m["cleanse.find_duplicates.found_ratio"] = (found / total if total else 0.0, "ratio")
    m["catalog.parse_annotations.rows"] = (c.get("catalog.parse_annotations.rows", 0), "count")
    nodes, edges = captured.get("graph_size", (0, 0))
    m["relgraph.nodes"] = (nodes, "count")
    m["relgraph.edges"] = (edges, "count")
    rows, parse_s = c.get("metrics.parse_scores.rows", 0), m["metrics.parse_scores.s"][0]
    m["metrics.parse_scores.rows"] = (rows, "count")
    m["metrics.parse_scores.rows_per_s"] = (rows / parse_s if parse_s else 0.0, "1/s")
    m["metrics.threshold.predicted"] = (c.get("metrics.threshold.predicted", 0), "count")
    m["metrics.graph_fbeta_report.t1.s"] = (probes.get("t1", 0.0), "s")
    m["metrics.graph_fbeta_report.tmax.s"] = (probes.get("tmax", 0.0), "s")
    m["metrics.graph_fbeta_report.pairs"] = (probes.get("pairs", 0), "count")
    thresholds, sweep_s = c.get("metrics.sweep.thresholds", 0), m["metrics.sweep.s"][0]
    m["metrics.sweep.thresholds"] = (thresholds, "count")
    m["metrics.sweep.s_per_threshold"] = (sweep_s / thresholds if thresholds else 0.0, "s")
    m["reports.bytes_written"] = (c.get("reports.bytes_written", 0), "bytes")
    for command in workloads.ALL_COMMANDS:
        wall, rss = cli_children.get(command, (0.0, 0.0))
        m[f"cli.{command}.s"] = (wall, "s")
        m[f"cli.{command}.rss_mb"] = (rss, "MB")
    for layer, value in tracer.self_times().items():
        m[f"{layer}.self_s"] = (value, "s")
    m["trace.overhead_s"] = (traced_s - untraced_s, "s")
    return m


def run_id() -> str:
    return f"{os.getpid()}-{time.time_ns()}"
