"""Outside-in per-layer attribution for the traced benchmark run.

The traced run splits one workload's wall time across the layers of
``repro`` without editing the program: :class:`Tracer` swaps each
layer's public entry points for thin timing wrappers (every module
alias of a function is replaced, so ``from x import f`` call sites are
covered too), records one in-memory span per call and derives the
per-layer metrics from the span forest when the run ends.

Wrapped entry points, by layer:

* ``repro.graph``      — ``permute.relabel`` (``graph.relabel``);
  dataset generation is timed by the worker during set-up.
* ``repro.ordering``   — ``base.compute_ordering``
  (``ordering.compute``).
* ``repro.algorithms`` — every ``REGISTRY[a].traced``
  (``algorithms.emit``).
* ``repro.cache``      — ``Memory.cost``/``Memory.stats``, which
  resolve a recorded trace (``cache.resolve``), and
  ``CacheHierarchy.replay`` (``cache.replay``, access counts).
* ``repro.perf``       — ``runner.run_cell`` (``perf.cell``) and the
  reporting block the workload runs (``perf.report``).

The untraced run installs nothing; the difference between the two is
``obs.overhead_frac``.
"""

from __future__ import annotations

import dataclasses
import json
import math
import statistics
import sys
import time
from contextlib import contextmanager

HEADLINE_ALGORITHMS = (
    "nq", "bfs", "dfs", "scc", "sp", "pr", "ds", "kcore", "diam",
)
EXTENSION_ALGORITHMS = ("tc", "wcc", "lp")
ORDERING_METHODS = (
    "minla", "minloga", "gorder", "slashburn", "ldg", "rcm", "chdfs",
    "indegsort",
)
#: Datasets whose Gorder cost per edge is reported (Table 2 shape).
GORDER_DATASETS = ("epinion", "pokec", "sdarc")
#: Largest share of the traced wall time that may go unattributed
#: (``perf.overhead_s``) before the traced run fails.
COVERAGE_BOUND = 0.10

#: Every per-layer metric the traced run reports: ``(unit, better)``.
PER_LAYER_METRICS: dict[str, tuple[str, str]] = {
    "graph.load_s": ("s", "lower"),
    "graph.relabel_s": ("s", "lower"),
    "graph.relabel.calls": ("count", "lower"),
    "ordering.s": ("s", "lower"),
    "ordering.calls": ("count", "lower"),
    **{f"ordering.{m}.s": ("s", "lower") for m in ORDERING_METHODS},
    **{
        f"ordering.gorder.us_per_edge.{d}": ("us", "lower")
        for d in GORDER_DATASETS
    },
    "algorithms.emit_s": ("s", "lower"),
    **{
        f"algorithms.{a}.emit_s": ("s", "lower")
        for a in HEADLINE_ALGORITHMS + EXTENSION_ALGORITHMS
    },
    "algorithms.refs": ("count", "lower"),
    "algorithms.emit.ns_per_ref": ("ns", "lower"),
    "cache.replay_s": ("s", "lower"),
    **{f"cache.{a}.replay_s": ("s", "lower") for a in HEADLINE_ALGORITHMS},
    "cache.accesses": ("count", "lower"),
    "cache.replay.ns_per_access": ("ns", "lower"),
    "a6.traced_s": ("s", "lower"),
    "cache.step.refs": ("count", "lower"),
    "perf.cells": ("count", "higher"),
    "perf.cell_s.p50": ("s", "lower"),
    "perf.cell_s.p95": ("s", "lower"),
    "perf.memo_hit_ratio": ("ratio", "higher"),
    "perf.report_s": ("s", "lower"),
    "perf.overhead_s": ("s", "lower"),
    "obs.overhead_frac": ("frac", "lower"),
    "proc.cpu_s": ("s", "lower"),
    "proc.cpu_util": ("ratio", "higher"),
}


class AttributionError(RuntimeError):
    """An entry point the traced run wraps is bound nowhere."""


@dataclasses.dataclass
class Span:
    span_id: int
    parent_id: int | None
    name: str
    start: float
    attrs: dict
    duration: float = 0.0
    children: list = dataclasses.field(default_factory=list)

    @property
    def self_seconds(self) -> float:
        children = sum(child.duration for child in self.children)
        return max(0.0, self.duration - children)

    def descendants(self):
        for child in self.children:
            yield child
            yield from child.descendants()


class NullTracer:
    """The untraced run: spans cost one no-op context manager."""

    @contextmanager
    def span(self, name: str, **attrs):
        yield None

    def install(self) -> None:
        pass

    def uninstall(self) -> None:
        pass


def patch_everywhere(original, wrapper) -> list[tuple[object, str]]:
    """Replace every ``repro`` module attribute bound to ``original``.

    Returns the patched ``(module, name)`` sites so they can be put
    back.  Raises when nothing refers to ``original``: a renamed entry
    point must fail the traced run, not silently measure nothing.
    """
    sites = []
    for module in list(sys.modules.values()):
        module_name = getattr(module, "__name__", "")
        if module_name != "repro" and not module_name.startswith(
            "repro."
        ):
            continue
        for name, value in list(vars(module).items()):
            if value is original:
                setattr(module, name, wrapper)
                sites.append((module, name))
    if not sites:
        raise AttributionError(
            f"no repro module binds {original!r}; was it renamed?"
        )
    return sites


class Tracer:
    """Records spans around each layer's public entry points."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._restore: list[tuple[object, str, object]] = []
        self._memory_algorithm: dict[int, str] = {}

    # -- spans ----------------------------------------------------------
    @contextmanager
    def span(self, name: str, **attrs):
        parent = self._stack[-1] if self._stack else None
        node = Span(
            span_id=len(self.spans) + 1,
            parent_id=parent.span_id if parent else None,
            name=name,
            start=time.perf_counter(),
            attrs=attrs,
        )
        self.spans.append(node)
        if parent is not None:
            parent.children.append(node)
        self._stack.append(node)
        try:
            yield node
        finally:
            node.duration = time.perf_counter() - node.start
            self._stack.pop()

    # -- wrapping -------------------------------------------------------
    def _patch_function(self, owner, attr: str, make_wrapper) -> None:
        original = getattr(owner, attr)
        for module, name in patch_everywhere(
            original, make_wrapper(original)
        ):
            self._restore.append((module, name, original))

    def _patch_method(self, cls, attr: str, make_wrapper) -> None:
        original = getattr(cls, attr)
        setattr(cls, attr, make_wrapper(original))
        self._restore.append((cls, attr, original))

    def install(self) -> None:
        from repro.algorithms import base as algorithms_base
        from repro.cache.hierarchy import CacheHierarchy
        from repro.cache.layout import Memory
        from repro.graph import permute
        from repro.ordering import base as ordering_base
        from repro.perf import runner

        tracer = self

        def wrap_ordering(original):
            def compute_ordering(name, graph, seed=0, **params):
                with tracer.span(
                    "ordering.compute", ordering=str(name).lower(),
                    dataset=graph.name, edges=int(graph.num_edges),
                ):
                    return original(name, graph, seed=seed, **params)

            return compute_ordering

        def wrap_relabel(original):
            def relabel(graph, perm, *args, **kwargs):
                with tracer.span("graph.relabel", dataset=graph.name):
                    return original(graph, perm, *args, **kwargs)

            return relabel

        def wrap_run_cell(original):
            def run_cell(graph, algorithm, ordering, *args, **kwargs):
                with tracer.span(
                    "perf.cell", algorithm=algorithm, ordering=ordering
                ):
                    return original(
                        graph, algorithm, ordering, *args, **kwargs
                    )

            return run_cell

        def wrap_traced(name, original):
            def traced(graph, memory, *args, **kwargs):
                mode = "replay" if memory.replaying else "step"
                tracer._memory_algorithm[id(memory)] = name
                with tracer.span(
                    "algorithms.emit", algorithm=name, mode=mode
                ) as node:
                    before = memory.total_refs
                    try:
                        return original(graph, memory, *args, **kwargs)
                    finally:
                        node.attrs["refs"] = memory.total_refs - before

            return traced

        def wrap_resolve(original):
            def resolve(memory, *args, **kwargs):
                with tracer.span(
                    "cache.resolve",
                    algorithm=tracer._memory_algorithm.get(id(memory)),
                    mode="replay" if memory.replaying else "step",
                ):
                    return original(memory, *args, **kwargs)

            return resolve

        def wrap_replay(original):
            def replay(hierarchy, lines):
                with tracer.span("cache.replay", accesses=len(lines)):
                    return original(hierarchy, lines)

            return replay

        self._patch_function(
            ordering_base, "compute_ordering", wrap_ordering
        )
        self._patch_function(permute, "relabel", wrap_relabel)
        self._patch_function(runner, "run_cell", wrap_run_cell)
        for name, spec in list(algorithms_base.REGISTRY.items()):
            algorithms_base.REGISTRY[name] = dataclasses.replace(
                spec, traced=wrap_traced(name, spec.traced)
            )
            self._restore.append(
                (algorithms_base.REGISTRY, name, spec)
            )
        self._patch_method(Memory, "cost", wrap_resolve)
        self._patch_method(Memory, "stats", wrap_resolve)
        self._patch_method(CacheHierarchy, "replay", wrap_replay)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._restore):
            if isinstance(owner, dict):
                owner[name] = original
            else:
                setattr(owner, name, original)
        self._restore.clear()

    # -- results --------------------------------------------------------
    def records(self) -> list[list]:
        """The spans as JSON-ready rows (see :meth:`extend`)."""
        return [
            [s.span_id, s.parent_id, s.name, s.start, s.duration, s.attrs]
            for s in self.spans
        ]

    def extend(self, records: list[list]) -> None:
        """Append the spans another process recorded, renumbered."""
        offset = len(self.spans)
        for span_id, parent_id, name, start, duration, attrs in records:
            node = Span(
                span_id=span_id + offset,
                parent_id=None if parent_id is None else parent_id + offset,
                name=name,
                start=start,
                attrs=attrs,
                duration=duration,
            )
            self.spans.append(node)
            if node.parent_id is not None:
                self.spans[node.parent_id - 1].children.append(node)

    def counts(self) -> dict[str, int]:
        """Calls recorded per span name."""
        counts: dict[str, int] = {}
        for span in self.spans:
            counts[span.name] = counts.get(span.name, 0) + 1
        return counts

    def metrics(self, wall_s: float, load_s: float) -> dict[str, float]:
        """The per-layer metrics (all but ``obs.*`` and ``proc.*``)."""
        values = {
            name: 0.0
            for name in PER_LAYER_METRICS
            if not name.startswith(("obs.", "proc."))
        }
        values["graph.load_s"] = load_s
        gorder_per_edge: dict[str, list[float]] = {}
        cells = []
        attributed = 0.0
        for span in self.spans:
            attrs = span.attrs
            if span.name == "perf.cell":
                cells.append(span)
                continue
            if self._is_top_layer(span):
                attributed += span.duration
            if span.name == "graph.relabel":
                values["graph.relabel_s"] += span.duration
                values["graph.relabel.calls"] += 1
            elif span.name == "ordering.compute":
                values["ordering.s"] += span.duration
                values["ordering.calls"] += 1
                key = f"ordering.{attrs['ordering']}.s"
                if key in values:
                    values[key] += span.duration
                if attrs["ordering"] == "gorder" and attrs["edges"]:
                    gorder_per_edge.setdefault(
                        attrs["dataset"], []
                    ).append(1e6 * span.duration / attrs["edges"])
            elif span.name == "algorithms.emit":
                seconds = span.self_seconds
                values["algorithms.emit_s"] += seconds
                key = f"algorithms.{attrs['algorithm']}.emit_s"
                if key in values:
                    values[key] += seconds
                values["algorithms.refs"] += attrs.get("refs", 0)
                if attrs["mode"] == "step":
                    values["a6.traced_s"] += span.duration
                    values["cache.step.refs"] += attrs.get("refs", 0)
            elif span.name == "cache.resolve":
                if attrs["mode"] == "replay":
                    values["cache.replay_s"] += span.duration
                    key = f"cache.{attrs['algorithm']}.replay_s"
                    if key in values:
                        values[key] += span.duration
            elif span.name == "cache.replay":
                values["cache.accesses"] += attrs["accesses"]
            elif span.name == "perf.report":
                values["perf.report_s"] += span.duration
        for dataset, samples in gorder_per_edge.items():
            key = f"ordering.gorder.us_per_edge.{dataset}"
            if key in values:
                values[key] = statistics.fmean(samples)
        if values["algorithms.refs"]:
            values["algorithms.emit.ns_per_ref"] = (
                1e9 * values["algorithms.emit_s"]
                / values["algorithms.refs"]
            )
        if values["cache.accesses"]:
            values["cache.replay.ns_per_access"] = (
                1e9 * values["cache.replay_s"] / values["cache.accesses"]
            )
        if cells:
            durations = sorted(cell.duration for cell in cells)
            values["perf.cells"] = len(cells)
            values["perf.cell_s.p50"] = _nearest_rank(durations, 0.50)
            values["perf.cell_s.p95"] = _nearest_rank(durations, 0.95)
            served = sum(
                1
                for cell in cells
                if not any(
                    d.name == "ordering.compute"
                    for d in cell.descendants()
                )
            )
            values["perf.memo_hit_ratio"] = served / len(cells)
        values["perf.overhead_s"] = max(0.0, wall_s - attributed)
        return values

    def _is_top_layer(self, span: Span) -> bool:
        """Whether ``span`` is the outermost layer span on its path
        (its only ancestors are ``perf.cell`` spans), so summing these
        never counts nested time twice."""
        parent_id = span.parent_id
        while parent_id is not None:
            parent = self.spans[parent_id - 1]
            if parent.name != "perf.cell":
                return False
            parent_id = parent.parent_id
        return True

    def check(
        self, must_work: tuple[str, ...], values: dict, wall_s: float
    ) -> list[str]:
        """Attribution-guard violations (empty when the split holds)."""
        counts = self.counts()
        problems = [
            f"{name} recorded 0 calls; this workload must exercise it"
            for name in must_work
            if not counts.get(name)
        ]
        if values["perf.overhead_s"] > COVERAGE_BOUND * wall_s:
            problems.append(
                f"perf.overhead_s {values['perf.overhead_s']:.3f} s "
                f"exceeds the coverage bound {COVERAGE_BOUND:.0%} of "
                f"the traced wall time {wall_s:.3f} s"
            )
        return problems

    def write_spans(self, path) -> None:
        """Write the spans as JSONL that ``repro.obs.trace`` reads
        (``repro-gorder telemetry tree PATH`` renders the tree)."""
        origin = time.time() - time.perf_counter()
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                base = {
                    "name": span.name,
                    "level": "info",
                    "span_id": span.span_id,
                }
                if span.parent_id is not None:
                    base["parent_id"] = span.parent_id
                attrs = {
                    k: v for k, v in span.attrs.items() if v is not None
                }
                if attrs:
                    base["attrs"] = attrs
                start = {
                    "ts": origin + span.start, "kind": "span_start",
                    **base,
                }
                end = {
                    "ts": origin + span.start + span.duration,
                    "kind": "span_end", **base,
                    "dur_s": span.duration, "ok": True,
                }
                handle.write(json.dumps(start) + "\n")
                handle.write(json.dumps(end) + "\n")


def _nearest_rank(sorted_values: list[float], q: float) -> float:
    index = max(0, math.ceil(q * len(sorted_values)) - 1)
    return sorted_values[index]
