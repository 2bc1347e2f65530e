"""Summarise a JSONL telemetry trace (the ``telemetry`` subcommand).

A trace is whatever ``--log-json`` wrote: one JSON object per line
following the event schema in ``docs/telemetry.md``.  The summary
aggregates span timings by name, takes the final cumulative counter
totals, and keeps the manifest so a reader can tell which code and
machine produced the trace.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from repro.ioutil import read_jsonl
from repro.obs.core import TELEMETRY, TelemetryError


@dataclass
class SpanSummary:
    """Aggregate of every ``span_end`` event sharing one name."""

    name: str
    count: int = 0
    total_seconds: float = 0.0
    max_seconds: float = 0.0

    @property
    def mean_seconds(self) -> float:
        return self.total_seconds / self.count if self.count else 0.0


@dataclass
class TraceSummary:
    """Everything the ``telemetry`` subcommand renders."""

    path: str
    num_events: int = 0
    kinds: dict[str, int] = field(default_factory=dict)
    spans: list[SpanSummary] = field(default_factory=list)
    counters: dict[str, int] = field(default_factory=dict)
    manifest: dict | None = None
    #: Span names seen starting but never ending (crashed run).
    unclosed: int = 0


def iter_trace(path: str | os.PathLike):
    """Yield the payload dicts of one JSONL trace, validating as it goes.

    A torn **final** line — a run killed mid-append leaves half a JSON
    object, the same failure mode as the sweep checkpoint journal —
    is discarded with a warning event rather than raised, so partial
    traces from crashed runs still summarise.  Corruption anywhere
    else in the file still raises :class:`TelemetryError`.
    """
    def torn_tail(line: int) -> None:
        TELEMETRY.event(
            "obs.trace_torn_tail", level="warning", path=str(path),
            line=line,
        )

    for _, payload in read_jsonl(path, TelemetryError, "trace", torn_tail):
        yield payload


def summarize_trace(path: str | os.PathLike) -> TraceSummary:
    """Aggregate one trace file into a :class:`TraceSummary`."""
    summary = TraceSummary(path=str(path))
    spans: dict[str, SpanSummary] = {}
    started = 0
    ended = 0
    for payload in iter_trace(path):
        summary.num_events += 1
        kind = payload.get("kind", "unknown")
        summary.kinds[kind] = summary.kinds.get(kind, 0) + 1
        if kind == "span_start":
            started += 1
        elif kind == "span_end":
            ended += 1
            name = payload.get("name", "?")
            entry = spans.get(name)
            if entry is None:
                entry = spans[name] = SpanSummary(name=name)
            entry.count += 1
            seconds = float(payload.get("dur_s", 0.0))
            entry.total_seconds += seconds
            entry.max_seconds = max(entry.max_seconds, seconds)
        elif kind == "counters":
            # Counter events carry cumulative totals; the last one wins.
            summary.counters = dict(payload.get("counters", {}))
        elif kind == "manifest" and summary.manifest is None:
            summary.manifest = payload.get("manifest", {})
    summary.spans = sorted(
        spans.values(), key=lambda s: s.total_seconds, reverse=True
    )
    summary.unclosed = max(0, started - ended)
    return summary
