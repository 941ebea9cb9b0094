"""Structured tracing and counters for the execution layers.

The telemetry subsystem is *ambient*, like the executor context:
instrumented code fetches the active collector with
:func:`active_telemetry` and records into it — spans (named wall-clock
sections such as ``generate``/``freeze``/``search``/``store``),
monotonic counters (RNG rejections, cache hits, search messages), and
histograms (BFS frontier sizes, serve latencies).

Since schema 2, spans are a *tree*: every span records an id, a parent id
(the innermost open span of the same collector, tracked by the ambient
stack in :mod:`repro.telemetry.trace`), monotonic start/end timestamps,
the ambient trace id, and optional attributes — alongside the schema-1
per-name aggregates, which stay the cheap summary view.  A collector built
with ``tree=False`` keeps only that summary view (counters, histograms and
per-name span totals): ``repro serve`` records every request into one such
collector for its whole life, so its memory does not grow with traffic.

Zero overhead when disabled is the design constraint: the default ambient
value is the :data:`NULL_TELEMETRY` singleton whose methods are no-ops and
whose :meth:`~NullTelemetry.span` returns one shared, reusable context
manager — instrumenting a hot loop costs an attribute read and a branch,
and allocates nothing (pinned by ``tests/test_telemetry.py``).

Collectors survive process boundaries by value, not by reference: the
engine's executors run each task under a fresh worker-side collector,
ship its :meth:`~TelemetryCollector.export` payload back with the result,
and merge it into the parent collector in submission order
(:meth:`~TelemetryCollector.merge_task`) — span ids are remapped past the
parent's sequence, worker roots are re-parented under the submitting
thread's open span, and worker clocks are shifted onto the parent's — so a
parallel run's merged trace reassembles into the same tree as a serial
run's, minus wall-clock noise.
"""

from __future__ import annotations

import threading
import time
from bisect import bisect_left
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.core.ambient import AmbientStack
from repro.telemetry.trace import SpanContext, _SPAN_STACK

__all__ = [
    "TRACE_SCHEMA_VERSION",
    "HISTOGRAM_BUCKETS",
    "NULL_TELEMETRY",
    "NullTelemetry",
    "TelemetryCollector",
    "active_telemetry",
    "use_telemetry",
    "telemetry_clock",
    "histogram_quantile",
]

#: Bump when the exported trace layout changes incompatibly.
#: v2 added ``span_tree`` and bucketed histograms; v1 payloads still load.
TRACE_SCHEMA_VERSION = 2

#: The clock every telemetry consumer shares (monotonic, sub-microsecond).
telemetry_clock = time.perf_counter

#: Shared log-spaced histogram bucket upper bounds (1-2.5-5 ladder).  One
#: ladder serves both latencies (sub-millisecond and up) and size-valued
#: histograms such as BFS frontier widths (up to millions); values beyond
#: the last bound land in an implicit overflow bucket.
HISTOGRAM_BUCKETS: Tuple[float, ...] = tuple(
    base * (10.0 ** exponent)
    for exponent in range(-4, 7)
    for base in (1.0, 2.5, 5.0)
)


def histogram_quantile(entry: Dict[str, Any], q: float) -> Optional[float]:
    """Estimate the ``q``-quantile of a bucketed histogram entry.

    Linear interpolation within the containing bucket, clamped to the
    entry's observed min/max.  Returns ``None`` when the entry carries no
    bucket counts (e.g. one imported from a schema-1 trace).
    """
    buckets = entry.get("buckets")
    count = int(entry.get("count", 0))
    if not buckets or count <= 0:
        return None
    lowest = float(entry["min"])
    highest = float(entry["max"])
    target = q * count
    cumulative = 0
    lower = 0.0
    for index, occupancy in enumerate(buckets):
        upper = HISTOGRAM_BUCKETS[index] if index < len(HISTOGRAM_BUCKETS) else highest
        if occupancy:
            if cumulative + occupancy >= target:
                fraction = (target - cumulative) / occupancy
                value = lower + (upper - lower) * fraction
                return min(max(value, lowest), highest)
            cumulative += occupancy
        lower = upper
    return highest


class _NullSpan:
    """A reusable no-op context manager (one shared instance, no allocation)."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None


_NULL_SPAN = _NullSpan()


class NullTelemetry:
    """The disabled collector: every operation is a no-op.

    Hot loops are instrumented against this interface; with telemetry off
    (the default) the calls reduce to attribute reads and immediate
    returns, allocating nothing.
    """

    __slots__ = ()

    #: Instrumented code branches on this before doing any per-event work.
    enabled = False

    def span(
        self,
        name: str,
        attrs: Optional[Dict[str, Any]] = None,
        aggregate: bool = True,
    ) -> _NullSpan:
        return _NULL_SPAN

    def count(self, name: str, value: float = 1) -> None:
        return None

    def observe(self, name: str, value: float) -> None:
        return None


#: The process-wide disabled collector (ambient default).
NULL_TELEMETRY = NullTelemetry()


class _Span:
    """Context manager recording one timed section into its collector.

    On entry it claims a span id, resolves its parent from the ambient
    span stack (only a span of the *same* collector parents — a fresh
    worker-side collector starts its own root), inherits the ambient
    trace id, and pushes itself as the new innermost context.
    """

    __slots__ = (
        "_collector",
        "_name",
        "_attrs",
        "_aggregate",
        "_started",
        "_id",
        "_parent",
        "_trace_id",
    )

    def __init__(
        self,
        collector: "TelemetryCollector",
        name: str,
        attrs: Optional[Dict[str, Any]],
        aggregate: bool,
    ) -> None:
        self._collector = collector
        self._name = name
        self._attrs = attrs
        self._aggregate = aggregate
        self._started = 0.0
        self._id = 0
        self._parent: Optional[int] = None
        self._trace_id: Optional[str] = None

    def __enter__(self) -> "_Span":
        collector = self._collector
        context = _SPAN_STACK.top(None)
        if context is not None:
            self._trace_id = context.trace_id
            if context.collector is collector:
                self._parent = context.span_id
        self._id = collector._next_span_id()
        _SPAN_STACK.push(SpanContext(self._trace_id, self._id, collector))
        self._started = telemetry_clock()
        return self

    def __exit__(self, *exc_info: object) -> None:
        ended = telemetry_clock()
        _SPAN_STACK.pop()
        self._collector._record_span(
            self._name,
            self._started,
            ended,
            self._id,
            self._parent,
            self._trace_id,
            self._attrs,
            self._aggregate,
        )


class TelemetryCollector:
    """An enabled collector aggregating spans, counters, and histograms.

    Thread-safe: scenario plan threads (and the executor's merge of worker
    payloads) may record concurrently into one collector.

    Parameters
    ----------
    tree:
        Keep the span tree and the per-task records (the default).  Both
        grow with every span and every merged task, which suits a one-shot
        ``--trace``/``--json`` run.  A long-lived collector that nobody
        exports a tree from — ``repro serve``'s, whose ``/metrics`` reads
        only the aggregates — passes ``tree=False``: counters, histograms
        and per-name span totals still update, no tree node or task record
        is kept, and its memory stays bounded by the number of names.
    """

    enabled = True

    def __init__(self, tree: bool = True) -> None:
        self._lock = threading.Lock()
        self.tree = tree
        self.spans: Dict[str, Dict[str, float]] = {}
        self.counters: Dict[str, float] = {}
        self.histograms: Dict[str, Dict[str, Any]] = {}
        self.tasks: List[Dict[str, Any]] = []
        self.span_tree: List[Dict[str, Any]] = []
        self._span_seq = 0

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #
    def span(
        self,
        name: str,
        attrs: Optional[Dict[str, Any]] = None,
        aggregate: bool = True,
    ) -> _Span:
        """Return a context manager timing one ``name`` section.

        ``attrs`` are recorded on the tree node.  ``aggregate=False`` keeps
        the span out of the per-name aggregates (used for the synthetic
        per-task root so task wall time is not double-counted in reports).
        """
        return _Span(self, name, attrs, aggregate)

    def _next_span_id(self) -> int:
        with self._lock:
            self._span_seq += 1
            return self._span_seq

    def _record_span(
        self,
        name: str,
        started: float,
        ended: float,
        span_id: int,
        parent: Optional[int],
        trace_id: Optional[str],
        attrs: Optional[Dict[str, Any]],
        aggregate: bool,
    ) -> None:
        with self._lock:
            if self.tree:
                self.span_tree.append({
                    "id": span_id,
                    "parent": parent,
                    "name": name,
                    "start": started,
                    "end": ended,
                    "trace_id": trace_id,
                    "tid": threading.get_ident(),
                    "attrs": dict(attrs) if attrs else {},
                })
            if aggregate:
                entry = self.spans.get(name)
                if entry is None:
                    entry = {"count": 0, "seconds": 0.0}
                    self.spans[name] = entry
                entry["count"] += 1
                entry["seconds"] += ended - started

    def count(self, name: str, value: float = 1) -> None:
        """Add ``value`` to the monotonic counter ``name``."""
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + value

    def observe(self, name: str, value: float) -> None:
        """Record one observation into the histogram ``name``.

        Histograms keep summary statistics (count/total/min/max) plus
        occupancy counts over the shared :data:`HISTOGRAM_BUCKETS` ladder —
        enough for p50/p95/p99 estimates and Prometheus exposition without
        storing observations individually.
        """
        with self._lock:
            entry = self.histograms.get(name)
            if entry is None:
                buckets = [0] * (len(HISTOGRAM_BUCKETS) + 1)
                buckets[bisect_left(HISTOGRAM_BUCKETS, value)] = 1
                self.histograms[name] = {
                    "count": 1,
                    "total": value,
                    "min": value,
                    "max": value,
                    "buckets": buckets,
                }
                return
            entry["count"] += 1
            entry["total"] += value
            if value < entry["min"]:
                entry["min"] = value
            if value > entry["max"]:
                entry["max"] = value
            buckets = entry.get("buckets")
            if buckets is not None:
                buckets[bisect_left(HISTOGRAM_BUCKETS, value)] += 1

    # ------------------------------------------------------------------ #
    # Export / merge (the process-boundary contract)
    # ------------------------------------------------------------------ #
    def _export_histogram(self, entry: Dict[str, Any]) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "count": int(entry["count"]),
            "total": float(entry["total"]),
            "min": float(entry["min"]),
            "max": float(entry["max"]),
        }
        buckets = entry.get("buckets")
        if buckets is not None:
            out["buckets"] = list(buckets)
            for label, q in (("p50", 0.50), ("p95", 0.95), ("p99", 0.99)):
                value = histogram_quantile(entry, q)
                if value is not None:
                    out[label] = value
        return out

    def export(self) -> Dict[str, Any]:
        """Return the JSON-friendly trace payload (schema-versioned).

        The per-task records are stable-sorted by key: the scenario
        compiler's plan threads merge their batches into a shared collector
        in whatever interleaving the scheduler produced, and sorting makes
        the exported trace deterministic — a parallel run's trace matches
        the serial one.  Histogram percentiles are derived at export time
        from the canonical bucket counts, never stored.
        """
        with self._lock:
            return {
                "schema": TRACE_SCHEMA_VERSION,
                "spans": {
                    name: {"count": int(entry["count"]), "seconds": entry["seconds"]}
                    for name, entry in self.spans.items()
                },
                "counters": dict(self.counters),
                "histograms": {
                    name: self._export_histogram(entry)
                    for name, entry in self.histograms.items()
                },
                "tasks": [
                    dict(task)
                    for task in sorted(self.tasks, key=lambda task: task["key"])
                ],
                "span_tree": [
                    dict(node, attrs=dict(node["attrs"])) for node in self.span_tree
                ],
            }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "TelemetryCollector":
        """Rebuild a collector from an exported payload (round-trip safe).

        Accepts the current schema and schema 1 (pre-span-tree): a v1
        payload loads with an empty tree and summary-only histograms
        (percentiles unavailable, everything else intact).
        """
        schema = payload.get("schema")
        if schema not in (1, TRACE_SCHEMA_VERSION):
            raise ValueError(
                f"unsupported trace schema {schema!r} "
                f"(this build reads versions 1..{TRACE_SCHEMA_VERSION})"
            )
        collector = cls()
        for name, entry in payload.get("spans", {}).items():
            collector.spans[name] = {
                "count": int(entry["count"]),
                "seconds": float(entry["seconds"]),
            }
        for name, value in payload.get("counters", {}).items():
            collector.counters[name] = value
        for name, entry in payload.get("histograms", {}).items():
            record: Dict[str, Any] = {
                "count": int(entry["count"]),
                "total": float(entry["total"]),
                "min": float(entry["min"]),
                "max": float(entry["max"]),
            }
            if "buckets" in entry:
                record["buckets"] = list(entry["buckets"])
            collector.histograms[name] = record
        collector.tasks = [dict(task) for task in payload.get("tasks", [])]
        for node in payload.get("span_tree", []):
            collector.span_tree.append(
                dict(node, attrs=dict(node.get("attrs") or {}))
            )
        collector._span_seq = max(
            (node["id"] for node in collector.span_tree), default=0
        )
        return collector

    def merge(
        self, payload: Dict[str, Any], _clock_anchor: Optional[float] = None
    ) -> None:
        """Fold an exported payload (e.g. from a worker) into this collector.

        Span-tree nodes are remapped past this collector's id sequence and
        the payload's roots are re-parented under the merging thread's
        innermost open span (when that span belongs to this collector) —
        the step that stitches worker subtrees back into the request tree.
        When ``_clock_anchor`` is given (see :meth:`merge_task`), the
        payload's timestamps are shifted so its latest root ends at the
        anchor: worker ``perf_counter`` clocks are not comparable across
        processes, and anchoring keeps the merged timeline monotone.  A
        ``tree=False`` collector merges the aggregates only.
        """
        for name, entry in payload.get("spans", {}).items():
            with self._lock:
                target = self.spans.get(name)
                if target is None:
                    target = {"count": 0, "seconds": 0.0}
                    self.spans[name] = target
                target["count"] += entry["count"]
                target["seconds"] += entry["seconds"]
        for name, value in payload.get("counters", {}).items():
            self.count(name, value)
        for name, entry in payload.get("histograms", {}).items():
            with self._lock:
                target = self.histograms.get(name)
                if target is None:
                    imported: Dict[str, Any] = {
                        "count": int(entry["count"]),
                        "total": float(entry["total"]),
                        "min": float(entry["min"]),
                        "max": float(entry["max"]),
                    }
                    if "buckets" in entry:
                        imported["buckets"] = list(entry["buckets"])
                    self.histograms[name] = imported
                    continue
                target["count"] += entry["count"]
                target["total"] += entry["total"]
                target["min"] = min(target["min"], entry["min"])
                target["max"] = max(target["max"], entry["max"])
                if "buckets" in target:
                    if "buckets" in entry:
                        for index, occupancy in enumerate(entry["buckets"]):
                            target["buckets"][index] += occupancy
                    else:
                        # Merging a bucket-less (schema-1) entry would make
                        # the counts lie; drop them and fall back to the
                        # summary statistics.
                        del target["buckets"]
        if not self.tree:
            return
        with self._lock:
            self.tasks.extend(dict(task) for task in payload.get("tasks", []))
        nodes = payload.get("span_tree", [])
        if nodes:
            context = _SPAN_STACK.top(None)
            parent_id = (
                context.span_id
                if context is not None and context.collector is self
                else None
            )
            with self._lock:
                offset = self._span_seq
                self._span_seq += max(node["id"] for node in nodes)
                shift = 0.0
                if _clock_anchor is not None:
                    root_ends = [
                        node["end"]
                        for node in nodes
                        if node.get("parent") is None
                    ]
                    if root_ends:
                        shift = _clock_anchor - max(root_ends)
                for node in nodes:
                    merged = dict(node, attrs=dict(node.get("attrs") or {}))
                    merged["id"] = node["id"] + offset
                    merged["parent"] = (
                        node["parent"] + offset
                        if node.get("parent") is not None
                        else parent_id
                    )
                    merged["start"] = node["start"] + shift
                    merged["end"] = node["end"] + shift
                    self.span_tree.append(merged)

    def merge_task(
        self, key: str, seconds: float, payload: Dict[str, Any]
    ) -> None:
        """Merge one completed task's trace and keep its per-task record.

        The per-task records are the trace file's per-realization view:
        every realization task appears with its wall time and the named
        spans that account for it.  A ``tree=False`` collector keeps none.
        """
        self.merge(payload, _clock_anchor=telemetry_clock())
        if not self.tree:
            return
        with self._lock:
            self.tasks.append(
                {
                    "key": key,
                    "seconds": seconds,
                    "spans": {
                        name: {"count": int(entry["count"]), "seconds": entry["seconds"]}
                        for name, entry in payload.get("spans", {}).items()
                    },
                }
            )

    # ------------------------------------------------------------------ #
    # Reporting helpers
    # ------------------------------------------------------------------ #
    def span_seconds(self, name: str) -> float:
        """Total seconds recorded under span ``name`` (0.0 when absent)."""
        entry = self.spans.get(name)
        return float(entry["seconds"]) if entry else 0.0

    def summary_lines(self) -> List[str]:
        """Render a compact human-readable summary (the ``--metrics`` view)."""
        lines: List[str] = []
        if self.spans:
            lines.append("spans:")
            width = max(len(name) for name in self.spans)
            for name in sorted(self.spans):
                entry = self.spans[name]
                lines.append(
                    f"  {name:<{width}}  {entry['seconds']:9.3f}s  "
                    f"x{int(entry['count'])}"
                )
        if self.counters:
            lines.append("counters:")
            width = max(len(name) for name in self.counters)
            for name in sorted(self.counters):
                value = self.counters[name]
                rendered = f"{value:.3f}" if isinstance(value, float) and value != int(value) else f"{int(value)}"
                lines.append(f"  {name:<{width}}  {rendered}")
        if self.histograms:
            lines.append("histograms:")
            width = max(len(name) for name in self.histograms)
            for name in sorted(self.histograms):
                entry = self.histograms[name]
                count = int(entry["count"])
                mean = entry["total"] / count if count else 0.0
                quantiles = ""
                p50 = histogram_quantile(entry, 0.50)
                if p50 is not None:
                    p95 = histogram_quantile(entry, 0.95)
                    p99 = histogram_quantile(entry, 0.99)
                    quantiles = (
                        f" p50={p50:.3g} p95={p95:.3g} p99={p99:.3g}"
                    )
                lines.append(
                    f"  {name:<{width}}  n={count} mean={mean:.1f}{quantiles} "
                    f"min={entry['min']:.0f} max={entry['max']:.0f}"
                )
        if not lines:
            lines.append("telemetry: nothing recorded")
        return lines


# --------------------------------------------------------------------------- #
# Ambient context
# --------------------------------------------------------------------------- #
_ACTIVE_STACK: AmbientStack["NullTelemetry | TelemetryCollector"] = AmbientStack()


def active_telemetry() -> "NullTelemetry | TelemetryCollector":
    """Return the innermost installed collector (default: the null one).

    Thread-local like every ambient stack: worker threads re-install the
    collector captured from their parent (see
    :func:`repro.scenarios.compile._run_plans`).
    """
    return _ACTIVE_STACK.top(NULL_TELEMETRY)


@contextmanager
def use_telemetry(
    collector: "Optional[NullTelemetry | TelemetryCollector]",
) -> Iterator["NullTelemetry | TelemetryCollector"]:
    """Install ``collector`` for the ``with`` body (``None`` keeps the ambient).

    Mirrors :func:`repro.engine.executor.use_executor` so call sites can
    pass an optional collector unconditionally.
    """
    if collector is not None:
        _ACTIVE_STACK.push(collector)
    try:
        yield active_telemetry()
    finally:
        if collector is not None:
            _ACTIVE_STACK.pop()
