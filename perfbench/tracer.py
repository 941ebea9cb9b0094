"""Outside-in span tracing for the benchmark's traced runs.

:func:`install` replaces the public entry points of each layer with thin
wrappers that record one span per call: name, start, end, parent span,
thread, and a few work counts read from the call's return value.  Spans
stay in memory until :meth:`Tracer.dump` writes them out when the process
ends.  Nothing here changes what the wrapped functions compute.

:func:`layer_metrics` turns a span list into the per-layer metrics listed
in ``BENCHMARK.json``.  A span's self time is its duration minus the time
its child spans cover.
"""

from __future__ import annotations

import functools
import itertools
import json
import statistics
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional

GENERATOR_MODELS = ("hapa", "dapa", "pa", "cm")
SEARCH_ALGORITHMS = ("fl", "nf", "pf", "rw")

#: Every per-layer metric: name -> (unit, better).  ``BENCHMARK.json``
#: lists the same names; a test keeps the two in step.
PER_LAYER_METRICS: Dict[str, tuple] = {}
for _model in GENERATOR_MODELS:
    PER_LAYER_METRICS[f"generators.{_model}.calls"] = ("count", "lower")
    PER_LAYER_METRICS[f"generators.{_model}.self_s"] = ("s", "lower")
PER_LAYER_METRICS.update({
    "generators.hapa.hops": ("count", "lower"),
    "generators.hapa.us_per_hop": ("us", "lower"),
    "generators.hapa.accept_ratio": ("ratio", "higher"),
    "generators.pa.rejected_attempts": ("count", "lower"),
    "generators.dapa.discovery_messages": ("count", "lower"),
    "substrate.calls": ("count", "lower"),
    "substrate.self_s": ("s", "lower"),
    "core.freeze.calls": ("count", "lower"),
    "core.freeze.self_s": ("s", "lower"),
})
for _alg in SEARCH_ALGORITHMS:
    PER_LAYER_METRICS[f"search.{_alg}.calls"] = ("count", "lower")
    PER_LAYER_METRICS[f"search.{_alg}.self_s"] = ("s", "lower")
    PER_LAYER_METRICS[f"search.{_alg}.messages"] = ("count", "lower")
    PER_LAYER_METRICS[f"search.{_alg}.us_per_message"] = ("us", "lower")
PER_LAYER_METRICS.update({
    "analysis.self_s": ("s", "lower"),
    "scenarios.self_s": ("s", "lower"),
    "engine.executor.tasks": ("count", "lower"),
    "engine.executor.self_s": ("s", "lower"),
    "engine.store.gets": ("count", "lower"),
    "engine.store.hits": ("count", "higher"),
    "engine.store.puts": ("count", "lower"),
    "engine.store.get_ms": ("ms", "lower"),
    "engine.store.put_ms": ("ms", "lower"),
    "engine.store.bytes_written": ("B", "lower"),
    "serve.submits": ("count", "lower"),
    "serve.submit_ms": ("ms", "lower"),
    "serve.http_ms": ("ms", "lower"),
    "trace.overhead": ("ratio", "lower"),
})


class Tracer:
    """In-memory span recorder shared by every thread of one process.

    ``trace_id`` is an optional callable returning the caller's current
    request id; the serve launcher passes the program's ambient trace id so
    server spans can be joined to client requests.
    """

    def __init__(self, trace_id: Optional[Callable[[], Optional[str]]] = None) -> None:
        self.spans: List[Dict[str, Any]] = []
        self._trace_id = trace_id
        self._local = threading.local()
        # next() on a count and list.append are single atomic calls under
        # the interpreter lock, so threads share both without a lock.
        self._ids = itertools.count(1)

    def clear(self) -> None:
        """Drop every span recorded so far (set-up work is not measured)."""
        self.spans = []

    def wrap(
        self,
        func: Callable[..., Any],
        name: "str | Callable[..., str]",
        counts: Optional[Callable[..., Dict[str, Any]]] = None,
    ) -> Callable[..., Any]:
        """Return ``func`` wrapped to record one span per call.

        ``name`` is the span name, or a callable computing it from the call's
        arguments; ``counts(result, *args, **kwargs)`` adds attributes read
        from the return value.
        """

        @functools.wraps(func)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack = getattr(self._local, "stack", None)
            if stack is None:
                stack = self._local.stack = []
            span_id = next(self._ids)
            span: Dict[str, Any] = {
                "id": span_id,
                "parent": stack[-1] if stack else None,
                "name": name if isinstance(name, str) else name(*args, **kwargs),
                "thread": threading.get_ident(),
                "trace_id": self._trace_id() if self._trace_id else None,
            }
            stack.append(span_id)
            span["start"] = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
                self.spans.append(span)
            if counts is not None:
                span.update(counts(result, *args, **kwargs))
            return result

        return wrapper

    def dump(self, path: "str | Path") -> None:
        Path(path).write_text(json.dumps(self.spans))


def _generation_counts(result: Any, *_args: Any, **_kwargs: Any) -> Dict[str, Any]:
    metadata = result.metadata
    return {
        "hops": int(metadata.get("total_hops", 0)),
        "edges": int(result.graph.number_of_edges),
        "rejected_attempts": int(metadata.get("rejected_attempts", 0)),
        "discovery_messages": int(metadata.get("discovery_messages", 0)),
    }


def _search_counts(curve: Any, *_args: Any, **_kwargs: Any) -> Dict[str, Any]:
    # ``mean_messages`` is per query; the largest TTL is the run's full cost.
    return {"messages": round(curve.mean_messages[-1] * curve.queries)}


def _search_name(_graph: Any, algorithm: Any = None, *_args: Any, **kwargs: Any) -> str:
    algorithm = algorithm if algorithm is not None else kwargs["algorithm"]
    return f"search.{algorithm.algorithm_name}"


def _store_get_counts(result: Any, *_args: Any, **_kwargs: Any) -> Dict[str, Any]:
    return {"hit": result is not None}


def _store_put_counts(directory: Any, *_args: Any, **_kwargs: Any) -> Dict[str, Any]:
    # result.json and result.csv only: meta.json carries a wall-clock stamp,
    # so its size is not a repeatable count.
    written = sum((Path(directory) / name).stat().st_size for name in ("result.json", "result.csv"))
    return {"bytes": written}


def _submit_counts(response: Any, *_args: Any, **_kwargs: Any) -> Dict[str, Any]:
    return {"trace_id": response.get("trace_id"), "from_cache": bool(response.get("from_cache"))}


def install(tracer: Tracer) -> None:
    """Wrap each layer's public calls so they record spans into ``tracer``.

    Names imported with ``from ... import`` are wrapped where their callers
    look them up: :mod:`repro.scenarios.measure` for the search and analysis
    functions, :mod:`repro.scenarios.compile` for ``compile_scenario``, the
    ``repro`` package for ``run_scenario`` and :mod:`repro.serve.service`
    for ``run_scenario_cached``.
    """
    import repro
    import repro.scenarios.compile as compile_module
    import repro.scenarios.measure as measure
    import repro.serve.service as service
    from repro.core.graph import Graph
    from repro.engine.executor import ParallelExecutor, SerialExecutor
    from repro.engine.store import ResultStore
    from repro.generators.base import TopologyGenerator
    from repro.substrate.grn import GeometricRandomNetwork

    TopologyGenerator.generate = tracer.wrap(
        TopologyGenerator.generate,
        lambda generator, *_a, **_k: f"generators.{generator.model_name}",
        _generation_counts,
    )
    # DAPA calls the concrete builder, so the wrapper goes on the subclass.
    GeometricRandomNetwork.build = tracer.wrap(GeometricRandomNetwork.build, "substrate")
    Graph.freeze = tracer.wrap(Graph.freeze, "core.freeze")
    measure.search_curve = tracer.wrap(measure.search_curve, _search_name, _search_counts)
    measure.normalized_walk_curve = tracer.wrap(
        measure.normalized_walk_curve, "search.rw", _search_counts
    )
    measure.degree_distribution = tracer.wrap(measure.degree_distribution, "analysis")
    measure.fit_power_law = tracer.wrap(measure.fit_power_law, "analysis")
    compile_module.compile_scenario = tracer.wrap(compile_module.compile_scenario, "scenarios")
    repro.run_scenario = tracer.wrap(repro.run_scenario, "scenarios")
    service.run_scenario_cached = tracer.wrap(service.run_scenario_cached, "scenarios")
    # Each concrete class overrides Executor.run.  The artefact workloads run
    # SerialExecutor; ``repro serve`` builds ParallelExecutor(jobs=1), whose
    # run() takes its in-process serial branch, so no pool is measured.
    for executor_class in (SerialExecutor, ParallelExecutor):
        executor_class.run = tracer.wrap(
            executor_class.run, "engine.executor", lambda results, *_a, **_k: {"tasks": len(results)}
        )
    ResultStore.get = tracer.wrap(ResultStore.get, "engine.store.get", _store_get_counts)
    ResultStore.put = tracer.wrap(ResultStore.put, "engine.store.put", _store_put_counts)
    service.ScenarioService.submit = tracer.wrap(
        service.ScenarioService.submit, "serve.submit", _submit_counts
    )


def self_times(spans: Iterable[Dict[str, Any]]) -> Dict[int, float]:
    """Map each span id to its duration minus its direct children's."""
    spans = list(spans)
    child_time: Dict[int, float] = {}
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] = (
                child_time.get(span["parent"], 0.0) + span["end"] - span["start"]
            )
    return {
        span["id"]: max(0.0, span["end"] - span["start"] - child_time.get(span["id"], 0.0))
        for span in spans
    }


def _median_ms(values: List[float]) -> float:
    return statistics.median(values) * 1e3 if values else 0.0


def layer_metrics(
    spans: List[Dict[str, Any]],
    client_latency: Optional[Dict[str, float]] = None,
) -> Dict[str, float]:
    """Aggregate spans into the per-layer metrics (every name, zeros included).

    ``client_latency`` maps a serve response's trace id to the client's
    latency in seconds; ``serve.http_ms`` is the median of that latency
    minus the server's ``submit`` time for the same trace id.  A ratio with
    a zero base is reported as 0.
    """
    own = self_times(spans)
    by_name: Dict[str, List[Dict[str, Any]]] = {}
    for span in spans:
        by_name.setdefault(span["name"], []).append(span)

    def calls(name: str) -> int:
        return len(by_name.get(name, ()))

    def self_s(*names: str) -> float:
        return sum(own[span["id"]] for name in names for span in by_name.get(name, ()))

    def total(name: str, field: str) -> int:
        return sum(span.get(field, 0) for span in by_name.get(name, ()))

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    metrics: Dict[str, float] = {}
    for model in GENERATOR_MODELS:
        metrics[f"generators.{model}.calls"] = calls(f"generators.{model}")
        metrics[f"generators.{model}.self_s"] = self_s(f"generators.{model}")
    hops = total("generators.hapa", "hops")
    metrics["generators.hapa.hops"] = hops
    metrics["generators.hapa.us_per_hop"] = ratio(self_s("generators.hapa") * 1e6, hops)
    metrics["generators.hapa.accept_ratio"] = ratio(total("generators.hapa", "edges"), hops)
    metrics["generators.pa.rejected_attempts"] = total("generators.pa", "rejected_attempts")
    metrics["generators.dapa.discovery_messages"] = total("generators.dapa", "discovery_messages")
    metrics["substrate.calls"] = calls("substrate")
    metrics["substrate.self_s"] = self_s("substrate")
    metrics["core.freeze.calls"] = calls("core.freeze")
    metrics["core.freeze.self_s"] = self_s("core.freeze")
    for alg in SEARCH_ALGORITHMS:
        name = f"search.{alg}"
        messages = total(name, "messages")
        metrics[f"{name}.calls"] = calls(name)
        metrics[f"{name}.self_s"] = self_s(name)
        metrics[f"{name}.messages"] = messages
        metrics[f"{name}.us_per_message"] = ratio(self_s(name) * 1e6, messages)
    metrics["analysis.self_s"] = self_s("analysis")
    metrics["scenarios.self_s"] = self_s("scenarios")
    metrics["engine.executor.tasks"] = total("engine.executor", "tasks")
    metrics["engine.executor.self_s"] = self_s("engine.executor")
    gets = by_name.get("engine.store.get", [])
    puts = by_name.get("engine.store.put", [])
    metrics["engine.store.gets"] = len(gets)
    metrics["engine.store.hits"] = sum(1 for span in gets if span.get("hit"))
    metrics["engine.store.puts"] = len(puts)
    metrics["engine.store.get_ms"] = _median_ms([s["end"] - s["start"] for s in gets])
    metrics["engine.store.put_ms"] = _median_ms([s["end"] - s["start"] for s in puts])
    metrics["engine.store.bytes_written"] = total("engine.store.put", "bytes")
    submits = by_name.get("serve.submit", [])
    metrics["serve.submits"] = len(submits)
    metrics["serve.submit_ms"] = _median_ms([s["end"] - s["start"] for s in submits])
    submit_s = {s["trace_id"]: s["end"] - s["start"] for s in submits}
    metrics["serve.http_ms"] = _median_ms([
        latency - submit_s[trace_id]
        for trace_id, latency in (client_latency or {}).items()
        if trace_id in submit_s
    ])
    return metrics


def compute_calls_by_trace(spans: List[Dict[str, Any]]) -> Dict[str, int]:
    """Count generator and search spans per request trace id."""
    counts: Dict[str, int] = {}
    for span in spans:
        if span["trace_id"] and span["name"].startswith(("generators.", "search.")):
            counts[span["trace_id"]] = counts.get(span["trace_id"], 0) + 1
    return counts
