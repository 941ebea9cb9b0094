"""The scenario service core: admission, warm lookup, in-flight dedup.

:class:`ScenarioService` is the transport-free heart of ``repro serve`` —
plain blocking methods a test can drive directly, which the asyncio HTTP
layer (:mod:`repro.serve.http`) calls from worker threads.  One service
instance owns:

* a shared :class:`~repro.engine.executor.Executor` every scenario's
  realization tasks fan into (each task builds and freezes its graph
  where it runs, so only specs and results cross a worker pool);
* an optional :class:`~repro.engine.store.ResultStore` answering *warm*
  requests straight from disk by the spec's canonical hash;
* an in-flight table keyed by ``(spec hash, scale, seed)`` that
  deduplicates identical *cold* requests — the second identical request
  awaits the first's future instead of recomputing;
* a job table answering ``GET /scenarios/<hash>``: the newest job of each
  spec hash, capped at :data:`MAX_KNOWN_JOBS` hashes by admission order.
  A job still in flight is never evicted; an evicted hash answers 404,
  while its result stays in the store, if one is attached;
* an aggregates-only :class:`~repro.telemetry.collector.TelemetryCollector`
  (``tree=False``) counting requests / warm hits / dedup hits / cold
  misses / errors, observing request latencies and summing time per span
  name, surfaced by ``GET /metrics``.  It keeps no span tree and no
  per-task record, so neither the table nor the collector grows with
  traffic.

Request lifecycle events (accepted → running → per-task progress →
completed/failed) are appended to a per-job :class:`EventLog` as plain
dicts — the structured :class:`~repro.engine.progress.ProgressEvent` form,
not scraped text — which ``GET /scenarios/<hash>/events`` streams as
NDJSON.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.core.errors import ReproError, ScenarioError
from repro.engine.executor import Executor, SerialExecutor
from repro.engine.progress import ProgressEvent, ProgressReporter
from repro.engine.store import ResultStore
from repro.experiments.runner import ExperimentScale
from repro.scenarios.compile import run_scenario_cached, scenario_cache_extra
from repro.scenarios.measure import resolve_scale
from repro.scenarios.spec import ScenarioSpec
from repro.telemetry.collector import (
    TelemetryCollector,
    telemetry_clock,
    use_telemetry,
)
from repro.telemetry.logs import get_logger
from repro.telemetry.trace import new_trace_id, use_trace_id

__all__ = ["EventLog", "ScenarioJob", "ScenarioService"]

_log = get_logger("repro.serve")

#: Spec hashes the job table remembers.  Each entry holds a result dict and
#: an event log, so the cap bounds the table's memory; results themselves
#: persist in the store.
MAX_KNOWN_JOBS = 256


class EventLog:
    """A thread-safe, append-only sequence of progress events with waiting.

    Producers (the job's worker thread) :meth:`append` dicts and finally
    :meth:`close`; consumers (NDJSON streams) call :meth:`after` with
    their cursor and block until new events arrive or the log closes —
    so a client tailing ``/events`` sees each task line the moment it
    happens, with no polling of completed state.
    """

    def __init__(self, trace_id: Optional[str] = None) -> None:
        self._events: List[Dict[str, Any]] = []
        self._condition = threading.Condition()
        self._closed = False
        #: The owning request's correlation id; stamped on every event so
        #: an NDJSON line is attributable without joining on the response.
        self.trace_id = trace_id

    def append(self, payload: Dict[str, Any]) -> None:
        with self._condition:
            record = dict(payload, seq=len(self._events))
            if self.trace_id is not None and record.get("trace_id") is None:
                record["trace_id"] = self.trace_id
            self._events.append(record)
            self._condition.notify_all()

    def append_progress(self, event: ProgressEvent) -> None:
        """The :class:`~repro.engine.progress.ProgressReporter` sink."""
        self.append(event.as_dict())

    def close(self) -> None:
        with self._condition:
            self._closed = True
            self._condition.notify_all()

    @property
    def closed(self) -> bool:
        with self._condition:
            return self._closed

    def snapshot(self) -> List[Dict[str, Any]]:
        """All events so far (a copy)."""
        with self._condition:
            return list(self._events)

    def after(
        self, cursor: int, timeout: Optional[float] = None
    ) -> Tuple[List[Dict[str, Any]], bool]:
        """Block until events beyond ``cursor`` exist (or closed/timeout).

        Returns ``(new_events, closed)``; an empty list with
        ``closed=True`` means the stream is exhausted.
        """
        with self._condition:
            self._condition.wait_for(
                lambda: len(self._events) > cursor or self._closed,
                timeout=timeout,
            )
            return list(self._events[cursor:]), self._closed


class ScenarioJob:
    """One admitted scenario computation (shared by all deduped waiters)."""

    def __init__(
        self,
        spec: ScenarioSpec,
        scale: ExperimentScale,
        job_key: str,
        trace_id: Optional[str] = None,
    ) -> None:
        self.spec = spec
        self.scale = scale
        self.job_key = job_key
        self.spec_hash = spec.spec_hash()
        self.trace_id = trace_id if trace_id is not None else new_trace_id()
        self.status = "queued"  # queued | running | done | failed
        self.from_cache = False
        self.result_dict: Optional[Dict[str, Any]] = None
        self.error: Optional[Dict[str, str]] = None
        self.created_at = telemetry_clock()
        self.seconds: Optional[float] = None
        self.events = EventLog(trace_id=self.trace_id)
        self.future: "Future[None]" = Future()
        self.events.append({
            "event": "accepted",
            "scenario": spec.scenario_id,
            "spec_hash": self.spec_hash,
            "scale": scale.name,
            "seed": scale.seed,
        })

    def describe(self) -> Dict[str, Any]:
        """The JSON body of ``GET /scenarios/<hash>`` and POST responses."""
        payload: Dict[str, Any] = {
            "scenario": self.spec.scenario_id,
            "spec_hash": self.spec_hash,
            "trace_id": self.trace_id,
            "scale": self.scale.name,
            "seed": self.scale.seed,
            "status": self.status,
            "from_cache": self.from_cache,
        }
        if self.seconds is not None:
            payload["seconds"] = self.seconds
        if self.result_dict is not None:
            payload["result"] = self.result_dict
        if self.error is not None:
            payload["error"] = self.error
        return payload


class ScenarioService:
    """Admission, caching, and dedup for scenario computations.

    A long-lived service holds bounded state: the job table keeps the
    newest :data:`MAX_KNOWN_JOBS` spec hashes (plus any job still in
    flight), and the default collector keeps aggregates only.

    Parameters
    ----------
    store:
        Optional result store; with one attached, warm requests are served
        from disk and every computed result is persisted for the next
        process (a restarted service answers the same hash without
        recompute).
    executor:
        The engine executor all scenario realization tasks share (default:
        serial).  The service does **not** close an executor it was given.
    scale, seed:
        Defaults applied to every request; either can be overridden per
        request.
    workers:
        How many scenario computations may run concurrently (each fans its
        realization tasks into the shared ``executor``).
    telemetry:
        Collector for service counters/latencies.  The default keeps
        aggregates only (``TelemetryCollector(tree=False)``); pass a
        tree-keeping collector to inspect a request's span tree in-process.
    """

    def __init__(
        self,
        store: Optional[ResultStore] = None,
        executor: Optional[Executor] = None,
        scale: "Optional[ExperimentScale | str]" = None,
        seed: Optional[int] = None,
        workers: int = 4,
        telemetry: Optional[TelemetryCollector] = None,
    ) -> None:
        self.store = store
        self.executor = executor if executor is not None else SerialExecutor()
        self._owns_executor = executor is None
        if isinstance(scale, str):
            scale = ExperimentScale.from_name(scale)
        self.default_scale = resolve_scale(scale, seed)
        self.telemetry = (
            telemetry if telemetry is not None else TelemetryCollector(tree=False)
        )
        self.started_at = telemetry_clock()
        self._lock = threading.Lock()
        # In-flight jobs keyed by (spec hash, scale name, seed) — the dedup
        # identity; and the newest job of each recently admitted spec hash
        # for /scenarios/<hash> and /events lookups, oldest admission first
        # (see _remember).
        self._inflight: Dict[str, ScenarioJob] = {}
        self._jobs: "OrderedDict[str, ScenarioJob]" = OrderedDict()
        self._pool = ThreadPoolExecutor(
            max_workers=max(1, workers), thread_name_prefix="repro-serve"
        )
        self._closed = False

    # ------------------------------------------------------------------ #
    # Request handling
    # ------------------------------------------------------------------ #
    def _resolve_scale(
        self, scale_name: Optional[str], seed: Optional[int]
    ) -> ExperimentScale:
        scale = (
            ExperimentScale.from_name(scale_name)
            if scale_name is not None
            else self.default_scale
        )
        if seed is not None:
            scale = scale.with_seed(seed)
        elif scale_name is not None:
            # A per-request scale keeps the service's configured base seed.
            scale = scale.with_seed(self.default_scale.seed)
        return scale

    def parse_spec(self, body: "str | bytes | Mapping[str, Any]") -> ScenarioSpec:
        """Parse and eagerly validate a request body into a spec.

        Raises :class:`~repro.core.errors.ScenarioError` (the HTTP layer's
        400 with detail) on malformed JSON or an invalid spec.
        """
        if isinstance(body, bytes):
            body = body.decode("utf-8", errors="replace")
        if isinstance(body, str):
            spec = ScenarioSpec.from_json(body)
        else:
            spec = ScenarioSpec.from_dict(body)
        spec.validate()
        return spec

    def submit(
        self,
        body: "str | bytes | Mapping[str, Any]",
        scale: Optional[str] = None,
        seed: Optional[int] = None,
        wait: bool = True,
        timeout: Optional[float] = None,
    ) -> Dict[str, Any]:
        """Admit one scenario request; return its response body.

        The three paths, in order:

        1. **warm** — the store already holds this (spec hash, scale, seed):
           answer from disk, no computation;
        2. **dedup** — an identical request is in flight: await its future
           (no second computation, byte-identical response);
        3. **cold** — schedule the computation on the worker pool.

        With ``wait=False`` cold/dedup requests return immediately with
        ``status="queued"``/``"running"``; poll ``GET /scenarios/<hash>``
        or tail ``/events``.
        """
        started = telemetry_clock()
        self.telemetry.count("serve.requests")
        try:
            spec = self.parse_spec(body)
            resolved = self._resolve_scale(scale, seed)
        except (ScenarioError, ReproError):
            self.telemetry.count("serve.errors")
            raise
        spec_hash = spec.spec_hash()
        job_key = f"{spec_hash}:{resolved.name}:{resolved.seed}"
        # Every request gets a correlation id up front.  A deduped request
        # adopts the in-flight job's id (its events already carry it), so
        # the id returned in the response always matches the event stream.
        trace_id = new_trace_id()

        # Warm path: answer straight from the store, no lock needed.  The
        # store counts its hits and misses into the service collector.
        if self.store is not None:
            with use_telemetry(self.telemetry), use_trace_id(trace_id), self.telemetry.span(
                "serve.lookup",
                attrs={
                    "spec_hash": spec_hash,
                    "scale": resolved.name,
                    "seed": resolved.seed,
                },
            ):
                cached = self.store.get(
                    spec.scenario_id, resolved, extra=scenario_cache_extra(spec)
                )
            if cached is not None:
                self.telemetry.count("serve.warm_hits")
                job = self._record_warm_job(
                    spec, resolved, job_key, cached, trace_id
                )
                self._observe_latency(started)
                with use_trace_id(trace_id):
                    _log.info(
                        "job-warm", spec_hash=spec_hash, scale=resolved.name
                    )
                return job.describe()

        deduped = False
        with self._lock:
            if self._closed:
                raise ReproError("scenario service is shutting down")
            job = self._inflight.get(job_key)
            if job is not None:
                deduped = True
            else:
                job = ScenarioJob(spec, resolved, job_key, trace_id)
                self._inflight[job_key] = job
                self._remember(job)
                self._pool.submit(self._run_job, job)
        if deduped:
            self.telemetry.count("serve.dedup_hits")
        else:
            self.telemetry.count("serve.cold_misses")
        with use_trace_id(job.trace_id):
            _log.info(
                "job-deduped" if deduped else "job-accepted",
                spec_hash=spec_hash,
                scale=resolved.name,
                seed=resolved.seed,
            )
        if wait:
            job.future.result(timeout=timeout)
        self._observe_latency(started)
        return job.describe()

    def _record_warm_job(
        self,
        spec: ScenarioSpec,
        scale: ExperimentScale,
        job_key: str,
        cached: Any,
        trace_id: Optional[str] = None,
    ) -> ScenarioJob:
        """Register a completed job for a store hit (for later lookups)."""
        job = ScenarioJob(spec, scale, job_key, trace_id)
        job.status = "done"
        job.from_cache = True
        job.result_dict = cached.as_dict()
        job.seconds = 0.0
        job.events.append({
            "event": "completed",
            "spec_hash": job.spec_hash,
            "from_cache": True,
            "source": "store",
        })
        job.events.close()
        job.future.set_result(None)
        with self._lock:
            self._remember(job)
        return job

    def _remember(self, job: ScenarioJob) -> None:
        """Make ``job`` its hash's newest entry (``self._lock`` held)."""
        self._jobs[job.spec_hash] = job
        self._jobs.move_to_end(job.spec_hash)
        self._evict_known_jobs()

    def _evict_known_jobs(self) -> None:
        """Drop the oldest jobs beyond :data:`MAX_KNOWN_JOBS` (lock held).

        Jobs still in flight are skipped, so a client polling a running job
        always finds it; the table exceeds the cap only while more jobs
        than that are in flight.
        """
        excess = len(self._jobs) - MAX_KNOWN_JOBS
        if excess <= 0:
            return
        evicted: List[str] = []
        for spec_hash, known in self._jobs.items():
            if self._inflight.get(known.job_key) is not known:
                evicted.append(spec_hash)
                if len(evicted) == excess:
                    break
        for spec_hash in evicted:
            del self._jobs[spec_hash]

    def _run_job(self, job: ScenarioJob) -> None:
        job.status = "running"
        job.events.append({"event": "running", "spec_hash": job.spec_hash})
        reporter = ProgressReporter(sink=job.events.append_progress)
        started = telemetry_clock()
        try:
            # The worker thread's ambient stacks are empty; install the
            # service collector so store/task spans aggregate into
            # /metrics, and the job's trace id so every span, progress
            # event, and log line below carries it.  The whole computation
            # is the request's root span — the top of the
            # serve → scenario → series → task tree.  The executor is
            # passed explicitly and run_scenario_cached installs it around
            # the computation.  submit() probed the store before scheduling
            # this job, so the job computes without the store and puts the
            # result: one probe per cold request.
            with use_telemetry(self.telemetry), use_trace_id(job.trace_id):
                _log.info(
                    "job-running",
                    spec_hash=job.spec_hash,
                    scenario=job.spec.scenario_id,
                    scale=job.scale.name,
                    seed=job.scale.seed,
                )
                with self.telemetry.span(
                    "serve.request",
                    attrs={
                        "spec_hash": job.spec_hash,
                        "scenario": job.spec.scenario_id,
                        "scale": job.scale.name,
                        "seed": job.scale.seed,
                    },
                ):
                    result, from_cache = run_scenario_cached(
                        job.spec,
                        scale=job.scale,
                        executor=self.executor,
                        progress=reporter,
                    )
                    if self.store is not None:
                        self.store.put(
                            job.spec.scenario_id,
                            job.scale,
                            result,
                            extra=scenario_cache_extra(job.spec),
                        )
            self.telemetry.count("serve.computations")
            job.seconds = telemetry_clock() - started
            job.from_cache = from_cache
            job.result_dict = result.as_dict()
            job.status = "done"
            job.events.append({
                "event": "completed",
                "spec_hash": job.spec_hash,
                "from_cache": from_cache,
                "seconds": job.seconds,
            })
            with use_trace_id(job.trace_id):
                _log.info(
                    "job-completed",
                    spec_hash=job.spec_hash,
                    seconds=job.seconds,
                    from_cache=from_cache,
                )
        except ReproError as error:
            self.telemetry.count("serve.errors")
            job.seconds = telemetry_clock() - started
            job.status = "failed"
            job.error = {"type": type(error).__name__, "detail": str(error)}
            job.events.append({
                "event": "failed",
                "spec_hash": job.spec_hash,
                "error": job.error,
            })
            with use_trace_id(job.trace_id):
                _log.error(
                    "job-failed",
                    spec_hash=job.spec_hash,
                    error=job.error["type"],
                    detail=job.error["detail"],
                )
        finally:
            with self._lock:
                self._inflight.pop(job.job_key, None)
                self._evict_known_jobs()
            job.events.close()
            job.future.set_result(None)

    def _observe_latency(self, started: float) -> None:
        self.telemetry.observe(
            "serve.request_seconds", telemetry_clock() - started
        )

    # ------------------------------------------------------------------ #
    # Lookups
    # ------------------------------------------------------------------ #
    def job_for(self, spec_hash: str) -> Optional[ScenarioJob]:
        """The most recent job admitted for ``spec_hash``, or ``None``.

        ``None`` also for a hash the job table has evicted (see
        :data:`MAX_KNOWN_JOBS`); its result is still in the store.
        """
        with self._lock:
            return self._jobs.get(spec_hash)

    def health(self) -> Dict[str, Any]:
        with self._lock:
            inflight = len(self._inflight)
        return {
            "status": "ok",
            "uptime_seconds": telemetry_clock() - self.started_at,
            "inflight": inflight,
            "jobs": self.executor.jobs,
        }

    def metrics(self) -> Dict[str, Any]:
        """The ``GET /metrics`` JSON body: counters, latencies, store state.

        Histogram entries carry bucket counts and derived p50/p95/p99
        alongside count/total/min/max (the collector's export form).
        """
        export = self.telemetry.export()
        with self._lock:
            inflight = len(self._inflight)
            known = len(self._jobs)
        return {
            "uptime_seconds": telemetry_clock() - self.started_at,
            "inflight": inflight,
            "known_jobs": known,
            "counters": export.get("counters", {}),
            "histograms": export.get("histograms", {}),
            "spans": export.get("spans", {}),
            "store": self.store.stats() if self.store is not None else None,
        }

    def metrics_text(self) -> str:
        """The ``GET /metrics`` Prometheus text body (content-negotiated).

        Counter/histogram/span families come from the collector export
        (``serve.request_seconds`` is scraped as the bucketed
        ``serve_request_seconds`` histogram); service- and store-level
        instantaneous values are appended as gauges.
        """
        from repro.telemetry.prometheus import render_prometheus

        export = self.telemetry.export()
        with self._lock:
            inflight = len(self._inflight)
            known = len(self._jobs)
        gauges: Dict[str, float] = {
            "serve_uptime_seconds": telemetry_clock() - self.started_at,
            "serve_inflight": inflight,
            "serve_known_jobs": known,
        }
        if self.store is not None:
            for name, value in self.store.stats().items():
                if isinstance(value, (int, float)) and not isinstance(value, bool):
                    gauges[f"store_{name}"] = value
        return render_prometheus(export, gauges)

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Drain workers, persist store counters, release the executor."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self._pool.shutdown(wait=True)
        if self._owns_executor:
            self.executor.close()
        if self.store is not None:
            self.store.save_stats()

    def __enter__(self) -> "ScenarioService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
