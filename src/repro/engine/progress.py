"""Progress and timing reports for engine runs.

The executors call :meth:`ProgressReporter.task_finished` once per completed
realization task and the registry/suite layer brackets every experiment with
:meth:`experiment_started` / :meth:`experiment_finished`.  The reporter
aggregates task counts and wall-clock timings per experiment and publishes
every event twice:

* as a rendered text line to an optional ``stream`` (the CLI points it at
  stderr so progress never pollutes machine-readable stdout);
* as a structured :class:`ProgressEvent` to an optional ``sink`` callable —
  the serve layer's NDJSON stream consumes :meth:`ProgressEvent.as_dict`
  directly instead of scraping the text lines.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, Optional, TextIO

from repro.telemetry.collector import telemetry_clock
from repro.telemetry.trace import current_trace_id

__all__ = ["ExperimentTiming", "ProgressEvent", "ProgressReporter"]


@dataclass
class ExperimentTiming:
    """Aggregated telemetry for one experiment run."""

    experiment_id: str
    seconds: float = 0.0
    tasks: int = 0
    task_seconds: float = 0.0
    from_cache: bool = False


@dataclass(frozen=True)
class ProgressEvent:
    """One serializable progress event (what a text line used to be).

    ``kind`` is one of ``"experiment-started"``, ``"experiment-finished"``,
    or ``"task-finished"``; ``key`` is the experiment id for the first two
    and the task key for the last.  :meth:`render` produces exactly the
    text line the reporter has always printed, so stream output is
    unchanged; :meth:`as_dict` is the JSON form streamed by
    ``GET /scenarios/<hash>/events``.
    """

    kind: str
    key: str
    seconds: float = 0.0
    elapsed: float = 0.0
    rate: float = 0.0
    tasks: int = 0
    from_cache: bool = False
    trace_id: Optional[str] = None

    def as_dict(self) -> Dict[str, Any]:
        """JSON-friendly form (stable keys across all event kinds)."""
        return {
            "event": self.kind,
            "key": self.key,
            "seconds": self.seconds,
            "elapsed": self.elapsed,
            "rate": self.rate,
            "tasks": self.tasks,
            "from_cache": self.from_cache,
            "trace_id": self.trace_id,
        }

    def render(self) -> str:
        """The human-readable line this event prints to a stream."""
        if self.kind == "experiment-started":
            return f"[{self.key}] started"
        if self.kind == "experiment-finished":
            origin = "cache hit" if self.from_cache else f"{self.tasks} tasks"
            return f"[{self.key}] finished in {self.seconds:.2f}s ({origin})"
        return (
            f"  task {self.key or '<anonymous>'} done in {self.seconds:.2f}s "
            f"[elapsed {self.elapsed:.1f}s, {self.rate:.2f} tasks/s]"
        )


class ProgressReporter:
    """Collect per-experiment task counts and timings; optionally stream them.

    Parameters
    ----------
    stream:
        File object rendered progress lines are written to (``None`` keeps
        the reporter silent; aggregation still happens).
    sink:
        Optional callable receiving every :class:`ProgressEvent` as it
        happens — the structured twin of ``stream``.  The serve layer
        passes the per-job event log's append here.
    """

    def __init__(
        self,
        stream: Optional[TextIO] = None,
        sink: Optional[Callable[[ProgressEvent], None]] = None,
    ) -> None:
        self.stream = stream
        self.sink = sink
        self.timings: List[ExperimentTiming] = []
        self._open: Dict[str, ExperimentTiming] = {}
        self._started_at: Dict[str, float] = {}
        # Reporter-lifetime clock for the throughput rate in task lines.
        self._born_at = telemetry_clock()
        self._tasks_seen = 0
        # Plan threads sharing one scenario report task events concurrently.
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # Event sinks (called by executors / registry / suite scheduler)
    # ------------------------------------------------------------------ #
    def experiment_started(self, experiment_id: str) -> None:
        timing = ExperimentTiming(experiment_id=experiment_id)
        self._open[experiment_id] = timing
        self._started_at[experiment_id] = time.perf_counter()
        self._emit(ProgressEvent(kind="experiment-started", key=experiment_id))

    def experiment_finished(self, experiment_id: str, from_cache: bool = False) -> None:
        timing = self._open.pop(experiment_id, None)
        if timing is None:  # finished without a matching start; still record it
            timing = ExperimentTiming(experiment_id=experiment_id)
        started = self._started_at.pop(experiment_id, None)
        timing.seconds = time.perf_counter() - started if started is not None else 0.0
        timing.from_cache = from_cache
        self.timings.append(timing)
        self._emit(ProgressEvent(
            kind="experiment-finished",
            key=experiment_id,
            seconds=timing.seconds,
            tasks=timing.tasks,
            from_cache=from_cache,
        ))

    def task_finished(self, key: str, seconds: float) -> None:
        # Attribute the task to the innermost open experiment, if any.
        with self._lock:
            if self._open:
                timing = next(reversed(self._open.values()))
                timing.tasks += 1
                timing.task_seconds += seconds
            self._tasks_seen += 1
            tasks_seen = self._tasks_seen
        elapsed = telemetry_clock() - self._born_at
        # With --jobs the elapsed wall time can be far below the sum of task
        # seconds; the rate is realizations per wall second, which is the
        # throughput number a long parallel suite run is watched for.
        rate = tasks_seen / elapsed if elapsed > 0 else 0.0
        self._emit(ProgressEvent(
            kind="task-finished",
            key=key,
            seconds=seconds,
            elapsed=elapsed,
            rate=rate,
        ))

    # ------------------------------------------------------------------ #
    def _emit(self, event: ProgressEvent) -> None:
        if event.trace_id is None:
            # Stamp the ambient request trace id (repro serve) so every
            # NDJSON line correlates with the response and the access log.
            trace_id = current_trace_id()
            if trace_id is not None:
                event = replace(event, trace_id=trace_id)
        if self.sink is not None:
            self.sink(event)
        if self.stream is not None:
            print(event.render(), file=self.stream, flush=True)
