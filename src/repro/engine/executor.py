"""Pluggable executors: run realization tasks serially or across processes.

Two implementations share one contract — results come back **in submission
order**, and every task carries its own explicit seed — so swapping
:class:`SerialExecutor` for :class:`ParallelExecutor` changes wall-clock
time but never changes a single output number:

* :class:`SerialExecutor` runs tasks in the calling process (the default
  everywhere, and what existing callers get when they pass nothing);
* :class:`ParallelExecutor` fans tasks out over a
  :class:`concurrent.futures.ProcessPoolExecutor`.  Tasks that cannot be
  pickled (e.g. closures) are detected up front and the batch silently
  degrades to in-process execution rather than crashing a worker.  Task
  arguments cross the pool by plain pickling; a frozen
  :class:`~repro.core.csr.CSRGraph` pickles as its three arrays.

The *active executor* is an ambient context: experiment helpers deep inside
the figure modules fetch it with :func:`active_executor` so the CLI can turn
``--jobs 8`` into parallelism without threading an argument through every
``run(scale=..., seed=...)`` signature.
"""

from __future__ import annotations

import os
import pickle
import threading
import time
import warnings
from concurrent.futures import Future, ProcessPoolExecutor
from contextlib import contextmanager
from typing import Any, Iterator, List, Optional, Sequence

from repro.core.ambient import AmbientStack
from repro.core.errors import ExperimentError
from repro.engine.tasks import Task
from repro.telemetry.collector import (
    TelemetryCollector,
    active_telemetry,
    use_telemetry,
)
from repro.telemetry.logs import get_logger
from repro.telemetry.trace import current_trace_id, use_trace_id

_log = get_logger("repro.engine")

__all__ = [
    "Executor",
    "SerialExecutor",
    "ParallelExecutor",
    "active_executor",
    "active_progress",
    "use_executor",
    "executor_from_jobs",
]


def _call_task(
    task: Task, trace_id: "Optional[str]" = None, index: "Optional[int]" = None
) -> "tuple[Any, float]":
    """Run one task and measure it (module-level so workers can import it).

    ``trace_id``/``index`` are accepted (and ignored) so the traced and
    untraced entry points are submission-compatible.
    """
    started = time.perf_counter()
    value = task.run()
    return value, time.perf_counter() - started


def _call_task_traced(
    task: Task, trace_id: "Optional[str]" = None, index: "Optional[int]" = None
) -> "tuple[Any, float, dict]":
    """Run one task under a fresh collector; ship its trace with the result.

    The collector is created *inside* the call so the same function works in
    the parent process and in pool workers — the worker's ambient stack is
    empty, and the exported payload (plain dicts) is what crosses the pickle
    boundary, never the collector itself.  The request trace id travels by
    value for the same reason: ambient context does not survive pickling, so
    the submitting thread snapshots it and the worker re-installs it here.
    The whole task runs inside a synthetic ``task`` root span (tree-only, so
    aggregate reports don't double-count the wall time its children already
    account for), which is the node :meth:`TelemetryCollector.merge_task`
    re-parents under the submitting thread's open span.
    """
    collector = TelemetryCollector()
    started = time.perf_counter()
    with use_telemetry(collector), use_trace_id(trace_id):
        with collector.span(
            "task", attrs={"key": task.key, "index": index}, aggregate=False
        ):
            value = task.run()
    return value, time.perf_counter() - started, collector.export()


class Executor:
    """Contract shared by all executors: ordered, seed-deterministic runs."""

    #: Number of workers the executor uses (1 for serial execution).
    jobs: int = 1

    def run(self, tasks: Sequence[Task], progress: Any = None) -> List[Any]:
        """Run ``tasks`` and return their results in submission order."""
        raise NotImplementedError

    def close(self) -> None:
        """Release any worker resources (idempotent)."""

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _run_serially(self, tasks: Sequence[Task], progress: Any = None) -> List[Any]:
        telemetry = active_telemetry()
        trace_id = current_trace_id() if telemetry.enabled else None
        results: List[Any] = []
        for index, task in enumerate(tasks):
            if telemetry.enabled:
                value, seconds, payload = _call_task_traced(task, trace_id, index)
                telemetry.merge_task(task.key, seconds, payload)
            else:
                value, seconds = _call_task(task)
            if progress is not None:
                progress.task_finished(task.key, seconds)
            results.append(value)
        return results


class SerialExecutor(Executor):
    """Run every task in the calling process, one after another."""

    def run(self, tasks: Sequence[Task], progress: Any = None) -> List[Any]:
        return self._run_serially(tasks, progress)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "SerialExecutor()"


class ParallelExecutor(Executor):
    """Fan tasks out over a process pool, preserving submission order.

    Parameters
    ----------
    jobs:
        Worker-process count (default: the machine's CPU count).  The pool is
        created lazily on the first parallel batch and reused across batches
        and experiments, so one suite run shares one pool.
    """

    def __init__(self, jobs: Optional[int] = None) -> None:
        resolved = jobs if jobs is not None else (os.cpu_count() or 1)
        if resolved < 1:
            raise ExperimentError("ParallelExecutor needs at least one worker")
        self.jobs = resolved
        self._pool: Optional[ProcessPoolExecutor] = None
        # The scenario compiler may submit batches from several threads
        # sharing this executor; lazy pool creation must happen only once.
        self._pool_lock = threading.Lock()

    def _ensure_pool(self) -> Optional[ProcessPoolExecutor]:
        with self._pool_lock:
            if self._pool is None:
                try:
                    self._pool = ProcessPoolExecutor(max_workers=self.jobs)
                except (OSError, PermissionError) as error:  # pragma: no cover
                    warnings.warn(
                        f"cannot start worker processes ({error}); running serially",
                        RuntimeWarning,
                        stacklevel=3,
                    )
                    _log.warning(
                        "executor.pool-unavailable", error=str(error), jobs=self.jobs
                    )
            return self._pool

    def run(self, tasks: Sequence[Task], progress: Any = None) -> List[Any]:
        tasks = list(tasks)
        if self.jobs <= 1 or len(tasks) <= 1:
            return self._run_serially(tasks, progress)
        # Probe one representative task (a batch shares its fn/arg shape);
        # stragglers that still fail to pickle degrade individually below.
        if not tasks[0].is_picklable():
            warnings.warn(
                "task batch contains non-picklable callables; "
                "falling back to in-process execution",
                RuntimeWarning,
                stacklevel=2,
            )
            _log.warning("executor.non-picklable-batch", tasks=len(tasks))
            return self._run_serially(tasks, progress)
        pool = self._ensure_pool()
        if pool is None:  # pragma: no cover - pool creation refused by the OS
            return self._run_serially(tasks, progress)
        telemetry = active_telemetry()
        call = _call_task_traced if telemetry.enabled else _call_task
        trace_id = current_trace_id() if telemetry.enabled else None
        futures: List[Future] = [
            pool.submit(call, task, trace_id, index)
            for index, task in enumerate(tasks)
        ]
        results: List[Any] = []
        # Merging in submission order (not completion order) makes a traced
        # parallel run's exported payload identical to the serial one.
        for index, (task, future) in enumerate(zip(tasks, futures)):
            try:
                outcome = future.result()
            except (pickle.PicklingError, TypeError, AttributeError):
                # This task could not cross the process boundary (or failed
                # with the same error class); rerun it locally so a genuine
                # task error still surfaces from an in-process call.
                outcome = call(task, trace_id, index)
            if telemetry.enabled:
                value, seconds, payload = outcome
                telemetry.merge_task(task.key, seconds, payload)
            else:
                value, seconds = outcome
            if progress is not None:
                progress.task_finished(task.key, seconds)
            results.append(value)
        return results

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ParallelExecutor(jobs={self.jobs})"


# --------------------------------------------------------------------------- #
# Ambient executor / progress context
# --------------------------------------------------------------------------- #
_DEFAULT_EXECUTOR = SerialExecutor()
_ACTIVE_STACK: AmbientStack[Executor] = AmbientStack()
_PROGRESS_STACK: AmbientStack[Any] = AmbientStack()


def active_executor() -> Executor:
    """Return the executor installed by the innermost :func:`use_executor`.

    Defaults to a shared :class:`SerialExecutor`, so library code can always
    route realization work through ``active_executor().run(...)`` without
    caring whether a CLI/worker-pool context is present.  The stack is
    thread-local: a worker thread must install its own context (the scenario
    compiler's plan threads re-install the values captured from their
    parent).
    """
    return _ACTIVE_STACK.top(_DEFAULT_EXECUTOR)


def active_progress() -> Any:
    """Return the ambient progress reporter, or ``None`` when none is set.

    Experiment helpers pass this to :meth:`Executor.run` so per-task timing
    events reach whatever reporter the CLI or suite installed.
    """
    return _PROGRESS_STACK.top(None)


@contextmanager
def use_executor(
    executor: Optional[Executor], progress: Any = None
) -> Iterator[Executor]:
    """Install ``executor`` (and optionally ``progress``) for the ``with`` body.

    ``None`` for either argument leaves the corresponding ambient value in
    place, which lets call sites write ``with use_executor(maybe_executor,
    maybe_progress):`` unconditionally.
    """
    if executor is not None:
        _ACTIVE_STACK.push(executor)
    if progress is not None:
        _PROGRESS_STACK.push(progress)
    try:
        yield active_executor()
    finally:
        if progress is not None:
            _PROGRESS_STACK.pop()
        if executor is not None:
            _ACTIVE_STACK.pop()


def executor_from_jobs(jobs: Optional[int]) -> Executor:
    """Map a ``--jobs``/``REPRO_JOBS`` count onto the right executor."""
    if jobs is not None and jobs > 1:
        return ParallelExecutor(jobs)
    return SerialExecutor()
