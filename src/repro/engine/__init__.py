"""Parallel experiment engine: executors, tasks, result store, progress.

This package turns the experiment harness from "one long Python loop" into a
schedulable system:

* :mod:`repro.engine.tasks` — picklable realization tasks and the suite
  scheduler that pushes many experiments through one shared worker pool;
* :mod:`repro.engine.executor` — :class:`SerialExecutor` and the
  process-pool :class:`ParallelExecutor`, numerically identical by
  construction (explicit per-task seeds, results in submission order);
* :mod:`repro.engine.store` — a content-addressed on-disk cache of
  :class:`~repro.experiments.results.ExperimentResult` artifacts keyed by
  (experiment id, scale, seed, params), making re-runs and resumed suites
  skip completed work;
* :mod:`repro.engine.progress` — per-experiment task counts and timings.

Quick tour::

    from repro.engine import ParallelExecutor, ResultStore, run_suite

    with ParallelExecutor(jobs=8) as pool:
        report = run_suite(["fig9", "fig11"], scale=scale,
                           executor=pool, store=ResultStore(".repro-cache"))
    print(report.summary())
"""

from repro.engine.tasks import SuiteEntry, SuiteReport, Task, run_suite
from repro.engine.executor import (
    Executor,
    ParallelExecutor,
    SerialExecutor,
    active_executor,
    active_progress,
    executor_from_jobs,
    use_executor,
)
from repro.engine.store import ResultStore
from repro.engine.progress import ExperimentTiming, ProgressEvent, ProgressReporter

__all__ = [
    "Executor",
    "ExperimentTiming",
    "ParallelExecutor",
    "ProgressEvent",
    "ProgressReporter",
    "ResultStore",
    "SerialExecutor",
    "SuiteEntry",
    "SuiteReport",
    "Task",
    "active_executor",
    "active_progress",
    "executor_from_jobs",
    "run_suite",
    "use_executor",
]
