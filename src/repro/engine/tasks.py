"""Task model for the experiment engine.

A :class:`Task` is the unit of work the executors understand: a picklable
callable plus its arguments.  For parallel execution the callable must be a
module-level function and the arguments must be picklable values (frozen
dataclasses such as :class:`~repro.experiments.runner.ExperimentScale` and
plain numbers/strings all qualify); the executors transparently fall back to
in-process execution when a task cannot cross a process boundary.

The module also provides the *suite scheduler*: :func:`run_suite` runs many
built-in scenarios (:func:`repro.scenarios.builtin_scenarios`) through one
shared executor (and optionally one shared result store, keyed like every
other scenario run), so a full paper reproduction fans all of its
realization tasks into a single worker pool and resumes from cached results
on re-runs.
"""

from __future__ import annotations

import pickle
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.errors import ExperimentError

__all__ = ["Task", "SuiteEntry", "SuiteReport", "run_suite"]


@dataclass(frozen=True)
class Task:
    """One schedulable unit of work.

    Attributes
    ----------
    fn:
        The callable to run.  Must be a module-level function for the task to
        be distributable to worker processes.
    args:
        Positional arguments passed to ``fn``.
    kwargs:
        Keyword arguments passed to ``fn``.
    key:
        Human-readable label used by progress reporting (e.g.
        ``"fig9/nf:pa m=1, kc=10[0]"``).
    """

    fn: Callable[..., Any]
    args: Tuple[Any, ...] = ()
    kwargs: Mapping[str, Any] = field(default_factory=dict)
    key: str = ""

    def run(self) -> Any:
        """Execute the task in the current process."""
        return self.fn(*self.args, **dict(self.kwargs))

    def is_picklable(self) -> bool:
        """True when the task can be shipped to a worker process."""
        try:
            pickle.dumps(self)
            return True
        except (pickle.PicklingError, TypeError, AttributeError):
            return False


# --------------------------------------------------------------------------- #
# Suite scheduling
# --------------------------------------------------------------------------- #
@dataclass
class SuiteEntry:
    """Outcome of one experiment within a suite run."""

    experiment_id: str
    result: Any  # ExperimentResult; typed loosely to avoid an import cycle
    seconds: float
    from_cache: bool


@dataclass
class SuiteReport:
    """Everything a suite run produced, in execution order."""

    entries: List[SuiteEntry] = field(default_factory=list)

    def results(self) -> Dict[str, Any]:
        """Return ``{experiment_id: ExperimentResult}`` for all entries."""
        return {entry.experiment_id: entry.result for entry in self.entries}

    @property
    def total_seconds(self) -> float:
        return sum(entry.seconds for entry in self.entries)

    @property
    def cache_hits(self) -> int:
        return sum(1 for entry in self.entries if entry.from_cache)

    def as_dict(self, include_results: bool = True) -> Dict[str, Any]:
        """JSON-friendly form (the CLI's ``repro suite --json`` payload).

        Each entry carries the experiment id, wall-clock seconds, the
        cache-hit flag, and (unless ``include_results`` is false) the full
        ``ExperimentResult`` dict with per-series metadata.
        """
        entries: List[Dict[str, Any]] = []
        for entry in self.entries:
            record: Dict[str, Any] = {
                "experiment_id": entry.experiment_id,
                "seconds": entry.seconds,
                "from_cache": entry.from_cache,
            }
            if include_results:
                record["result"] = entry.result.as_dict()
            entries.append(record)
        return {
            "entries": entries,
            "total_seconds": self.total_seconds,
            "cache_hits": self.cache_hits,
        }

    def summary(self) -> str:
        """Render a compact per-experiment timing table."""
        lines = []
        for entry in self.entries:
            origin = "cache" if entry.from_cache else "ran"
            lines.append(
                f"{entry.experiment_id:<22s} {entry.seconds:8.2f}s  {origin}"
            )
        lines.append(
            f"{'total':<22s} {self.total_seconds:8.2f}s  "
            f"({self.cache_hits}/{len(self.entries)} from cache)"
        )
        return "\n".join(lines)


def run_suite(
    experiment_ids: Optional[Sequence[str]] = None,
    scale: Any = None,
    seed: Optional[int] = None,
    executor: Any = None,
    store: Any = None,
    progress: Any = None,
    on_result: Optional[Callable[[SuiteEntry], None]] = None,
) -> SuiteReport:
    """Run many experiments through one shared executor and result store.

    Experiments execute one after another in the calling process while each
    experiment's realization tasks fan out across the shared ``executor``;
    with a :class:`~repro.engine.store.ResultStore` attached, previously
    completed experiments are served from cache, which makes an interrupted
    suite resumable.

    Parameters
    ----------
    experiment_ids:
        Built-in scenario ids to run, in order (default: every built-in, in
        paper order).
    scale, seed:
        Forwarded to :func:`repro.scenarios.run_scenario_cached`.
    executor:
        Shared :class:`~repro.engine.executor.Executor` (default: serial).
    store:
        Optional shared :class:`~repro.engine.store.ResultStore`.
    progress:
        Optional :class:`~repro.engine.progress.ProgressReporter`.
    on_result:
        Optional callback invoked with each :class:`SuiteEntry` as soon as
        its experiment finishes — the hook for incremental persistence, so
        an interrupted suite keeps everything completed so far.
    """
    # Imported lazily: the scenario layer imports this module (for Task).
    from repro.scenarios.compile import builtin_scenarios, run_scenario_cached

    specs = builtin_scenarios()
    ids = list(experiment_ids) if experiment_ids else list(specs)
    unknown = [exp_id for exp_id in ids if exp_id not in specs]
    if unknown:
        raise ExperimentError(
            f"unknown experiment ids in suite: {', '.join(unknown)}"
        )

    report = SuiteReport()
    for experiment_id in ids:
        started = time.perf_counter()
        result, from_cache = run_scenario_cached(
            specs[experiment_id],
            scale=scale,
            seed=seed,
            executor=executor,
            store=store,
            progress=progress,
        )
        entry = SuiteEntry(
            experiment_id=experiment_id,
            result=result,
            seconds=time.perf_counter() - started,
            from_cache=from_cache,
        )
        report.entries.append(entry)
        if on_result is not None:
            on_result(entry)
    return report
