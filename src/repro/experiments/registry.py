"""Registry of reproducible experiments (figures, tables, ablations).

Every built-in experiment is a :class:`~repro.scenarios.ScenarioSpec`
declared in its figure module; this registry maps ids to their ``run``
callables and forwards engine options (executor / store / progress /
kernels).  User-authored scenarios enter through the same machinery via
:func:`run_scenario` (re-exported here from :mod:`repro.scenarios`), which
is what the ``repro run`` CLI verb calls.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from repro.core.errors import ExperimentError
from repro.experiments.results import ExperimentResult
from repro.experiments.runner import ExperimentScale

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (engine imports us)
    from repro.engine.executor import Executor
    from repro.engine.progress import ProgressReporter
    from repro.engine.store import ResultStore
    from repro.scenarios.spec import ScenarioSpec

__all__ = [
    "available_experiments",
    "get_experiment",
    "run_experiment",
    "run_experiment_cached",
    "run_scenario",
    "run_scenario_cached",
    "experiment_titles",
]

ExperimentRunner = Callable[..., ExperimentResult]


def _load_modules():
    # Imported lazily to keep `import repro.experiments` cheap and to avoid
    # a circular import through the scenario layer the figures are built on.
    from repro.experiments.figures import ALL_FIGURE_MODULES

    return ALL_FIGURE_MODULES


def _registry() -> Dict[str, object]:
    modules = _load_modules()
    registry: Dict[str, object] = {}
    for module in modules:
        registry[module.EXPERIMENT_ID] = module
    return registry


def available_experiments() -> List[str]:
    """Return the ids of every registered experiment, in paper order."""
    return list(_registry().keys())


def experiment_titles() -> Dict[str, str]:
    """Return a mapping of experiment id to its human-readable title."""
    return {exp_id: module.TITLE for exp_id, module in _registry().items()}


def get_experiment(experiment_id: str) -> ExperimentRunner:
    """Return the ``run`` callable of the experiment with the given id."""
    registry = _registry()
    if experiment_id not in registry:
        raise ExperimentError(
            f"unknown experiment {experiment_id!r}; "
            f"available: {', '.join(available_experiments())}"
        )
    return registry[experiment_id].run


def run_experiment(
    experiment_id: str,
    scale: Optional[ExperimentScale] = None,
    seed: Optional[int] = None,
    executor: "Optional[Executor]" = None,
    store: "Optional[ResultStore]" = None,
    progress: "Optional[ProgressReporter]" = None,
    kernels: Optional[str] = None,
) -> ExperimentResult:
    """Run one experiment by id and return its result.

    Parameters
    ----------
    experiment_id:
        Registered experiment id ("fig9", "table1", ...).
    scale, seed:
        Scale preset (default: ``small``) and optional base-seed override.
    executor:
        Optional :class:`~repro.engine.executor.Executor`; when given, the
        experiment's realization tasks are fanned out through it (results
        are numerically identical to a serial run).
    store:
        Optional :class:`~repro.engine.store.ResultStore`; a cached result
        for these exact inputs is returned without recomputing, and fresh
        results are persisted for future runs.
    progress:
        Optional :class:`~repro.engine.progress.ProgressReporter` receiving
        experiment/task timing events.
    kernels:
        Optional kernel mode (``"auto"``, ``"python"``, or ``"jit"``)
        installed around the run via
        :func:`repro.kernels.dispatch.use_kernels`.  Results are
        byte-identical across modes; ``"jit"`` runs the stochastic search
        loops as compiled kernels when numba is available.

    Examples
    --------
    >>> result = run_experiment("table2")
    >>> result.experiment_id
    'table2'
    """
    if executor is None and store is None and progress is None and kernels is None:
        return get_experiment(experiment_id)(scale=scale, seed=seed)
    result, _ = run_experiment_cached(
        experiment_id,
        scale=scale,
        seed=seed,
        executor=executor,
        store=store,
        progress=progress,
        kernels=kernels,
    )
    return result


def run_experiment_cached(
    experiment_id: str,
    scale: Optional[ExperimentScale] = None,
    seed: Optional[int] = None,
    executor: "Optional[Executor]" = None,
    store: "Optional[ResultStore]" = None,
    progress: "Optional[ProgressReporter]" = None,
    kernels: Optional[str] = None,
) -> "tuple[ExperimentResult, bool]":
    """Engine-aware variant of :func:`run_experiment`.

    Returns ``(result, from_cache)`` so schedulers (e.g.
    :func:`repro.engine.tasks.run_suite`) can report cache hits without
    probing store counters.
    """
    runner = get_experiment(experiment_id)
    # Imported lazily: repro.engine (and the figures package) pull in this
    # module during their own initialisation.
    from repro.engine.executor import use_executor
    from repro.scenarios.measure import resolve_scale
    from repro.kernels.dispatch import use_kernels

    resolved = resolve_scale(scale, seed)

    if progress is not None:
        progress.experiment_started(experiment_id)

    def compute() -> ExperimentResult:
        with use_executor(executor, progress), use_kernels(kernels):
            return runner(scale=resolved, seed=None)

    if store is not None:
        result, from_cache = store.fetch_or_run(experiment_id, resolved, compute)
    else:
        result, from_cache = compute(), False
    if progress is not None:
        progress.experiment_finished(experiment_id, from_cache=from_cache)
    return result, from_cache


def run_scenario(
    spec: "ScenarioSpec",
    scale: Optional[ExperimentScale] = None,
    seed: Optional[int] = None,
    executor: "Optional[Executor]" = None,
    store: "Optional[ResultStore]" = None,
    progress: "Optional[ProgressReporter]" = None,
    kernels: Optional[str] = None,
) -> ExperimentResult:
    """Run a declarative :class:`~repro.scenarios.ScenarioSpec` end to end.

    The scenario counterpart of :func:`run_experiment`: same engine options,
    same determinism guarantees, but the experiment is *data* (a spec the
    caller authored or loaded from JSON) instead of a registered id.  With a
    ``store``, results are keyed by (scenario id, scale, canonical spec
    hash), so every equivalent spelling of the spec shares one cache entry.
    """
    # Imported lazily: the scenario layer sits above this module.
    from repro.scenarios.compile import run_scenario as _run_scenario

    return _run_scenario(
        spec,
        scale=scale,
        seed=seed,
        executor=executor,
        store=store,
        progress=progress,
        kernels=kernels,
    )


def run_scenario_cached(
    spec: "ScenarioSpec",
    scale: Optional[ExperimentScale] = None,
    seed: Optional[int] = None,
    executor: "Optional[Executor]" = None,
    store: "Optional[ResultStore]" = None,
    progress: "Optional[ProgressReporter]" = None,
    kernels: Optional[str] = None,
) -> "tuple[ExperimentResult, bool]":
    """Scenario counterpart of :func:`run_experiment_cached`.

    Returns ``(result, from_cache)`` so callers (e.g. ``repro run --json``)
    can report cache hits.
    """
    from repro.scenarios.compile import run_scenario_cached as _run_scenario_cached

    return _run_scenario_cached(
        spec,
        scale=scale,
        seed=seed,
        executor=executor,
        store=store,
        progress=progress,
        kernels=kernels,
    )
