"""Shared plumbing for the figure/table reproduction benchmarks.

Every benchmark module regenerates one paper artefact (a built-in
:class:`~repro.scenarios.ScenarioSpec`, run with
:func:`repro.scenarios.run_scenario`) and

* times the full experiment once (``benchmark.pedantic`` with a single
  round — these are minutes-long simulations, not microbenchmarks),
* records a compact summary of the reproduced series in
  ``benchmark.extra_info`` so the numbers appear in the benchmark JSON/log,
* writes the full result as JSON under ``benchmarks/results/`` for
  side-by-side comparison with the paper (see EXPERIMENTS.md),
* asserts the qualitative trend the paper reports for that artefact.

The scale is selected with the ``REPRO_BENCH_SCALE`` environment variable
(``smoke``, ``small`` — default, or ``paper``) and the worker-process count
for realization tasks with ``REPRO_JOBS`` (default 1 = serial; parallel runs
produce numerically identical results, see :mod:`repro.engine`).

Every test collected from this directory is marked ``bench`` (registered in
``pytest.ini``), so ``pytest -m "not bench"`` skips the benchmark tier.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.engine.executor import Executor, executor_from_jobs
from repro.experiments.results import ExperimentResult
from repro.experiments.runner import ExperimentScale
from repro.scenarios import get_builtin_scenario, run_scenario

RESULTS_DIR = Path(__file__).parent / "results"


def pytest_collection_modifyitems(items):
    """Mark everything under benchmarks/ as ``bench``."""
    this_dir = Path(__file__).parent
    for item in items:
        try:
            in_benchmarks = Path(str(item.fspath)).is_relative_to(this_dir)
        except ValueError:  # pragma: no cover - foreign path layout
            in_benchmarks = False
        if in_benchmarks:
            item.add_marker(pytest.mark.bench)


def bench_scale() -> ExperimentScale:
    """Return the experiment scale selected via REPRO_BENCH_SCALE."""
    name = os.environ.get("REPRO_BENCH_SCALE", "small")
    return ExperimentScale.from_name(name)


def bench_jobs() -> int:
    """Return the worker-process count selected via REPRO_JOBS."""
    try:
        return max(1, int(os.environ.get("REPRO_JOBS", "1")))
    except ValueError:
        return 1


_SHARED_EXECUTOR: "Executor | None" = None


def shared_executor() -> Executor:
    """One executor for the whole benchmark session (honours REPRO_JOBS)."""
    global _SHARED_EXECUTOR
    if _SHARED_EXECUTOR is None:
        _SHARED_EXECUTOR = executor_from_jobs(bench_jobs())
    return _SHARED_EXECUTOR


@pytest.fixture(scope="session", autouse=True)
def _shutdown_executor():
    """Release the shared worker pool when the benchmark session ends."""
    yield
    if _SHARED_EXECUTOR is not None:
        _SHARED_EXECUTOR.close()


@pytest.fixture(scope="session")
def scale() -> ExperimentScale:
    """Session-wide experiment scale for all benchmarks."""
    return bench_scale()


def keeps_up(candidate: float, reference: float, rel: float = 0.85, abs_tol: float = 2.0) -> bool:
    """True when ``candidate`` is at least comparable to ``reference``.

    Search-hit comparisons at the reduced benchmark scales are noisy,
    especially in the m = 1 regime where NF/RW reach only a handful of peers;
    a curve "keeps up" with another if it reaches at least ``rel`` of its hits
    or is within ``abs_tol`` hits absolutely.
    """
    return candidate >= rel * reference or (reference - candidate) <= abs_tol


def run_figure_benchmark(benchmark, experiment_id: str, scale: ExperimentScale) -> ExperimentResult:
    """Run one experiment under pytest-benchmark and persist its result."""
    result_holder = {}
    executor = shared_executor()

    def _run():
        result_holder["result"] = run_scenario(
            get_builtin_scenario(experiment_id),
            scale=scale,
            executor=executor,
        )
        return result_holder["result"]

    benchmark.pedantic(_run, rounds=1, iterations=1, warmup_rounds=0)
    result: ExperimentResult = result_holder["result"]

    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    result.save_json(RESULTS_DIR / f"{experiment_id}.json")
    result.save_csv(RESULTS_DIR / f"{experiment_id}.csv")

    benchmark.extra_info["experiment"] = experiment_id
    benchmark.extra_info["scale"] = scale.name
    benchmark.extra_info["jobs"] = executor.jobs
    benchmark.extra_info["series"] = {
        series.label: round(float(series.final()), 4) for series in result.series
    }
    return result
