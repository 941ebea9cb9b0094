"""Declarative scenario layer: experiment specs as data.

The paper's parameter space — construction model × hard cutoff × stubs ×
search algorithm × TTL — is exposed here as a serializable grammar:

* :mod:`repro.scenarios.spec` — :class:`TopologySpec`,
  :class:`MeasurementSpec`, :class:`SweepSpec`, :class:`PanelSpec`, and the
  top-level :class:`ScenarioSpec`, all round-tripping ``to_dict`` /
  ``from_dict`` / JSON with eager validation and canonical SHA-256 hashing;
* :mod:`repro.scenarios.measure` — the engine-facing measurement
  primitives (realization tasks, seed streams, series builders);
* :mod:`repro.scenarios.kinds` — the measurement-kind registry
  (``degree-distribution``, ``search-curve``, ``messaging``, ...), the
  extension point that lets plugins join the grammar;
* :mod:`repro.scenarios.compile` — the compiler
  (:func:`compile_scenario` → :class:`SeriesPlan` list) and the runtime
  (:func:`run_scenario` / :func:`run_scenario_cached`, with executor,
  result-store, and progress options).

Every built-in figure, table, and ablation is itself a
:class:`ScenarioSpec` (see :func:`builtin_scenarios`, the one registry of
built-ins), and built-ins and user-authored JSON specs run through the
same compiler and the same cache key (:func:`scenario_cache_extra`).
"""

from repro.scenarios.compile import (
    SeriesPlan,
    builtin_scenarios,
    compile_scenario,
    get_builtin_scenario,
    run_scenario,
    run_scenario_cached,
    run_series_plan,
    scenario_cache_extra,
)
from repro.scenarios.kinds import (
    available_measurement_kinds,
    get_measurement_kind,
    register_measurement_kind,
)
from repro.scenarios.spec import (
    MeasurementSpec,
    PanelSpec,
    ScenarioSpec,
    SeriesTemplate,
    SweepSpec,
    TopologySpec,
    canonical_algorithm,
)

__all__ = [
    "MeasurementSpec",
    "PanelSpec",
    "ScenarioSpec",
    "SeriesPlan",
    "SeriesTemplate",
    "SweepSpec",
    "TopologySpec",
    "available_measurement_kinds",
    "builtin_scenarios",
    "canonical_algorithm",
    "compile_scenario",
    "get_builtin_scenario",
    "get_measurement_kind",
    "register_measurement_kind",
    "run_scenario",
    "run_scenario_cached",
    "run_series_plan",
    "scenario_cache_extra",
]
