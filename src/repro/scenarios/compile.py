"""Compile and run scenario specs on the experiment engine.

:func:`compile_scenario` lowers a :class:`~repro.scenarios.spec.ScenarioSpec`
into an ordered list of :class:`SeriesPlan` items — one per measured series,
with every by-scale value resolved and every label rendered — and
:func:`run_scenario` executes a compiled plan through the engine's
``Task`` fan-out: SHA-256 per-(label, index) seed streams, ambient
executor capture, and content-addressed
:class:`~repro.engine.store.ResultStore` entries keyed by the canonical
spec hash (:meth:`~repro.scenarios.spec.ScenarioSpec.spec_hash`), so a
scenario cached once is cached for every equivalent spelling.  The paper's
built-in artefacts (:func:`builtin_scenarios`) run exactly this way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.core.errors import ScenarioError
from repro.experiments.results import ExperimentResult, Series
from repro.experiments.runner import ExperimentScale
from repro.scenarios.kinds import get_measurement_kind
from repro.scenarios.measure import resolve_scale
from repro.scenarios.spec import (
    MEASUREMENT_AXIS_PREFIX,
    ScenarioSpec,
    label_fields,
    render_label,
    resolve_by_scale,
)

if TYPE_CHECKING:  # pragma: no cover - imported for signatures only
    from repro.engine.executor import Executor
    from repro.engine.progress import ProgressReporter
    from repro.engine.store import ResultStore

__all__ = [
    "SeriesPlan",
    "compile_scenario",
    "run_series_plan",
    "run_scenario",
    "run_scenario_cached",
    "scenario_cache_extra",
    "builtin_scenarios",
    "get_builtin_scenario",
]


def scenario_cache_extra(spec: ScenarioSpec) -> Dict[str, str]:
    """The store ``extra`` dict that keys a scenario's cache entries.

    One definition shared by :func:`run_scenario_cached` and the serve
    layer's warm-path lookup, so a result computed by either is a cache
    hit for the other (and for every equivalent spelling of the spec —
    the hash is canonical).
    """
    return {"scenario": spec.spec_hash()}


@dataclass(frozen=True)
class SeriesPlan:
    """One fully-resolved series: the compiler's output unit.

    Attributes
    ----------
    label:
        The rendered series label (drives the per-realization seed stream).
    kind:
        The measurement kind handling this plan.
    algorithm:
        Canonical search-algorithm name, for algorithmic kinds.
    ttl:
        Explicit TTL grid, or ``None`` for the scale's default grid.
    topology:
        Resolved construction parameters
        (``model``/``stubs``/``hard_cutoff``/``exponent``/``tau_sub``).
    params:
        Resolved kind-specific parameters.
    """

    label: str
    kind: str
    algorithm: Optional[str]
    ttl: Optional[Tuple[int, ...]]
    topology: Dict[str, Any]
    params: Dict[str, Any]


def compile_scenario(spec: ScenarioSpec, scale: ExperimentScale) -> List[SeriesPlan]:
    """Lower ``spec`` to its ordered series plans for one scale preset.

    Merge order for topology parameters (later wins): scenario defaults →
    panel overrides → sweep point → series overrides; every value is then
    resolved against the scale's preset name.
    """
    spec.validate()
    plans: List[SeriesPlan] = []
    base = spec.topology.as_params()
    for panel_index, panel in enumerate(spec.panels):
        points = panel.sweep.points(scale.name) if panel.sweep is not None else [{}]
        for point in points:
            # Split the sweep point: plain axes override topology fields,
            # ``params.*`` axes override measurement parameters.
            topology_point: Dict[str, Any] = {}
            param_point: Dict[str, Any] = {}
            for name, value in point.items():
                if name.startswith(MEASUREMENT_AXIS_PREFIX):
                    param_point[name[len(MEASUREMENT_AXIS_PREFIX):]] = value
                else:
                    topology_point[name] = value
            for template in panel.series:
                merged = dict(base)
                merged.update(panel.topology)
                merged.update(topology_point)
                merged.update(template.topology)
                topology = {
                    name: resolve_by_scale(value, scale.name)
                    for name, value in merged.items()
                }
                if topology.get("model") is None:
                    raise ScenarioError(
                        f"panel {panel_index}: no construction model in scope "
                        f"for series {template.label!r}; set topology.model "
                        "on the scenario, the panel, or a sweep axis"
                    )
                measurement = template.measurement
                ttl = resolve_by_scale(measurement.ttl, scale.name)
                if ttl is not None:
                    ttl = tuple(int(value) for value in ttl)
                merged_params = dict(measurement.params)
                merged_params.update(param_point)
                params = {
                    name: resolve_by_scale(value, scale.name)
                    for name, value in merged_params.items()
                }
                fields = label_fields(topology, measurement.algorithm)
                for name in param_point:
                    fields[name] = params[name]
                plans.append(
                    SeriesPlan(
                        label=render_label(template.label, fields),
                        kind=measurement.kind,
                        algorithm=measurement.algorithm,
                        ttl=ttl,
                        topology=topology,
                        params=params,
                    )
                )
    seen: Dict[str, int] = {}
    for plan in plans:
        seen[plan.label] = seen.get(plan.label, 0) + 1
    duplicates = sorted(label for label, count in seen.items() if count > 1)
    if duplicates:
        # Colliding labels would silently shadow each other in the result
        # AND draw from identical per-(label, index) seed streams.
        raise ScenarioError(
            f"scenario {spec.scenario_id!r} compiles to duplicate series "
            f"label(s) {', '.join(map(repr, duplicates))} at scale "
            f"{scale.name!r}; include every swept axis in the label "
            "template (e.g. '{kc}' for a hard_cutoff sweep)"
        )
    return plans


def run_series_plan(plan: SeriesPlan, scale: ExperimentScale) -> List[Series]:
    """Execute one compiled plan through its measurement kind."""
    return get_measurement_kind(plan.kind)(plan, scale)


def _run_plan_spanned(
    telemetry: Any, plan: SeriesPlan, scale: ExperimentScale
) -> List[Series]:
    """Run one plan inside a ``series`` span (attrs only when enabled)."""
    attrs = (
        {"label": plan.label, "kind": plan.kind} if telemetry.enabled else None
    )
    with telemetry.span("series", attrs):
        return run_series_plan(plan, scale)


def _run_plans(
    plans: List[SeriesPlan], scale: ExperimentScale
) -> List[List[Series]]:
    """Run every compiled plan, distributing them across the suite's workers.

    A scenario used to execute its series plans strictly one after another,
    so a multi-panel spec run under ``--jobs J`` serialized at every
    series boundary: each series fans its realization tasks into the shared
    process pool and then *barriers* on them, leaving workers idle whenever
    a series has fewer realizations than workers.  Here the plans
    themselves are spread over a thread pool (the realization tasks still
    execute in the shared process pool — threads only overlap the
    submit/collect phases), so one scenario's panels fill the pool
    together.

    Results are byte-identical to the serial order: every series draws
    from its own SHA-256 per-(label, index) seed stream, results come back
    per plan in submission order, and the list returned here is in plan
    order.  Each worker thread re-installs the ambient executor/progress,
    telemetry and span context captured from the caller (the ambient
    stacks are thread-local).
    """
    from repro.engine.executor import active_executor, active_progress, use_executor
    from repro.telemetry.collector import active_telemetry
    from repro.telemetry.trace import current_span_context, use_span_context

    executor = active_executor()
    telemetry = active_telemetry()
    jobs = int(getattr(executor, "jobs", 1) or 1)
    if jobs <= 1 or len(plans) <= 1:
        return [
            _run_plan_spanned(telemetry, plan, scale) for plan in plans
        ]

    from concurrent.futures import ThreadPoolExecutor

    from repro.telemetry.collector import use_telemetry

    progress = active_progress()
    # The collector is thread-safe; every plan thread records into the same
    # instance the caller installed (or the shared null collector).  The
    # span context is captured too, so a plan thread's ``series`` span
    # attaches under the caller's open ``scenario`` span.
    span_context = current_span_context()

    def run_one(plan: SeriesPlan) -> List[Series]:
        with use_executor(executor, progress), use_telemetry(telemetry), \
                use_span_context(span_context):
            return _run_plan_spanned(telemetry, plan, scale)

    with ThreadPoolExecutor(
        max_workers=min(len(plans), jobs),
        thread_name_prefix="repro-plan",
    ) as pool:
        return list(pool.map(run_one, plans))


def _compute_scenario(spec: ScenarioSpec, scale: ExperimentScale) -> ExperimentResult:
    """Compile and execute ``spec`` under the ambient executor.

    The whole computation runs inside a ``scenario`` span carrying the
    canonical spec hash and the resolved scale/seed — the middle layer of
    the serve → scenario → series → task trace tree.  The hash is only
    computed when telemetry is enabled (it costs a canonical-JSON SHA-256).
    """
    from repro.telemetry.collector import active_telemetry

    telemetry = active_telemetry()
    attrs = None
    if telemetry.enabled:
        attrs = {
            "spec_hash": spec.spec_hash(),
            "scenario": spec.scenario_id,
            "scale": scale.name,
            "seed": getattr(scale, "seed", None),
        }
    with telemetry.span("scenario", attrs):
        return _compute_scenario_inner(spec, scale)


def _compute_scenario_inner(
    spec: ScenarioSpec, scale: ExperimentScale
) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id=spec.scenario_id,
        title=spec.title,
        parameters=scale.as_dict(),
        notes=spec.notes,
    )
    seen_labels = set()
    plans = compile_scenario(spec, scale)
    for plan, series_list in zip(plans, _run_plans(plans, scale)):
        for series in series_list:
            # Composite kinds emit their own labels, which the compile-time
            # guard cannot see — collisions would silently shadow a curve.
            if series.label in seen_labels:
                raise ScenarioError(
                    f"scenario {spec.scenario_id!r}: measurement kind "
                    f"{plan.kind!r} produced a duplicate series label "
                    f"{series.label!r}"
                )
            seen_labels.add(series.label)
            result.add(series)
    return result


def run_scenario_cached(
    spec: ScenarioSpec,
    scale: Optional[ExperimentScale] = None,
    seed: Optional[int] = None,
    executor: "Optional[Executor]" = None,
    store: "Optional[ResultStore]" = None,
    progress: "Optional[ProgressReporter]" = None,
) -> "tuple[ExperimentResult, bool]":
    """Run a scenario on the engine; returns ``(result, from_cache)``.

    The one run path for built-in artefacts and user scenarios alike
    (``repro figure``/``run``/``suite``, :func:`repro.engine.run_suite`,
    ``repro serve``): the realization tasks fan out through ``executor``
    (results byte-identical to a serial run), and with a ``store`` the
    result is keyed by (scenario id, scale, :func:`scenario_cache_extra`)
    — so a re-run of any equivalent spelling of the spec is a cache hit,
    and an edited spec is not.
    """
    from repro.engine.executor import use_executor

    spec.validate()
    resolved = resolve_scale(scale, seed)
    if progress is not None:
        progress.experiment_started(spec.scenario_id)

    def compute() -> ExperimentResult:
        with use_executor(executor, progress):
            return _compute_scenario(spec, resolved)

    if store is not None:
        result, from_cache = store.fetch_or_run(
            spec.scenario_id,
            resolved,
            compute,
            extra=scenario_cache_extra(spec),
        )
    else:
        result, from_cache = compute(), False
    if progress is not None:
        progress.experiment_finished(spec.scenario_id, from_cache=from_cache)
    return result, from_cache


def run_scenario(
    spec: ScenarioSpec,
    scale: Optional[ExperimentScale] = None,
    seed: Optional[int] = None,
    executor: "Optional[Executor]" = None,
    store: "Optional[ResultStore]" = None,
    progress: "Optional[ProgressReporter]" = None,
) -> ExperimentResult:
    """Run a scenario spec end to end and return its result.

    Examples
    --------
    >>> from repro.scenarios import ScenarioSpec
    >>> from repro.experiments.runner import ExperimentScale
    >>> spec = ScenarioSpec.from_dict({
    ...     "id": "demo",
    ...     "title": "PA degree distribution",
    ...     "topology": {"model": "pa", "stubs": 2, "hard_cutoff": 10},
    ...     "label": "P(k) m={m}, {kc}",
    ...     "measurement": {"kind": "degree-distribution"},
    ... })
    >>> result = run_scenario(spec, scale=ExperimentScale.smoke())
    >>> result.labels()
    ['P(k) m=2, kc=10']
    """
    result, _ = run_scenario_cached(
        spec,
        scale=scale,
        seed=seed,
        executor=executor,
        store=store,
        progress=progress,
    )
    return result


# --------------------------------------------------------------------------- #
# Built-in scenarios
# --------------------------------------------------------------------------- #
def builtin_scenarios() -> Dict[str, ScenarioSpec]:
    """Return every built-in scenario, keyed by id, in paper order."""
    # Imported lazily: the figure modules themselves import this package.
    from repro.experiments.figures import ALL_FIGURE_MODULES

    return {module.SCENARIO.scenario_id: module.SCENARIO for module in ALL_FIGURE_MODULES}


def get_builtin_scenario(scenario_id: str) -> ScenarioSpec:
    """Return one built-in scenario by id, with an actionable error."""
    specs = builtin_scenarios()
    if scenario_id not in specs:
        raise ScenarioError(
            f"unknown scenario {scenario_id!r}; "
            f"built-ins: {', '.join(specs)}"
        )
    return specs[scenario_id]
