"""Engine-facing measurement primitives for the scenario layer.

This module owns the "generate R realizations, measure each, average"
mechanics that every scenario series shares: the picklable
:class:`RealizationSpec` task unit, the module-level task bodies the
engine's process pools can import, and the series builders the scenario
compiler calls.

Determinism contract — identical to the pre-scenario figure harness:

* realization ``index`` of a series labelled ``label`` is seeded from the
  SHA-256-mixed per-(label, index) stream of
  :func:`repro.experiments.runner.realization_seeds` (search series mix the
  canonical algorithm name into the label, ``f"{algorithm}:{label}"``);
* tasks fan out through the ambient executor and come back in submission
  order, so parallel runs are byte-identical to serial ones;
* every search realization is measured on its frozen
  :class:`~repro.core.csr.CSRGraph` snapshot, which searches
  byte-identically to the mutable :class:`~repro.core.graph.Graph`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.analysis.degree_distribution import degree_distribution
from repro.analysis.powerlaw import fit_power_law
from repro.core.config import GRNConfig
from repro.core.csr import CSRGraph
from repro.core.errors import AnalysisError
from repro.core.graph import Graph
from repro.engine.executor import active_executor, active_progress
from repro.engine.tasks import Task
from repro.experiments.results import Series
from repro.experiments.runner import ExperimentScale, realization_seeds
from repro.generators.base import GenerationResult
from repro.generators.cm import ConfigurationModelGenerator
from repro.generators.dapa import DAPAGenerator
from repro.generators.hapa import HAPAGenerator
from repro.generators.pa import PreferentialAttachmentGenerator
from repro.scenarios.spec import canonical_algorithm
from repro.search.metrics import (
    SearchCurve,
    average_search_curve,
    normalized_walk_curve,
    search_curve,
)
from repro.search.registry import create_search_algorithm
from repro.telemetry.collector import active_telemetry

__all__ = [
    "HAPA_NONPAPER_NODE_CAP",
    "RealizationSpec",
    "resolve_scale",
    "build_graph_result",
    "degree_distribution_series",
    "exponent_vs_cutoff_series",
    "search_series",
    "messaging_series",
    "averaged_search_curve",
    "default_ttl_grid",
]

#: HAPA with a small cutoff is the most expensive growth model (the
#: acceptance probability is bounded by ``kc / k_total``), so
#: degree-distribution builds outside the ``paper`` preset are capped at
#: this size to keep the harness interactive.  Search builds are *not*
#: capped: every preset's ``search_nodes`` is already far below the cap.
HAPA_NONPAPER_NODE_CAP = 2000


def resolve_scale(scale: Optional[ExperimentScale], seed: Optional[int]) -> ExperimentScale:
    """Default to the 'small' preset; apply a seed override when given."""
    resolved = scale if scale is not None else ExperimentScale.small()
    if seed is not None:
        resolved = resolved.with_seed(seed)
    return resolved


# --------------------------------------------------------------------------- #
# Topology construction
# --------------------------------------------------------------------------- #
def build_graph_result(
    model: str,
    scale: ExperimentScale,
    seed: int,
    stubs: int = 1,
    hard_cutoff: Optional[int] = None,
    exponent: float = 3.0,
    tau_sub: int = 4,
    for_search: bool = False,
) -> GenerationResult:
    """Build one realization of ``model``, keeping the generator's metadata.

    ``for_search`` selects the (smaller) search network size the paper uses
    for Figs. 6–12 instead of the degree-distribution size of Figs. 1–4.
    The metadata (``unfilled_stubs``, ``nodes_below_min_degree``, ...) is
    what the degree-distribution series surface in figure outputs so silent
    model violations stay visible.
    """
    nodes = scale.search_nodes if for_search else scale.nodes
    if model == "pa":
        generator: Any = PreferentialAttachmentGenerator(
            nodes, stubs=stubs, hard_cutoff=hard_cutoff, seed=seed
        )
    elif model == "cm":
        generator = ConfigurationModelGenerator(
            nodes,
            exponent=exponent,
            min_degree=stubs,
            hard_cutoff=hard_cutoff,
            seed=seed,
        )
    elif model == "hapa":
        if scale.name != "paper" and not for_search:
            nodes = min(nodes, HAPA_NONPAPER_NODE_CAP)
        generator = HAPAGenerator(
            nodes, stubs=stubs, hard_cutoff=hard_cutoff, seed=seed
        )
    elif model == "dapa":
        overlay = scale.search_nodes if for_search else min(scale.nodes, scale.substrate_nodes // 2)
        substrate = GRNConfig(
            number_of_nodes=max(scale.substrate_nodes, 2 * overlay),
            target_mean_degree=10.0,
            dimensions=2,
            seed=seed,
        )
        generator = DAPAGenerator(
            overlay_size=overlay,
            stubs=stubs,
            hard_cutoff=hard_cutoff,
            local_ttl=tau_sub,
            substrate_config=substrate,
            seed=seed,
        )
    else:
        raise ValueError(f"unknown model {model!r}")
    return generator.generate()


# --------------------------------------------------------------------------- #
# Realization tasks (picklable units the engine's executors can distribute)
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class RealizationSpec:
    """Everything needed to rebuild one topology realization in any process."""

    model: str
    scale: ExperimentScale
    seed: int
    stubs: int = 1
    hard_cutoff: Optional[int] = None
    exponent: float = 3.0
    tau_sub: int = 4
    for_search: bool = False

    def build_result(self) -> GenerationResult:
        """Build one realization, keeping the generator's metadata."""
        return build_graph_result(
            self.model,
            self.scale,
            self.seed,
            stubs=self.stubs,
            hard_cutoff=self.hard_cutoff,
            exponent=self.exponent,
            tau_sub=self.tau_sub,
            for_search=self.for_search,
        )

    def build(self) -> Graph:
        return self.build_result().graph

    def build_for_measurement(self) -> CSRGraph:
        """Build the topology and freeze it: generate mutable, search frozen.

        Every model here is bulk-built (PA, CM, HAPA and DAPA hand
        ordered edge arrays to ``Graph.from_edge_array``), so the
        graph carries its CSR arrays already and its freeze is free; an
        ``add_edge``-built graph would be snapshotted in one pass.  The
        ``freeze`` span's attributes say which: ``nodes``, ``edges`` and
        ``cached``, true when the bulk build's snapshot came back.
        """
        graph = self.build()
        telemetry = active_telemetry()
        attrs: Optional[Dict[str, Any]] = {} if telemetry.enabled else None
        with telemetry.span("freeze", attrs):
            frozen = graph.freeze()
            if attrs is not None:
                attrs["nodes"] = frozen.number_of_nodes
                attrs["edges"] = frozen.number_of_edges
                attrs["cached"] = graph.has_snapshot
        return frozen


#: Generator-metadata counters surfaced (summed over realizations) in the
#: degree-distribution series, so silent model violations — unfilled stubs,
#: nodes below the prescribed minimum degree — are visible in figure
#: outputs instead of vanishing with the worker process.
_GENERATION_COUNTERS = (
    "unfilled_stubs",
    "min_degree_violations",
    "nodes_below_min_degree",
    "isolated_nodes",
)


def _realize_degree_sequence(spec: RealizationSpec) -> Dict[str, Any]:
    """Task body: one realization's degree sequence (Figs. 1–4 and sweeps).

    Returns the degrees together with the generator's health counters; the
    series builder pools the former and aggregates the latter.
    """
    result = spec.build_result()
    generation: Dict[str, Any] = {
        name: int(result.metadata[name])
        for name in _GENERATION_COUNTERS
        if name in result.metadata
    }
    if "reached_target" in result.metadata:
        generation["reached_target"] = bool(result.metadata["reached_target"])
    return {
        "degrees": list(result.graph.degree_sequence()),
        "generation": generation,
    }


def _realize_search_curve(
    spec: RealizationSpec,
    algorithm: str,
    ttl_values: Tuple[int, ...],
    params: Tuple[Tuple[str, object], ...] = (),
) -> SearchCurve:
    """Task body: one realization's search curve (Figs. 6–12, messaging).

    ``algorithm`` is a canonical registry name; RW uses the paper's
    NF-message normalization, every other algorithm (FL, NF, PF, plugins)
    is instantiated through the search registry.  NF-family algorithms
    default their ``k_min`` to the topology's stub count.
    """
    queries = spec.scale.queries
    query_rng = spec.seed + 977
    extra = dict(params)
    graph = spec.build_for_measurement()
    if algorithm == "rw":
        extra.setdefault("k_min", spec.stubs)
        return normalized_walk_curve(
            graph, ttl_values, queries=queries, rng=query_rng, **extra
        )
    if algorithm == "nf":
        extra.setdefault("k_min", spec.stubs)
    searcher = create_search_algorithm(algorithm, **extra)
    return search_curve(
        graph, searcher, ttl_values, queries=queries, rng=query_rng
    )


def _degree_sequence_rows(
    model: str,
    label: str,
    scale: ExperimentScale,
    stubs: int,
    hard_cutoff: Optional[int],
    exponent: float,
    tau_sub: int,
) -> List[Dict[str, Any]]:
    """One degree sequence (+ generation counters) per realization."""
    tasks = [
        Task(
            fn=_realize_degree_sequence,
            args=(
                RealizationSpec(
                    model=model,
                    scale=scale,
                    seed=seed,
                    stubs=stubs,
                    hard_cutoff=hard_cutoff,
                    exponent=exponent,
                    tau_sub=tau_sub,
                ),
            ),
            key=f"degrees:{label}[{index}]",
        )
        for index, seed in enumerate(realization_seeds(scale, label))
    ]
    return active_executor().run(tasks, active_progress())


def _pool_degree_rows(
    rows: Sequence[Dict[str, Any]],
) -> "tuple[List[int], Dict[str, Any]]":
    """Pool per-realization degrees; sum the generation counters across rows."""
    pooled: List[int] = []
    generation: Dict[str, Any] = {}
    for row in rows:
        pooled.extend(row["degrees"])
        for name, value in row["generation"].items():
            if isinstance(value, bool):
                generation[name] = generation.get(name, True) and value
            else:
                generation[name] = generation.get(name, 0) + value
    return pooled, generation


# --------------------------------------------------------------------------- #
# Degree-distribution series (Figs. 1–4)
# --------------------------------------------------------------------------- #
def degree_distribution_series(
    model: str,
    label: str,
    scale: ExperimentScale,
    stubs: int = 1,
    hard_cutoff: Optional[int] = None,
    exponent: float = 3.0,
    tau_sub: int = 4,
) -> Series:
    """P(k) for one parameter combination, pooled over all realizations."""
    pooled_degrees, generation = _pool_degree_rows(
        _degree_sequence_rows(
            model, label, scale, stubs, hard_cutoff, exponent, tau_sub
        )
    )
    distribution = degree_distribution(pooled_degrees)
    return Series(
        label=label,
        x=[int(k) for k in distribution],
        y=[float(p) for p in distribution.values()],
        metadata={
            "model": model,
            "stubs": stubs,
            "hard_cutoff": hard_cutoff,
            "exponent": exponent,
            "tau_sub": tau_sub,
            "realizations": scale.realizations,
            "max_degree": max(pooled_degrees) if pooled_degrees else 0,
            "generation": generation,
        },
    )


def exponent_vs_cutoff_series(
    model: str,
    label: str,
    scale: ExperimentScale,
    stubs: int,
    cutoffs: Sequence[int],
    tau_sub: int = 10,
    exponent: float = 3.0,
) -> Series:
    """Fitted γ as a function of the hard cutoff (Figs. 1c and 4g).

    ``exponent`` is the prescribed exponent for CM topologies (the models
    the paper sweeps here — PA and DAPA — ignore it; the historical
    default of 3.0 is preserved for them).
    """
    exponents: List[float] = []
    used_cutoffs: List[int] = []
    for cutoff in cutoffs:
        pooled, _generation = _pool_degree_rows(
            _degree_sequence_rows(
                model, f"{label}-kc{cutoff}", scale, stubs, cutoff, exponent, tau_sub
            )
        )
        try:
            fit = fit_power_law(
                pooled, k_min=max(1, stubs), exclude_cutoff_spike=True
            )
        except AnalysisError:
            continue
        used_cutoffs.append(int(cutoff))
        exponents.append(fit.exponent)
    return Series(
        label=label,
        x=used_cutoffs,
        y=exponents,
        metadata={"model": model, "stubs": stubs, "tau_sub": tau_sub},
    )


# --------------------------------------------------------------------------- #
# Search series (Figs. 6–12, messaging)
# --------------------------------------------------------------------------- #
def default_ttl_grid(scale: ExperimentScale, algorithm: str) -> List[int]:
    """The scale's TTL grid for one algorithm (FL gets the deeper grid)."""
    return scale.flooding_ttl_grid() if algorithm == "fl" else scale.ttl_grid()


def averaged_search_curve(
    model: str,
    scale: ExperimentScale,
    label: str,
    algorithm: str,
    ttl_values: Sequence[int],
    stubs: int,
    hard_cutoff: Optional[int],
    exponent: float,
    tau_sub: int,
    algorithm_params: Optional[Dict[str, object]] = None,
) -> SearchCurve:
    """One realization-averaged search curve, fanned through the executor."""
    algorithm = canonical_algorithm(algorithm)
    params = tuple(sorted((algorithm_params or {}).items()))
    tasks = [
        Task(
            fn=_realize_search_curve,
            args=(
                RealizationSpec(
                    model=model,
                    scale=scale,
                    seed=seed,
                    stubs=stubs,
                    hard_cutoff=hard_cutoff,
                    exponent=exponent,
                    tau_sub=tau_sub,
                    for_search=True,
                ),
                algorithm,
                tuple(int(value) for value in ttl_values),
                params,
            ),
            key=f"{algorithm}:{label}[{index}]",
        )
        for index, seed in enumerate(realization_seeds(scale, f"{algorithm}:{label}"))
    ]
    curves: List[SearchCurve] = active_executor().run(tasks, active_progress())
    return average_search_curve(curves)


def search_series(
    model: str,
    label: str,
    scale: ExperimentScale,
    algorithm: str,
    stubs: int = 1,
    hard_cutoff: Optional[int] = None,
    exponent: float = 3.0,
    tau_sub: int = 4,
    ttl_values: Optional[Sequence[int]] = None,
    algorithm_params: Optional[Dict[str, object]] = None,
) -> Series:
    """Hits-vs-τ series for one parameter combination and one algorithm."""
    algorithm = canonical_algorithm(algorithm)
    curve = averaged_search_curve(
        model,
        scale,
        label,
        algorithm,
        ttl_values if ttl_values is not None else default_ttl_grid(scale, algorithm),
        stubs,
        hard_cutoff,
        exponent,
        tau_sub,
        algorithm_params=algorithm_params,
    )
    return Series(
        label=label,
        x=list(curve.ttl_values),
        y=list(curve.mean_hits),
        metadata={
            "model": model,
            "algorithm": curve.algorithm,
            "stubs": stubs,
            "hard_cutoff": hard_cutoff,
            "exponent": exponent,
            "tau_sub": tau_sub,
            "mean_messages": list(curve.mean_messages),
            "queries": curve.queries,
        },
    )


def messaging_series(
    model: str,
    label: str,
    scale: ExperimentScale,
    algorithm: str,
    stubs: int = 2,
    hard_cutoff: Optional[int] = None,
    exponent: float = 3.0,
    tau_sub: int = 4,
    ttl_values: Optional[Sequence[int]] = None,
    algorithm_params: Optional[Dict[str, object]] = None,
) -> Series:
    """Messages-per-query vs τ for one algorithm (the §V-B-2 messaging study)."""
    algorithm = canonical_algorithm(algorithm)
    curve = averaged_search_curve(
        model,
        scale,
        label,
        algorithm,
        ttl_values if ttl_values is not None else scale.ttl_grid(),
        stubs,
        hard_cutoff,
        exponent,
        tau_sub,
        algorithm_params=algorithm_params,
    )
    return Series(
        label=label,
        x=list(curve.ttl_values),
        y=list(curve.mean_messages),
        metadata={
            "model": model,
            "algorithm": algorithm,
            "stubs": stubs,
            "hard_cutoff": hard_cutoff,
            "metric": "messages",
        },
    )
