"""Byte-identity pins: old direct figure code vs. the scenario-spec path.

Every built-in figure/table/ablation used to be a hand-written ``run``
function looping over its parameter grid through shared series helpers.
Those modules are now :class:`~repro.scenarios.ScenarioSpec` instances
compiled by :mod:`repro.scenarios.compile`.  The tests here re-implement
each original loop (the "legacy path", calling the series builders of
:mod:`repro.scenarios.measure` and public library APIs directly) and
assert the spec path reproduces it **byte-for-byte** at smoke scale —
labels, values, metadata, series order, everything.

Cross-engine pins ride along: for every builtin the spec path is also
byte-identical between serial and ``--jobs 2`` execution.
"""

from __future__ import annotations

import json
import math

import pytest

from repro.analysis.cutoff import (
    empirical_cutoff,
    natural_cutoff_aiello,
    natural_cutoff_dorogovtsev,
)
from repro.analysis.paths import expected_diameter_class, path_length_statistics
from repro.analysis.robustness import attack_robustness, failure_robustness
from repro.engine.executor import ParallelExecutor
from repro.experiments.results import ExperimentResult, Series
from repro.experiments.runner import (
    ExperimentScale,
    average_curves,
    realization_seeds,
)
from repro.experiments.sweeps import format_label
from repro.generators.cm import generate_cm
from repro.generators.pa import generate_pa
from repro.generators.registry import GENERATORS
from repro.scenarios import builtin_scenarios, get_builtin_scenario, run_scenario
from repro.scenarios.measure import (
    degree_distribution_series,
    exponent_vs_cutoff_series,
    messaging_series,
    search_series,
)


def _payload(result: ExperimentResult) -> str:
    return json.dumps(result.as_dict(), sort_keys=True)


def _result(experiment_id, title, scale, notes="") -> ExperimentResult:
    return ExperimentResult(
        experiment_id=experiment_id, title=title,
        parameters=scale.as_dict(), notes=notes,
    )


# --------------------------------------------------------------------------- #
# Legacy implementations: the figure modules' original loops, verbatim
# (smoke-scale branches only — the pinned comparison runs at smoke scale).
# --------------------------------------------------------------------------- #
def legacy_fig1(scale):
    result = _result("fig1", "", scale)
    stubs_values = [1, 2]
    for stubs in stubs_values:
        result.add(degree_distribution_series(
            "pa", label=f"P(k) {format_label(m=stubs, kc=None)}",
            scale=scale, stubs=stubs, hard_cutoff=None))
    for stubs in stubs_values:
        for cutoff in [10, 40]:
            result.add(degree_distribution_series(
                "pa", label=f"P(k) {format_label(m=stubs, kc=cutoff)}",
                scale=scale, stubs=stubs, hard_cutoff=cutoff))
    for stubs in stubs_values:
        result.add(exponent_vs_cutoff_series(
            "pa", label=f"gamma vs kc m={stubs}", scale=scale, stubs=stubs,
            cutoffs=[10, 30, 50]))
    return result


def legacy_fig2(scale):
    result = _result("fig2", "", scale)
    for exponent in (2.2, 3.0):
        for stubs in [1, 3]:
            for cutoff in [10, None]:
                result.add(degree_distribution_series(
                    "cm",
                    label=f"gamma={exponent}, {format_label(m=stubs, kc=cutoff)}",
                    scale=scale, stubs=stubs, hard_cutoff=cutoff,
                    exponent=exponent))
    return result


def legacy_fig3(scale):
    result = _result("fig3", "", scale)
    for stubs in [1]:
        for cutoff in [None, 10]:
            result.add(degree_distribution_series(
                "hapa", label=f"P(k) {format_label(m=stubs, kc=cutoff)}",
                scale=scale, stubs=stubs, hard_cutoff=cutoff))
    return result


def legacy_fig4(scale):
    result = _result("fig4", "", scale)
    for stubs in [1]:
        for cutoff in [10, None]:
            for tau_sub in [2, 4]:
                result.add(degree_distribution_series(
                    "dapa",
                    label=(f"P(k) {format_label(m=stubs, kc=cutoff)}, "
                           f"tau_sub={tau_sub}"),
                    scale=scale, stubs=stubs, hard_cutoff=cutoff,
                    tau_sub=tau_sub))
    for stubs in [1]:
        result.add(exponent_vs_cutoff_series(
            "dapa", label=f"gamma vs kc m={stubs}", scale=scale, stubs=stubs,
            cutoffs=[10, 40], tau_sub=4))
    return result


def legacy_fig6(scale):
    result = _result("fig6", "", scale)
    for model in ("pa", "hapa"):
        for stubs in [1, 3]:
            for cutoff in [10, None]:
                result.add(search_series(
                    model, label=f"{model} {format_label(m=stubs, kc=cutoff)}",
                    scale=scale, algorithm="fl", stubs=stubs, hard_cutoff=cutoff))
    return result


def legacy_fig7(scale):
    result = _result("fig7", "", scale)
    for exponent in (2.2, 3.0):
        for stubs in [1, 2]:
            for cutoff in [10, None]:
                result.add(search_series(
                    "cm",
                    label=f"gamma={exponent}, {format_label(m=stubs, kc=cutoff)}",
                    scale=scale, algorithm="fl", stubs=stubs, hard_cutoff=cutoff,
                    exponent=exponent))
    return result


def legacy_fig8(scale):
    result = _result("fig8", "", scale)
    for stubs in [1]:
        for cutoff in [10, None]:
            for tau_sub in [2, 4]:
                result.add(search_series(
                    "dapa",
                    label=f"{format_label(m=stubs, kc=cutoff)}, tau_sub={tau_sub}",
                    scale=scale, algorithm="fl", stubs=stubs, hard_cutoff=cutoff,
                    tau_sub=tau_sub))
    return result


def _legacy_global_models(result, scale, algorithm):
    for model in ("pa", "cm", "hapa"):
        for stubs in [1, 2]:
            for cutoff in [10, None]:
                result.add(search_series(
                    model, label=f"{model} {format_label(m=stubs, kc=cutoff)}",
                    scale=scale, algorithm=algorithm, stubs=stubs, hard_cutoff=cutoff,
                    exponent=2.2 if model == "cm" else 3.0))
    return result


def legacy_fig9(scale):
    return _legacy_global_models(
        _result("fig9", "", scale), scale, "nf")


def legacy_fig10(scale):
    result = _result("fig10", "", scale)
    for stubs in [1]:
        for cutoff in [10, None]:
            for tau_sub in [2, 4]:
                result.add(search_series(
                    "dapa",
                    label=f"{format_label(m=stubs, kc=cutoff)}, tau_sub={tau_sub}",
                    scale=scale, algorithm="nf", stubs=stubs, hard_cutoff=cutoff,
                    tau_sub=tau_sub))
    return result


def legacy_fig11(scale):
    return _legacy_global_models(
        _result("fig11", "", scale), scale, "rw")


def legacy_fig12(scale):
    result = _result("fig12", "", scale)
    for stubs in [1]:
        for cutoff in [10, None]:
            for tau_sub in [2, 4]:
                result.add(search_series(
                    "dapa",
                    label=f"{format_label(m=stubs, kc=cutoff)}, tau_sub={tau_sub}",
                    scale=scale, algorithm="rw", stubs=stubs, hard_cutoff=cutoff,
                    tau_sub=tau_sub))
    return result


def legacy_messaging(scale):
    result = _result("messaging", "", scale)
    for stubs in [1, 2]:
        for cutoff in [10, None]:
            label_suffix = format_label(m=stubs, kc=cutoff)
            result.add(messaging_series(
                "pa", label=f"nf messages {label_suffix}", scale=scale,
                algorithm="nf", stubs=stubs, hard_cutoff=cutoff))
            result.add(search_series(
                "pa", label=f"nf hits {label_suffix}", scale=scale,
                algorithm="nf", stubs=stubs, hard_cutoff=cutoff))
            result.add(search_series(
                "pa", label=f"rw hits {label_suffix}", scale=scale,
                algorithm="rw", stubs=stubs, hard_cutoff=cutoff))
    return result


def legacy_table1(scale):
    result = _result("table1", "", scale)
    rows = [
        ("cm gamma=2.5 m=2", "cm", 2.5, 2),
        ("pa gamma=3 m=2", "pa", 3.0, 2),
        ("pa gamma=3 m=1 (tree)", "pa", 3.0, 1),
        ("cm gamma=3.5 m=2", "cm", 3.5, 2),
    ]
    sizes = [200, 400]
    for label, model, exponent, stubs in rows:
        averages = []
        for size in sizes:
            per_realization = []
            for realization_seed in realization_seeds(scale, f"{label}:{size}"):
                if model == "pa":
                    graph = generate_pa(size, stubs=stubs, seed=realization_seed)
                else:
                    graph = generate_cm(size, exponent=exponent, min_degree=stubs,
                                        hard_cutoff=None, seed=realization_seed)
                per_realization.append(path_length_statistics(
                    graph, sample_size=min(size, 200), rng=realization_seed + 1
                ).average)
            averages.append(sum(per_realization) / len(per_realization))
        result.add(Series(
            label=label, x=list(sizes), y=averages,
            metadata={
                "model": model, "exponent": exponent, "stubs": stubs,
                "expected_class": expected_diameter_class(exponent, stubs),
                "ln_n": [math.log(size) for size in sizes],
                "lnln_n": [math.log(math.log(size)) for size in sizes],
            }))
    return result


def legacy_table2(scale):
    result = _result("table2", "", scale)
    expected = {"pa": "yes", "cm": "yes", "hapa": "partial", "dapa": "no"}
    score = {"yes": 2, "partial": 1, "no": 0}
    paper_models = [name for name in sorted(GENERATORS) if name in expected]
    for index, name in enumerate(paper_models):
        classification = GENERATORS[name].uses_global_information
        result.add(Series(
            label=name, x=[index], y=[score.get(classification, -1)],
            metadata={
                "classification": classification,
                "expected": expected[name],
                "matches_paper": expected[name] == classification,
            }))
    return result


def legacy_natural_cutoff(scale):
    result = _result("natural_cutoff", "", scale)
    sizes = [200, 800]
    for stubs in [1]:
        measured = []
        for size in sizes:
            per_realization = []
            for realization_seed in realization_seeds(scale, f"m{stubs}-N{size}"):
                graph = generate_pa(size, stubs=stubs, hard_cutoff=None,
                                    seed=realization_seed)
                per_realization.append(empirical_cutoff(graph))
            measured.append(sum(per_realization) / len(per_realization))
        result.add(Series(label=f"measured kmax m={stubs}", x=list(sizes),
                          y=measured, metadata={"stubs": stubs}))
        result.add(Series(
            label=f"dorogovtsev m={stubs} (m*sqrt(N))", x=list(sizes),
            y=[natural_cutoff_dorogovtsev(size, 3.0, stubs) for size in sizes],
            metadata={"stubs": stubs, "analytical": True}))
        result.add(Series(
            label=f"aiello m={stubs} (N^(1/3))", x=list(sizes),
            y=[natural_cutoff_aiello(size, 3.0) for size in sizes],
            metadata={"stubs": stubs, "analytical": True}))
    return result


def legacy_ablation_min_degree(scale):
    result = _result("ablation_min_degree", "", scale)
    stubs_values = [1, 2]
    reference_ttl = min(6, scale.flooding_max_ttl)
    penalties = []
    for stubs in stubs_values:
        unbounded = search_series(
            "pa", label=f"m={stubs}, no kc", scale=scale, algorithm="fl",
            stubs=stubs, hard_cutoff=None)
        bounded = search_series(
            "pa", label=f"m={stubs}, kc=10", scale=scale, algorithm="fl",
            stubs=stubs, hard_cutoff=10)
        result.add(unbounded)
        result.add(bounded)
        hits_unbounded = unbounded.y_at(reference_ttl)
        hits_bounded = max(1.0, float(bounded.y_at(reference_ttl)))
        penalties.append(float(hits_unbounded) / hits_bounded)
    result.add(Series(
        label="cutoff penalty ratio (no kc / kc=10)", x=list(stubs_values),
        y=penalties, metadata={"reference_ttl": reference_ttl}))
    return result


def legacy_ablation_robustness(scale):
    result = _result("ablation_robustness", "", scale)
    nodes = min(scale.search_nodes, 1500)
    steps, max_removed = 6, 0.3
    for cutoff in (None, 10):
        for strategy_name, runner in (("failure", failure_robustness),
                                      ("attack", attack_robustness)):
            curves, x_values = [], None
            for realization_seed in realization_seeds(
                scale, f"{strategy_name}-{cutoff}"
            ):
                graph = generate_pa(nodes, stubs=2, hard_cutoff=cutoff,
                                    seed=realization_seed)
                if strategy_name == "failure":
                    removal = runner(graph, max_removed_fraction=max_removed,
                                     steps=steps, rng=realization_seed + 13)
                else:
                    removal = runner(graph, max_removed_fraction=max_removed,
                                     steps=steps)
                curves.append(removal.giant_component_fractions)
                x_values = removal.removed_fractions
            result.add(Series(
                label=f"{strategy_name}, {format_label(kc=cutoff)}",
                x=[float(value) for value in (x_values or [])],
                y=average_curves(curves),
                metadata={"strategy": strategy_name, "hard_cutoff": cutoff,
                          "nodes": nodes}))
    return result


LEGACY_RUNNERS = {
    "fig1": legacy_fig1,
    "fig2": legacy_fig2,
    "fig3": legacy_fig3,
    "fig4": legacy_fig4,
    "table1": legacy_table1,
    "table2": legacy_table2,
    "fig6": legacy_fig6,
    "fig7": legacy_fig7,
    "fig8": legacy_fig8,
    "fig9": legacy_fig9,
    "fig10": legacy_fig10,
    "fig11": legacy_fig11,
    "fig12": legacy_fig12,
    "messaging": legacy_messaging,
    "natural_cutoff": legacy_natural_cutoff,
    "ablation_min_degree": legacy_ablation_min_degree,
    "ablation_robustness": legacy_ablation_robustness,
}


def test_every_builtin_is_a_scenario_spec():
    assert set(builtin_scenarios()) == set(LEGACY_RUNNERS)


@pytest.mark.parametrize("experiment_id", sorted(LEGACY_RUNNERS))
def test_spec_path_matches_legacy_path_byte_for_byte(experiment_id, smoke_scale):
    legacy = LEGACY_RUNNERS[experiment_id](smoke_scale)
    via_spec = run_scenario(get_builtin_scenario(experiment_id), scale=smoke_scale)
    # Titles/notes live in the spec now; the numeric payload is the pin.
    legacy.title, legacy.notes = via_spec.title, via_spec.notes
    assert _payload(legacy) == _payload(via_spec)


@pytest.mark.parametrize("experiment_id", ["fig6", "fig9"])
def test_spec_path_crosses_real_process_boundaries(experiment_id):
    """Genuine worker-pool identity: smoke uses ``realizations=1`` (single-
    task batches degrade to in-process execution), so this pin uses two
    realizations to actually pickle scenario tasks into worker processes."""
    import dataclasses

    scale = dataclasses.replace(ExperimentScale.smoke(), realizations=2)
    spec = builtin_scenarios()[experiment_id]
    serial = run_scenario(spec, scale=scale)
    with ParallelExecutor(jobs=2) as pool:
        parallel = run_scenario(spec, scale=scale, executor=pool)
    assert _payload(serial) == _payload(parallel)


@pytest.mark.parametrize("experiment_id", sorted(LEGACY_RUNNERS))
def test_spec_path_serial_parallel_identity(experiment_id, smoke_scale):
    """Spec-path results are byte-identical across executors.

    Together with the legacy-path pin above (serial), this closes the
    square for every builtin: old direct path == spec path under serial and
    ``--jobs 2`` execution.  The frozen-search vs. ``Graph``-reference pin
    lives in ``tests/test_backend_equivalence.py``.
    """
    spec = builtin_scenarios()[experiment_id]
    serial = run_scenario(spec, scale=smoke_scale)
    with ParallelExecutor(jobs=2) as pool:
        parallel = run_scenario(spec, scale=smoke_scale, executor=pool)
    assert _payload(serial) == _payload(parallel)
