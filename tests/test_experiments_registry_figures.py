"""Smoke tests for the built-in scenario registry and every figure module.

Each experiment runs at the ``smoke`` scale and is checked for structural
sanity (non-empty series, the labels the paper's panels need).  The deeper
"does the trend match the paper" checks live in
``test_integration_paper_trends.py``; these tests make sure every harness
module at least executes end to end.
"""

from __future__ import annotations

import pytest

from repro.core.errors import ExperimentError
from repro.experiments.results import ExperimentResult
from repro.scenarios import builtin_scenarios, get_builtin_scenario, run_scenario

ALL_EXPERIMENTS = [
    "fig1",
    "fig2",
    "fig3",
    "fig4",
    "table1",
    "table2",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "messaging",
    "natural_cutoff",
    "ablation_min_degree",
    "ablation_robustness",
]


class TestRegistry:
    def test_all_paper_artefacts_registered(self):
        assert set(builtin_scenarios()) == set(ALL_EXPERIMENTS)

    def test_titles_available(self):
        specs = builtin_scenarios()
        assert all(specs[exp_id].title for exp_id in ALL_EXPERIMENTS)

    def test_unknown_experiment(self):
        with pytest.raises(ExperimentError):
            get_builtin_scenario("fig99")

    def test_run_scenario_returns_result(self, smoke_scale):
        result = run_scenario(get_builtin_scenario("table2"), scale=smoke_scale)
        assert isinstance(result, ExperimentResult)


@pytest.mark.parametrize("experiment_id", ALL_EXPERIMENTS)
def test_experiment_runs_at_smoke_scale(experiment_id, smoke_scale):
    result = run_scenario(get_builtin_scenario(experiment_id), scale=smoke_scale)
    assert result.experiment_id == experiment_id
    assert result.series, f"{experiment_id} produced no series"
    assert result.parameters["name"] == "smoke"
    for series in result.series:
        assert len(series.x) == len(series.y)
        assert series.label


class TestSpecificStructure:
    def test_table2_matches_paper_classification(self, smoke_scale):
        result = run_scenario(get_builtin_scenario("table2"), scale=smoke_scale)
        for series in result.series:
            assert series.metadata["matches_paper"] is True

    def test_fig1_contains_exponent_sweep(self, smoke_scale):
        result = run_scenario(get_builtin_scenario("fig1"), scale=smoke_scale)
        sweep_labels = [label for label in result.labels() if label.startswith("gamma vs kc")]
        assert sweep_labels
        for label in sweep_labels:
            series = result.get(label)
            assert all(1.0 < value < 4.5 for value in series.y)

    def test_fig3_no_cutoff_series_has_super_hub(self, smoke_scale):
        result = run_scenario(get_builtin_scenario("fig3"), scale=smoke_scale)
        no_cutoff = [
            result.get(label) for label in result.labels() if "no kc" in label
        ]
        assert no_cutoff
        # The maximum degree recorded in metadata should be a large fraction
        # of the (smoke-scale) network size.
        assert any(series.metadata["max_degree"] > 100 for series in no_cutoff)

    def test_natural_cutoff_measured_grows_with_n(self, smoke_scale):
        result = run_scenario(get_builtin_scenario("natural_cutoff"), scale=smoke_scale)
        measured = result.get("measured kmax m=1")
        assert measured.y[-1] > measured.y[0]

    def test_ablation_min_degree_has_ratio_series(self, smoke_scale):
        result = run_scenario(get_builtin_scenario("ablation_min_degree"), scale=smoke_scale)
        ratio = result.get("cutoff penalty ratio (no kc / kc=10)")
        assert all(value > 0 for value in ratio.y)

    def test_results_are_json_serialisable(self, smoke_scale, tmp_path):
        result = run_scenario(get_builtin_scenario("table1"), scale=smoke_scale)
        path = result.save_json(tmp_path / "table1.json")
        loaded = ExperimentResult.load_json(path)
        assert loaded.labels() == result.labels()
