"""Unit tests for the experiment-result comparison utility."""

from __future__ import annotations

import pytest

from repro.core.errors import ExperimentError
from repro.experiments.compare import compare_results
from repro.experiments.results import ExperimentResult, Series
from repro.scenarios import get_builtin_scenario, run_scenario


def make_result(experiment_id="figX", labels=("a", "b"), scale=1.0):
    result = ExperimentResult(experiment_id, "demo")
    for label in labels:
        result.add(Series(label, x=[1, 2, 3], y=[scale * 1.0, scale * 2.0, scale * 3.0]))
    return result


class TestCompareResults:
    def test_identical_results_have_zero_difference(self):
        report = compare_results(make_result(), make_result())
        assert report.all_within(0.0)
        assert report.only_in_first == []
        assert report.only_in_second == []
        assert report.worst().max_relative_difference == 0.0

    def test_relative_difference_computed(self):
        report = compare_results(make_result(scale=1.1), make_result(scale=1.0))
        assert report.worst().max_relative_difference == pytest.approx(0.1, abs=1e-9)
        assert report.all_within(0.2)
        assert not report.all_within(0.05)

    def test_missing_series_reported(self):
        first = make_result(labels=("a", "b", "extra"))
        second = make_result(labels=("a", "b", "other"))
        report = compare_results(first, second)
        assert report.only_in_first == ["extra"]
        assert report.only_in_second == ["other"]
        assert len(report.shared) == 2

    def test_partial_grid_overlap(self):
        first = ExperimentResult("figX", "t", [Series("s", [1, 2, 3], [1.0, 2.0, 3.0])])
        second = ExperimentResult("figX", "t", [Series("s", [2, 3, 4], [2.0, 3.0, 4.0])])
        comparison = compare_results(first, second).shared[0]
        assert comparison.points_compared == 2
        assert not comparison.identical_grid
        assert comparison.max_relative_difference == 0.0

    def test_disjoint_grids_rejected(self):
        first = ExperimentResult("figX", "t", [Series("s", [1], [1.0])])
        second = ExperimentResult("figX", "t", [Series("s", [9], [1.0])])
        with pytest.raises(ExperimentError):
            compare_results(first, second)

    def test_different_experiments_rejected(self):
        with pytest.raises(ExperimentError):
            compare_results(make_result("fig1"), make_result("fig2"))

    def test_summary_is_json_friendly(self):
        report = compare_results(make_result(scale=2.0), make_result())
        summary = report.summary()
        assert summary["experiment_id"] == "figX"
        assert summary["shared_series"] == 2
        assert summary["worst_label"] in ("a", "b")

    def test_same_seed_experiment_runs_are_identical(self, smoke_scale):
        """End-to-end determinism: two runs of the same experiment at the same
        seed produce byte-identical series."""
        first = run_scenario(get_builtin_scenario("natural_cutoff"), scale=smoke_scale)
        second = run_scenario(get_builtin_scenario("natural_cutoff"), scale=smoke_scale)
        report = compare_results(first, second)
        assert report.all_within(0.0)
