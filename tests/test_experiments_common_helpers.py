"""Unit tests for the shared figure-harness helpers (repro.scenarios.measure)."""

from __future__ import annotations

import pytest

from repro.experiments.runner import ExperimentScale
from repro.scenarios.measure import (
    HAPA_NONPAPER_NODE_CAP,
    build_graph_result,
    degree_distribution_series,
    exponent_vs_cutoff_series,
    messaging_series,
    resolve_scale,
    search_series,
)


@pytest.fixture(scope="module")
def scale():
    return ExperimentScale.smoke()


class TestResolveScale:
    def test_default_scale_is_small(self):
        assert resolve_scale(None, None).name == "small"

    def test_seed_override(self, scale):
        assert resolve_scale(scale, 123).seed == 123
        assert resolve_scale(scale, None).seed == scale.seed


class TestBuildGraph:
    @pytest.mark.parametrize("model", ["pa", "cm", "hapa", "dapa"])
    def test_every_model_builds(self, model, scale):
        graph = build_graph_result(model, scale, seed=1, stubs=1, hard_cutoff=10).graph
        assert graph.number_of_nodes > 0
        assert graph.max_degree() <= 10

    def test_search_size_differs_from_distribution_size(self, scale):
        distribution_graph = build_graph_result("pa", scale, seed=1, stubs=1).graph
        search_graph = build_graph_result("pa", scale, seed=1, stubs=1, for_search=True).graph
        assert distribution_graph.number_of_nodes == scale.nodes
        assert search_graph.number_of_nodes == scale.search_nodes

    def test_unknown_model_rejected(self, scale):
        with pytest.raises(ValueError):
            build_graph_result("chord", scale, seed=1)


class TestSeriesBuilders:
    def test_degree_distribution_series(self, scale):
        series = degree_distribution_series(
            "pa", label="P(k) m=1, kc=10", scale=scale, stubs=1, hard_cutoff=10
        )
        assert series.label.startswith("P(k)")
        assert abs(sum(series.y) - 1.0) < 1e-9
        assert max(series.x) <= 10
        assert series.metadata["model"] == "pa"

    def test_exponent_vs_cutoff_series(self, scale):
        series = exponent_vs_cutoff_series(
            "pa", label="gamma vs kc", scale=scale, stubs=2, cutoffs=[10, 40]
        )
        assert len(series.x) == len(series.y) <= 2
        assert all(1.0 < gamma < 5.0 for gamma in series.y)

    def test_flooding_series_monotone(self, scale):
        series = search_series("pa", "fl", scale, "fl", stubs=2, hard_cutoff=10)
        assert series.x == scale.flooding_ttl_grid()
        assert all(b >= a for a, b in zip(series.y, series.y[1:]))
        assert series.metadata["algorithm"] == "fl"

    def test_normalized_flooding_series(self, scale):
        series = search_series("pa", "nf", scale, "nf", stubs=2, hard_cutoff=10)
        assert series.x == scale.ttl_grid()
        assert series.metadata["algorithm"] == "nf"
        assert len(series.metadata["mean_messages"]) == len(series.x)

    def test_random_walk_series(self, scale):
        series = search_series("pa", "rw", scale, "rw", stubs=2, hard_cutoff=10)
        assert series.metadata["algorithm"] == "rw"
        assert all(value >= 0 for value in series.y)

    def test_messaging_series(self, scale):
        series = messaging_series(
            "pa", "nf msgs", scale, algorithm="nf", stubs=2, hard_cutoff=10
        )
        assert series.metadata["metric"] == "messages"
        assert all(b >= a for a, b in zip(series.y, series.y[1:]))

    def test_messaging_series_rejects_unknown_algorithm(self, scale):
        with pytest.raises(ValueError):
            messaging_series("pa", "x", scale, algorithm="dht")

    def test_series_reproducible(self, scale):
        a = search_series("pa", "same-label", scale, "fl", stubs=1, hard_cutoff=10)
        b = search_series("pa", "same-label", scale, "fl", stubs=1, hard_cutoff=10)
        assert a.y == b.y


class TestHapaNonPaperCap:
    """The HAPA size cap: distribution builds only, never search builds.

    The pre-scenario code spelled the cap as ``min(nodes, 2000 if not
    for_search else nodes)`` — a no-op for ``for_search=True`` that made the
    intent invisible.  These tests pin the now-explicit behaviour.
    """

    def _scale(self, name):
        return ExperimentScale(
            name=name, nodes=2300, search_nodes=2100, substrate_nodes=2300,
            realizations=1, queries=5,
        )

    def test_distribution_build_is_capped_below_paper_scale(self):
        graph = build_graph_result("hapa", self._scale("custom"), seed=3, stubs=1).graph
        assert graph.number_of_nodes == HAPA_NONPAPER_NODE_CAP == 2000

    def test_search_build_is_never_capped(self):
        graph = build_graph_result(
            "hapa", self._scale("custom"), seed=3, stubs=1, for_search=True
        ).graph
        assert graph.number_of_nodes == 2100

    def test_paper_scale_is_never_capped(self):
        graph = build_graph_result("hapa", self._scale("paper"), seed=3, stubs=1).graph
        assert graph.number_of_nodes == 2300
