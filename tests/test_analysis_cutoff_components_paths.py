"""Unit tests for natural cutoffs, connected components, and path statistics."""

from __future__ import annotations

import pytest

from repro.analysis.components import (
    component_of,
    connected_components,
    giant_component,
    giant_component_fraction,
    is_connected,
)
from repro.analysis.cutoff import (
    empirical_cutoff,
    natural_cutoff_aiello,
    natural_cutoff_dorogovtsev,
    natural_cutoff_pa,
)
from repro.analysis.paths import (
    average_shortest_path_length,
    diameter,
    expected_diameter_class,
    path_length_statistics,
)
from oracles.bfs import bfs_distances
from repro.core.csr import CSRGraph
from repro.core.errors import AnalysisError
from repro.core.graph import Graph
from repro.core.rng import RandomSource
from repro.generators.cm import generate_cm
from repro.generators.pa import generate_pa
from repro.telemetry.collector import TelemetryCollector, use_telemetry


class TestCutoffEstimators:
    def test_pa_natural_cutoff(self):
        assert natural_cutoff_pa(10_000, 2) == pytest.approx(200.0)

    def test_dorogovtsev_vs_aiello_ordering(self):
        assert natural_cutoff_dorogovtsev(10_000, 2.5) > natural_cutoff_aiello(10_000, 2.5)

    def test_empirical_cutoff(self, star_graph):
        assert empirical_cutoff(star_graph) == 5
        assert empirical_cutoff([3, 9, 1]) == 9

    def test_empirical_cutoff_empty_rejected(self):
        with pytest.raises(AnalysisError):
            empirical_cutoff([])


class TestComponents:
    def test_components_sorted_by_size(self):
        graph = Graph.from_edges(6, [(0, 1), (1, 2), (3, 4)])
        components = connected_components(graph)
        assert [len(c) for c in components] == [3, 2, 1]

    def test_component_of(self, two_component_graph):
        assert component_of(two_component_graph, 4) == {3, 4, 5}

    def test_component_of_missing_node(self, two_component_graph):
        with pytest.raises(AnalysisError):
            component_of(two_component_graph, 42)

    def test_giant_component_and_fraction(self, two_component_graph):
        assert len(giant_component(two_component_graph)) == 3
        assert giant_component_fraction(two_component_graph) == 0.5

    def test_is_connected(self, complete_graph, two_component_graph):
        assert is_connected(complete_graph)
        assert not is_connected(two_component_graph)

    def test_empty_graph_rejected(self):
        with pytest.raises(AnalysisError):
            is_connected(Graph())


class TestPathStatistics:
    def test_complete_graph(self, complete_graph):
        stats = path_length_statistics(complete_graph)
        assert stats.average == 1.0
        assert stats.diameter == 1
        assert stats.exact

    def test_path_graph(self, path_graph):
        stats = path_length_statistics(path_graph)
        assert stats.diameter == 4
        assert stats.average == pytest.approx(2.0)

    def test_sampled_estimate_close_to_exact(self, pa_graph_small):
        exact = path_length_statistics(pa_graph_small)
        sampled = path_length_statistics(pa_graph_small, sample_size=80, rng=1)
        assert not sampled.exact
        assert sampled.average == pytest.approx(exact.average, rel=0.15)

    def test_disconnected_graph_uses_giant_component(self, two_component_graph):
        stats = path_length_statistics(two_component_graph)
        assert stats.nodes_in_component == 3
        assert stats.diameter == 1

    def test_convenience_wrappers(self, path_graph):
        assert diameter(path_graph) == 4
        assert average_shortest_path_length(path_graph) == pytest.approx(2.0)

    def test_single_node_graph(self):
        graph = Graph(1)
        stats = path_length_statistics(graph)
        assert stats.average == 0.0
        assert stats.diameter == 0

    def test_invalid_sample_size(self, path_graph):
        with pytest.raises(AnalysisError):
            path_length_statistics(path_graph, sample_size=0)

    def test_empty_graph_rejected(self):
        with pytest.raises(AnalysisError):
            path_length_statistics(Graph())

    @pytest.mark.parametrize(
        "build",
        [
            lambda: generate_pa(600, stubs=1, seed=3),
            lambda: generate_pa(600, stubs=2, seed=3),
            # m = 1 leaves CM disconnected: the giant component has sparse ids.
            lambda: generate_cm(600, exponent=2.5, min_degree=1, seed=3),
        ],
        ids=["pa-m1", "pa-m2", "cm-m1"],
    )
    # 150 sampled or all 600 sources span several blocks of the batched
    # BFS; without SciPy every source runs flood_levels.
    @pytest.mark.parametrize("sample_size", [None, 40, 150])
    @pytest.mark.parametrize("restrict", [True, False])
    @pytest.mark.parametrize("batched", [True, False], ids=["sparse-blocks", "per-source"])
    def test_matches_the_python_bfs_oracle(
        self, build, sample_size, restrict, batched, monkeypatch
    ):
        if not batched:
            monkeypatch.setattr(CSRGraph, "sparse_adjacency", lambda self: None)
        graph = build()
        stats = path_length_statistics(
            graph, sample_size=sample_size, rng=5, restrict_to_giant_component=restrict
        )
        if restrict:
            graph = graph.subgraph(giant_component(graph))
        nodes = graph.nodes()
        sources = nodes if sample_size is None else RandomSource(5).sample(nodes, sample_size)
        distances = [
            distance
            for origin in sources
            for node, distance in bfs_distances(graph, origin).items()
            if node != origin
        ]
        assert stats.average == sum(distances) / len(distances)
        assert stats.diameter == max(distances)
        assert stats.sources_sampled == len(sources)
        assert stats.nodes_in_component == len(nodes)

    def test_analysis_span_carries_source_and_node_counts(self, two_component_graph):
        collector = TelemetryCollector()
        with use_telemetry(collector):
            stats = path_length_statistics(two_component_graph, sample_size=2, rng=1)
        (node,) = [node for node in collector.span_tree if node["name"] == "analysis"]
        assert node["attrs"] == {"sources": 2, "nodes": 3}
        assert stats.sources_sampled == 2


class TestDiameterClasses:
    def test_table1_rows(self):
        assert expected_diameter_class(2.5, 1) == "lnlnN"
        assert expected_diameter_class(3.0, 2) == "lnN/lnlnN"
        assert expected_diameter_class(3.0, 1) == "lnN"
        assert expected_diameter_class(3.7, 3) == "lnN"

    def test_invalid_arguments(self):
        with pytest.raises(AnalysisError):
            expected_diameter_class(0.5, 1)
        with pytest.raises(AnalysisError):
            expected_diameter_class(2.5, 0)
