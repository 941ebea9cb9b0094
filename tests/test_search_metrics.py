"""Unit tests for the search-curve metrics and NF↔RW normalization."""

from __future__ import annotations

import pytest

from repro.core.errors import SearchError
from repro.core.graph import Graph
from repro.search.flooding import FloodingSearch
from repro.search.metrics import (
    SearchCurve,
    average_search_curve,
    normalized_walk_curve,
    search_curve,
    select_sources,
)
from repro.search.normalized_flooding import NormalizedFloodingSearch
from repro.search.probabilistic_flooding import ProbabilisticFloodingSearch
from repro.search.random_walk import RandomWalkSearch


class TestSearchCurve:
    def test_flooding_curve_on_complete_graph(self, complete_graph):
        curve = search_curve(complete_graph, FloodingSearch(), [1, 2], queries=4, rng=1)
        assert curve.mean_hits == [5.0, 5.0]
        assert curve.algorithm == "fl"
        assert curve.queries == 4

    def test_curve_is_monotone(self, pa_graph_cutoff):
        curve = search_curve(
            pa_graph_cutoff, FloodingSearch(), [1, 2, 3, 4, 5], queries=10, rng=2
        )
        assert all(b >= a for a, b in zip(curve.mean_hits, curve.mean_hits[1:]))
        assert all(b >= a for a, b in zip(curve.mean_messages, curve.mean_messages[1:]))

    def test_ttl_values_sorted_in_output(self, complete_graph):
        curve = search_curve(complete_graph, FloodingSearch(), [3, 1, 2], queries=2, rng=1)
        assert curve.ttl_values == [1, 2, 3]

    def test_hits_at_and_messages_at(self, complete_graph):
        curve = search_curve(complete_graph, FloodingSearch(), [1, 2], queries=2, rng=1)
        assert curve.hits_at(1) == 5.0
        assert curve.messages_at(2) >= curve.messages_at(1)
        with pytest.raises(SearchError):
            curve.hits_at(9)

    def test_explicit_sources(self, star_graph):
        curve = search_curve(
            star_graph, FloodingSearch(), [1], sources=[0, 0, 0], rng=1
        )
        assert curve.mean_hits == [5.0]
        assert curve.queries == 3

    def test_empty_ttl_values_rejected(self, star_graph):
        with pytest.raises(SearchError):
            search_curve(star_graph, FloodingSearch(), [], queries=2)

    @pytest.mark.parametrize(
        "batch", [{"queries": 0}, {"queries": -3}, {"sources": []}],
        ids=["zero", "negative", "no-sources"],
    )
    @pytest.mark.parametrize("frozen", [False, True], ids=["graph", "csr"])
    def test_empty_query_batch_rejected(self, pa_graph_cutoff, batch, frozen):
        # The mean of no queries is NaN; the batch is refused instead.
        graph = pa_graph_cutoff.freeze() if frozen else pa_graph_cutoff
        for algorithm in (
            FloodingSearch(),
            NormalizedFloodingSearch(k_min=2),
            ProbabilisticFloodingSearch(0.5),
            RandomWalkSearch(),
        ):
            with pytest.raises(SearchError, match="query batch is empty"):
                search_curve(graph, algorithm, [1, 2], rng=1, **batch)

    def test_round_trip_dict(self):
        curve = SearchCurve("nf", [1, 2], [3.0, 4.0], [5.0, 6.0], std_hits=[0.1, 0.2],
                            queries=7, metadata={"k": 1})
        clone = SearchCurve.from_dict(curve.as_dict())
        assert clone.mean_hits == curve.mean_hits
        assert clone.metadata == curve.metadata

    def test_reproducible_with_seed(self, pa_graph_cutoff):
        a = search_curve(pa_graph_cutoff, NormalizedFloodingSearch(k_min=2), [2, 4],
                         queries=10, rng=5)
        b = search_curve(pa_graph_cutoff, NormalizedFloodingSearch(k_min=2), [2, 4],
                         queries=10, rng=5)
        assert a.mean_hits == b.mean_hits


class TestSelectSources:
    def test_count_and_membership(self, pa_graph_small):
        sources = select_sources(pa_graph_small, 25, rng=3)
        assert len(sources) == 25
        assert all(node in pa_graph_small for node in sources)

    def test_empty_graph_rejected(self):
        with pytest.raises(SearchError):
            select_sources(Graph(), 3, rng=1)


class TestNormalizedWalkCurve:
    def test_budget_matches_nf_messages(self, pa_graph_cutoff):
        """RW hits are reported at the NF message budget, so RW messages at a
        given τ should be close to (and no more than) the NF messages."""
        nf = search_curve(
            pa_graph_cutoff, NormalizedFloodingSearch(k_min=2), [2, 4, 6],
            queries=15, rng=4,
        )
        rw = normalized_walk_curve(pa_graph_cutoff, [2, 4, 6], k_min=2, queries=15, rng=4)
        assert rw.algorithm == "rw"
        for nf_messages, rw_messages in zip(nf.mean_messages, rw.mean_messages):
            assert rw_messages <= nf_messages * 1.5 + 5

    def test_monotone_hits(self, pa_graph_cutoff):
        curve = normalized_walk_curve(pa_graph_cutoff, [2, 4, 6, 8], k_min=2,
                                      queries=10, rng=6)
        assert all(b >= a for a, b in zip(curve.mean_hits, curve.mean_hits[1:]))

    def test_metadata_records_normalization(self, pa_graph_cutoff):
        curve = normalized_walk_curve(pa_graph_cutoff, [2], k_min=2, queries=5, rng=7)
        assert curve.metadata["normalization"] == "nf_messages"

    def test_empty_ttl_rejected(self, pa_graph_cutoff):
        with pytest.raises(SearchError):
            normalized_walk_curve(pa_graph_cutoff, [], queries=3)

    @pytest.mark.parametrize(
        "batch", [{"queries": 0}, {"queries": -1}, {"sources": []}],
        ids=["zero", "negative", "no-sources"],
    )
    def test_empty_query_batch_rejected(self, pa_graph_cutoff, batch):
        with pytest.raises(SearchError, match="query batch is empty"):
            normalized_walk_curve(pa_graph_cutoff.freeze(), [2, 4], k_min=2, rng=1, **batch)


class TestAverageSearchCurve:
    def test_element_wise_mean(self):
        a = SearchCurve("fl", [1, 2], [2.0, 4.0], [1.0, 2.0], queries=5)
        b = SearchCurve("fl", [1, 2], [4.0, 8.0], [3.0, 6.0], queries=5)
        avg = average_search_curve([a, b])
        assert avg.mean_hits == [3.0, 6.0]
        assert avg.mean_messages == [2.0, 4.0]
        assert avg.queries == 10
        assert avg.metadata["realizations"] == 2

    def test_mismatched_algorithms_rejected(self):
        a = SearchCurve("fl", [1], [1.0], [1.0])
        b = SearchCurve("nf", [1], [1.0], [1.0])
        with pytest.raises(SearchError):
            average_search_curve([a, b])

    def test_mismatched_ttl_grid_rejected(self):
        a = SearchCurve("fl", [1], [1.0], [1.0])
        b = SearchCurve("fl", [2], [1.0], [1.0])
        with pytest.raises(SearchError):
            average_search_curve([a, b])

    def test_empty_rejected(self):
        with pytest.raises(SearchError):
            average_search_curve([])
