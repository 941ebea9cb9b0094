"""Unit tests for the adjacency-list graph."""

from __future__ import annotations

import copy
import pickle
import sys
import threading

import networkx as nx
import numpy as np
import pytest

from repro.core.errors import GraphError, NodeNotFoundError
from repro.core.graph import Graph
from repro.core.rng import RandomSource
from repro.generators.cm import ConfigurationModelGenerator
from repro.generators.pa import PreferentialAttachmentGenerator


class TestConstruction:
    def test_empty_graph(self):
        graph = Graph()
        assert graph.number_of_nodes == 0
        assert graph.number_of_edges == 0
        assert len(graph) == 0

    def test_preallocated_nodes(self):
        graph = Graph(5)
        assert graph.number_of_nodes == 5
        assert graph.nodes() == [0, 1, 2, 3, 4]
        assert graph.number_of_edges == 0

    def test_negative_node_count_rejected(self):
        with pytest.raises(GraphError):
            Graph(-1)

    def test_complete_graph(self):
        graph = Graph.complete(4)
        assert graph.number_of_edges == 6
        assert all(graph.degree(node) == 3 for node in graph)

    def test_from_edges(self):
        graph = Graph.from_edges(3, [(0, 1), (1, 2)])
        assert graph.number_of_edges == 2
        assert graph.has_edge(0, 1)
        assert not graph.has_edge(0, 2)


class TestNodes:
    def test_add_node_auto_id(self):
        graph = Graph(2)
        new = graph.add_node()
        assert new == 2
        assert graph.has_node(2)

    def test_add_node_explicit_id(self):
        graph = Graph()
        assert graph.add_node(7) == 7
        assert graph.has_node(7)

    def test_add_existing_node_is_noop(self):
        graph = Graph(3)
        graph.add_node(1)
        assert graph.number_of_nodes == 3

    def test_add_negative_node_rejected(self):
        graph = Graph()
        with pytest.raises(GraphError):
            graph.add_node(-3)

    def test_remove_node_removes_incident_edges(self):
        graph = Graph.from_edges(3, [(0, 1), (1, 2)])
        graph.remove_node(1)
        assert graph.number_of_nodes == 2
        assert graph.number_of_edges == 0
        assert graph.degree(0) == 0

    def test_remove_missing_node_raises(self):
        graph = Graph(2)
        with pytest.raises(NodeNotFoundError):
            graph.remove_node(9)

    def test_contains_and_iter(self):
        graph = Graph(3)
        assert 2 in graph
        assert 5 not in graph
        assert sorted(graph) == [0, 1, 2]


class TestEdges:
    def test_add_edge_returns_true_then_false(self):
        graph = Graph(2)
        assert graph.add_edge(0, 1) is True
        assert graph.add_edge(0, 1) is False
        assert graph.add_edge(1, 0) is False
        assert graph.number_of_edges == 1

    def test_self_loop_rejected(self):
        graph = Graph(2)
        with pytest.raises(GraphError):
            graph.add_edge(1, 1)

    def test_edge_to_missing_node_raises(self):
        graph = Graph(2)
        with pytest.raises(NodeNotFoundError):
            graph.add_edge(0, 5)

    def test_remove_edge(self):
        graph = Graph.from_edges(3, [(0, 1), (1, 2)])
        graph.remove_edge(0, 1)
        assert not graph.has_edge(0, 1)
        assert graph.number_of_edges == 1
        # removing again is a no-op
        graph.remove_edge(0, 1)
        assert graph.number_of_edges == 1

    def test_edges_are_canonical_pairs(self):
        graph = Graph.from_edges(4, [(2, 1), (3, 0)])
        assert sorted(graph.edges()) == [(0, 3), (1, 2)]

    def test_total_degree_tracks_edges(self):
        graph = Graph(4)
        graph.add_edge(0, 1)
        graph.add_edge(1, 2)
        assert graph.total_degree == 4
        graph.remove_edge(0, 1)
        assert graph.total_degree == 2


class TestDegrees:
    def test_degree_and_degrees(self, star_graph):
        assert star_graph.degree(0) == 5
        assert star_graph.degree(3) == 1
        degrees = star_graph.degrees()
        assert degrees[0] == 5
        assert sum(degrees.values()) == star_graph.total_degree

    def test_degree_of_missing_node_raises(self):
        with pytest.raises(NodeNotFoundError):
            Graph(2).degree(7)

    def test_min_max_mean_degree(self, star_graph):
        assert star_graph.min_degree() == 1
        assert star_graph.max_degree() == 5
        assert star_graph.mean_degree() == pytest.approx(10 / 6)

    def test_empty_graph_degree_summaries(self):
        graph = Graph()
        assert graph.min_degree() == 0
        assert graph.max_degree() == 0
        assert graph.mean_degree() == 0.0

    def test_degree_sequence_order(self):
        graph = Graph.from_edges(3, [(0, 1)])
        assert graph.degree_sequence() == [1, 1, 0]


class TestNeighbors:
    def test_neighbors_list_and_set(self, path_graph):
        assert sorted(path_graph.neighbors(1)) == [0, 2]
        assert path_graph.neighbor_set(1) == {0, 2}

    def test_neighbors_of_missing_node_raises(self, path_graph):
        with pytest.raises(NodeNotFoundError):
            path_graph.neighbors(99)

    def test_random_neighbor_uniform_support(self, star_graph, rng):
        seen = {star_graph.random_neighbor(0, rng) for _ in range(200)}
        assert seen == {1, 2, 3, 4, 5}

    def test_random_neighbor_isolated_returns_none(self, rng):
        graph = Graph(2)
        assert graph.random_neighbor(0, rng) is None


class TestWholeGraphOps:
    def test_copy_is_independent(self, path_graph):
        clone = path_graph.copy()
        assert clone == path_graph
        clone.add_edge(0, 4)
        assert not path_graph.has_edge(0, 4)

    def test_subgraph(self, path_graph):
        sub = path_graph.subgraph([0, 1, 2])
        assert sub.number_of_nodes == 3
        assert sub.number_of_edges == 2
        assert not sub.has_node(4)

    def test_subgraph_missing_node_raises(self, path_graph):
        with pytest.raises(NodeNotFoundError):
            path_graph.subgraph([0, 42])

    def test_stats(self, star_graph):
        stats = star_graph.stats()
        assert stats.number_of_nodes == 6
        assert stats.number_of_edges == 5
        assert stats.max_degree == 5
        assert stats.as_dict()["min_degree"] == 1

    def test_equality_ignores_insertion_order(self):
        a = Graph.from_edges(3, [(0, 1), (1, 2)])
        b = Graph.from_edges(3, [(1, 2), (0, 1)])
        assert a == b
        assert (a == 42) is False or (a == 42) is NotImplemented or True


class TestNetworkXInterop:
    def test_round_trip(self, pa_graph_cutoff):
        nx_graph = pa_graph_cutoff.to_networkx()
        assert nx_graph.number_of_nodes() == pa_graph_cutoff.number_of_nodes
        assert nx_graph.number_of_edges() == pa_graph_cutoff.number_of_edges
        back = Graph.from_networkx(nx_graph)
        assert back == pa_graph_cutoff

    def test_from_networkx_drops_self_loops(self):
        nx_graph = nx.Graph()
        nx_graph.add_edges_from([(0, 0), (0, 1)])
        graph = Graph.from_networkx(nx_graph)
        assert graph.number_of_edges == 1

    def test_from_networkx_relabels_non_integers(self):
        nx_graph = nx.Graph()
        nx_graph.add_edges_from([("a", "b"), ("b", "c")])
        graph = Graph.from_networkx(nx_graph)
        assert graph.number_of_nodes == 3
        assert graph.number_of_edges == 2
        assert all(isinstance(node, int) for node in graph.nodes())


def _edge_list(ids, seed):
    """A fixed, order-sensitive simple edge list over ``ids``."""
    chooser = RandomSource(seed)
    edges, seen = [], set()
    while len(edges) < 3 * len(ids):
        u, v = chooser.sample(ids, 2)
        if (u, v) not in seen and (v, u) not in seen:
            seen.add((u, v))
            edges.append((u, v))
    return edges


#: (node ids or count, edges) for dense ids, sparse ids and no edges.  The
#: ids reach past a small set's table size, so set iteration order depends
#: on insertion order.
LAZY_CASES = {
    "dense": (40, _edge_list(list(range(40)), seed=1)),
    "sparse": ([100, 5, 42, 7, 900, 13, 64, 3, 17, 250], _edge_list(
        [100, 5, 42, 7, 900, 13, 64, 3, 17, 250], seed=2
    )),
    "no-edges": ([8, 2, 30], []),
}


def _lazy_pair(case):
    """The case built by from_edge_array, and its add_edge-built twin."""
    nodes, edges = LAZY_CASES[case]
    ids = list(range(nodes)) if isinstance(nodes, int) else nodes
    twin = Graph()
    for node in ids:
        twin.add_node(node)
    for u, v in edges:
        twin.add_edge(u, v)
    graph = Graph.from_edge_array(
        nodes,
        np.array([u for u, _ in edges], dtype=np.int64),
        np.array([v for _, v in edges], dtype=np.int64),
    )
    return graph, twin


def _views_built(graph):
    try:
        object.__getattribute__(graph, "_adjacency")
    except AttributeError:
        return False
    return True


def _assert_reads_equal(graph, twin):
    nodes = twin.nodes()
    assert graph.nodes() == nodes
    assert list(graph) == list(twin) and len(graph) == len(twin)
    assert graph.edges() == twin.edges()
    assert graph.degrees() == twin.degrees()
    assert graph.degree_sequence() == twin.degree_sequence()
    assert graph.min_degree() == twin.min_degree()
    assert graph.max_degree() == twin.max_degree()
    assert graph.mean_degree() == twin.mean_degree()
    assert graph.total_degree == twin.total_degree
    assert graph.number_of_nodes == twin.number_of_nodes
    assert graph.number_of_edges == twin.number_of_edges
    assert graph.stats() == twin.stats()
    for node in nodes:
        assert node in graph and graph.has_node(node)
        assert graph.degree(node) == twin.degree(node)
        assert graph.neighbors(node) == twin.neighbors(node)
        assert graph.iter_neighbors(node) == twin.iter_neighbors(node)
        assert list(graph.neighbor_set(node)) == list(twin.neighbor_set(node))
        for other in nodes:
            assert graph.has_edge(node, other) == twin.has_edge(node, other)
    exported, expected = graph.to_networkx(), twin.to_networkx()
    assert list(exported.nodes()) == list(expected.nodes())
    assert list(exported.edges()) == list(expected.edges())
    assert graph == twin and twin == graph


class TestFromEdgeArrayLazyViews:
    """from_edge_array keeps only the CSR snapshot; the views come on demand."""

    @pytest.mark.parametrize("case", sorted(LAZY_CASES))
    def test_snapshot_reads_build_no_views(self, case):
        graph, twin = _lazy_pair(case)
        frozen = graph.freeze()
        assert graph.freeze() is frozen
        assert graph.degree_sequence() == twin.degree_sequence()
        assert graph.number_of_edges == twin.number_of_edges
        assert graph.total_degree == twin.total_degree
        assert frozen.nodes() == twin.nodes()
        assert not _views_built(graph)

    @pytest.mark.parametrize("case", sorted(LAZY_CASES))
    def test_views_equal_an_add_edge_twin(self, case):
        graph, twin = _lazy_pair(case)
        _assert_reads_equal(graph, twin)
        assert _views_built(graph)
        # The snapshot survives reads: freezing stays free.
        assert graph.freeze() is graph.freeze()

    @pytest.mark.parametrize("case", sorted(LAZY_CASES))
    def test_either_view_first_gives_equal_views(self, case):
        by_lists, twin = _lazy_pair(case)
        by_sets, _ = _lazy_pair(case)
        node = twin.nodes()[0]
        by_lists.iter_neighbors(node)
        by_sets.neighbor_set(node)
        _assert_reads_equal(by_lists, by_sets)
        _assert_reads_equal(by_sets, twin)

    @pytest.mark.parametrize("case", sorted(LAZY_CASES))
    def test_mutation_after_freeze_leaves_the_snapshot(self, case):
        graph, twin = _lazy_pair(case)
        frozen = graph.freeze()
        before = {node: list(frozen.iter_neighbors(node)) for node in frozen.nodes()}
        indptr, indices = frozen._indptr.copy(), frozen._indices.copy()
        u, v = twin.nodes()[:2]
        if twin.has_edge(u, v):
            graph.remove_edge(u, v)
            twin.remove_edge(u, v)
        else:
            graph.add_edge(u, v)
            twin.add_edge(u, v)
        graph.add_node(10_000)
        twin.add_node(10_000)
        assert np.array_equal(frozen._indptr, indptr)
        assert np.array_equal(frozen._indices, indices)
        assert {node: frozen.iter_neighbors(node) for node in frozen.nodes()} == before
        refrozen = graph.freeze()
        assert refrozen is not frozen
        assert refrozen.nodes() == twin.nodes()
        _assert_reads_equal(graph, twin)

    @pytest.mark.parametrize("case", sorted(LAZY_CASES))
    @pytest.mark.parametrize(
        "round_trip",
        [lambda graph: pickle.loads(pickle.dumps(graph)), copy.deepcopy],
        ids=["pickle", "deepcopy"],
    )
    def test_pickle_and_deepcopy_round_trip(self, case, round_trip):
        # A set pickles as its elements in iteration order, so a round trip
        # can reorder any graph's sets: compare with the twin's round trip.
        graph, twin = _lazy_pair(case)
        clone = round_trip(graph)
        _assert_reads_equal(clone, round_trip(twin))
        _assert_reads_equal(graph, twin)
        clone.add_node(10_000)
        assert 10_000 not in graph

    @pytest.mark.parametrize("case", sorted(LAZY_CASES))
    def test_concurrent_first_access_sees_equal_views(self, case):
        # More threads than cores, switching as often as the interpreter
        # allows, all touching a fresh graph at once.
        threads_per_graph = 4
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                graph, twin = _lazy_pair(case)
                barrier = threading.Barrier(threads_per_graph)
                seen = []

                def read():
                    barrier.wait()
                    seen.append(
                        (
                            [graph.iter_neighbors(node) for node in twin.nodes()],
                            [list(graph.neighbor_set(node)) for node in twin.nodes()],
                            graph.edges(),
                        )
                    )

                threads = [threading.Thread(target=read) for _ in range(threads_per_graph)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=10)
                    assert not thread.is_alive()
                expected = (
                    [twin.iter_neighbors(node) for node in twin.nodes()],
                    [list(twin.neighbor_set(node)) for node in twin.nodes()],
                    twin.edges(),
                )
                assert seen == [expected] * threads_per_graph
                _assert_reads_equal(graph, twin)
        finally:
            sys.setswitchinterval(interval)


#: Bulk builds whose stats() must come from the snapshot alone.
BULK_BUILDS = {
    "pa": lambda: PreferentialAttachmentGenerator(300, stubs=2, hard_cutoff=10, seed=1)
    .generate()
    .graph,
    "cm": lambda: ConfigurationModelGenerator(
        300, exponent=2.5, min_degree=2, hard_cutoff=20, seed=1
    )
    .generate()
    .graph,
    "empty": lambda: Graph.from_edge_array(
        0, np.array([], dtype=np.int64), np.array([], dtype=np.int64)
    ),
}


class TestStatsReadTheSnapshot:
    """stats() and the degree summaries of a bulk-built graph read the CSR
    snapshot: they build no mutable view and equal an add_edge twin's."""

    @pytest.mark.parametrize("build", sorted(BULK_BUILDS))
    def test_stats_build_no_views(self, build):
        graph = BULK_BUILDS[build]()
        assert graph.has_snapshot and not _views_built(graph)
        frozen = graph.freeze()
        twin = Graph()
        for node in frozen.nodes():
            twin.add_node(node)
        for u, v in frozen.edges():
            twin.add_edge(u, v)
        assert graph.stats() == twin.stats()
        assert graph.min_degree() == twin.min_degree()
        assert graph.max_degree() == twin.max_degree()
        assert graph.mean_degree() == twin.mean_degree()
        assert graph.number_of_nodes == twin.number_of_nodes
        assert not _views_built(graph)
