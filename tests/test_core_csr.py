"""Property tests for the frozen CSR graph (:mod:`repro.core.csr`)."""

from __future__ import annotations

import pickle
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.csr import (
    CSRGraph,
    batch_flood_curves,
    flood_curve,
    flood_levels,
)
from repro.core.errors import GraphError, NodeNotFoundError
from repro.core.graph import Graph
from repro.core.rng import RandomSource
from repro.generators.cm import generate_cm
from repro.generators.pa import generate_pa
from repro.search.flooding import flood

common_settings = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@st.composite
def random_graphs(draw):
    n = draw(st.integers(min_value=1, max_value=25))
    possible_edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(
        st.lists(st.sampled_from(possible_edges), max_size=min(60, len(possible_edges)))
        if possible_edges
        else st.just([])
    )
    return Graph.from_edges(n, edges)


@pytest.fixture(scope="module")
def pa_graph() -> Graph:
    return generate_pa(300, stubs=2, hard_cutoff=12, seed=42)


@pytest.fixture(scope="module")
def cm_graph() -> Graph:
    return generate_cm(300, exponent=2.5, min_degree=2, hard_cutoff=25, seed=43)


class TestFreezeRoundTrip:
    @common_settings
    @given(random_graphs())
    def test_edges_round_trip(self, graph):
        frozen = graph.freeze()
        rebuilt = Graph.from_edges(graph.number_of_nodes, frozen.edges())
        assert rebuilt == graph
        assert frozen == graph
        assert graph == frozen

    @common_settings
    @given(random_graphs())
    def test_degree_and_neighbor_agreement(self, graph):
        frozen = graph.freeze()
        assert frozen.number_of_nodes == graph.number_of_nodes
        assert frozen.number_of_edges == graph.number_of_edges
        assert frozen.total_degree == graph.total_degree
        assert frozen.degree_sequence() == graph.degree_sequence()
        for node in graph.nodes():
            assert frozen.degree(node) == graph.degree(node)
            # Exact order, not just the same set: the defined neighbor
            # order is what keeps seeded draws identical across backends.
            assert frozen.neighbors(node) == graph.neighbors(node)
            assert frozen.neighbor_set(node) == graph.neighbor_set(node)

    @common_settings
    @given(random_graphs())
    def test_thaw_round_trip(self, graph):
        assert graph.freeze().thaw() == graph

    def test_stats_and_degree_extremes(self, pa_graph):
        frozen = pa_graph.freeze()
        assert frozen.stats() == pa_graph.stats()
        assert frozen.min_degree() == pa_graph.min_degree()
        assert frozen.max_degree() == pa_graph.max_degree()
        assert frozen.mean_degree() == pytest.approx(pa_graph.mean_degree())
        assert frozen.degrees() == pa_graph.degrees()

    def test_has_edge_agreement(self, cm_graph):
        frozen = cm_graph.freeze()
        for u, v in list(cm_graph.edges())[:50]:
            assert frozen.has_edge(u, v) and frozen.has_edge(v, u)
        assert not frozen.has_edge(0, 0)
        missing = [
            (u, v)
            for u in range(20)
            for v in range(u + 1, 20)
            if not cm_graph.has_edge(u, v)
        ]
        for u, v in missing[:20]:
            assert not frozen.has_edge(u, v)
        assert not frozen.has_edge(0, 10**6)

    def test_nodes_iteration_and_membership(self, pa_graph):
        frozen = pa_graph.freeze()
        assert frozen.nodes() == pa_graph.nodes()
        assert list(frozen) == list(pa_graph)
        assert len(frozen) == len(pa_graph)
        assert 0 in frozen and pa_graph.number_of_nodes not in frozen
        assert "nope" not in frozen

    def test_to_networkx(self, pa_graph):
        frozen = pa_graph.freeze()
        nx_graph = frozen.to_networkx()
        assert nx_graph.number_of_nodes() == pa_graph.number_of_nodes
        assert nx_graph.number_of_edges() == pa_graph.number_of_edges


class TestSparseIds:
    """Graphs whose node ids are not the dense range (e.g. after removals)."""

    @pytest.fixture()
    def sparse_graph(self) -> Graph:
        graph = Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)])
        graph.remove_node(2)
        return graph

    def test_round_trip(self, sparse_graph):
        frozen = sparse_graph.freeze()
        assert frozen.nodes() == sparse_graph.nodes()
        assert set(frozen.edges()) == set(sparse_graph.edges())
        assert frozen == sparse_graph
        for node in sparse_graph.nodes():
            assert frozen.neighbors(node) == sparse_graph.neighbors(node)

    def test_missing_nodes_raise(self, sparse_graph):
        frozen = sparse_graph.freeze()
        assert not frozen.has_node(2)
        with pytest.raises(NodeNotFoundError):
            frozen.degree(2)
        with pytest.raises(NodeNotFoundError):
            frozen.neighbors(2)


def _dense_graph() -> Graph:
    return Graph.from_edges(5, [(0, 1), (0, 2), (1, 3), (3, 4), (2, 4), (0, 4)])


def _mapped_graph() -> Graph:
    """Non-dense ids (2 and 5 removed), so the snapshot carries an ``ids`` map."""
    graph = Graph.from_edges(
        7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 0), (1, 4), (0, 3)]
    )
    graph.remove_node(2)
    graph.remove_node(5)
    return graph


def _array_built(graph: Graph) -> Graph:
    """The same graph through the bulk constructor, whose snapshot is
    assembled from edge arrays (its neighbor cache is built lazily)."""
    nodes = graph.nodes()
    rows = {node: row for row, node in enumerate(nodes)}
    edges = [(rows[u], rows[v]) for u, v in graph.edges()]
    return Graph.from_edge_array(
        nodes,
        np.array([u for u, _ in edges], dtype=np.int64),
        np.array([v for _, v in edges], dtype=np.int64),
        edges_are_rows=True,
    )


SOURCES = {
    "dense": _dense_graph,
    "mapped": _mapped_graph,
    "dense-arrays": lambda: _array_built(_dense_graph()),
    "mapped-arrays": lambda: _array_built(_mapped_graph()),
}


def _echo(value):
    """Module-level, so a worker process can run it."""
    return value


@pytest.fixture(scope="module")
def worker_pool():
    with ProcessPoolExecutor(max_workers=1) as pool:
        yield pool


@pytest.fixture(params=["direct", "pickle", "worker"])
def round_trip(request):
    """How the snapshot reaches the search: as built, unpickled, or sent to
    a worker process and back, the way :class:`ParallelExecutor` hands a
    frozen graph to its pool (the last two rebuild the cache lazily)."""
    if request.param == "direct":
        return lambda frozen: frozen
    if request.param == "pickle":
        return lambda frozen: pickle.loads(pickle.dumps(frozen))
    pool = request.getfixturevalue("worker_pool")
    return lambda frozen: pool.submit(_echo, frozen).result()


class TestNeighborCache:
    """The id -> neighbor-list cache the search loops read.

    Built in :meth:`CSRGraph.from_graph`'s single pass or lazily from the
    arrays (bulk-built snapshots and those unpickled, in this process or in
    a worker); either way it must answer exactly like the source
    :class:`Graph`.
    """

    @pytest.mark.parametrize("source", sorted(SOURCES))
    def test_lists_match_source_graph_in_order(self, source, round_trip):
        graph = SOURCES[source]()
        frozen = round_trip(graph.freeze())
        assert frozen.nodes() == graph.nodes()
        # The mappings the search loops bind once per query hold the very
        # rows iter_neighbors returns.
        rows, frozen_rows = graph.neighbor_lists(), frozen.neighbor_lists()
        assert list(frozen_rows) == frozen.nodes()
        for node in graph.nodes():
            assert frozen.iter_neighbors(node) == graph.iter_neighbors(node)
            assert frozen.neighbors(node) == graph.neighbors(node)
            assert frozen.neighbor_set(node) == graph.neighbor_set(node)
            assert frozen_rows[node] is frozen.iter_neighbors(node)
            assert rows[node] is graph.iter_neighbors(node)

    @pytest.mark.parametrize("source", sorted(SOURCES))
    def test_unknown_ids_raise(self, source, round_trip):
        graph = SOURCES[source]()
        frozen = round_trip(graph.freeze())
        n = frozen.number_of_nodes
        unknown = [-1, n, 10**6, "x", None]
        if source.startswith("mapped"):
            unknown.append(2)  # a removed id inside the id range
        for node in unknown:
            assert not graph.has_node(node)
            with pytest.raises(NodeNotFoundError):
                frozen.iter_neighbors(node)
            with pytest.raises(NodeNotFoundError):
                frozen.neighbors(node)


class TestImmutability:
    def test_mutation_rejected(self, pa_graph):
        frozen = pa_graph.freeze()
        with pytest.raises(GraphError):
            frozen.add_node()
        with pytest.raises(GraphError):
            frozen.add_edge(0, 5)
        with pytest.raises(GraphError):
            frozen.remove_node(0)
        with pytest.raises(GraphError):
            frozen.remove_edge(0, 1)

    def test_arrays_read_only(self, pa_graph):
        frozen = pa_graph.freeze()
        with pytest.raises(ValueError):
            frozen.degree_array()[0] = 99
        with pytest.raises(ValueError):
            frozen.neighbor_array(0)[0] = 99
        with pytest.raises(ValueError):
            frozen.edge_source_rows()[0] = 99

    def test_freeze_and_copy_are_idempotent(self, pa_graph):
        frozen = pa_graph.freeze()
        assert frozen.freeze() is frozen
        assert frozen.copy() is frozen

    def test_snapshot_detached_from_source(self):
        graph = Graph.from_edges(4, [(0, 1), (1, 2)])
        frozen = graph.freeze()
        graph.add_edge(2, 3)
        assert frozen.number_of_edges == 2
        assert not frozen.has_edge(2, 3)
        assert frozen.iter_neighbors(2) == [1]  # the cached list is a copy
        assert graph.number_of_edges == 3


class TestPickling:
    @common_settings
    @given(random_graphs())
    def test_pickle_round_trip(self, graph):
        frozen = graph.freeze()
        clone = pickle.loads(pickle.dumps(frozen))
        assert clone == frozen
        assert clone.degree_sequence() == frozen.degree_sequence()
        for node in list(graph.nodes())[:10]:
            assert clone.neighbors(node) == frozen.neighbors(node)

    def test_unpickled_graph_still_immutable(self, pa_graph):
        clone = pickle.loads(pickle.dumps(pa_graph.freeze()))
        with pytest.raises(GraphError):
            clone.add_edge(0, 1)
        assert not clone.degree_array().flags.writeable

    def test_caches_not_pickled(self, pa_graph):
        frozen = pa_graph.freeze()
        frozen.iter_neighbors(0)  # populate the lazy list cache
        frozen.edge_source_rows()
        payload = pickle.dumps(frozen)
        # The pickle holds only the three defining arrays, so it stays
        # compact no matter which caches the source instance materialised.
        bare = pickle.dumps(CSRGraph(frozen._indptr, frozen._indices))
        assert abs(len(payload) - len(bare)) < 128


class TestRandomPrimitives:
    def test_random_neighbor_draw_parity(self, pa_graph):
        frozen = pa_graph.freeze()
        for seed in range(10):
            for node in (0, 3, 77):
                assert frozen.random_neighbor(
                    node, RandomSource(seed)
                ) == pa_graph.random_neighbor(node, RandomSource(seed))

    def test_random_neighbor_isolated(self):
        graph = Graph(2)
        frozen = graph.freeze()
        assert frozen.random_neighbor(0, RandomSource(1)) is None


class TestEmptyAndTiny:
    def test_empty_graph(self):
        frozen = Graph().freeze()
        assert frozen.number_of_nodes == 0
        assert frozen.number_of_edges == 0
        assert frozen.min_degree() == 0
        assert frozen.max_degree() == 0
        assert frozen.mean_degree() == 0.0
        assert frozen.edges() == []

    def test_isolated_nodes(self):
        frozen = Graph(3).freeze()
        assert frozen.degree_sequence() == [0, 0, 0]
        assert frozen.neighbors(1) == []


class TestFloodKernels:
    @common_settings
    @given(random_graphs(), st.integers(min_value=0, max_value=6))
    def test_flood_curve_matches_reference(self, graph, ttl):
        frozen = graph.freeze()
        source = 0
        reference = flood(graph, source, ttl)
        levels, hits, messages = flood_curve(frozen, frozen._row_of(source), ttl)
        assert [0] + hits.tolist() == reference.hits_per_ttl
        assert [0] + messages.tolist() == reference.messages_per_ttl
        reached = {frozen.nodes()[row] for row in np.nonzero(levels >= 0)[0]}
        assert reached == reference.visited

    def test_flood_levels_are_bfs_distances(self, pa_graph):
        frozen = pa_graph.freeze()
        levels = flood_levels(frozen, 0, 50)
        nx_graph = pa_graph.to_networkx()
        import networkx as nx

        distances = nx.single_source_shortest_path_length(nx_graph, 0)
        for node in pa_graph.nodes():
            expected = distances.get(node, -1)
            assert levels[node] == expected

    def test_flood_levels_respect_cap(self, pa_graph):
        frozen = pa_graph.freeze()
        capped = flood_levels(frozen, 0, 2)
        assert capped.max() <= 2

    @common_settings
    @given(random_graphs(), st.integers(min_value=0, max_value=6))
    def test_batch_matches_single_source(self, graph, ttl):
        frozen = graph.freeze()
        rows = list(range(min(5, graph.number_of_nodes)))
        batch_hits, batch_messages = batch_flood_curves(frozen, rows, ttl)
        for index, row in enumerate(rows):
            _, hits, messages = flood_curve(frozen, row, ttl)
            assert batch_hits[index, 1:].tolist() == hits.tolist()
            assert batch_messages[index, 1:].tolist() == messages.tolist()
            assert batch_hits[index, 0] == 0 and batch_messages[index, 0] == 0

    def test_batch_empty_sources(self, pa_graph):
        hits, messages = batch_flood_curves(pa_graph.freeze(), [], 5)
        assert hits.shape == (0, 6) and messages.shape == (0, 6)

    def test_batch_rejects_negative_ttl(self, pa_graph):
        with pytest.raises(GraphError):
            batch_flood_curves(pa_graph.freeze(), [0], -1)
