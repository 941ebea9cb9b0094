"""Unit tests for the bounded-BFS horizon helpers."""

from __future__ import annotations

import pytest

from repro.core.errors import NodeNotFoundError
from repro.core.graph import Graph
from repro.substrate.horizon import bfs_distances, bfs_horizon
from repro.substrate.mesh import MeshNetwork


class TestBFSDistances:
    def test_distances_on_path(self, path_graph):
        assert bfs_distances(path_graph, 0) == {0: 0, 1: 1, 2: 2, 3: 3, 4: 4}

    def test_max_depth_truncates(self, path_graph):
        assert bfs_distances(path_graph, 0, max_depth=2) == {0: 0, 1: 1, 2: 2}

    def test_unreachable_nodes_absent(self, two_component_graph):
        distances = bfs_distances(two_component_graph, 0)
        assert set(distances) == {0, 1, 2}

    def test_missing_source_raises(self, path_graph):
        with pytest.raises(NodeNotFoundError):
            bfs_distances(path_graph, 77)

    def test_zero_depth(self, path_graph):
        assert bfs_distances(path_graph, 2, max_depth=0) == {2: 0}


class TestBFSHorizon:
    def test_horizon_excludes_source(self, path_graph):
        assert 0 not in bfs_horizon(path_graph, 0, 3)

    def test_horizon_depth_bound(self, path_graph):
        assert bfs_horizon(path_graph, 0, 2) == [1, 2]

    def test_eligible_filter(self, path_graph):
        horizon = bfs_horizon(path_graph, 0, 4, eligible={2, 4})
        assert horizon == [2, 4]

    def test_eligible_filter_does_not_block_traversal(self):
        """A non-eligible node can still relay the search to an eligible one."""
        graph = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        horizon = bfs_horizon(graph, 0, 3, eligible={3})
        assert horizon == [3]

    def test_sorted_by_distance(self):
        mesh = MeshNetwork(5, 5)
        graph = mesh.generate_graph()
        center = mesh.node_id(2, 2)
        horizon = bfs_horizon(graph, center, 2)
        distances = bfs_distances(graph, center, max_depth=2)
        assert [distances[node] for node in horizon] == sorted(
            distances[node] for node in horizon
        )
