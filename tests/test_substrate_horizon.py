"""Unit tests for the exact-BFS oracle the search and join-rule invariants use."""

from __future__ import annotations

import pytest

from repro.core.errors import NodeNotFoundError
from oracles.bfs import bfs_distances


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

