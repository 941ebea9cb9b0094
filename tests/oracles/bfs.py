"""Exact breadth-first hop distances over a mutable ``Graph``.

This is ``repro.substrate.horizon.bfs_distances``, the one-source Python
BFS the path-length analysis ran before it moved to the CSR snapshot's
vectorized BFS (:func:`repro.core.csr.flood_levels`).  The search and
join-rule invariants use it as their exact-distance oracle.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Optional

from repro.core.errors import NodeNotFoundError
from repro.core.graph import Graph
from repro.core.types import NodeId


def bfs_distances(
    graph: Graph, source: NodeId, max_depth: Optional[int] = None
) -> Dict[NodeId, int]:
    """Return hop distances from ``source`` to every reachable node.

    Only nodes within ``max_depth`` hops appear when it is given; the
    mapping includes ``source -> 0``.
    """
    if not graph.has_node(source):
        raise NodeNotFoundError(source)
    distances: Dict[NodeId, int] = {source: 0}
    frontier = deque([source])
    while frontier:
        current = frontier.popleft()
        depth = distances[current]
        if max_depth is not None and depth >= max_depth:
            continue
        for neighbor in graph.iter_neighbors(current):
            if neighbor not in distances:
                distances[neighbor] = depth + 1
                frontier.append(neighbor)
    return distances
