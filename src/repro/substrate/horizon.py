"""Bounded breadth-first hop distances over a :class:`Graph`.

:func:`bfs_distances` is the hop-distance map the path-length analysis
uses.  It is not DAPA's horizon search: a joining DAPA node discovers the
peers within ``τ_sub`` substrate hops (paper Algorithm 4, lines 4–10) with
``DAPAGenerator._discover_horizon``, a breadth-first search on substrate
rows whose candidates keep their discovery order.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Optional

from repro.core.errors import NodeNotFoundError
from repro.core.graph import Graph
from repro.core.types import NodeId

__all__ = ["bfs_distances"]


def bfs_distances(
    graph: Graph, source: NodeId, max_depth: Optional[int] = None
) -> Dict[NodeId, int]:
    """Return hop distances from ``source`` to every reachable node.

    Parameters
    ----------
    graph:
        The graph to traverse.
    source:
        Starting node.
    max_depth:
        If given, the traversal stops expanding beyond this depth; only nodes
        within ``max_depth`` hops appear in the result.

    Returns
    -------
    dict
        Mapping ``node -> distance`` including ``source -> 0``.

    Examples
    --------
    >>> g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    >>> bfs_distances(g, 0)
    {0: 0, 1: 1, 2: 2, 3: 3}
    >>> bfs_distances(g, 0, max_depth=2)
    {0: 0, 1: 1, 2: 2}
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
        # Defined-order expansion (edge-insertion order, not set order):
        # the distance *values* are order-independent, but iterating the
        # neighbor set here made the returned dict's insertion order — and
        # therefore any downstream iteration of it — process-salted.
        for neighbor in graph.iter_neighbors(current):
            if neighbor not in distances:
                distances[neighbor] = depth + 1
                frontier.append(neighbor)
    return distances

