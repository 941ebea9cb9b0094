"""Bounded breadth-first searches over the substrate.

A DAPA joining node runs a breadth-first search on the substrate, limited to
``τ_sub`` hops, to discover the peers in its *horizon* (paper Algorithm 4,
lines 4–10).  These helpers implement that primitive on a :class:`Graph`
(``DAPAGenerator`` runs its own copy on substrate rows, in discovery order)
and the hop-distance map it rests on, which the path-length analysis uses.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Set

from repro.core.errors import NodeNotFoundError
from repro.core.graph import Graph
from repro.core.types import NodeId

__all__ = ["bfs_distances", "bfs_horizon"]


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


def bfs_horizon(
    graph: Graph,
    source: NodeId,
    max_depth: int,
    eligible: Optional[Set[NodeId]] = None,
) -> List[NodeId]:
    """Return the nodes within ``max_depth`` hops of ``source`` (excluding it).

    When ``eligible`` is given only nodes from that set are returned (this is
    the DAPA filter "i ∈ G_O": only nodes that are already overlay peers are
    attachment candidates), but *all* substrate nodes are still traversed —
    a non-peer node can lie on the path to a peer.

    Examples
    --------
    >>> g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    >>> bfs_horizon(g, 0, 2)
    [1, 2]
    >>> bfs_horizon(g, 0, 3, eligible={2, 3, 4})
    [2, 3]
    """
    distances = bfs_distances(graph, source, max_depth=max_depth)
    horizon = [node for node in distances if node != source]
    if eligible is not None:
        horizon = [node for node in horizon if node in eligible]
    horizon.sort(key=lambda node: (distances[node], node))
    return horizon
