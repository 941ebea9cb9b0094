"""Clustering coefficients of overlay graphs.

The paper notes that the PA model with ``m = 1`` produces "a scale-free tree
without clustering (loops)", and clustering is one of the standard
topological characteristics alongside the degree distribution and the
diameter.  These helpers compute the local clustering coefficient of a node
(the fraction of its neighbor pairs that are themselves connected), the
network average, and the global transitivity (triangle density), so the
examples and ablations can quantify how the construction mechanism and the
hard cutoff shape local link redundancy.
"""

from __future__ import annotations

from typing import Optional

from repro.core.errors import AnalysisError
from repro.core.graph import Graph
from repro.core.rng import RandomSource, ensure_source
from repro.core.types import NodeId

__all__ = [
    "local_clustering",
    "average_clustering",
    "transitivity",
]


def local_clustering(graph: Graph, node: NodeId) -> float:
    """Return the local clustering coefficient of ``node``.

    Nodes of degree 0 or 1 have no neighbor pairs; their coefficient is 0 by
    convention.

    Examples
    --------
    >>> triangle_plus_tail = Graph.from_edges(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
    >>> local_clustering(triangle_plus_tail, 0)
    1.0
    >>> local_clustering(triangle_plus_tail, 2)
    0.3333333333333333
    >>> local_clustering(triangle_plus_tail, 3)
    0.0
    """
    neighbors = graph.neighbors(node)
    degree = len(neighbors)
    if degree < 2:
        return 0.0
    links_between_neighbors = 0
    for index, first in enumerate(neighbors):
        first_neighbors = graph.neighbor_set(first)
        for second in neighbors[index + 1 :]:
            if second in first_neighbors:
                links_between_neighbors += 1
    possible = degree * (degree - 1) / 2
    return links_between_neighbors / possible


def average_clustering(
    graph: Graph,
    sample_size: Optional[int] = None,
    rng: "RandomSource | int | None" = None,
) -> float:
    """Return the mean local clustering coefficient over (a sample of) nodes.

    Examples
    --------
    >>> average_clustering(Graph.complete(5))
    1.0
    >>> from repro.generators.pa import generate_pa
    >>> average_clustering(generate_pa(200, stubs=1, seed=1))   # a tree
    0.0
    """
    nodes = graph.nodes()
    if not nodes:
        raise AnalysisError("the graph has no nodes")
    if sample_size is not None and sample_size < len(nodes):
        if sample_size < 1:
            raise AnalysisError("sample_size must be at least 1")
        nodes = ensure_source(rng).sample(nodes, sample_size)
    total = sum(local_clustering(graph, node) for node in nodes)
    return total / len(nodes)


def transitivity(graph: Graph) -> float:
    """Return the global transitivity: ``3 × triangles / connected triples``.

    Examples
    --------
    >>> transitivity(Graph.complete(4))
    1.0
    >>> transitivity(Graph.from_edges(3, [(0, 1), (1, 2)]))
    0.0
    """
    if graph.number_of_nodes == 0:
        raise AnalysisError("the graph has no nodes")
    closed_triples = 0
    triples = 0
    for node in graph.nodes():
        neighbors = graph.neighbors(node)
        degree = len(neighbors)
        if degree < 2:
            continue
        triples += degree * (degree - 1) / 2
        for index, first in enumerate(neighbors):
            first_neighbors = graph.neighbor_set(first)
            for second in neighbors[index + 1 :]:
                if second in first_neighbors:
                    closed_triples += 1
    if triples == 0:
        return 0.0
    return closed_triples / triples
