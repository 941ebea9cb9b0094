"""HAPA's reference loop, with every draw through the ``RandomSource``.

This is ``HAPAGenerator._build_reference`` with ``_accepts`` and
``_fallback_attach`` from before the inlined-draw loop became HAPA's only
python loop: the network grows edge by edge on the mutable ``Graph``, and
each ``rng.randint``, ``rng.random`` and ``rng.choice`` is a method call,
so a counting source sees every draw.  The shipped loop must give the same
graph, metadata and stream position.
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

from repro.core.graph import Graph
from repro.core.rng import RandomSource
from repro.generators.hapa import HAPAGenerator


def build_reference(
    generator: HAPAGenerator, rng: RandomSource
) -> Tuple[Graph, Dict[str, Any]]:
    config = generator.config
    n, m = config.number_of_nodes, config.stubs
    cutoff = config.effective_cutoff()
    max_hops = config.max_hops_per_stub

    graph = Graph.complete(min(m + 1, n))
    total_hops = 0
    fallback_attachments = 0
    unfilled_stubs = 0

    for new_node in range(graph.number_of_nodes, n):
        graph.add_node(new_node)
        filled = 0

        # Step 1 (paper lines 3-7): one attempt at a uniformly random
        # existing node with the PA acceptance test.
        candidate = rng.randint(0, new_node - 1)
        if accepts(graph, new_node, candidate, cutoff, rng):
            graph.add_edge(new_node, candidate)
            filled += 1
            current = candidate
        else:
            current = candidate

        # Step 2 (paper lines 8-15): hop along existing links, attempting
        # to attach at every visited node, until all stubs are filled.
        hops_for_node = 0
        while filled < m:
            next_node = graph.random_neighbor(current, rng)
            if next_node is None:
                # Isolated landing spot (possible only in degenerate tiny
                # graphs): restart from a random existing node.
                next_node = rng.randint(0, new_node - 1)
            current = next_node
            hops_for_node += 1
            total_hops += 1
            if current != new_node and accepts(
                graph, new_node, current, cutoff, rng
            ):
                graph.add_edge(new_node, current)
                filled += 1
                hops_for_node = 0
                continue
            if hops_for_node >= max_hops:
                placed = fallback_attach(graph, new_node, cutoff, rng)
                if placed:
                    fallback_attachments += 1
                    filled += 1
                else:
                    unfilled_stubs += m - filled
                    break
                hops_for_node = 0

    metadata = {
        "total_hops": total_hops,
        "fallback_attachments": fallback_attachments,
        "unfilled_stubs": unfilled_stubs,
    }
    return graph, metadata


def accepts(
    graph: Graph, new_node: int, candidate: int, cutoff: int, rng: RandomSource
) -> bool:
    """The PA acceptance test of Algorithm 3 (lines 4 and 11)."""
    if candidate == new_node or graph.has_edge(new_node, candidate):
        return False
    degree = graph.degree(candidate)
    if degree >= cutoff or degree == 0:
        return False
    total_degree = graph.total_degree
    if total_degree == 0:
        return False
    return rng.random() < degree / total_degree


def fallback_attach(
    graph: Graph, new_node: int, cutoff: int, rng: RandomSource
) -> bool:
    """Attach to a uniformly chosen eligible node (termination guarantee)."""
    neighbor_set = graph.neighbor_set(new_node)
    eligible = [
        node
        for node in graph.nodes()
        if node != new_node
        and node not in neighbor_set
        and graph.degree(node) < cutoff
    ]
    if not eligible:
        return False
    graph.add_edge(new_node, rng.choice(eligible))
    return True
