"""CM's python-tier stub matching as it ran on the mutable ``Graph``.

This is ``ConfigurationModelGenerator._stub_matching`` from before the
pairing moved to numpy: after the shuffle, consecutive stubs are paired
one at a time, self-loops are counted and skipped, and ``Graph.add_edge``
refuses (and so counts) every repeat of a pair already linked.  The
shipped build must give the same graph, counters and stream position.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Tuple

from repro.core.graph import Graph
from repro.core.rng import RandomSource
from repro.generators.cm import ConfigurationModelGenerator


def build_cm(
    generator: ConfigurationModelGenerator, rng: RandomSource
) -> Tuple[Graph, Dict[str, Any]]:
    """``generator``'s python-tier stub-matching ``_build``."""
    sequence = generator._resolve_degree_sequence(rng)
    graph, removed_self_loops, removed_multi_edges = stub_matching(sequence, rng)
    degrees = graph.degree_sequence()
    metadata = {
        "prescribed_total_degree": sum(sequence),
        "removed_self_loops": removed_self_loops,
        "removed_multi_edges": removed_multi_edges,
        "nodes_below_min_degree": sum(
            1 for k in degrees if k < generator.config.min_degree
        ),
        "isolated_nodes": sum(1 for k in degrees if k == 0),
        "partner_selection": generator.partner_selection,
    }
    return graph, metadata


def stub_matching(sequence: Sequence[int], rng: RandomSource) -> Tuple[Graph, int, int]:
    """Standard CM: shuffle the stub list and pair consecutive stubs."""
    graph = Graph(len(sequence))
    stubs: List[int] = []
    for node, degree in enumerate(sequence):
        stubs.extend([node] * degree)
    rng.shuffle(stubs)

    removed_self_loops = 0
    removed_multi_edges = 0
    for index in range(0, len(stubs) - 1, 2):
        u, v = stubs[index], stubs[index + 1]
        if u == v:
            removed_self_loops += 1
            continue
        if not graph.add_edge(u, v):
            removed_multi_edges += 1
    return graph, removed_self_loops, removed_multi_edges
