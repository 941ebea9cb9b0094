"""PA's python-tier roulette build as it ran on the mutable ``Graph``.

This is ``PreferentialAttachmentGenerator._build_roulette`` and
``_pick_roulette`` from before the build became one loop over flat
per-node lists: the network grows edge by edge through ``Graph.add_edge``,
every degree is read from the graph, and the joining node's neighbor set
answers "already linked".  The shipped loop must give the same graph,
metadata and stream position on every source.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.core.graph import Graph
from repro.core.rng import RandomSource
from repro.generators import pa as pa_module
from repro.generators.pa import PreferentialAttachmentGenerator


def build_pa(
    generator: PreferentialAttachmentGenerator, rng: RandomSource
) -> Tuple[Graph, Dict[str, Any]]:
    """``generator``'s python-tier roulette ``_build``: the growth loop, then
    the min-degree count (strict mode is the generator's, not checked here)."""
    graph, metadata = build_roulette(generator, rng)
    minimum = generator.config.stubs
    metadata["min_degree_violations"] = sum(
        1 for degree in graph.degree_sequence() if degree < minimum
    )
    return graph, metadata


def build_roulette(
    generator: PreferentialAttachmentGenerator, rng: RandomSource
) -> Tuple[Graph, Dict[str, Any]]:
    config = generator.config
    n, m = config.number_of_nodes, config.stubs
    cutoff = config.effective_cutoff()

    graph = Graph.complete(min(m + 1, n))
    # The stub list holds each node id once per unit of degree, so a
    # uniform draw from it is a degree-proportional draw over nodes.
    stub_list: List[int] = []
    for u, v in graph.edges():
        stub_list.append(u)
        stub_list.append(v)
    # Saturated-entry bookkeeping: the stub list retains entries of
    # nodes that have reached the cutoff (removing them would change
    # which slot every later draw lands on), so under tight cutoffs a
    # pick can become *doomed* — every slot points at a saturated or
    # already-linked node.  ``entries[x]`` counts x's slots and
    # ``dead_entries`` the slots on saturated nodes; together they let
    # ``pick_roulette`` detect a doomed pick up front instead of
    # burning ``_MAX_REJECTIONS_PER_STUB`` draws discovering it.
    entries = [0] * n
    for node in stub_list:
        entries[node] += 1
    dead_entries = 0
    for node in range(graph.number_of_nodes):
        if graph.degree(node) >= cutoff:
            dead_entries += entries[node]

    rejected_attempts = 0
    unfilled_stubs = 0

    for new_node in range(graph.number_of_nodes, n):
        graph.add_node(new_node)
        chosen: List[int] = []
        for _ in range(m):
            target, rejections = pick_roulette(
                graph, stub_list, new_node, cutoff, rng,
                entries, dead_entries, chosen,
            )
            rejected_attempts += rejections
            if target is None:
                unfilled_stubs += 1
                continue
            graph.add_edge(new_node, target)
            if graph.degree(target) == cutoff:
                dead_entries += entries[target]
            chosen.append(target)
        # Update the stub list only after all of this node's stubs are
        # placed so the node does not preferentially attach to itself's
        # earlier targets more than their degree warrants.
        for neighbor in chosen:
            stub_list.append(neighbor)
            entries[neighbor] += 1
            if graph.degree(neighbor) >= cutoff:
                dead_entries += 1
            stub_list.append(new_node)
            entries[new_node] += 1
            if graph.degree(new_node) >= cutoff:
                dead_entries += 1

    metadata = {
        "rejected_attempts": rejected_attempts,
        "unfilled_stubs": unfilled_stubs,
        "strategy": "roulette",
    }
    return graph, metadata


def pick_roulette(
    graph: Graph,
    stub_list: List[int],
    new_node: int,
    cutoff: int,
    rng: RandomSource,
    entries: List[int],
    dead_entries: int,
    chosen: List[int],
) -> Tuple[Optional[int], int]:
    """Pick an eligible target by degree-proportional roulette selection.

    Returns ``(target, rejections)``; ``target`` is ``None`` when no
    eligible node exists (every candidate is saturated or already
    linked).  ``rejections`` counts the draws burned before success —
    including the draws of a failed loop that fell back to the scan,
    which the caller now always accounts for.
    """
    neighbor_set = graph.neighbor_set(new_node)
    # Live-entry audit: slots pointing at an unsaturated node that is
    # not already a neighbor (the new node has no slots yet).  Zero
    # live slots means the rejection loop *and* the fallback scan are
    # both doomed — any node with degree > 0 below the cutoff would
    # still have live slots — so bail out without consuming a draw.
    live = len(stub_list) - dead_entries
    for node in chosen:
        if graph.degree(node) < cutoff:
            live -= entries[node]
    if live <= 0:
        return None, 0
    rejections = 0
    while rejections < pa_module._MAX_REJECTIONS_PER_STUB:
        candidate = stub_list[rng.randint(0, len(stub_list) - 1)]
        if (
            candidate != new_node
            and candidate not in neighbor_set
            and graph.degree(candidate) < cutoff
        ):
            return candidate, rejections
        rejections += 1
    # Extremely unlikely path: fall back to an explicit scan.  The
    # ``degree > 0`` filter keeps the draw degree-proportional (a
    # zero-degree node has no stub slots either, so the loop above
    # could never have selected it).
    eligible = [
        node
        for node in graph.nodes()
        if node != new_node
        and node not in neighbor_set
        and graph.degree(node) < cutoff
        and graph.degree(node) > 0
    ]
    if not eligible:
        return None, rejections
    weights = [graph.degree(node) for node in eligible]
    return eligible[rng.weighted_index(weights)], rejections
