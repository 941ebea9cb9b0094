"""NF's reference loop, with every draw through the ``RandomSource``.

This is ``NormalizedFloodingSearch._run_reference`` and
``_select_recipients`` from before the inlined-draw loop became NF's only
python loop: each forwarding node builds its candidate list and calls
``rng.sample``, so a counting source sees every draw.  The shipped loop
must give the same curves, visited set, ``found_at`` and stream position.
"""

from __future__ import annotations

from collections import deque
from typing import List, Optional

from repro.core.csr import GraphLike
from repro.core.graph import Graph
from repro.core.rng import RandomSource
from repro.core.types import NodeId
from repro.search.base import QueryResult
from repro.search.normalized_flooding import NormalizedFloodingSearch
from repro.telemetry.collector import active_telemetry


def run_nf(
    search: NormalizedFloodingSearch,
    graph: GraphLike,
    source: NodeId,
    ttl: int,
    rng: RandomSource,
    target: Optional[NodeId] = None,
) -> QueryResult:
    """``search.run`` on the reference loop, with ``run``'s branching."""
    branching = search.k_min
    if branching is None:
        branching = max(1, graph.min_degree())
    return run_reference(search, graph, source, ttl, rng, branching, target)


def run_reference(
    search: NormalizedFloodingSearch,
    graph: GraphLike,
    source: NodeId,
    ttl: int,
    random_source: RandomSource,
    branching: int,
    target: Optional[NodeId],
) -> QueryResult:
    """The reference loop: every draw goes through ``random_source``."""
    base_hits = 1 if search.count_source_as_hit else 0
    hits_per_ttl: List[int] = [base_hits]
    messages_per_ttl: List[int] = [0]

    # A node joins a frontier only on its first visit, so each node
    # forwards the query at most once.
    visited = {source}
    frontier: deque = deque()
    found_at: Optional[int] = 0 if target == source else None

    cumulative_hits = base_hits
    cumulative_messages = 0
    telemetry = active_telemetry()

    # Hop 1: the source sends to `branching` random neighbors (or all of
    # them when it has fewer than `branching`).
    if ttl >= 1:
        recipients = select_recipients(
            graph, source, previous=None, branching=branching, rng=random_source
        )
        for neighbor in recipients:
            cumulative_messages += 1
            if neighbor not in visited:
                visited.add(neighbor)
                cumulative_hits += 1
                if target is not None and neighbor == target and found_at is None:
                    found_at = 1
                frontier.append((neighbor, source))
        hits_per_ttl.append(cumulative_hits)
        messages_per_ttl.append(cumulative_messages)
        if telemetry.enabled:
            telemetry.observe("search.frontier", len(frontier))

    for hop in range(2, ttl + 1):
        next_frontier: deque = deque()
        while frontier:
            node, previous = frontier.popleft()
            recipients = select_recipients(
                graph, node, previous=previous, branching=branching, rng=random_source
            )
            for neighbor in recipients:
                cumulative_messages += 1
                if neighbor in visited:
                    continue
                visited.add(neighbor)
                cumulative_hits += 1
                if target is not None and neighbor == target and found_at is None:
                    found_at = hop
                next_frontier.append((neighbor, node))
        frontier = next_frontier
        hits_per_ttl.append(cumulative_hits)
        messages_per_ttl.append(cumulative_messages)
        if telemetry.enabled:
            telemetry.observe("search.frontier", len(frontier))
        if not frontier:
            for _ in range(hop + 1, ttl + 1):
                hits_per_ttl.append(cumulative_hits)
                messages_per_ttl.append(cumulative_messages)
            break

    # Pad if ttl == 0 requested larger arrays than hops produced.
    while len(hits_per_ttl) < ttl + 1:
        hits_per_ttl.append(cumulative_hits)
        messages_per_ttl.append(cumulative_messages)

    return QueryResult(
        algorithm=search.algorithm_name,
        source=source,
        ttl=ttl,
        hits_per_ttl=hits_per_ttl,
        messages_per_ttl=messages_per_ttl,
        visited=visited,
        target=target,
        found_at=found_at,
    )


def select_recipients(
    graph: Graph,
    node: NodeId,
    previous: Optional[NodeId],
    branching: int,
    rng: RandomSource,
) -> List[NodeId]:
    """Apply the NF forwarding rule at ``node``.

    Degree-``k_min`` nodes (and any node with no more than ``branching``
    candidates after excluding the previous hop) forward to every
    candidate; higher-degree nodes forward to ``branching`` random
    candidates.

    The candidate order is the defined neighbor order shared by both
    graph representations (:meth:`~repro.core.graph.Graph.iter_neighbors`), so
    ``rng.sample`` draws identically on a mutable and a frozen graph.
    The source (``previous is None``) forwards over the shared internal
    list without copying; every other node must build the
    previous-excluded candidate list anyway.
    """
    neighbors = graph.iter_neighbors(node)
    if previous is None:
        candidates = neighbors
    else:
        candidates = [neighbor for neighbor in neighbors if neighbor != previous]
    if len(candidates) <= branching:
        return candidates
    return rng.sample(candidates, branching)
