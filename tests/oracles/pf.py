"""PF's loop with its coins through the ``RandomSource``.

This is ``ProbabilisticFloodingSearch.run``'s python loop with each
forwarding coin a ``rng.random()`` method call, as a ``RandomSource``
subclass ran it before the loop took every source's coins from the
twister: a counting source sees every coin, and the python-tier floor
times the shipped loop against it.  Both must give the same curves,
visited set, ``found_at`` and stream position.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.csr import GraphLike
from repro.core.rng import RandomSource
from repro.core.types import NodeId
from repro.search.base import QueryResult
from repro.search.probabilistic_flooding import ProbabilisticFloodingSearch


def run_pf(
    search: ProbabilisticFloodingSearch,
    graph: GraphLike,
    source: NodeId,
    ttl: int,
    rng: RandomSource,
    target: Optional[NodeId] = None,
) -> QueryResult:
    coin = rng.random
    neighbors_of = graph.iter_neighbors
    probability = search.forward_probability
    toss = probability < 1.0

    base_hits = 1 if search.count_source_as_hit else 0
    hits_per_ttl: List[int] = [base_hits]
    messages_per_ttl: List[int] = [0]
    visited = {source}
    visit = visited.add
    found_at: Optional[int] = 0 if target == source else None
    hits = base_hits
    messages = 0

    frontier = [(source, None)]
    for hop in range(1, ttl + 1):
        next_frontier = []
        extend = next_frontier.append
        for node, previous in frontier:
            # One coin per neighbor, in the defined neighbor order.
            for neighbor in neighbors_of(node):
                if neighbor == previous or (toss and coin() >= probability):
                    continue
                messages += 1
                if neighbor in visited:
                    continue
                visit(neighbor)
                hits += 1
                if neighbor == target:
                    found_at = hop
                extend((neighbor, node))
        frontier = next_frontier
        hits_per_ttl.append(hits)
        messages_per_ttl.append(messages)
        if not frontier:
            break
    padding = ttl + 1 - len(hits_per_ttl)
    hits_per_ttl.extend([hits] * padding)
    messages_per_ttl.extend([messages] * padding)

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
