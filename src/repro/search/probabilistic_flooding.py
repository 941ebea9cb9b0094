"""Probabilistic flooding search (extension; paper §II-A pointer).

Among the unstructured-search literature the paper surveys are
"probabilistic flooding techniques" (Kumar et al., Gkantsidis et al.): every
node forwards the query to each neighbor independently with probability
``p`` instead of to all of them.  ``p = 1`` is plain flooding; lowering ``p``
trades coverage for messages, sitting between FL and NF/RW on the paper's
cost spectrum.  The implementation mirrors :class:`FloodingSearch`
(duplicate suppression, per-TTL curves) and registers itself as ``"pf"`` so
the harness and CLI can sweep it alongside the paper's three algorithms.

Forwarding coins are drawn per neighbor in the *defined* neighbor order
(edge insertion order, the rows of
:meth:`~repro.core.graph.Graph.neighbor_lists`) rather than set order, so
a seeded query is byte-identical on the mutable
:class:`~repro.core.graph.Graph` and its frozen
:class:`~repro.core.csr.CSRGraph` snapshot.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.errors import SearchError
from repro.core.graph import Graph
from repro.core.rng import RandomSource, raw_stream
from repro.core.types import NodeId
from repro.search.base import QueryResult, SearchAlgorithm

__all__ = ["ProbabilisticFloodingSearch", "probabilistic_flood"]


class ProbabilisticFloodingSearch(SearchAlgorithm):
    """TTL-bounded flooding where each forward happens with probability ``p``.

    Parameters
    ----------
    forward_probability:
        Per-neighbor forwarding probability ``p`` in ``(0, 1]``.
    count_source_as_hit:
        Whether the source counts as a hit (default ``False``).

    Examples
    --------
    >>> g = Graph.complete(6)
    >>> full = ProbabilisticFloodingSearch(1.0).run(g, 0, 1, rng=1)
    >>> full.hits
    5
    """

    algorithm_name = "pf"

    def __init__(
        self, forward_probability: float = 0.5, count_source_as_hit: bool = False
    ) -> None:
        if not 0.0 < forward_probability <= 1.0:
            raise SearchError("forward_probability must be in (0, 1]")
        self.forward_probability = forward_probability
        self.count_source_as_hit = count_source_as_hit

    def run(
        self,
        graph: Graph,
        source: NodeId,
        ttl: int,
        rng: "RandomSource | int | None" = None,
        target: Optional[NodeId] = None,
    ) -> QueryResult:
        self._validate(graph, source, ttl)
        random_source = self._resolve_rng(rng)

        coin = raw_stream(random_source).random
        rows = graph.neighbor_lists()
        probability = self.forward_probability
        toss = probability < 1.0

        base_hits = 1 if self.count_source_as_hit else 0
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
                # Iterate in the defined neighbor order (edge insertion
                # order), NOT set order: each neighbor consumes one
                # forwarding coin, so the iteration order is part of the
                # seeded behaviour and must be identical on the mutable
                # graph and its frozen CSR snapshot.
                for neighbor in rows[node]:
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
            algorithm=self.algorithm_name,
            source=source,
            ttl=ttl,
            hits_per_ttl=hits_per_ttl,
            messages_per_ttl=messages_per_ttl,
            visited=visited,
            target=target,
            found_at=found_at,
        )


def probabilistic_flood(
    graph: Graph,
    source: NodeId,
    ttl: int,
    forward_probability: float = 0.5,
    rng: "RandomSource | int | None" = None,
    count_source_as_hit: bool = False,
    target: Optional[NodeId] = None,
) -> QueryResult:
    """Run one probabilistic-flooding query and return its result.

    Examples
    --------
    >>> g = Graph.complete(10)
    >>> probabilistic_flood(g, 0, 2, forward_probability=1.0, rng=1).hits
    9
    """
    search = ProbabilisticFloodingSearch(
        forward_probability=forward_probability, count_source_as_hit=count_source_as_hit
    )
    return search.run(graph, source, ttl, rng=rng, target=target)
