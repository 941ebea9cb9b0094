"""Normalized flooding search (NF, paper §V-A2, after Gkantsidis et al.).

Flooding explodes at hubs: a single high-degree node multiplies the message
count by its degree.  Normalized flooding caps the branching factor at the
*minimum degree* of the network, ``k_min``:

* a node whose degree equals ``k_min`` forwards the query to **all** of its
  neighbors except the one it received it from;
* a node with a larger degree forwards to ``k_min`` **randomly chosen**
  neighbors, again excluding the previous hop;
* the source initiates the query by sending it to ``k_min`` random neighbors
  (or all of them if it has fewer).

Nodes forward a given query at most once (duplicate suppression); duplicate
deliveries still count as messages.  The paper runs NF with ``k_min`` equal
to the construction parameter ``m`` even when deletions (CM) or short
horizons (DAPA) leave a few nodes below ``m``; the ``k_min`` parameter here
defaults to the graph's true minimum degree but can be pinned to ``m`` to
match that choice.
"""

from __future__ import annotations

import random  # repro-lint: disable=RPL103(annotation only: the loop draws from raw_stream(rng), the twister inside the RandomSource)
from math import ceil, log
from typing import List, Optional

from repro.core.csr import GraphLike
from repro.core.graph import Graph
from repro.core.rng import RandomSource, raw_stream
from repro.core.types import NodeId
from repro.search.base import QueryResult, SearchAlgorithm
from repro.telemetry.collector import active_telemetry

__all__ = ["NormalizedFloodingSearch", "normalized_flood"]


class NormalizedFloodingSearch(SearchAlgorithm):
    """TTL-bounded normalized flooding with branching factor ``k_min``.

    Parameters
    ----------
    k_min:
        Branching factor.  ``None`` (default) uses the minimum degree of the
        graph being searched, computed per query; the paper pins it to the
        construction parameter ``m``.
    count_source_as_hit:
        Whether the source counts as a hit (default ``False``).

    Examples
    --------
    >>> g = Graph.complete(6)
    >>> result = NormalizedFloodingSearch(k_min=2).run(g, source=0, ttl=1, rng=1)
    >>> result.hits_per_ttl[1]
    2
    """

    algorithm_name = "nf"

    def __init__(
        self, k_min: Optional[int] = None, count_source_as_hit: bool = False
    ) -> None:
        if k_min is not None and k_min < 1:
            raise ValueError("k_min must be at least 1")
        self.k_min = k_min
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

        branching = self.k_min
        if branching is None:
            branching = max(1, graph.min_degree())

        return self._run_fast(
            raw_stream(random_source), graph, source, ttl, branching, target
        )

    def _run_fast(
        self,
        stream: random.Random,
        graph: GraphLike,
        source: NodeId,
        ttl: int,
        branching: int,
        target: Optional[NodeId],
    ) -> QueryResult:
        """NF's hop-by-hop forwarding with its draws inlined.

        Each hop, every frontier node forwards to all of its candidates
        (its neighbors minus the previous hop) when it has at most
        ``branching`` of them, and to ``branching`` random candidates
        otherwise; a node joins the next frontier on its first visit only.
        The candidate order is the defined neighbor order shared by both
        graph representations, so a seeded query draws identically on a
        mutable and a frozen graph.

        Draws come from ``stream``, the Mersenne Twister underneath the
        :class:`~repro.core.rng.RandomSource`: each random pick is CPython's
        ``random.sample`` over a copy of the candidate list (pool swap when
        the population fits ``setsize``, index rejection against a set
        otherwise), with ``_randbelow`` inlined as its ``getrandbits``
        rejection loop, so the draws are those of the same loop written
        with ``rng.sample`` (the test oracle ``tests/oracles/nf.py``).  The
        graph is simple, so dropping the previous hop removes exactly one
        row entry.  Rows come from the graph's id -> neighbor-list mapping,
        bound once per query.
        """
        rows = graph.neighbor_lists()
        getrandbits = stream.getrandbits
        # random.sample's choice between its two algorithms.
        setsize = 21
        if branching > 5:
            setsize += 4 ** ceil(log(branching * 3, 4))
        telemetry = active_telemetry()
        observe = telemetry.observe if telemetry.enabled else None

        base_hits = 1 if self.count_source_as_hit else 0
        hits_per_ttl: List[int] = [base_hits]
        messages_per_ttl: List[int] = [0]
        visited = {source}
        visit = visited.add
        found_at: Optional[int] = 0 if target == source else None
        hits = base_hits
        messages = 0

        # The source forwards first, with no previous hop to exclude.
        frontier = [(source, None)]
        for hop in range(1, ttl + 1):
            next_frontier = []
            extend = next_frontier.append
            for node, previous in frontier:
                row = rows[node]
                size = len(row) if previous is None else len(row) - 1
                if size <= branching:
                    recipients = row
                    messages += size
                else:
                    # A copy: the cached row is shared by every query.
                    candidates = row.copy()
                    if previous is not None:
                        candidates.remove(previous)
                    recipients = []
                    pick = recipients.append
                    if size <= setsize:
                        for remaining in range(size, size - branching, -1):
                            width = remaining.bit_length()
                            index = getrandbits(width)
                            while index >= remaining:
                                index = getrandbits(width)
                            pick(candidates[index])
                            candidates[index] = candidates[remaining - 1]
                    else:
                        selected = set()
                        width = size.bit_length()
                        for _ in range(branching):
                            index = getrandbits(width)
                            while index >= size or index in selected:
                                index = getrandbits(width)
                            selected.add(index)
                            pick(candidates[index])
                    messages += branching
                # The previous hop is visited already, so a full row needs
                # no separate exclusion here.
                for neighbor in recipients:
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
            if observe is not None:
                observe("search.frontier", len(frontier))
            # An empty frontier ends the query from hop 2 on: when hop 1
            # reaches no new peer, hop 2 still records its (empty) frontier
            # in the histogram, as the test oracle does.
            if not frontier and hop > 1:
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


def normalized_flood(
    graph: Graph,
    source: NodeId,
    ttl: int,
    k_min: Optional[int] = None,
    rng: "RandomSource | int | None" = None,
    count_source_as_hit: bool = False,
    target: Optional[NodeId] = None,
) -> QueryResult:
    """Run one normalized-flooding query and return its result.

    Examples
    --------
    >>> g = Graph.complete(5)
    >>> normalized_flood(g, 0, 2, k_min=1, rng=3).hits >= 1
    True
    """
    search = NormalizedFloodingSearch(
        k_min=k_min, count_source_as_hit=count_source_as_hit
    )
    return search.run(graph, source, ttl, rng=rng, target=target)
