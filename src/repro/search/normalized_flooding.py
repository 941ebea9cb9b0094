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

import random  # repro-lint: disable=RPL103(annotation only: the inlined-draw path draws from raw_stream(rng), the twister inside a plain RandomSource)
from collections import deque
from math import ceil, log
from typing import List, Optional

from repro.core.csr import CSRGraph, GraphLike
from repro.core.graph import Graph
from repro.core.rng import RandomSource, raw_stream
from repro.core.types import NodeId
from repro.kernels.dispatch import kernel_ready
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

        if isinstance(graph, CSRGraph) and kernel_ready(random_source, "search"):
            # Kernel tier: same draws, same results, stream spliced back.
            from repro.kernels.search import nf_query

            hits, messages, visited, found_at = nf_query(
                graph, source, ttl, random_source, branching,
                self.count_source_as_hit, target,
            )
            return QueryResult(
                algorithm=self.algorithm_name,
                source=source,
                ttl=ttl,
                hits_per_ttl=hits,
                messages_per_ttl=messages,
                visited=visited,
                target=target,
                found_at=found_at,
            )
        stream = raw_stream(random_source)
        if stream is not None:
            return self._run_fast(stream, graph, source, ttl, branching, target)
        return self._run_reference(graph, source, ttl, random_source, branching, target)

    def _run_fast(
        self,
        stream: random.Random,
        graph: GraphLike,
        source: NodeId,
        ttl: int,
        branching: int,
        target: Optional[NodeId],
    ) -> QueryResult:
        """:meth:`_run_reference` with its draws inlined (plain sources only).

        Consumes exactly the reference's draws from ``stream``, the Mersenne
        Twister underneath a plain :class:`~repro.core.rng.RandomSource`:
        each ``rng.sample(candidates, branching)`` becomes CPython's
        ``random.sample`` over a copy of the candidate list (pool swap when
        the population fits ``setsize``, index rejection against a set
        otherwise), with ``_randbelow`` inlined as its ``getrandbits``
        rejection loop.  The graph is simple, so dropping the previous hop
        removes exactly one row entry.
        """
        neighbors_of = graph.iter_neighbors
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
                row = neighbors_of(node)
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
            # The reference records one more (empty) frontier when hop 1
            # reaches no new peer, so it stops no earlier than hop 2.
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

    def _run_reference(
        self,
        graph: GraphLike,
        source: NodeId,
        ttl: int,
        random_source: RandomSource,
        branching: int,
        target: Optional[NodeId],
    ) -> QueryResult:
        """The reference loop: every draw goes through ``random_source``.

        Subclassed sources (counting or instrumented) take this path, and
        the kernel self-check and the fast-loop tests compare against it.
        """
        base_hits = 1 if self.count_source_as_hit else 0
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
            recipients = self._select_recipients(
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
                recipients = self._select_recipients(
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
            algorithm=self.algorithm_name,
            source=source,
            ttl=ttl,
            hits_per_ttl=hits_per_ttl,
            messages_per_ttl=messages_per_ttl,
            visited=visited,
            target=target,
            found_at=found_at,
        )

    # ------------------------------------------------------------------ #
    # Forwarding rule
    # ------------------------------------------------------------------ #
    @staticmethod
    def _select_recipients(
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
