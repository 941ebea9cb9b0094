"""Random-walk search (RW, paper §V-A3).

The query is handed from node to node: each holder forwards it to one
uniformly random neighbor, excluding the neighbor it came from (a
non-backtracking step), until the target is found or ``τ`` hops have been
taken.  A walk that reaches a dead end (its only neighbor is the previous
hop) terminates early.

Multiple parallel walkers — the "multiple RWs" the paper repeatedly mentions
as the practical variant — are supported via the ``walkers`` parameter; hits
are the distinct nodes visited by *any* walker and messages are the total
hops taken by all of them.

The paper compares RW against NF at equal message cost: "we equated τ of RW
searches to the number of messages incurred by the NF searches in the same
scenario."  That normalization lives in
:func:`repro.search.metrics.normalized_walk_curve`, which drives this module.

Both graph representations behave identically under a seed: every
step draws one integer over the same candidate count and maps it onto the
same (insertion-ordered) neighbor list, whether the graph is a mutable
:class:`~repro.core.graph.Graph` or a frozen
:class:`~repro.core.csr.CSRGraph`.
"""

from __future__ import annotations

import random  # repro-lint: disable=RPL103(annotation only: the single-walker loop draws from raw_stream(rng), the twister inside the RandomSource)
from typing import List, Optional

from repro.core.csr import GraphLike
from repro.core.graph import Graph
from repro.core.rng import RandomSource, raw_stream
from repro.core.types import NodeId
from repro.search.base import QueryResult, SearchAlgorithm

__all__ = ["RandomWalkSearch", "random_walk"]


class RandomWalkSearch(SearchAlgorithm):
    """TTL-bounded (non-backtracking) random-walk search.

    Parameters
    ----------
    walkers:
        Number of parallel walkers launched by the source (default 1).
    count_source_as_hit:
        Whether the source counts as a hit (default ``False``).
    allow_backtracking:
        If ``True`` the walker may return to the node it came from; the paper
        excludes the previous hop, which is the default here.

    Examples
    --------
    >>> g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    >>> result = RandomWalkSearch().run(g, source=0, ttl=3, rng=1)
    >>> result.hits
    3
    """

    algorithm_name = "rw"

    def __init__(
        self,
        walkers: int = 1,
        count_source_as_hit: bool = False,
        allow_backtracking: bool = False,
    ) -> None:
        if walkers < 1:
            raise ValueError("walkers must be at least 1")
        self.walkers = walkers
        self.count_source_as_hit = count_source_as_hit
        self.allow_backtracking = allow_backtracking

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

        if self.walkers == 1:
            return self._run_fast(raw_stream(random_source), graph, source, ttl, target)
        return self._run_walkers(graph, source, ttl, random_source, target)

    def _run_fast(
        self,
        stream: random.Random,
        graph: GraphLike,
        source: NodeId,
        ttl: int,
        target: Optional[NodeId],
    ) -> QueryResult:
        """:meth:`_run_walkers` for one walker, the paper's RW, with its
        draws inlined.

        Each step's ``rng.randint(0, count - 1)`` becomes CPython's
        ``_randbelow(count)`` rejection loop over a bound ``getrandbits``
        (which draws even for ``count == 1``) of ``stream``, the Mersenne
        Twister underneath the source.  The graph is simple and
        symmetric, so the previous hop sits exactly once in the current
        row, read from the graph's id -> neighbor-list mapping (bound once
        per query).  The walk sends one message per hop until it gets
        stuck.
        """
        rows = graph.neighbor_lists()
        getrandbits = stream.getrandbits
        exclude_previous = not self.allow_backtracking

        base_hits = 1 if self.count_source_as_hit else 0
        hits_per_ttl: List[int] = [base_hits]
        record = hits_per_ttl.append
        visited = {source}
        visit = visited.add
        found_at: Optional[int] = 0 if target == source else None
        hits = base_hits

        node, before = source, None
        for hop in range(1, ttl + 1):
            row = rows[node]
            size = len(row)
            skip = size
            if exclude_previous and before is not None:
                skip = row.index(before)
                size -= 1
            if not size:
                break
            width = size.bit_length()
            choice = getrandbits(width)
            while choice >= size:
                choice = getrandbits(width)
            if choice >= skip:
                choice += 1
            before, node = node, row[choice]
            if node not in visited:
                visit(node)
                hits += 1
                if node == target:
                    found_at = hop
            record(hits)
        messages = len(hits_per_ttl) - 1  # one per hop taken
        padding = ttl - messages
        hits_per_ttl.extend([hits] * padding)
        messages_per_ttl = list(range(messages + 1)) + [messages] * padding

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

    def _run_walkers(
        self,
        graph: GraphLike,
        source: NodeId,
        ttl: int,
        random_source: RandomSource,
        target: Optional[NodeId],
    ) -> QueryResult:
        """Any number of walkers, stepping in walker-index order each hop.

        Every step draws through ``random_source.randint``.  ``walkers > 1``
        takes this loop; at one walker it is the test oracle of
        :meth:`_run_fast`.
        """
        base_hits = 1 if self.count_source_as_hit else 0
        visited = {source}
        hits_per_ttl: List[int] = [base_hits]
        messages_per_ttl: List[int] = [0]
        found_at: Optional[int] = 0 if target == source else None

        cumulative_hits = base_hits
        cumulative_messages = 0

        # Walker state: (current node, previous node, alive flag).
        walker_positions: List[NodeId] = [source] * self.walkers
        walker_previous: List[Optional[NodeId]] = [None] * self.walkers
        walker_alive: List[bool] = [True] * self.walkers

        for hop in range(1, ttl + 1):
            for index in range(self.walkers):
                if not walker_alive[index]:
                    continue
                current = walker_positions[index]
                previous = walker_previous[index]
                # The candidate set is the neighbor list minus the previous
                # hop.  Instead of materialising that filtered list every
                # step, draw an index into it and map the index back onto
                # the shared neighbor list (skipping the previous hop's
                # position) — same draw, same neighbor, no allocation.
                neighbors = graph.iter_neighbors(current)
                exclude_position = -1
                if not self.allow_backtracking and previous is not None:
                    try:
                        exclude_position = neighbors.index(previous)
                    except ValueError:  # pragma: no cover - previous is adjacent
                        exclude_position = -1
                candidate_count = len(neighbors) - (1 if exclude_position >= 0 else 0)
                if candidate_count == 0:
                    walker_alive[index] = False
                    continue
                choice = random_source.randint(0, candidate_count - 1)
                if 0 <= exclude_position <= choice:
                    choice += 1
                next_node = neighbors[choice]
                cumulative_messages += 1
                walker_previous[index] = current
                walker_positions[index] = next_node
                if next_node not in visited:
                    visited.add(next_node)
                    cumulative_hits += 1
                    if target is not None and next_node == target and found_at is None:
                        found_at = hop
            hits_per_ttl.append(cumulative_hits)
            messages_per_ttl.append(cumulative_messages)
            if not any(walker_alive):
                for _ in range(hop + 1, ttl + 1):
                    hits_per_ttl.append(cumulative_hits)
                    messages_per_ttl.append(cumulative_messages)
                break

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


def random_walk(
    graph: Graph,
    source: NodeId,
    ttl: int,
    walkers: int = 1,
    rng: "RandomSource | int | None" = None,
    count_source_as_hit: bool = False,
    target: Optional[NodeId] = None,
    allow_backtracking: bool = False,
) -> QueryResult:
    """Run one random-walk query and return its result.

    Examples
    --------
    >>> g = Graph.complete(10)
    >>> random_walk(g, 0, 5, rng=7).messages
    5
    """
    search = RandomWalkSearch(
        walkers=walkers,
        count_source_as_hit=count_source_as_hit,
        allow_backtracking=allow_backtracking,
    )
    return search.run(graph, source, ttl, rng=rng, target=target)
