"""Gnutella-like query protocol over the live overlay.

:class:`GnutellaProtocol` executes content searches on a
:class:`~repro.simulation.network.P2PNetwork` through its event queue, using
one of the three forwarding policies the paper evaluates:

* ``"fl"`` — flooding: forward to every neighbor except the previous hop;
* ``"nf"`` — normalized flooding: forward to at most ``k_min`` random
  neighbors (all of them at degree-``k_min`` peers);
* ``"rw"`` — random walk: forward to one random neighbor (optionally several
  parallel walkers at the source).

Every peer that shares the requested keyword answers with a
:class:`~repro.simulation.messages.QueryHit` routed back to the source (the
simulation delivers hits directly to the origin, as Gnutella does over the
reverse path / a direct connection; the reverse-path traffic is accounted in
``QueryStats.hit_messages``).

The protocol produces :class:`QueryStats` that mirror the paper's metrics —
peers reached, messages used — plus content-level metrics (items found, time
to first hit) that the example applications use.

Batched queries
---------------
:meth:`GnutellaProtocol.query_batch` runs many queries over a *frozen*
snapshot of the overlay using synchronous FIFO semantics instead of the
event heap: deliveries are processed in send order over the snapshot's CSR
``indptr``/``indices`` rows (insertion order, *not* the live peers' sorted
neighbor tables), and ``first_hit_time`` reports the hop count of the first
provider delivery rather than a latency timestamp.  The batch is therefore
*not* draw-for-draw comparable to the event-driven :meth:`~GnutellaProtocol.query`
(whose every ``send`` draws a latency sample), and it leaves per-peer
counters untouched.
The overlay must stay static for the duration of the batch.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.errors import SimulationError
from repro.core.rng import RandomSource, ensure_source
from repro.core.types import NodeId
from repro.simulation.messages import Query, QueryHit, next_message_id
from repro.simulation.network import P2PNetwork

__all__ = ["GnutellaProtocol", "QueryStats", "batch_query_reference"]

_POLICIES = ("fl", "nf", "rw")


@dataclass
class QueryStats:
    """Outcome of one simulated query.

    Attributes
    ----------
    query_id:
        Message id of the query.
    source:
        The querying peer.
    keyword:
        The requested item.
    policy:
        Forwarding policy used ("fl", "nf", or "rw").
    ttl:
        Initial time-to-live.
    peers_reached:
        Distinct peers (excluding the source) that received the query.
    query_messages:
        Number of query forwards sent.
    hit_messages:
        Number of query-hit responses sent back to the source.
    providers:
        Peers that answered with a hit.
    first_hit_time:
        Simulation time of the first hit delivery (``None`` if no hit).
    completed_at:
        Simulation time when the query stopped propagating.
    """

    query_id: int
    source: NodeId
    keyword: str
    policy: str
    ttl: int
    peers_reached: int = 0
    query_messages: int = 0
    hit_messages: int = 0
    providers: Set[NodeId] = field(default_factory=set)
    first_hit_time: Optional[float] = None
    completed_at: float = 0.0

    @property
    def success(self) -> bool:
        """``True`` when at least one provider answered."""
        return bool(self.providers)

    @property
    def total_messages(self) -> int:
        """Query forwards plus hit responses."""
        return self.query_messages + self.hit_messages

    def as_dict(self) -> Dict[str, object]:
        """Return a JSON-friendly summary."""
        return {
            "query_id": self.query_id,
            "source": self.source,
            "keyword": self.keyword,
            "policy": self.policy,
            "ttl": self.ttl,
            "peers_reached": self.peers_reached,
            "query_messages": self.query_messages,
            "hit_messages": self.hit_messages,
            "providers": sorted(self.providers),
            "success": self.success,
            "first_hit_time": self.first_hit_time,
        }


def batch_query_reference(
    frozen,
    source_rows: Sequence[int],
    ttl: int,
    policy: str,
    branching: int,
    walkers: int,
    provider_mask: np.ndarray,
    rng: RandomSource,
) -> Tuple[List[int], List[int], List[int], List[int], List[List[int]]]:
    """Pure-Python batched queries over a frozen overlay's CSR rows.

    Deliveries run in FIFO send order.  Everything is in *row* space —
    ``source_rows`` and the returned provider lists index rows of
    ``frozen``.  Returns
    ``(peers_reached, query_messages, hit_messages, first_hit_hop,
    providers)`` per query, with ``first_hit_hop == -1`` when no provider
    answered.
    """
    indptr = frozen._indptr
    indices = frozen._indices
    reached_out: List[int] = []
    query_messages_out: List[int] = []
    hit_messages_out: List[int] = []
    first_hit_out: List[int] = []
    providers_out: List[List[int]] = []
    for source in source_rows:
        source = int(source)
        seen = {source}
        reached = 0
        query_messages = 0
        hit_messages = 0
        first_hit = -1
        providers: List[int] = []
        queue: "deque[Tuple[int, int, int]]" = deque()

        neighbors = [int(row) for row in indices[indptr[source] : indptr[source + 1]]]
        if neighbors:
            if policy == "fl":
                recipients = neighbors
            elif policy == "nf":
                if len(neighbors) <= branching:
                    recipients = neighbors
                else:
                    recipients = rng.sample(neighbors, branching)
            else:  # random walk: min(walkers, degree) independent walkers
                recipients = [
                    neighbors[rng.randint(0, len(neighbors) - 1)]
                    for _ in range(min(walkers, len(neighbors)))
                ]
            for recipient in recipients:
                queue.append((recipient, source, ttl))
                query_messages += 1

        while queue:
            node, previous, message_ttl = queue.popleft()
            first_time = node not in seen
            if first_time:
                seen.add(node)
                reached += 1
                if provider_mask[node]:
                    hit_messages += 1
                    providers.append(node)
                    if first_hit < 0:
                        first_hit = ttl - message_ttl + 1
            if not first_time:
                continue
            if message_ttl - 1 < 1:
                continue
            neighbors = [
                int(row)
                for row in indices[indptr[node] : indptr[node + 1]]
                if int(row) != previous
            ]
            if not neighbors:
                continue
            if policy == "fl":
                recipients = neighbors
            elif policy == "nf":
                if len(neighbors) <= branching:
                    recipients = neighbors
                else:
                    recipients = rng.sample(neighbors, branching)
            else:
                recipients = [neighbors[rng.randint(0, len(neighbors) - 1)]]
            for recipient in recipients:
                queue.append((recipient, node, message_ttl - 1))
                query_messages += 1

        reached_out.append(reached)
        query_messages_out.append(query_messages)
        hit_messages_out.append(hit_messages)
        first_hit_out.append(first_hit)
        providers_out.append(providers)
    return reached_out, query_messages_out, hit_messages_out, first_hit_out, providers_out


class GnutellaProtocol:
    """Query execution engine bound to one :class:`P2PNetwork`.

    Parameters
    ----------
    network:
        The live overlay to search.
    policy:
        Default forwarding policy ("fl", "nf", or "rw").
    k_min:
        Branching factor for normalized flooding; defaults to the minimum
        degree of the overlay at query time.
    walkers:
        Number of parallel walkers for random-walk queries.
    rng:
        Random source or seed for the probabilistic forwarding decisions.

    Examples
    --------
    >>> network = P2PNetwork(hard_cutoff=6, stubs=2, rng=3)
    >>> ids = [network.join() for _ in range(20)]
    >>> network.peer(ids[-1]).share("song.mp3")
    >>> protocol = GnutellaProtocol(network, policy="fl", rng=3)
    >>> stats = protocol.query(ids[0], "song.mp3", ttl=6)
    >>> stats.peers_reached > 0
    True
    """

    def __init__(
        self,
        network: P2PNetwork,
        policy: str = "fl",
        k_min: Optional[int] = None,
        walkers: int = 1,
        rng: "RandomSource | int | None" = None,
    ) -> None:
        if policy not in _POLICIES:
            raise SimulationError(
                f"unknown forwarding policy {policy!r}; expected one of {_POLICIES}"
            )
        if walkers < 1:
            raise SimulationError("walkers must be at least 1")
        self.network = network
        self.policy = policy
        self.k_min = k_min
        self.walkers = walkers
        self.rng = ensure_source(rng)
        self._active: Dict[int, QueryStats] = {}
        network.set_message_handler(self._handle_message)

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def query(
        self,
        source: NodeId,
        keyword: str,
        ttl: int = 5,
        policy: Optional[str] = None,
        run: bool = True,
    ) -> QueryStats:
        """Issue a query from ``source`` and (by default) run it to completion."""
        if ttl < 1:
            raise SimulationError("ttl must be at least 1")
        active_policy = policy or self.policy
        if active_policy not in _POLICIES:
            raise SimulationError(f"unknown forwarding policy {active_policy!r}")
        source_peer = self.network.peer(source)

        message = Query(
            message_id=next_message_id(),
            origin=source,
            ttl=ttl,
            keyword=keyword,
        )
        stats = QueryStats(
            query_id=message.message_id,
            source=source,
            keyword=keyword,
            policy=active_policy,
            ttl=ttl,
        )
        self._active[message.message_id] = stats
        source_peer.mark_seen(message.message_id)

        recipients = self._initial_recipients(source, active_policy)
        for recipient in recipients:
            stats.query_messages += 1
            source_peer.messages_forwarded += 1
            self.network.send(source, recipient, message)

        if run:
            self.network.run()
            stats.completed_at = self.network.now
        return stats

    def query_batch(
        self,
        sources: Sequence[NodeId],
        keyword: str,
        ttl: int = 5,
        policy: Optional[str] = None,
    ) -> List[QueryStats]:
        """Run many queries over a frozen snapshot of the overlay.

        Unlike :meth:`query`, the batch path does not go through the event
        queue: the overlay is frozen once into CSR arrays and every query is
        drained synchronously in FIFO send order over those rows (see the
        module docstring for the exact semantics and how they differ from
        the event-driven path).  ``first_hit_time`` on the returned stats is
        the *hop count* of the first provider delivery, not a simulation
        timestamp, and per-peer counters (``messages_forwarded``,
        ``queries_answered``) are not updated.  The batch runs in
        :func:`batch_query_reference`.
        """
        if ttl < 1:
            raise SimulationError("ttl must be at least 1")
        active_policy = policy or self.policy
        if active_policy not in _POLICIES:
            raise SimulationError(f"unknown forwarding policy {active_policy!r}")
        for source in sources:
            self.network.peer(source)  # validates membership

        frozen = self.network.graph.freeze()
        rows = [frozen._row_of(source) for source in sources]
        provider_mask = np.zeros(self.network.graph.number_of_nodes, dtype=np.bool_)
        for node, peer in self.network.peers.items():  # repro-lint: disable=RPL102(order-insensitive: fills a boolean mask keyed by CSR row, no draws consumed)
            if peer.has_item(keyword):
                provider_mask[frozen._row_of(node)] = True
        reached, query_messages, hit_messages, first_hits, providers = (
            batch_query_reference(
                frozen, rows, ttl, active_policy, self._branching(), self.walkers,
                provider_mask, self.rng,
            )
        )

        stats_list: List[QueryStats] = []
        for index, source in enumerate(sources):
            stats = QueryStats(
                query_id=next_message_id(),
                source=source,
                keyword=keyword,
                policy=active_policy,
                ttl=ttl,
                peers_reached=reached[index],
                query_messages=query_messages[index],
                hit_messages=hit_messages[index],
                providers={frozen._id_of(row) for row in providers[index]},
                first_hit_time=(
                    float(first_hits[index]) if first_hits[index] >= 0 else None
                ),
            )
            self._active[stats.query_id] = stats
            stats_list.append(stats)
        return stats_list

    def stats_for(self, query_id: int) -> QueryStats:
        """Return the statistics collected for ``query_id``."""
        try:
            return self._active[query_id]
        except KeyError:
            raise SimulationError(f"unknown query id {query_id}") from None

    # ------------------------------------------------------------------ #
    # Message handling
    # ------------------------------------------------------------------ #
    def _handle_message(
        self, network: P2PNetwork, sender: NodeId, recipient: NodeId, message
    ) -> None:
        if isinstance(message, QueryHit):
            self._handle_hit(recipient, message)
            return
        if isinstance(message, Query):
            self._handle_query(sender, recipient, message)

    def _handle_hit(self, recipient: NodeId, hit: QueryHit) -> None:
        stats = self._active.get(hit.query_id)
        if stats is None or recipient != stats.source:
            return
        stats.providers.add(hit.responder)
        if stats.first_hit_time is None:
            stats.first_hit_time = self.network.now

    def _handle_query(self, sender: NodeId, recipient: NodeId, query: Query) -> None:
        stats = self._active.get(query.message_id)
        peer = self.network.peers.get(recipient)
        if peer is None:
            return
        first_time = peer.mark_seen(query.message_id)
        if stats is not None and first_time:
            stats.peers_reached += 1

        # Answer if the peer shares the item (only on the first delivery, so
        # duplicate floods do not trigger duplicate hits).
        if first_time and peer.has_item(query.keyword):
            peer.queries_answered += 1
            hit = QueryHit(
                message_id=next_message_id(),
                origin=recipient,
                ttl=query.hops + 1,
                responder=recipient,
                keyword=query.keyword,
                query_id=query.message_id,
            )
            if stats is not None:
                stats.hit_messages += 1
            self.network.send(recipient, stats.source if stats else query.origin, hit)

        if not first_time or query.expired:
            return
        forwarded = query.forwarded()
        if forwarded.expired:
            # The ttl reached zero on this hop: the message was delivered but
            # the recipient does not propagate it further.
            return
        policy = stats.policy if stats is not None else self.policy
        recipients = self._forward_recipients(recipient, sender, policy)
        for target in recipients:
            if stats is not None:
                stats.query_messages += 1
            peer.messages_forwarded += 1
            self.network.send(recipient, target, forwarded)

    # ------------------------------------------------------------------ #
    # Forwarding rules
    # ------------------------------------------------------------------ #
    def _branching(self) -> int:
        if self.k_min is not None:
            return self.k_min
        graph = self.network.graph
        return max(1, graph.min_degree()) if graph.number_of_nodes else 1

    def _initial_recipients(self, source: NodeId, policy: str) -> List[NodeId]:
        neighbors = self.network.peer(source).neighbors()
        if not neighbors:
            return []
        if policy == "fl":
            return neighbors
        if policy == "nf":
            branching = self._branching()
            if len(neighbors) <= branching:
                return neighbors
            return self.rng.sample(neighbors, branching)
        # random walk: launch `walkers` walkers
        return [
            neighbors[self.rng.randint(0, len(neighbors) - 1)]
            for _ in range(min(self.walkers, max(1, len(neighbors))))
        ]

    def _forward_recipients(
        self, holder: NodeId, previous: NodeId, policy: str
    ) -> List[NodeId]:
        neighbors = [
            peer for peer in self.network.peer(holder).neighbors() if peer != previous
        ]
        if not neighbors:
            return []
        if policy == "fl":
            return neighbors
        if policy == "nf":
            branching = self._branching()
            if len(neighbors) <= branching:
                return neighbors
            return self.rng.sample(neighbors, branching)
        return [neighbors[self.rng.randint(0, len(neighbors) - 1)]]
