"""Peers and their bounded neighbor tables.

The hard cutoff the paper studies is, operationally, a bound on the size of
each peer's neighbor table: "peers are not willing to maintain high
degrees/loads as they may not want to store large number of entries for
construction of the overlay topology."  :class:`NeighborTable` enforces that
bound and :class:`Peer` adds the per-peer protocol state: shared content,
seen-message cache, and counters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.core.errors import SimulationError
from repro.core.rng import RandomSource
from repro.core.types import NodeId

__all__ = ["NeighborTable", "Peer"]


class NeighborTable:
    """A peer's neighbor list with an optional hard capacity.

    Examples
    --------
    >>> table = NeighborTable(capacity=2)
    >>> table.add(1)
    True
    >>> table.add(2)
    True
    >>> table.add(3)
    False
    >>> table.is_full
    True
    >>> sorted(table)
    [1, 2]
    """

    __slots__ = ("_capacity", "_neighbors")

    def __init__(self, capacity: Optional[int] = None) -> None:
        if capacity is not None and capacity < 1:
            raise SimulationError("neighbor table capacity must be at least 1")
        self._capacity = capacity
        self._neighbors: Set[NodeId] = set()

    # ------------------------------------------------------------------ #
    # Capacity
    # ------------------------------------------------------------------ #
    @property
    def capacity(self) -> Optional[int]:
        """Maximum number of entries, or ``None`` for unbounded."""
        return self._capacity

    @property
    def is_full(self) -> bool:
        """``True`` when no further neighbor can be added."""
        return self._capacity is not None and len(self._neighbors) >= self._capacity

    @property
    def free_slots(self) -> Optional[int]:
        """Number of remaining slots (``None`` when unbounded)."""
        if self._capacity is None:
            return None
        return max(0, self._capacity - len(self._neighbors))

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #
    def add(self, peer_id: NodeId) -> bool:
        """Add ``peer_id``; return ``False`` if full or already present."""
        if peer_id in self._neighbors:
            return False
        if self.is_full:
            return False
        self._neighbors.add(peer_id)
        return True

    def remove(self, peer_id: NodeId) -> bool:
        """Remove ``peer_id``; return ``False`` if it was not a neighbor."""
        if peer_id not in self._neighbors:
            return False
        self._neighbors.discard(peer_id)
        return True

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def __contains__(self, peer_id: object) -> bool:
        return peer_id in self._neighbors

    def __iter__(self):
        return iter(sorted(self._neighbors))

    def __len__(self) -> int:
        return len(self._neighbors)

    def as_list(self) -> List[NodeId]:
        """Return the neighbor ids as a sorted list."""
        return sorted(self._neighbors)

    def random_neighbor(self, rng: RandomSource) -> Optional[NodeId]:
        """Return a uniformly random neighbor (or ``None`` if empty)."""
        if not self._neighbors:
            return None
        ordered = sorted(self._neighbors)
        return ordered[rng.randint(0, len(ordered) - 1)]


@dataclass
class Peer:
    """A participant of the simulated unstructured P2P network.

    Attributes
    ----------
    peer_id:
        Unique identifier (shared with the overlay graph node id).
    neighbor_table:
        Bounded neighbor list; its capacity is the peer's hard cutoff.
    shared_items:
        Keywords of the content items this peer shares.
    seen_messages:
        Message ids already handled, for duplicate suppression.
    messages_received / messages_forwarded / queries_answered:
        Protocol counters used by the messaging-complexity analysis.
    online:
        ``False`` after the peer leaves the network (churn).
    joined_at / left_at:
        Simulation timestamps maintained by the churn process.
    """

    peer_id: NodeId
    neighbor_table: NeighborTable = field(default_factory=NeighborTable)
    shared_items: Set[str] = field(default_factory=set)
    seen_messages: Set[int] = field(default_factory=set)
    messages_received: int = 0
    messages_forwarded: int = 0
    queries_answered: int = 0
    online: bool = True
    joined_at: float = 0.0
    left_at: Optional[float] = None

    # ------------------------------------------------------------------ #
    # Neighbors
    # ------------------------------------------------------------------ #
    @property
    def degree(self) -> int:
        """Current number of overlay neighbors."""
        return len(self.neighbor_table)

    @property
    def hard_cutoff(self) -> Optional[int]:
        """This peer's neighbor-table capacity."""
        return self.neighbor_table.capacity

    def neighbors(self) -> List[NodeId]:
        """Return the sorted neighbor list."""
        return self.neighbor_table.as_list()

    # ------------------------------------------------------------------ #
    # Content
    # ------------------------------------------------------------------ #
    def share(self, keyword: str) -> None:
        """Start sharing an item."""
        self.shared_items.add(keyword)

    def unshare(self, keyword: str) -> None:
        """Stop sharing an item (no error if it was not shared)."""
        self.shared_items.discard(keyword)

    def has_item(self, keyword: str) -> bool:
        """Return ``True`` if this peer shares ``keyword``."""
        return keyword in self.shared_items

    # ------------------------------------------------------------------ #
    # Message bookkeeping
    # ------------------------------------------------------------------ #
    def mark_seen(self, message_id: int) -> bool:
        """Record a message id; return ``False`` if it was already seen."""
        if message_id in self.seen_messages:
            return False
        self.seen_messages.add(message_id)
        return True

    def reset_counters(self) -> None:
        """Zero the protocol counters (used between measurement windows)."""
        self.messages_received = 0
        self.messages_forwarded = 0
        self.queries_answered = 0

    def snapshot(self) -> Dict[str, object]:
        """Return a JSON-friendly snapshot of the peer's state."""
        return {
            "peer_id": self.peer_id,
            "degree": self.degree,
            "hard_cutoff": self.hard_cutoff,
            "shared_items": len(self.shared_items),
            "messages_received": self.messages_received,
            "messages_forwarded": self.messages_forwarded,
            "queries_answered": self.queries_answered,
            "online": self.online,
        }
