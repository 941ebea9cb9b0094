"""Protocol messages of the simulated unstructured P2P network.

The message vocabulary follows the Gnutella 0.4 protocol the paper's
motivation is built around:

* :class:`Ping` / :class:`Pong` — neighbor discovery: a peer learns about
  other peers (and their degrees, which the HAPA-style join rule needs) by
  pinging its neighborhood;
* :class:`Query` / :class:`QueryHit` — content search: a query is forwarded
  according to the configured search policy (flooding, normalized flooding,
  or random walk) and every peer holding a matching item answers with a hit.

Every message carries a globally unique ``message_id`` so peers can suppress
duplicates, a ``ttl`` that is decremented at every forwarding step, and a
``hops`` counter used for accounting.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

from repro.core.errors import SimulationError
from repro.core.types import NodeId

__all__ = ["Message", "Ping", "Pong", "Query", "QueryHit", "next_message_id"]

_MESSAGE_COUNTER = itertools.count(1)


def next_message_id() -> int:
    """Return a process-wide unique message identifier."""
    return next(_MESSAGE_COUNTER)


@dataclass(frozen=True)
class Message:
    """Base class for all protocol messages.

    Attributes
    ----------
    message_id:
        Globally unique identifier used for duplicate suppression.
    origin:
        The peer that created the message.
    ttl:
        Remaining time-to-live; a message with ``ttl == 0`` is not forwarded
        any further.
    hops:
        Number of overlay hops travelled so far.
    """

    message_id: int
    origin: NodeId
    ttl: int
    hops: int = 0

    def __post_init__(self) -> None:
        if self.ttl < 0:
            raise SimulationError("ttl must be non-negative")
        if self.hops < 0:
            raise SimulationError("hops must be non-negative")

    def forwarded(self) -> "Message":
        """Return a copy with ``ttl`` decremented and ``hops`` incremented."""
        if self.ttl <= 0:
            raise SimulationError("cannot forward a message whose ttl is exhausted")
        return replace(self, ttl=self.ttl - 1, hops=self.hops + 1)

    @property
    def expired(self) -> bool:
        """``True`` when the message must not be forwarded further."""
        return self.ttl <= 0


@dataclass(frozen=True)
class Ping(Message):
    """Neighbor-discovery probe flooded a small number of hops."""


@dataclass(frozen=True)
class Pong(Message):
    """Answer to a :class:`Ping`.

    Attributes
    ----------
    responder:
        The peer answering the ping.
    responder_degree:
        The responder's current overlay degree — the piece of state a
        degree-proportional (PA-style) join rule needs.
    """

    responder: NodeId = -1
    responder_degree: int = 0


@dataclass(frozen=True)
class Query(Message):
    """Content search request.

    Attributes
    ----------
    keyword:
        The item identifier being searched for.
    """

    keyword: str = ""


@dataclass(frozen=True)
class QueryHit(Message):
    """Answer to a :class:`Query` from a peer holding the item.

    Attributes
    ----------
    responder:
        The peer that holds the requested item.
    keyword:
        The matched item identifier.
    query_id:
        ``message_id`` of the query being answered.
    """

    responder: NodeId = -1
    keyword: str = ""
    query_id: int = -1
