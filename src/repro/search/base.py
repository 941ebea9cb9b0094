"""Common types and interface for the search algorithms.

Every algorithm answers the same question the paper's simulations ask: given
an overlay graph, a source peer, and a time-to-live ``τ``, how many distinct
peers does one query reach and how many messages does it cost?  The
:class:`QueryResult` captures those two quantities *per TTL value* so a
single simulation run yields the whole hits-vs-τ curve (the paper plots hits
for τ = 1..20 or 1..10; recomputing the search from scratch for every τ would
waste orders of magnitude of work).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.core.csr import GraphLike
from repro.core.errors import SearchError
from repro.core.rng import RandomSource, ensure_source
from repro.core.types import NodeId

__all__ = ["QueryResult", "SearchAlgorithm"]


@dataclass
class QueryResult:
    """Outcome of a single query from one source node.

    Attributes
    ----------
    algorithm:
        Name of the search algorithm that produced the result.
    source:
        The querying peer.
    ttl:
        The maximum TTL simulated (the curves cover ``1..ttl``).
    hits_per_ttl:
        ``hits_per_ttl[t]`` is the number of distinct peers reached within
        ``t`` hops, for ``t = 0..ttl`` (index 0 is 0 or 1 depending on whether
        the source counts as a hit).
    messages_per_ttl:
        ``messages_per_ttl[t]`` is the cumulative number of messages sent up
        to and including hop ``t``.
    visited:
        The set of peers reached within the full TTL (including the source).
    target:
        Optional destination peer; when set, ``found_at`` records the hop at
        which it was first reached (or ``None`` if never reached).
    found_at:
        Hop count at which ``target`` was reached, if any.
    """

    algorithm: str
    source: NodeId
    ttl: int
    hits_per_ttl: List[int]
    messages_per_ttl: List[int]
    visited: set = field(default_factory=set)
    target: Optional[NodeId] = None
    found_at: Optional[int] = None

    @property
    def hits(self) -> int:
        """Distinct peers reached within the full TTL."""
        return self.hits_per_ttl[-1]

    @property
    def messages(self) -> int:
        """Total messages sent within the full TTL."""
        return self.messages_per_ttl[-1]

    @property
    def success(self) -> bool:
        """Whether the target (if any) was located."""
        return self.target is not None and self.found_at is not None

    def hits_at(self, ttl: int) -> int:
        """Distinct peers reached within ``ttl`` hops."""
        if ttl < 0:
            raise SearchError("ttl must be non-negative")
        index = min(ttl, len(self.hits_per_ttl) - 1)
        return self.hits_per_ttl[index]

    def messages_at(self, ttl: int) -> int:
        """Messages sent within ``ttl`` hops."""
        if ttl < 0:
            raise SearchError("ttl must be non-negative")
        index = min(ttl, len(self.messages_per_ttl) - 1)
        return self.messages_per_ttl[index]


class SearchAlgorithm(abc.ABC):
    """Abstract base class for TTL-bounded decentralised search algorithms."""

    #: Short machine-readable name ("fl", "nf", "rw"); subclasses override.
    algorithm_name: str = "abstract"

    @abc.abstractmethod
    def run(
        self,
        graph: GraphLike,
        source: NodeId,
        ttl: int,
        rng: "RandomSource | int | None" = None,
        target: Optional[NodeId] = None,
    ) -> QueryResult:
        """Simulate one query from ``source`` with time-to-live ``ttl``."""

    # ------------------------------------------------------------------ #
    # Shared helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def _validate(graph: GraphLike, source: NodeId, ttl: int) -> None:
        if ttl < 0:
            raise SearchError("ttl must be non-negative")
        if not graph.has_node(source):
            raise SearchError(f"source node {source!r} is not in the graph")

    @staticmethod
    def _resolve_rng(rng: "RandomSource | int | None") -> RandomSource:
        return ensure_source(rng)

    def run_many(
        self,
        graph: GraphLike,
        sources: Sequence[NodeId],
        ttl: int,
        rng: "RandomSource | int | None" = None,
        target: Optional[NodeId] = None,
    ) -> List[QueryResult]:
        """Run one query per source node and return the individual results."""
        source_rng = self._resolve_rng(rng)
        return [
            self.run(graph, source, ttl, rng=source_rng, target=target)
            for source in sources
        ]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"
