"""Content catalogs and query workloads for the P2P simulation.

The paper's search metrics are content-agnostic (hits = peers reached), but
the example applications and the protocol-level tests need actual items to
search for.  This module provides the standard unstructured-P2P workload
model used throughout the literature the paper cites (Lv et al., Cohen &
Shenker): a catalog of items whose popularity follows a Zipf distribution,
replicated across peers either uniformly or proportionally to popularity,
and a query stream that requests items with the same Zipf popularity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.errors import ConfigurationError, SimulationError
from repro.core.rng import RandomSource, ensure_source
from repro.core.types import NodeId

__all__ = ["ContentCatalog", "QueryWorkload", "zipf_probabilities"]


def zipf_probabilities(number_of_items: int, skew: float) -> np.ndarray:
    """Return Zipf popularity probabilities for ranks ``1..number_of_items``.

    ``p(rank) ∝ rank^{-skew}``; ``skew = 0`` is uniform popularity.

    Examples
    --------
    >>> p = zipf_probabilities(4, 1.0)
    >>> bool(p[0] > p[-1])
    True
    >>> float(round(p.sum(), 12))
    1.0
    """
    if number_of_items < 1:
        raise ConfigurationError("number_of_items must be at least 1")
    if skew < 0:
        raise ConfigurationError("skew must be non-negative")
    ranks = np.arange(1, number_of_items + 1, dtype=float)
    weights = ranks**-skew
    return weights / weights.sum()


class ContentCatalog:
    """A set of content items with Zipf popularity, replicated across peers.

    Parameters
    ----------
    number_of_items:
        Catalog size.
    skew:
        Zipf exponent of item popularity (1.0 is the classic web/P2P value).
    replication:
        ``"uniform"`` — every item gets the same number of replicas;
        ``"proportional"`` — replicas proportional to popularity (the
        strategy unstructured networks converge to via caching).
    replicas_per_item:
        Average number of replicas per item.

    Examples
    --------
    >>> catalog = ContentCatalog(number_of_items=20, skew=1.0,
    ...                          replicas_per_item=3)
    >>> placement = catalog.place(list(range(50)), rng=1)
    >>> sum(len(items) for items in placement.values()) == 60
    True
    """

    def __init__(
        self,
        number_of_items: int = 100,
        skew: float = 1.0,
        replication: str = "uniform",
        replicas_per_item: int = 5,
    ) -> None:
        if replication not in ("uniform", "proportional"):
            raise ConfigurationError("replication must be 'uniform' or 'proportional'")
        if replicas_per_item < 1:
            raise ConfigurationError("replicas_per_item must be at least 1")
        self.number_of_items = number_of_items
        self.skew = skew
        self.replication = replication
        self.replicas_per_item = replicas_per_item
        self.popularity = zipf_probabilities(number_of_items, skew)

    def item_name(self, rank: int) -> str:
        """Return the keyword for popularity rank ``rank`` (1-based)."""
        if not 1 <= rank <= self.number_of_items:
            raise ConfigurationError(
                f"rank must be in [1, {self.number_of_items}], got {rank}"
            )
        return f"item-{rank:05d}"

    def items(self) -> List[str]:
        """Return every item keyword in popularity order."""
        return [self.item_name(rank) for rank in range(1, self.number_of_items + 1)]

    def replica_counts(self) -> List[int]:
        """Return the number of replicas planned for each item (by rank)."""
        total_replicas = self.number_of_items * self.replicas_per_item
        if self.replication == "uniform":
            return [self.replicas_per_item] * self.number_of_items
        raw = self.popularity * total_replicas
        counts = np.maximum(1, np.round(raw)).astype(int)
        return [int(count) for count in counts]

    def place(
        self, peer_ids: Sequence[NodeId], rng: "RandomSource | int | None" = None
    ) -> Dict[NodeId, List[str]]:
        """Assign item replicas to peers; return ``peer -> list of keywords``.

        Each replica goes to a uniformly random peer; a peer may hold several
        items but never two replicas of the same item.
        """
        if not peer_ids:
            raise SimulationError("cannot place content on an empty peer set")
        source = ensure_source(rng)
        placement: Dict[NodeId, List[str]] = {peer: [] for peer in peer_ids}
        for rank, count in enumerate(self.replica_counts(), start=1):
            keyword = self.item_name(rank)
            count = min(count, len(peer_ids))
            holders = source.sample(list(peer_ids), count)
            for holder in holders:
                placement[holder].append(keyword)
        return placement


@dataclass
class QueryWorkload:
    """A stream of (time, source peer, keyword) query events.

    Queries arrive as a Poisson process with rate ``query_rate``; sources are
    uniform over the supplied peers; keywords follow the catalog's Zipf
    popularity.

    Examples
    --------
    >>> catalog = ContentCatalog(number_of_items=10, skew=0.8)
    >>> workload = QueryWorkload(catalog, query_rate=2.0, duration=5.0, seed=4)
    >>> events = workload.generate(list(range(30)))
    >>> all(0 <= t <= 5.0 for t, _, _ in events)
    True
    """

    catalog: ContentCatalog
    query_rate: float = 1.0
    duration: float = 10.0
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if self.query_rate <= 0:
            raise ConfigurationError("query_rate must be positive")
        if self.duration <= 0:
            raise ConfigurationError("duration must be positive")

    def generate(
        self, peer_ids: Sequence[NodeId]
    ) -> List[Tuple[float, NodeId, str]]:
        """Materialise the full query stream as a sorted list of events."""
        return list(self.iter_events(peer_ids))

    def iter_events(
        self, peer_ids: Sequence[NodeId]
    ) -> Iterator[Tuple[float, NodeId, str]]:
        """Yield query events ``(time, source, keyword)`` in time order."""
        if not peer_ids:
            raise SimulationError("cannot generate queries for an empty peer set")
        rng = ensure_source(self.seed)
        generator = rng.numpy_generator()
        ranks = np.arange(1, self.catalog.number_of_items + 1)
        time = 0.0
        while True:
            time += rng.expovariate(self.query_rate)
            if time > self.duration:
                return
            source = peer_ids[rng.randint(0, len(peer_ids) - 1)]
            rank = int(generator.choice(ranks, p=self.catalog.popularity))
            yield (time, source, self.catalog.item_name(rank))
