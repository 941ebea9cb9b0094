"""Search-efficiency curves and the NF↔RW message normalization.

The paper's Figs. 6–12 all plot the *average number of hits* (distinct peers
reached per query) against the query TTL ``τ``, averaged over many randomly
chosen source peers.  This module turns individual
:class:`~repro.search.base.QueryResult` objects into those curves:

* :func:`search_curve` — run ``queries`` independent queries of one algorithm
  on one graph and average the per-TTL hits and messages;
* :func:`normalized_walk_curve` — the paper's RW evaluation: for every τ the
  random walk is granted a number of hops equal to the number of *messages*
  an NF query with that τ incurs, so the two algorithms are compared at equal
  cost;
* :func:`average_search_curve` — average a set of curves (one per topology
  realization) into a single mean curve with spread.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.csr import CSRGraph, GraphLike, batch_flood_curves
from repro.core.errors import SearchError
from repro.core.graph import Graph
from repro.core.rng import RandomSource, ensure_source
from repro.telemetry.collector import active_telemetry
from repro.core.types import NodeId
from repro.search.base import SearchAlgorithm
from repro.search.flooding import FloodingSearch
from repro.search.normalized_flooding import NormalizedFloodingSearch
from repro.search.random_walk import RandomWalkSearch

__all__ = [
    "SearchCurve",
    "search_curve",
    "normalized_walk_curve",
    "average_search_curve",
    "select_sources",
]


@dataclass
class SearchCurve:
    """Average hits and messages as a function of TTL.

    Attributes
    ----------
    algorithm:
        Name of the search algorithm.
    ttl_values:
        The TTL values the curve is sampled at (ascending).
    mean_hits:
        ``mean_hits[i]`` is the average number of distinct peers reached with
        ``ttl_values[i]``.
    mean_messages:
        Average number of messages per query at each TTL.
    std_hits:
        Standard deviation of hits across queries (or across realizations,
        for averaged curves).
    queries:
        Number of queries (or curves) averaged.
    metadata:
        Free-form provenance (topology parameters, k_min used, ...).
    """

    algorithm: str
    ttl_values: List[int]
    mean_hits: List[float]
    mean_messages: List[float]
    std_hits: List[float] = field(default_factory=list)
    queries: int = 0
    metadata: Dict[str, object] = field(default_factory=dict)

    def hits_at(self, ttl: int) -> float:
        """Return the mean hits at TTL ``ttl`` (must be one of ``ttl_values``)."""
        try:
            index = self.ttl_values.index(ttl)
        except ValueError:
            raise SearchError(f"ttl {ttl} is not part of this curve") from None
        return self.mean_hits[index]

    def messages_at(self, ttl: int) -> float:
        """Return the mean messages at TTL ``ttl``."""
        try:
            index = self.ttl_values.index(ttl)
        except ValueError:
            raise SearchError(f"ttl {ttl} is not part of this curve") from None
        return self.mean_messages[index]

    def final_hits(self) -> float:
        """Return the mean hits at the largest TTL of the curve."""
        return self.mean_hits[-1]

    def as_dict(self) -> Dict[str, object]:
        """Return a JSON-friendly representation."""
        return {
            "algorithm": self.algorithm,
            "ttl_values": list(self.ttl_values),
            "mean_hits": list(self.mean_hits),
            "mean_messages": list(self.mean_messages),
            "std_hits": list(self.std_hits),
            "queries": self.queries,
            "metadata": dict(self.metadata),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "SearchCurve":
        """Rebuild a curve from :meth:`as_dict` output."""
        return cls(
            algorithm=str(payload["algorithm"]),
            ttl_values=[int(v) for v in payload["ttl_values"]],
            mean_hits=[float(v) for v in payload["mean_hits"]],
            mean_messages=[float(v) for v in payload["mean_messages"]],
            std_hits=[float(v) for v in payload.get("std_hits", [])],
            queries=int(payload.get("queries", 0)),
            metadata=dict(payload.get("metadata", {})),
        )


def select_sources(
    graph: GraphLike, queries: int, rng: "RandomSource | int | None" = None
) -> List[NodeId]:
    """Pick ``queries`` random source peers (with replacement) from ``graph``."""
    source = ensure_source(rng)
    nodes = graph.nodes()
    if not nodes:
        raise SearchError("cannot select sources from an empty graph")
    return [nodes[source.randint(0, len(nodes) - 1)] for _ in range(queries)]


def search_curve(
    graph: GraphLike,
    algorithm: SearchAlgorithm,
    ttl_values: Sequence[int],
    queries: int = 100,
    rng: "RandomSource | int | None" = None,
    sources: Optional[Sequence[NodeId]] = None,
) -> SearchCurve:
    """Average hits/messages of ``algorithm`` over random queries on ``graph``.

    A single simulation per source is run at the maximum TTL; the per-TTL
    prefixes of that run provide the values for all smaller TTLs (which is
    how the algorithms are defined: a τ=4 flood is the first four hops of a
    τ=10 flood).

    Examples
    --------
    >>> from repro.search.flooding import FloodingSearch
    >>> g = Graph.complete(10)
    >>> curve = search_curve(g, FloodingSearch(), [1, 2], queries=5, rng=1)
    >>> curve.mean_hits[0]
    9.0
    """
    if not ttl_values:
        raise SearchError("ttl_values must not be empty")
    ttl_list = sorted(int(value) for value in ttl_values)
    if ttl_list[0] < 0:
        raise SearchError("ttl values must be non-negative")
    max_ttl = ttl_list[-1]

    random_source = ensure_source(rng)
    telemetry = active_telemetry()
    attrs = {"algorithm": algorithm.algorithm_name} if telemetry.enabled else None
    # The span covers the whole measurement, from the source picks to the
    # curve statistics, so none of a realization's search time escapes it.
    with telemetry.span("search", attrs):
        if sources is None:
            sources = select_sources(graph, queries, random_source.spawn("sources"))
        _require_queries(sources)
        query_rng = random_source.spawn("queries")
        if attrs is not None:
            attrs["queries"] = len(sources)
        if type(algorithm) is FloodingSearch and isinstance(graph, CSRGraph):
            # Batched CSR fast path: one vectorized kernel call covers the whole
            # query batch.  Flooding is deterministic (``query_rng`` is never
            # drawn from), so the results — and the RNG stream position — are
            # identical to the per-query loop below.
            rows = []
            for source_node in sources:
                # Same validation (and the same SearchError) the generic path
                # gets from algorithm.run() — both representations must match
                # on the error path too.
                algorithm._validate(graph, source_node, max_ttl)
                rows.append(graph._row_of(source_node))
            batch_hits, batch_messages = batch_flood_curves(graph, rows, max_ttl)
            base_hits = 1 if algorithm.count_source_as_hit else 0
            columns = np.array(ttl_list)
            # Force C order: the reduction order of mean/std must match the
            # row-major matrices of the generic path bit-for-bit.
            hits_matrix = (batch_hits[:, columns] + base_hits).astype(float, order="C")
            messages_matrix = batch_messages[:, columns].astype(float, order="C")
        else:
            hits_matrix = np.zeros((len(sources), len(ttl_list)))
            messages_matrix = np.zeros((len(sources), len(ttl_list)))
            for row, source_node in enumerate(sources):
                result = algorithm.run(graph, source_node, max_ttl, rng=query_rng)
                for column, ttl in enumerate(ttl_list):
                    hits_matrix[row, column] = result.hits_at(ttl)
                    messages_matrix[row, column] = result.messages_at(ttl)
        if attrs is not None:
            # The span copies its attributes on exit, so the batch's
            # message total lands on it while it is still open.
            attrs["messages"] = int(messages_matrix[:, -1].sum())
        curve = SearchCurve(
            algorithm=algorithm.algorithm_name,
            ttl_values=ttl_list,
            mean_hits=[float(v) for v in hits_matrix.mean(axis=0)],
            mean_messages=[float(v) for v in messages_matrix.mean(axis=0)],
            std_hits=[float(v) for v in hits_matrix.std(axis=0)],
            queries=len(sources),
            metadata={"graph_nodes": graph.number_of_nodes},
        )

    if telemetry.enabled:
        telemetry.count("search.queries", len(sources))
        telemetry.count(
            f"search.queries.{algorithm.algorithm_name}", len(sources)
        )
        # Total messages across the batch at the largest TTL measured.
        telemetry.count(
            "search.messages.total", float(messages_matrix[:, -1].sum())
        )
    return curve


def _require_queries(sources: Sequence[NodeId]) -> None:
    """Refuse an empty query batch: its mean curve would be all NaN."""
    if len(sources) == 0:
        raise SearchError("the query batch is empty: ask for at least one query")


def normalized_walk_curve(
    graph: GraphLike,
    ttl_values: Sequence[int],
    k_min: Optional[int] = None,
    queries: int = 100,
    rng: "RandomSource | int | None" = None,
    walkers: int = 1,
    sources: Optional[Sequence[NodeId]] = None,
) -> SearchCurve:
    """RW hits-vs-τ curve with the paper's NF message-count normalization.

    For every TTL value τ, an NF query is simulated to measure how many
    messages it sends; the random walk is then allowed exactly that many
    hops, and its hit count is reported against τ.  This reproduces the
    methodology of Figs. 11–12 ("we equated τ of RW searches to the number of
    messages incurred by the NF searches in the same scenario").

    Examples
    --------
    >>> g = Graph.complete(20)
    >>> curve = normalized_walk_curve(g, [2, 4], k_min=2, queries=5, rng=3)
    >>> curve.algorithm
    'rw'
    >>> len(curve.mean_hits)
    2
    """
    if not ttl_values:
        raise SearchError("ttl_values must not be empty")
    ttl_list = sorted(int(value) for value in ttl_values)
    max_ttl = ttl_list[-1]

    random_source = ensure_source(rng)
    nf_search = NormalizedFloodingSearch(k_min=k_min)
    rw_search = RandomWalkSearch(walkers=walkers)

    telemetry = active_telemetry()
    attrs = {"algorithm": "rw"} if telemetry.enabled else None
    # As in search_curve, the span covers the source picks and statistics.
    with telemetry.span("search", attrs):
        if sources is None:
            sources = select_sources(graph, queries, random_source.spawn("sources"))
        _require_queries(sources)
        nf_rng = random_source.spawn("nf")
        rw_rng = random_source.spawn("rw")
        if attrs is not None:
            attrs["queries"] = len(sources)
        hits_matrix = np.zeros((len(sources), len(ttl_list)))
        messages_matrix = np.zeros((len(sources), len(ttl_list)))
        for row, source_node in enumerate(sources):
            nf_result = nf_search.run(graph, source_node, max_ttl, rng=nf_rng)
            budgets = [max(1, nf_result.messages_at(ttl)) for ttl in ttl_list]
            walk_result = rw_search.run(graph, source_node, max(budgets), rng=rw_rng)
            for column, budget in enumerate(budgets):
                hits_matrix[row, column] = walk_result.hits_at(budget)
                messages_matrix[row, column] = walk_result.messages_at(budget)
        if attrs is not None:
            attrs["messages"] = int(messages_matrix[:, -1].sum())
        curve = SearchCurve(
            algorithm="rw",
            ttl_values=ttl_list,
            mean_hits=[float(v) for v in hits_matrix.mean(axis=0)],
            mean_messages=[float(v) for v in messages_matrix.mean(axis=0)],
            std_hits=[float(v) for v in hits_matrix.std(axis=0)],
            queries=len(sources),
            metadata={
                "graph_nodes": graph.number_of_nodes,
                "normalization": "nf_messages",
                "k_min": k_min,
                "walkers": walkers,
            },
        )

    if telemetry.enabled:
        telemetry.count("search.queries", len(sources))
        telemetry.count("search.queries.rw", len(sources))
        telemetry.count(
            "search.messages.total", float(messages_matrix[:, -1].sum())
        )
    return curve


def average_search_curve(curves: Sequence[SearchCurve]) -> SearchCurve:
    """Average several curves (e.g. one per topology realization) into one.

    All curves must share the same algorithm name and TTL grid.

    Examples
    --------
    >>> a = SearchCurve("fl", [1, 2], [1.0, 2.0], [1.0, 3.0], queries=10)
    >>> b = SearchCurve("fl", [1, 2], [3.0, 4.0], [2.0, 5.0], queries=10)
    >>> avg = average_search_curve([a, b])
    >>> avg.mean_hits
    [2.0, 3.0]
    """
    if not curves:
        raise SearchError("cannot average an empty list of curves")
    first = curves[0]
    for curve in curves[1:]:
        if curve.algorithm != first.algorithm:
            raise SearchError("cannot average curves of different algorithms")
        if curve.ttl_values != first.ttl_values:
            raise SearchError("cannot average curves with different TTL grids")
    hits = np.array([curve.mean_hits for curve in curves])
    messages = np.array([curve.mean_messages for curve in curves])
    return SearchCurve(
        algorithm=first.algorithm,
        ttl_values=list(first.ttl_values),
        mean_hits=[float(v) for v in hits.mean(axis=0)],
        mean_messages=[float(v) for v in messages.mean(axis=0)],
        std_hits=[float(v) for v in hits.std(axis=0)],
        queries=sum(curve.queries for curve in curves),
        metadata={"realizations": len(curves), **dict(first.metadata)},
    )
