"""Shortest-path statistics: average path length and diameter (paper Table I).

The paper relates search efficiency to the diameter / average shortest path
of the overlay: small-world networks scale as ``ln N``, scale-free networks
with 2 < γ < 3 as ``ln ln N`` ("ultra-small"), γ = 3 with m ≥ 2 as
``ln N / ln ln N``, and the γ = 3 tree (m = 1) as ``ln N``.  Exact all-pairs
BFS is O(N·E); for the network sizes of the paper that is affordable for the
average path length but wasteful when only a trend is needed, so a sampled
variant (BFS from a random subset of sources) is provided and used by the
Table I bench.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from repro.analysis.components import giant_component
from repro.core.csr import distance_totals
from repro.core.errors import AnalysisError
from repro.core.graph import Graph
from repro.core.rng import RandomSource, ensure_source
from repro.core.types import NodeId
from repro.telemetry.collector import active_telemetry

__all__ = [
    "PathLengthStatistics",
    "average_shortest_path_length",
    "diameter",
    "path_length_statistics",
]


@dataclass(frozen=True)
class PathLengthStatistics:
    """Summary of shortest-path lengths within the giant component.

    Attributes
    ----------
    average:
        Mean shortest-path length over sampled source–destination pairs.
    diameter:
        Largest shortest-path length observed (the *eccentricity maximum*
        over sampled sources; exact when sampling covers every node).
    sources_sampled:
        Number of BFS sources used.
    nodes_in_component:
        Size of the giant component the statistics refer to.
    exact:
        ``True`` when every node of the component served as a BFS source.
    """

    average: float
    diameter: int
    sources_sampled: int
    nodes_in_component: int
    exact: bool

    def as_dict(self) -> Dict[str, object]:
        """Return a JSON-friendly representation."""
        return {
            "average": self.average,
            "diameter": self.diameter,
            "sources_sampled": self.sources_sampled,
            "nodes_in_component": self.nodes_in_component,
            "exact": self.exact,
        }


def path_length_statistics(
    graph: Graph,
    sample_size: Optional[int] = None,
    rng: "RandomSource | int | None" = None,
    restrict_to_giant_component: bool = True,
) -> PathLengthStatistics:
    """Compute average shortest-path length and diameter (possibly sampled).

    The sampled sources run vectorized breadth-first searches on the
    frozen snapshot of the graph, up to 64 sources per sparse product
    (:func:`~repro.core.csr.distance_totals`); the distances are integers,
    so their sums, and the average, do not depend on the order they are
    added in.  With telemetry on, the work runs in an ``analysis`` span
    carrying the source and node counts.

    Parameters
    ----------
    graph:
        The graph to analyse.
    sample_size:
        Number of BFS source nodes.  ``None`` uses every node (exact).
    rng:
        Random source or seed for source sampling.
    restrict_to_giant_component:
        Distances are only defined within a component; by default the
        statistics are computed on the giant component (the paper's graphs
        are connected except CM/DAPA with ``m = 1``).

    Examples
    --------
    >>> stats = path_length_statistics(Graph.complete(5))
    >>> stats.average
    1.0
    >>> stats.diameter
    1
    """
    if graph.number_of_nodes == 0:
        raise AnalysisError("the graph has no nodes")
    telemetry = active_telemetry()
    attrs: Optional[Dict[str, int]] = {} if telemetry.enabled else None
    with telemetry.span("analysis", attrs):
        if restrict_to_giant_component:
            component = giant_component(graph)
            if len(component) < graph.number_of_nodes:
                graph = graph.subgraph(component)
        nodes = graph.nodes()
        if len(nodes) < 2:
            return PathLengthStatistics(
                average=0.0,
                diameter=0,
                sources_sampled=len(nodes),
                nodes_in_component=len(nodes),
                exact=True,
            )

        source = ensure_source(rng)
        if sample_size is None or sample_size >= len(nodes):
            sources: Sequence[NodeId] = nodes
            exact = True
        else:
            if sample_size < 1:
                raise AnalysisError("sample_size must be at least 1")
            sources = source.sample(nodes, sample_size)
            exact = False
        if attrs is not None:
            attrs["sources"] = len(sources)
            attrs["nodes"] = len(nodes)

        frozen = graph.freeze()
        total_distance, total_pairs, observed_diameter = distance_totals(
            frozen, [frozen._row_of(origin) for origin in sources]
        )

    average = total_distance / total_pairs if total_pairs else 0.0
    return PathLengthStatistics(
        average=average,
        diameter=observed_diameter,
        sources_sampled=len(sources),
        nodes_in_component=len(nodes),
        exact=exact,
    )


def average_shortest_path_length(
    graph: Graph,
    sample_size: Optional[int] = None,
    rng: "RandomSource | int | None" = None,
) -> float:
    """Return the (possibly sampled) average shortest-path length.

    Examples
    --------
    >>> average_shortest_path_length(Graph.complete(6))
    1.0
    """
    return path_length_statistics(graph, sample_size=sample_size, rng=rng).average


def diameter(
    graph: Graph,
    sample_size: Optional[int] = None,
    rng: "RandomSource | int | None" = None,
) -> int:
    """Return the (possibly sampled) diameter of the giant component.

    Examples
    --------
    >>> g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    >>> diameter(g)
    3
    """
    return path_length_statistics(graph, sample_size=sample_size, rng=rng).diameter


def expected_diameter_class(exponent: float, stubs: int) -> str:
    """Return the paper's Table I diameter class for (γ, m).

    Returns one of ``"lnlnN"``, ``"lnN/lnlnN"``, or ``"lnN"``.

    Examples
    --------
    >>> expected_diameter_class(2.5, 1)
    'lnlnN'
    >>> expected_diameter_class(3.0, 2)
    'lnN/lnlnN'
    >>> expected_diameter_class(3.0, 1)
    'lnN'
    >>> expected_diameter_class(3.5, 2)
    'lnN'
    """
    if exponent <= 1.0 or stubs < 1:
        raise AnalysisError("exponent must exceed 1 and stubs must be >= 1")
    if 2.0 < exponent < 3.0:
        return "lnlnN"
    if math.isclose(exponent, 3.0, abs_tol=1e-9):
        return "lnN/lnlnN" if stubs >= 2 else "lnN"
    return "lnN"
