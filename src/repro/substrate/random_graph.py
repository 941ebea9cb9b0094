"""Erdős–Rényi random-graph substrate.

Not used by the paper's headline experiments, but a useful baseline: the
paper repeatedly contrasts scale-free overlays with "other random networks"
(whose diameter scales as ln N and whose search behaviour lacks hubs), and
the GRN documentation motivates the choice of a *geometric* random graph over
a "highly random network".  Having a G(N, p) builder lets the test-suite and
ablation benches quantify those statements.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.core.errors import ConfigurationError
from repro.core.graph import Graph
from repro.core.rng import RandomSource
from repro.kernels.dispatch import kernel_ready
from repro.substrate.base import SubstrateNetwork

__all__ = ["ErdosRenyiNetwork", "generate_erdos_renyi"]


class ErdosRenyiNetwork(SubstrateNetwork):
    """Build a G(N, p) random graph (optionally parameterised by mean degree).

    Parameters
    ----------
    number_of_nodes:
        Number of nodes ``N``.
    edge_probability:
        Independent probability ``p`` of each of the ``N(N-1)/2`` edges.
    target_mean_degree:
        Alternative to ``edge_probability``: ``p = <k> / (N - 1)``.
    seed:
        Optional RNG seed.

    Examples
    --------
    >>> graph = ErdosRenyiNetwork(200, target_mean_degree=6.0, seed=2).generate_graph()
    >>> graph.number_of_nodes
    200
    >>> 3.0 < graph.mean_degree() < 9.0
    True
    """

    substrate_name = "erdos_renyi"

    def __init__(
        self,
        number_of_nodes: int,
        edge_probability: Optional[float] = None,
        target_mean_degree: Optional[float] = None,
        seed: Optional[int] = None,
    ) -> None:
        if number_of_nodes < 2:
            raise ConfigurationError("number_of_nodes must be at least 2")
        if edge_probability is None and target_mean_degree is None:
            raise ConfigurationError(
                "either edge_probability or target_mean_degree must be provided"
            )
        if edge_probability is not None and not 0.0 <= edge_probability <= 1.0:
            raise ConfigurationError("edge_probability must be in [0, 1]")
        if target_mean_degree is not None and target_mean_degree < 0:
            raise ConfigurationError("target_mean_degree must be non-negative")
        self.number_of_nodes = number_of_nodes
        self.edge_probability = edge_probability
        self.target_mean_degree = target_mean_degree
        self.seed = seed

    def parameters(self) -> Dict[str, Any]:
        return {
            "substrate": self.substrate_name,
            "number_of_nodes": self.number_of_nodes,
            "edge_probability": self.edge_probability,
            "target_mean_degree": self.target_mean_degree,
            "effective_probability": self.effective_probability(),
            "seed": self.seed,
        }

    def effective_probability(self) -> float:
        """Return the edge probability ``p`` actually used."""
        if self.edge_probability is not None:
            return self.edge_probability
        return min(1.0, float(self.target_mean_degree) / (self.number_of_nodes - 1))

    def build(self, rng: RandomSource) -> Graph:
        n = self.number_of_nodes
        p = self.effective_probability()
        if p <= 0.0:
            return Graph(n)
        if kernel_ready("generation"):
            from repro.kernels.substrate import er_build

            return er_build(n, p, rng)
        return self._build_reference(rng, p)

    def _build_reference(self, rng: RandomSource, p: float) -> Graph:
        """Pure-Python skip loop — the kernel path's reference (``p > 0``)."""
        n = self.number_of_nodes
        graph = Graph(n)
        # Geometric skipping (Batagelj & Brandes) keeps construction
        # O(N + E) instead of O(N^2) for the sparse graphs we build.
        import math

        log_one_minus_p = math.log(1.0 - p) if p < 1.0 else None
        u, v = 1, -1
        while u < n:
            if p >= 1.0:
                v += 1
            else:
                r = rng.random()
                v += 1 + int(math.floor(math.log(1.0 - r) / log_one_minus_p))
            while v >= u and u < n:
                v -= u
                u += 1
            if u < n:
                graph.add_edge(u, v)
        return graph


def generate_erdos_renyi(
    number_of_nodes: int,
    edge_probability: Optional[float] = None,
    target_mean_degree: Optional[float] = None,
    seed: Optional[int] = None,
    rng: Optional[RandomSource] = None,
) -> Graph:
    """Generate a G(N, p) random graph and return it.

    Examples
    --------
    >>> graph = generate_erdos_renyi(100, target_mean_degree=4.0, seed=1)
    >>> graph.number_of_nodes
    100
    """
    builder = ErdosRenyiNetwork(
        number_of_nodes=number_of_nodes,
        edge_probability=edge_probability,
        target_mean_degree=target_mean_degree,
        seed=seed,
    )
    return builder.generate_graph(rng)
