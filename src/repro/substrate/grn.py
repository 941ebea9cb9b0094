"""Geometric random network (GRN) substrate (paper §IV-B).

A GRN scatters ``N`` nodes uniformly at random in the unit square (or unit
interval / cube) and links every pair of nodes whose Euclidean distance is
below a connection radius ``R``.  Its degree distribution is Poissonian with
mean ``<k> ≈ N·V_d·R^d`` and, above a critical radius, the network has a
giant component — the paper uses ``<k> = 10`` (well above the 2-D critical
mean degree ≈ 4.52) so the substrate is essentially one connected blob.

Finding all pairs within distance ``R`` naively costs O(N²); this
implementation buckets nodes into a grid of cells of side ``R`` and only
compares nodes in neighboring cells, which is O(N·<k>) in the sparse regime
the paper operates in and makes the 2×10⁴-node substrate cheap to build.
"""

from __future__ import annotations

import itertools
import math
from typing import Any, Dict, List, Optional, Tuple

from repro.core.config import GRNConfig
from repro.core.graph import Graph
from repro.core.rng import RandomSource
from repro.kernels.dispatch import kernel_ready
from repro.substrate.base import SubstrateNetwork

__all__ = ["GeometricRandomNetwork", "generate_grn", "CRITICAL_MEAN_DEGREE_2D"]

#: Critical mean degree for the appearance of a giant component in a 2-D GRN
#: (Dall & Christensen 2002, quoted by the paper as k ≈ 4.52).
CRITICAL_MEAN_DEGREE_2D = 4.52


class GeometricRandomNetwork(SubstrateNetwork):
    """Build a geometric random network in the unit box.

    Parameters
    ----------
    number_of_nodes:
        Number of nodes to scatter.
    radius:
        Connection radius ``R``.  Mutually optional with
        ``target_mean_degree``; see :class:`~repro.core.config.GRNConfig`.
    target_mean_degree:
        Desired average degree; the radius is derived from it when ``radius``
        is not given.
    dimensions:
        Spatial dimension (1, 2, or 3); the paper uses 2.
    torus:
        If ``True`` distances wrap around the box boundaries, which removes
        edge effects and makes the realised mean degree match the target more
        closely.
    seed:
        Optional RNG seed.

    Examples
    --------
    >>> builder = GeometricRandomNetwork(500, target_mean_degree=10.0, seed=5)
    >>> graph = builder.generate_graph()
    >>> graph.number_of_nodes
    500
    >>> 5.0 < graph.mean_degree() < 15.0
    True
    """

    substrate_name = "grn"

    def __init__(
        self,
        number_of_nodes: int,
        radius: Optional[float] = None,
        target_mean_degree: Optional[float] = None,
        dimensions: int = 2,
        torus: bool = False,
        seed: Optional[int] = None,
    ) -> None:
        self.config = GRNConfig(
            number_of_nodes=number_of_nodes,
            radius=radius,
            target_mean_degree=target_mean_degree,
            dimensions=dimensions,
            torus=torus,
            seed=seed,
        )
        self.seed = seed
        #: Node coordinates of the most recently built graph (node -> tuple).
        self.positions: Dict[int, Tuple[float, ...]] = {}

    def parameters(self) -> Dict[str, Any]:
        return {
            "substrate": self.substrate_name,
            "number_of_nodes": self.config.number_of_nodes,
            "radius": self.config.radius,
            "target_mean_degree": self.config.target_mean_degree,
            "effective_radius": self.config.effective_radius(),
            "dimensions": self.config.dimensions,
            "torus": self.config.torus,
            "seed": self.seed,
        }

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def build(self, rng: RandomSource) -> Graph:
        if kernel_ready(rng, "generation"):
            from repro.kernels.substrate import grn_build_arrays

            graph, positions = grn_build_arrays(self.config, rng)
            self.positions = {
                node: tuple(row) for node, row in enumerate(positions.tolist())
            }
            return graph
        return self._build_reference(rng)

    def _build_reference(self, rng: RandomSource) -> Graph:
        """Pure-Python dict-based build — the kernel path's reference."""
        config = self.config
        n = config.number_of_nodes
        radius = config.effective_radius()
        dimensions = config.dimensions

        positions = [
            tuple(rng.random() for _ in range(dimensions)) for _ in range(n)
        ]
        self.positions = dict(enumerate(positions))

        graph = Graph(n)
        radius_squared = radius * radius

        # Grid cells of side `radius`: points within `radius` of each other
        # are necessarily in the same or an adjacent cell.
        cells_per_side = max(1, int(math.floor(1.0 / radius)))
        cell_of: Dict[Tuple[int, ...], List[int]] = {}
        for node, position in enumerate(positions):
            key = tuple(
                min(cells_per_side - 1, int(coordinate * cells_per_side))
                for coordinate in position
            )
            cell_of.setdefault(key, []).append(node)

        neighbor_offsets = list(itertools.product((-1, 0, 1), repeat=dimensions))
        for key, members in cell_of.items():  # repro-lint: disable=RPL102(cell insertion order is a pure function of the already-drawn positions; the resulting edge order is pinned by the cross-tier equivalence suite)
            # Torus wrapping with cells_per_side <= 2 maps the +1 and -1
            # offsets onto the same neighbor cell; track the cells already
            # swept from this one so each unordered cell pair is visited
            # exactly once (duplicates used to burn redundant distance
            # checks and no-op add_edge calls).
            visited_neighbor_cells: set = set()
            for offset in neighbor_offsets:
                other_key = self._offset_key(key, offset, cells_per_side, config.torus)
                if other_key is None or other_key in visited_neighbor_cells:
                    continue
                visited_neighbor_cells.add(other_key)
                if other_key not in cell_of:
                    continue
                # Avoid visiting each unordered cell pair twice.
                if other_key < key:
                    continue
                candidates = cell_of[other_key]
                if other_key == key:
                    pairs = itertools.combinations(members, 2)
                else:
                    pairs = itertools.product(members, candidates)
                for u, v in pairs:
                    if self._distance_squared(
                        positions[u], positions[v], config.torus
                    ) <= radius_squared:
                        graph.add_edge(u, v)
        return graph

    @staticmethod
    def _offset_key(
        key: Tuple[int, ...],
        offset: Tuple[int, ...],
        cells_per_side: int,
        torus: bool,
    ) -> Optional[Tuple[int, ...]]:
        shifted = []
        for coordinate, delta in zip(key, offset):
            value = coordinate + delta
            if torus:
                value %= cells_per_side
            elif value < 0 or value >= cells_per_side:
                return None
            shifted.append(value)
        return tuple(shifted)

    @staticmethod
    def _distance_squared(
        a: Tuple[float, ...], b: Tuple[float, ...], torus: bool
    ) -> float:
        total = 0.0
        for x, y in zip(a, b):
            delta = abs(x - y)
            if torus:
                delta = min(delta, 1.0 - delta)
            total += delta * delta
        return total


def generate_grn(
    number_of_nodes: int,
    radius: Optional[float] = None,
    target_mean_degree: Optional[float] = None,
    dimensions: int = 2,
    torus: bool = False,
    seed: Optional[int] = None,
    rng: Optional[RandomSource] = None,
) -> Graph:
    """Generate a geometric random network and return the graph.

    Examples
    --------
    >>> graph = generate_grn(300, target_mean_degree=8.0, seed=11)
    >>> graph.number_of_nodes
    300
    """
    builder = GeometricRandomNetwork(
        number_of_nodes=number_of_nodes,
        radius=radius,
        target_mean_degree=target_mean_degree,
        dimensions=dimensions,
        torus=torus,
        seed=seed,
    )
    return builder.generate_graph(rng)
