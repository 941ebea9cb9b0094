"""The dict-based GRN cell sweep: one scalar distance test per candidate pair.

This is the python-tier build ``GeometricRandomNetwork`` ran before its
cell sweep moved to numpy (:func:`repro.substrate.grn.sweep_cells`).  It
draws the same positions and adds the same edges in the same order, one
``Graph.add_edge`` at a time.
"""

from __future__ import annotations

import itertools
import math
from typing import Dict, List, Optional, Tuple

from repro.core.graph import Graph
from repro.core.rng import RandomSource
from repro.substrate.grn import GeometricRandomNetwork


def build_grn(builder: GeometricRandomNetwork, rng: RandomSource) -> Graph:
    """Build ``builder``'s GRN with the dict sweep; records ``builder.positions``."""
    config = builder.config
    n = config.number_of_nodes
    radius = config.effective_radius()
    dimensions = config.dimensions

    positions = [
        tuple(rng.random() for _ in range(dimensions)) for _ in range(n)
    ]
    builder.positions = dict(enumerate(positions))

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
        # exactly once.
        visited_neighbor_cells: set = set()
        for offset in neighbor_offsets:
            other_key = offset_key(key, offset, cells_per_side, config.torus)
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
                if distance_squared(
                    positions[u], positions[v], config.torus
                ) <= radius_squared:
                    graph.add_edge(u, v)
    return graph


def offset_key(
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


def distance_squared(
    a: Tuple[float, ...], b: Tuple[float, ...], torus: bool
) -> float:
    total = 0.0
    for x, y in zip(a, b):
        delta = abs(x - y)
        if torus:
            delta = min(delta, 1.0 - delta)
        total += delta * delta
    return total
