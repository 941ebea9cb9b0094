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
The sweep consumes no draws (all randomness is in the positions), so it
runs vectorized in numpy (:func:`sweep_cells`) and emits the edges in the
order a cell-by-cell scalar sweep would add them.
"""

from __future__ import annotations

import itertools
import math
from typing import Any, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.core.config import GRNConfig
from repro.core.graph import Graph
from repro.core.rng import RandomSource, raw_stream
from repro.substrate.base import SubstrateNetwork

__all__ = [
    "GeometricRandomNetwork",
    "generate_grn",
    "CRITICAL_MEAN_DEGREE_2D",
    "CellGrid",
    "bucket_cells",
    "sweep_cells",
]

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
        """Scatter the nodes and link every pair within the radius.

        Draws the coordinates row-major, one ``random()`` of the twister
        underneath ``rng`` each (the draws of ``rng.random()``), then hands
        the within-radius pairs from :func:`sweep_cells` straight to
        :meth:`Graph.from_edge_array`, in the order the edges are defined
        to be added.
        """
        config = self.config
        n = config.number_of_nodes
        dimensions = config.dimensions
        radius = config.effective_radius()

        draw = raw_stream(rng).random
        coordinates = [draw() for _ in range(n * dimensions)]
        self.positions = dict(enumerate(zip(*[iter(coordinates)] * dimensions)))
        positions = np.array(coordinates, dtype=np.float64).reshape(n, dimensions)

        cells_per_side = max(1, int(math.floor(1.0 / radius)))
        edge_u, edge_v, _ = sweep_cells(
            positions,
            bucket_cells(positions, cells_per_side),
            cells_per_side,
            config.torus,
            radius * radius,
        )
        return Graph.from_edge_array(n, edge_u, edge_v)


class CellGrid(NamedTuple):
    """Nodes bucketed into the occupied cells of a grid with side ``R``.

    ``unique_lin`` holds the occupied cells' linear ids (most-significant
    coordinate first, so integer order is the order of the cells'
    coordinate tuples), sorted; ``order``/``cell_start``/``cell_count``
    group the node indices by cell, members in node order; ``occ_order``
    lists the occupied cells in first-occurrence order (the order in which
    the nodes, taken in index order, first land in each cell).
    """

    unique_lin: np.ndarray
    cell_start: np.ndarray
    cell_count: np.ndarray
    order: np.ndarray
    occ_order: np.ndarray


def bucket_cells(positions: np.ndarray, cells_per_side: int) -> CellGrid:
    """Bucket the ``(n, d)`` ``positions`` into a ``cells_per_side``-grid."""
    n, dimensions = positions.shape
    # min(cps - 1, int(coordinate * cps)) per axis, as a scalar sweep would.
    cell = np.minimum(
        cells_per_side - 1, (positions * cells_per_side).astype(np.int64)
    )
    lin = np.zeros(n, dtype=np.int64)
    for axis in range(dimensions):
        lin = lin * cells_per_side + cell[:, axis]
    unique_lin, first_index, cell_count = np.unique(
        lin, return_index=True, return_counts=True
    )
    cell_count = cell_count.astype(np.int64)
    cell_start = np.zeros(len(unique_lin), dtype=np.int64)
    if len(unique_lin) > 1:
        np.cumsum(cell_count[:-1], out=cell_start[1:])
    return CellGrid(
        unique_lin=unique_lin,
        cell_start=cell_start,
        cell_count=cell_count,
        order=np.argsort(lin, kind="stable").astype(np.int64),
        occ_order=np.argsort(first_index, kind="stable").astype(np.int64),
    )


def sweep_cells(
    positions: np.ndarray,
    grid: CellGrid,
    cells_per_side: int,
    torus: bool,
    radius_squared: float,
) -> Tuple[np.ndarray, np.ndarray, int]:
    """Return ``(edge_u, edge_v, tested)``: the pairs within the radius, in
    edge order, and the number of candidate pairs whose distance was tested.

    The edge order is the cell sweep's: home cells in first-occurrence
    order; for each, the neighbor-cell offsets in
    ``itertools.product((-1, 0, 1), repeat=d)`` order, skipping a neighbor
    cell that sorts below the home cell (its pairs come from the other
    side) and, on a torus with ``cells_per_side <= 2``, one that an earlier
    offset already wrapped onto; members paired in ``itertools.combinations``
    order inside a cell and ``itertools.product`` order across two.  So
    each unordered pair is tested exactly once.

    One offset is swept at a time, for every home cell at once, which
    bounds the numpy temporaries by the candidate pairs of one offset; a
    stable sort on ``(home rank, offset)`` then restores the sweep order.
    The squared distance is summed axis by axis, left to right, with
    ``min(delta, 1 - delta)`` on a torus, so each comparison with
    ``radius_squared`` sees the same float as a scalar loop would.
    """
    dimensions = positions.shape[1]
    columns = [np.ascontiguousarray(positions[:, axis]) for axis in range(dimensions)]
    home_lin = grid.unique_lin[grid.occ_order]
    home_start = grid.cell_start[grid.occ_order]
    home_count = grid.cell_count[grid.occ_order]
    home_key = np.empty((len(home_lin), dimensions), dtype=np.int64)
    remainder = home_lin
    for axis in range(dimensions - 1, -1, -1):
        home_key[:, axis] = remainder % cells_per_side
        remainder = remainder // cells_per_side
    last_cell = len(grid.unique_lin) - 1
    offsets = list(itertools.product((-1, 0, 1), repeat=dimensions))
    # Torus wrapping with cells_per_side <= 2 maps the +1 and -1 offsets
    # onto the same neighbor cell: keep each cell pair's first offset.
    dedupe = torus and cells_per_side <= 2
    swept: List[np.ndarray] = []
    parts_u: List[np.ndarray] = []
    parts_v: List[np.ndarray] = []
    parts_key: List[np.ndarray] = []
    tested = 0
    for offset_index, offset in enumerate(offsets):
        shifted = home_key + np.array(offset, dtype=np.int64)
        if torus:
            shifted %= cells_per_side
            keep = np.ones(len(home_lin), dtype=bool)
        else:
            keep = np.all((shifted >= 0) & (shifted < cells_per_side), axis=1)
        other_lin = np.zeros(len(home_lin), dtype=np.int64)
        for axis in range(dimensions):
            other_lin = other_lin * cells_per_side + shifted[:, axis]
        if dedupe:
            for earlier in swept:
                keep &= other_lin != earlier
            swept.append(other_lin)
        keep &= other_lin >= home_lin
        other = np.minimum(np.searchsorted(grid.unique_lin, other_lin), last_cell)
        keep &= grid.unique_lin[other] == other_lin
        rank = np.flatnonzero(keep)
        if not len(rank):
            continue
        other = other[rank]
        other_start = grid.cell_start[other]
        other_count = grid.cell_count[other]
        sizes = home_count[rank] * other_count
        # Candidate (a, b) member positions of every kept cell pair, cell
        # pair by cell pair, a-major: the product order.
        pair = np.repeat(np.arange(len(rank)), sizes)
        local = np.arange(len(pair)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
        width = other_count[pair]
        a = local // width
        b = local - a * width
        same = home_lin[rank] == other_lin[rank]
        if same.any():
            # Inside one cell only a < b: the combinations order.
            inside = (b > a) | ~same[pair]
            pair, a, b = pair[inside], a[inside], b[inside]
        tested += len(pair)
        u = grid.order[home_start[rank][pair] + a]
        v = grid.order[other_start[pair] + b]
        total = np.zeros(len(pair), dtype=np.float64)
        for column in columns:
            delta = np.abs(column[u] - column[v])
            if torus:
                delta = np.minimum(delta, 1.0 - delta)
            total += delta * delta
        within = total <= radius_squared
        parts_u.append(u[within])
        parts_v.append(v[within])
        parts_key.append(rank[pair[within]] * len(offsets) + offset_index)
    # Every home cell keeps itself (the zero offset, or on a one-cell torus
    # the first offset wrapping onto it), so the parts are never empty.
    sequence = np.argsort(np.concatenate(parts_key), kind="stable")
    return (
        np.concatenate(parts_u)[sequence],
        np.concatenate(parts_v)[sequence],
        tested,
    )


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
