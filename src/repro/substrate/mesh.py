"""Two-dimensional regular mesh substrate (paper §IV-B).

The paper mentions a "two-dimensional regular network (mesh with nodes
connected to four neighbors in four different directions)" as one of the two
substrate topologies DAPA can run on.  Nodes are laid out on a
``rows × columns`` grid; node ``(r, c)`` is mapped to id ``r * columns + c``
and connected to its von Neumann neighbors.  With ``torus=True`` the grid
wraps so every node has exactly four neighbors; otherwise border nodes have
two or three.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro.core.config import MeshConfig
from repro.core.graph import Graph
from repro.core.rng import RandomSource
from repro.substrate.base import SubstrateNetwork

__all__ = ["MeshNetwork", "generate_mesh"]


class MeshNetwork(SubstrateNetwork):
    """Build a 2-D regular lattice substrate.

    Examples
    --------
    >>> mesh = MeshNetwork(4, 5)
    >>> graph = mesh.generate_graph()
    >>> graph.number_of_nodes
    20
    >>> graph.degree(mesh.node_id(0, 0))   # corner node
    2
    >>> torus = MeshNetwork(4, 5, torus=True).generate_graph()
    >>> set(torus.degree_sequence()) == {4}
    True
    """

    substrate_name = "mesh"

    def __init__(self, rows: int, columns: int, torus: bool = False) -> None:
        self.config = MeshConfig(rows=rows, columns=columns, torus=torus)
        self.seed: Optional[int] = None  # deterministic substrate

    def parameters(self) -> Dict[str, Any]:
        return {
            "substrate": self.substrate_name,
            "rows": self.config.rows,
            "columns": self.config.columns,
            "torus": self.config.torus,
        }

    def node_id(self, row: int, column: int) -> int:
        """Return the node id of grid position ``(row, column)``."""
        return row * self.config.columns + column

    def position(self, node: int) -> Tuple[int, int]:
        """Return the ``(row, column)`` grid position of ``node``."""
        return divmod(node, self.config.columns)

    def build(self, rng: RandomSource) -> Graph:  # rng unused; mesh is deterministic
        """Vectorized build: per-node (right, down) edge arrays straight into
        CSR arrays — same edges in the same insertion order as the
        ``add_edge`` loop it replaced (``tests/oracles/mesh.py``), with no
        Python adjacency dict on the way."""
        rows, columns, torus = self.config.rows, self.config.columns, self.config.torus
        n = rows * columns
        nodes = np.arange(n, dtype=np.int64)
        row_of = nodes // columns
        col_of = nodes % columns

        right = np.full(n, -1, dtype=np.int64)
        inner_right = col_of < columns - 1
        right[inner_right] = nodes[inner_right] + 1
        if torus and columns > 2:
            right[~inner_right] = nodes[~inner_right] - (columns - 1)
        down = np.full(n, -1, dtype=np.int64)
        inner_down = row_of < rows - 1
        down[inner_down] = nodes[inner_down] + columns
        if torus and rows > 2:
            down[~inner_down] = col_of[~inner_down]

        # Interleave so the edge order is the pinned one: for each node,
        # its right edge then its down edge.
        targets = np.stack((right, down), axis=1).ravel()
        origins = np.repeat(nodes, 2)
        mask = targets >= 0
        edge_u = origins[mask]
        edge_v = targets[mask]
        if edge_u.size == 0:
            return Graph(n)
        return Graph.from_edge_array(n, edge_u, edge_v)


def generate_mesh(rows: int, columns: int, torus: bool = False) -> Graph:
    """Generate a 2-D mesh substrate and return the graph.

    Examples
    --------
    >>> generate_mesh(3, 3).number_of_nodes
    9
    """
    return MeshNetwork(rows=rows, columns=columns, torus=torus).generate_graph()
