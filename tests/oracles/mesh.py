"""The 2-D mesh as it was built before the vectorized build: one edge at a time.

This is ``MeshNetwork``'s original ``add_edge`` loop.  For each node in
row-major order it adds the right edge, then the down edge, wrapping on a
torus when the wrapped neighbor is distinct.  The shipped array build
(:meth:`repro.substrate.mesh.MeshNetwork.build`) must give the same edges
in the same insertion order.
"""

from __future__ import annotations

from repro.core.graph import Graph
from repro.substrate.mesh import MeshNetwork


def build_mesh(mesh: MeshNetwork) -> Graph:
    """Build ``mesh``'s lattice with the scalar ``add_edge`` loop."""
    rows, columns, torus = mesh.config.rows, mesh.config.columns, mesh.config.torus
    graph = Graph(rows * columns)
    for row in range(rows):
        for column in range(columns):
            node = mesh.node_id(row, column)
            right_column = column + 1
            down_row = row + 1
            if right_column < columns:
                graph.add_edge(node, mesh.node_id(row, right_column))
            elif torus and columns > 2:
                graph.add_edge(node, mesh.node_id(row, 0))
            if down_row < rows:
                graph.add_edge(node, mesh.node_id(down_row, column))
            elif torus and rows > 2:
                graph.add_edge(node, mesh.node_id(0, column))
    return graph
