"""Substrate-construction kernels: edge arrays straight into CSR arrays.

PR 5 closed the generator families, but a jit DAPA realization still paid
for its *substrate* in Python: :class:`~repro.substrate.grn.GeometricRandomNetwork`
scattered points one ``rng.random()`` at a time, bucketed them into a dict
of cells, and pushed every within-radius pair through ``Graph.add_edge`` —
the dominant Python-side cost of the whole realization once the overlay
growth ran compiled.  This module ports the substrate builders to the same
kernel tier as :mod:`repro.kernels.generators`:

* :func:`grn_build_arrays` — fills the position matrix with the exact
  row-major ``rng.random()`` sequence of the python build (spliced through
  :mod:`repro.kernels.mt19937`), buckets it with the python build's
  :func:`~repro.substrate.grn.bucket_cells`, then runs a compiled
  cell-grid sweep that enumerates candidate pairs in the python sweep's
  order (:func:`~repro.substrate.grn.sweep_cells`) — cells in
  first-occurrence order, offsets in ``itertools.product((-1, 0, 1), ...)``
  order, lexicographic unordered-pair skip, members in node order — and
  emits the within-radius pairs as edge arrays for
  :meth:`repro.core.graph.Graph.from_edge_array`.  The sweep visits each
  unordered cell pair exactly once (torus wrapping maps several offsets
  onto one cell when ``cells_per_side <= 2``).
* :func:`er_build` — the Batagelj–Brandes geometric-skipping loop of
  :class:`~repro.substrate.random_graph.ErdosRenyiNetwork`, one
  ``rng.random()`` per emitted edge, identical skip arithmetic.

The position sweep consumes no draws (all randomness is in the fill), so a
too-small edge-capacity estimate is handled by re-running the deterministic
sweep with the exact count; the ER kernel re-runs from a saved stream
position instead.  Builders dispatch here when
:func:`repro.kernels.dispatch.kernel_ready` says the ``jit``
tier is active; the mesh substrate needs no kernel (it is deterministic and
vectorizes directly in :mod:`repro.substrate.mesh`).
"""

from __future__ import annotations

import math
from typing import Any, Tuple

import numpy as np

from repro.core.graph import Graph
from repro.core.rng import RandomSource
from repro.kernels._compat import maybe_njit
from repro.kernels.mt19937 import mt_random
from repro.substrate.grn import bucket_cells

__all__ = ["grn_build_arrays", "er_build"]


# --------------------------------------------------------------------------- #
# GRN: uniform scatter + cell-grid radius sweep (paper §IV-B)
# --------------------------------------------------------------------------- #
@maybe_njit
def _fill_unit_positions(state, positions):
    """Row-major uniform fill — the python build's per-node coordinate draws."""
    for node in range(positions.shape[0]):
        for axis in range(positions.shape[1]):
            positions[node, axis] = mt_random(state)


@maybe_njit
def _grn_within(positions, u, v, torus, radius_squared):
    """The squared-distance compare of :func:`~repro.substrate.grn.sweep_cells`,
    float-for-float: axes summed left to right, wrapped on a torus."""
    total = 0.0
    for axis in range(positions.shape[1]):
        delta = positions[u, axis] - positions[v, axis]
        if delta < 0.0:
            delta = -delta
        if torus:
            wrapped = 1.0 - delta
            if wrapped < delta:
                delta = wrapped
        total += delta * delta
    return total <= radius_squared


@maybe_njit
def _grn_sweep_kernel(
    positions, unique_lin, cell_start, cell_count, order, occ_order,
    cells_per_side, torus, radius_squared, edge_u, edge_v,
):
    """Enumerate within-radius pairs in sweep order; returns edge count.

    ``unique_lin``/``cell_start``/``cell_count``/``order``/``occ_order``
    are the fields of :class:`~repro.substrate.grn.CellGrid`: the occupied
    cells' sorted linear ids (most-significant coordinate first, so integer
    comparison is the cells' tuple comparison), the node indices grouped
    by cell in node order, and the occupied cells in first-occurrence
    order.  Draws nothing: when the emitted count exceeds the arrays'
    capacity the surplus edges are only counted, and the caller re-runs
    with exact capacity.
    """
    capacity = edge_u.shape[0]
    num_cells = unique_lin.shape[0]
    dims = positions.shape[1]
    key = np.empty(dims, dtype=np.int64)
    offset = np.empty(dims, dtype=np.int64)
    shifted = np.empty(dims, dtype=np.int64)
    seen = np.empty(3 ** dims, dtype=np.int64)
    edge_count = 0
    for occupied_index in range(num_cells):
        ci = occ_order[occupied_index]
        lin = unique_lin[ci]
        remainder = lin
        for axis in range(dims - 1, -1, -1):
            key[axis] = remainder % cells_per_side
            remainder //= cells_per_side
        seen_count = 0
        for combo in range(3 ** dims):
            # Decode ``combo`` into per-axis offsets in (-1, 0, 1), most
            # significant axis first — itertools.product order.
            digits = combo
            for axis in range(dims - 1, -1, -1):
                offset[axis] = digits % 3 - 1
                digits //= 3
            out_of_box = False
            for axis in range(dims):
                value = key[axis] + offset[axis]
                if torus:
                    value %= cells_per_side
                elif value < 0 or value >= cells_per_side:
                    out_of_box = True
                    break
                shifted[axis] = value
            if out_of_box:
                continue
            other_lin = 0
            for axis in range(dims):
                other_lin = other_lin * cells_per_side + shifted[axis]
            # Torus wrapping with cells_per_side <= 2 maps the +1 and -1
            # offsets onto the same neighbor cell: visit each unordered
            # cell pair once.
            duplicate = False
            for i in range(seen_count):
                if seen[i] == other_lin:
                    duplicate = True
                    break
            if duplicate:
                continue
            seen[seen_count] = other_lin
            seen_count += 1
            if other_lin < lin:
                continue
            low = 0
            high = num_cells
            while low < high:
                mid = (low + high) // 2
                if unique_lin[mid] < other_lin:
                    low = mid + 1
                else:
                    high = mid
            if low >= num_cells or unique_lin[low] != other_lin:
                continue
            cj = low
            start_i = cell_start[ci]
            count_i = cell_count[ci]
            if cj == ci:
                for a in range(count_i):
                    u = order[start_i + a]
                    for b in range(a + 1, count_i):
                        v = order[start_i + b]
                        if _grn_within(positions, u, v, torus, radius_squared):
                            if edge_count < capacity:
                                edge_u[edge_count] = u
                                edge_v[edge_count] = v
                            edge_count += 1
            else:
                start_j = cell_start[cj]
                count_j = cell_count[cj]
                for a in range(count_i):
                    u = order[start_i + a]
                    for b in range(count_j):
                        v = order[start_j + b]
                        if _grn_within(positions, u, v, torus, radius_squared):
                            if edge_count < capacity:
                                edge_u[edge_count] = u
                                edge_v[edge_count] = v
                            edge_count += 1
    return edge_count


def grn_build_arrays(config: Any, rng: RandomSource) -> Tuple[Graph, np.ndarray]:
    """Kernel-tier GRN build; returns ``(graph, positions)`` — same draws,
    same edges in the same insertion order as the python build."""
    n = config.number_of_nodes
    radius = config.effective_radius()
    dims = config.dimensions
    torus = bool(config.torus)

    positions = np.empty((n, dims), dtype=np.float64)
    state = rng.export_mt_state()
    _fill_unit_positions(state, positions)
    rng.import_mt_state(state)

    cells_per_side = max(1, int(math.floor(1.0 / radius)))
    grid = bucket_cells(positions, cells_per_side)

    if dims == 1:
        volume = 2.0 * radius
    elif dims == 2:
        volume = math.pi * radius * radius
    else:
        volume = (4.0 / 3.0) * math.pi * radius ** 3
    expected_edges = 0.5 * n * n * min(1.0, volume)
    max_pairs = n * (n - 1) // 2
    capacity = int(min(max_pairs, int(1.5 * expected_edges) + 1024))

    radius_squared = radius * radius
    edge_u = np.empty(max(1, capacity), dtype=np.int64)
    edge_v = np.empty(max(1, capacity), dtype=np.int64)
    edge_count = _grn_sweep_kernel(
        positions, *grid, cells_per_side, torus, radius_squared, edge_u, edge_v
    )
    if edge_count > capacity:
        edge_u = np.empty(edge_count, dtype=np.int64)
        edge_v = np.empty(edge_count, dtype=np.int64)
        _grn_sweep_kernel(
            positions, *grid, cells_per_side, torus, radius_squared,
            edge_u, edge_v,
        )
    if edge_count == 0:
        return Graph(n), positions
    graph = Graph.from_edge_array(n, edge_u[:edge_count], edge_v[:edge_count])
    return graph, positions


# --------------------------------------------------------------------------- #
# Erdős–Rényi: geometric skipping (Batagelj & Brandes)
# --------------------------------------------------------------------------- #
@maybe_njit
def _er_fill_kernel(state, n, p, log_one_minus_p, edge_u, edge_v):
    """The reference's skip loop; returns the edge count (emission capped)."""
    capacity = edge_u.shape[0]
    edge_count = 0
    u = 1
    v = -1
    while u < n:
        if p >= 1.0:
            v += 1
        else:
            r = mt_random(state)
            v += 1 + int(np.floor(np.log(1.0 - r) / log_one_minus_p))
        while v >= u and u < n:
            v -= u
            u += 1
        if u < n:
            if edge_count < capacity:
                edge_u[edge_count] = u
                edge_v[edge_count] = v
            edge_count += 1
    return edge_count


def er_build(number_of_nodes: int, probability: float, rng: RandomSource) -> Graph:
    """Kernel-tier G(N, p) build; same draws, same edges, same order.

    The caller guarantees ``probability > 0`` (the reference returns the
    empty graph without drawing otherwise).
    """
    n = int(number_of_nodes)
    p = float(probability)
    log_one_minus_p = math.log(1.0 - p) if p < 1.0 else 0.0
    expected_edges = p * n * (n - 1) / 2.0
    capacity = int(min(n * (n - 1) // 2, int(1.25 * expected_edges) + 1024))

    initial_state = rng.export_mt_state()
    state = initial_state.copy()
    edge_u = np.empty(max(1, capacity), dtype=np.int64)
    edge_v = np.empty(max(1, capacity), dtype=np.int64)
    edge_count = _er_fill_kernel(state, n, p, log_one_minus_p, edge_u, edge_v)
    if edge_count > capacity:
        state = initial_state.copy()
        edge_u = np.empty(edge_count, dtype=np.int64)
        edge_v = np.empty(edge_count, dtype=np.int64)
        _er_fill_kernel(state, n, p, log_one_minus_p, edge_u, edge_v)
    rng.import_mt_state(state)
    if edge_count == 0:
        return Graph(n)
    return Graph.from_edge_array(n, edge_u[:edge_count], edge_v[:edge_count])
