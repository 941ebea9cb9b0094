"""Topology-construction kernels in reference draw order.

PR 4 moved the stochastic *search* loops onto compiled MT19937 kernels;
at paper scale (N = 10^5) that left topology *generation* as the dominant
per-realization cost — the growth loops of PA/HAPA/DAPA touch every node
through Python dict-of-sets operations, and CM shuffles a 2E-entry stub
list one draw at a time.  This module ports those loops to the same
kernel tier: each ``_*_kernel`` function replays one reference generator —
:class:`~repro.generators.pa.PreferentialAttachmentGenerator` (roulette
*and* paper-literal attempt strategies),
:class:`~repro.generators.nonlinear_pa.NonlinearPreferentialAttachmentGenerator`,
:class:`~repro.generators.hapa.HAPAGenerator`,
:class:`~repro.generators.dapa.DAPAGenerator`, and
:class:`~repro.generators.cm.ConfigurationModelGenerator` (stub matching)
— over preallocated NumPy degree/stub/adjacency arrays while consuming
**exactly** the CPython Mersenne-Twister draw sequence via
:mod:`repro.kernels.mt19937`.  A kernel build therefore produces the same
edges in the same insertion order, the same metadata counters, *and
leaves the RNG stream at the same position* as the Python loop it
replaces — so a full realization (generate + search) can run tier-``jit``
end to end and stay byte-identical to the reference.

Two layers live here, mirroring :mod:`repro.kernels.search`:

* the ``_*_kernel`` functions — plain array-in/array-out code decorated
  with :func:`repro.kernels._compat.maybe_njit` (compiled under numba,
  interpreted otherwise, identical values either way);
* the Python-facing builders (:func:`pa_roulette_build`,
  :func:`pa_attempt_build`, :func:`nlpa_build`, :func:`hapa_build`,
  :func:`dapa_build`, :func:`cm_stub_matching_build`)
  — they replicate the reference's Python-side draws (seed sampling, the
  CM degree sequence) on the real :class:`~repro.core.rng.RandomSource`,
  splice the stream into a kernel state vector, run the kernel, splice the
  advanced stream back, and ingest the emitted edge arrays through
  :meth:`repro.core.graph.Graph.from_edge_array` (which precomputes the
  CSR arrays, so the measurement phase's ``freeze()`` is free) — no per-edge Python calls anywhere.

Never call these from experiment code directly; the generators dispatch
here when :func:`repro.kernels.dispatch.kernel_ready` says the
``jit`` tier is active.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

from repro.core.graph import Graph
from repro.core.rng import RandomSource
from repro.kernels._compat import maybe_njit
from repro.kernels.mt19937 import mt_randbelow, mt_random

__all__ = [
    "pa_roulette_build",
    "pa_attempt_build",
    "nlpa_build",
    "hapa_build",
    "dapa_build",
    "cm_stub_matching_build",
]

# Single source of truth for the safety bounds: the kernels must give up
# after exactly as many draws as the reference loops.
from repro.generators.pa import _MAX_REJECTIONS_PER_STUB as _PA_MAX_REJECTIONS
from repro.generators.dapa import _MAX_ATTEMPTS_PER_STUB as _DAPA_MAX_ATTEMPTS


# --------------------------------------------------------------------------- #
# Shared: growable per-node adjacency lists in one flat pool (HAPA's hop
# needs indexed, insertion-ordered neighbor access while degrees grow)
# --------------------------------------------------------------------------- #
@maybe_njit
def _pool_append(pool, starts, caps, lengths, cursor, node, value):
    """Append ``value`` to ``node``'s list, doubling its pool slab if full.

    ``cursor`` is an ``int64[1]`` bump-allocator head.  Amortised slab
    growth keeps the total pool requirement under ``4 * total_appends +
    8 * nodes`` (each node's discarded slabs sum to less than its final
    slab), which the callers size for up front.
    """
    if lengths[node] == caps[node]:
        new_cap = caps[node] * 2
        if new_cap < 4:
            new_cap = 4
        new_start = cursor[0]
        cursor[0] = new_start + new_cap
        for i in range(lengths[node]):
            pool[new_start + i] = pool[starts[node] + i]
        starts[node] = new_start
        caps[node] = new_cap
    pool[starts[node] + lengths[node]] = value
    lengths[node] += 1


@maybe_njit
def _contains(values, count, needle):
    """Linear membership test over ``values[:count]`` (count <= m, tiny)."""
    for i in range(count):
        if values[i] == needle:
            return True
    return False


# --------------------------------------------------------------------------- #
# PA: roulette-strategy growth (paper §III-B, fast strategy)
# --------------------------------------------------------------------------- #
@maybe_njit
def _pa_roulette_kernel(
    state, n, m, cutoff, start_node, max_rejections,
    degrees, entries, stub_list, stub_len, dead_entries, edge_u, edge_v,
):
    """Grow nodes ``start_node..n-1``; returns the metadata counters.

    Statement-for-statement replay of
    ``PreferentialAttachmentGenerator._build_roulette`` (including the
    live-entry audit that short-circuits doomed picks, the bounded
    rejection loop, and the degree-weighted fallback scan), emitting
    growth edges into ``edge_u``/``edge_v`` in attachment order.
    """
    edge_count = 0
    rejected_attempts = 0
    unfilled_stubs = 0
    chosen = np.empty(m, dtype=np.int64)
    for new_node in range(start_node, n):
        chosen_count = 0
        for _stub in range(m):
            # Live-entry audit: stub slots pointing at an unsaturated,
            # not-yet-linked node.  Zero means both the rejection loop and
            # the fallback scan are doomed — consume no draws.
            live = stub_len - dead_entries
            for i in range(chosen_count):
                neighbor = chosen[i]
                if degrees[neighbor] < cutoff:
                    live -= entries[neighbor]
            target = -1
            rejections = 0
            if live > 0:
                while rejections < max_rejections:
                    candidate = stub_list[mt_randbelow(state, stub_len)]
                    if (
                        candidate != new_node
                        and degrees[candidate] < cutoff
                        and not _contains(chosen, chosen_count, candidate)
                    ):
                        target = candidate
                        break
                    rejections += 1
                if target < 0:
                    # Fallback: degree-weighted scan over eligible nodes
                    # (one float draw, exactly rng.weighted_index).
                    total = 0
                    eligible_count = 0
                    for node in range(new_node + 1):
                        if (
                            node != new_node
                            and degrees[node] < cutoff
                            and degrees[node] > 0
                            and not _contains(chosen, chosen_count, node)
                        ):
                            total += degrees[node]
                            eligible_count += 1
                    if eligible_count > 0:
                        threshold = mt_random(state) * float(total)
                        cumulative = 0.0
                        last_eligible = -1
                        for node in range(new_node + 1):
                            if (
                                node != new_node
                                and degrees[node] < cutoff
                                and degrees[node] > 0
                                and not _contains(chosen, chosen_count, node)
                            ):
                                cumulative += degrees[node]
                                last_eligible = node
                                if threshold < cumulative:
                                    target = node
                                    break
                        if target < 0:
                            target = last_eligible
            rejected_attempts += rejections
            if target < 0:
                unfilled_stubs += 1
                continue
            degrees[target] += 1
            if degrees[target] == cutoff:
                dead_entries += entries[target]
            degrees[new_node] += 1
            edge_u[edge_count] = new_node
            edge_v[edge_count] = target
            edge_count += 1
            chosen[chosen_count] = target
            chosen_count += 1
        for i in range(chosen_count):
            neighbor = chosen[i]
            stub_list[stub_len] = neighbor
            stub_len += 1
            entries[neighbor] += 1
            if degrees[neighbor] >= cutoff:
                dead_entries += 1
            stub_list[stub_len] = new_node
            stub_len += 1
            entries[new_node] += 1
            if degrees[new_node] >= cutoff:
                dead_entries += 1
    return edge_count, rejected_attempts, unfilled_stubs


def _seed_clique_edges(seed_n: int) -> Tuple[np.ndarray, np.ndarray]:
    """Edges of ``Graph.complete(seed_n)`` in its add order."""
    pairs = [(u, v) for u in range(seed_n) for v in range(u + 1, seed_n)]
    if not pairs:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    array = np.array(pairs, dtype=np.int64)
    return array[:, 0], array[:, 1]


def pa_roulette_build(config: Any, rng: RandomSource) -> Tuple[Graph, Dict[str, Any]]:
    """Kernel-tier replacement for ``_build_roulette``; same draws, same graph."""
    n, m = config.number_of_nodes, config.stubs
    cutoff = config.effective_cutoff()
    seed_n = min(m + 1, n)
    seed_graph = Graph.complete(seed_n)
    # The reference seeds its stub list from Graph.complete(...).edges();
    # replicate through the same call so the slot order is identical.
    seed_stub: List[int] = []
    for u, v in seed_graph.edges():
        seed_stub.append(u)
        seed_stub.append(v)

    growth = m * max(0, n - seed_n)
    stub_list = np.zeros(len(seed_stub) + 2 * growth, dtype=np.int64)
    stub_list[: len(seed_stub)] = seed_stub
    degrees = np.zeros(n, dtype=np.int64)
    degrees[:seed_n] = seed_n - 1
    entries = np.zeros(n, dtype=np.int64)
    for node in seed_stub:
        entries[node] += 1
    dead_entries = 0
    for node in range(seed_n):
        if degrees[node] >= cutoff:
            dead_entries += int(entries[node])
    edge_u = np.zeros(growth, dtype=np.int64)
    edge_v = np.zeros(growth, dtype=np.int64)

    state = rng.export_mt_state()
    edge_count, rejected_attempts, unfilled_stubs = _pa_roulette_kernel(
        state, n, m, cutoff, seed_n, _PA_MAX_REJECTIONS,
        degrees, entries, stub_list, len(seed_stub), dead_entries,
        edge_u, edge_v,
    )
    rng.import_mt_state(state)

    seed_u, seed_v = _seed_clique_edges(seed_n)
    graph = Graph.from_edge_array(
        n,
        np.concatenate([seed_u, edge_u[:edge_count]]),
        np.concatenate([seed_v, edge_v[:edge_count]]),
    )
    metadata = {
        "rejected_attempts": int(rejected_attempts),
        "unfilled_stubs": int(unfilled_stubs),
        "strategy": "roulette",
    }
    return graph, metadata


# --------------------------------------------------------------------------- #
# PA: attempt-strategy growth (paper §III-B, Algorithm 1 literal)
# --------------------------------------------------------------------------- #
@maybe_njit
def _pa_attempt_kernel(
    state, n, m, cutoff, start_node, max_rejections,
    degrees, total_degree, edge_u, edge_v,
):
    """Grow nodes ``start_node..n-1``; returns the metadata counters.

    Statement-for-statement replay of
    ``PreferentialAttachmentGenerator._build_attempt``: per attempt one
    uniform candidate draw then one acceptance draw, accepted when the
    candidate is not yet a neighbor, passes the ``k/k_total`` coin, and is
    below the cutoff.  The new node's only neighbors are this round's
    targets, so the reference's ``has_edge`` check reduces to a scan of
    ``chosen``.  The fourth return value flags the reference's edgeless
    seed-graph guard (raised as ``GenerationError`` by the wrapper).
    """
    edge_count = 0
    rejected_attempts = 0
    unfilled_stubs = 0
    chosen = np.empty(m, dtype=np.int64)
    for new_node in range(start_node, n):
        chosen_count = 0
        for _stub in range(m):
            placed = False
            attempts = 0
            while not placed and attempts < max_rejections:
                attempts += 1
                candidate = mt_randbelow(state, new_node)
                acceptance = mt_random(state)
                if total_degree == 0:
                    return edge_count, rejected_attempts, unfilled_stubs, 1
                if (
                    not _contains(chosen, chosen_count, candidate)
                    and acceptance < degrees[candidate] / total_degree
                    and degrees[candidate] < cutoff
                ):
                    edge_u[edge_count] = new_node
                    edge_v[edge_count] = candidate
                    edge_count += 1
                    degrees[candidate] += 1
                    degrees[new_node] += 1
                    total_degree += 2
                    chosen[chosen_count] = candidate
                    chosen_count += 1
                    placed = True
            rejected_attempts += attempts - 1
            if not placed:
                unfilled_stubs += 1
    return edge_count, rejected_attempts, unfilled_stubs, 0


def pa_attempt_build(config: Any, rng: RandomSource) -> Tuple[Graph, Dict[str, Any]]:
    """Kernel-tier replacement for ``_build_attempt``; same draws, same graph."""
    from repro.core.errors import GenerationError

    n, m = config.number_of_nodes, config.stubs
    cutoff = config.effective_cutoff()
    seed_n = min(m + 1, n)
    seed_graph = Graph.complete(seed_n)

    degrees = np.zeros(n, dtype=np.int64)
    for node in seed_graph.nodes():
        degrees[node] = seed_graph.degree(node)
    total_degree = seed_graph.total_degree
    growth = m * max(0, n - seed_n)
    edge_u = np.zeros(growth, dtype=np.int64)
    edge_v = np.zeros(growth, dtype=np.int64)

    state = rng.export_mt_state()
    edge_count, rejected_attempts, unfilled_stubs, edgeless = _pa_attempt_kernel(
        state, n, m, cutoff, seed_n, _PA_MAX_REJECTIONS,
        degrees, total_degree, edge_u, edge_v,
    )
    rng.import_mt_state(state)
    if edgeless:
        raise GenerationError(
            "preferential attachment needs at least one existing edge to "
            "define attachment probabilities; the seed graph is edgeless"
        )

    seed_edges = seed_graph.edges()
    seed_u = np.array([pair[0] for pair in seed_edges], dtype=np.int64)
    seed_v = np.array([pair[1] for pair in seed_edges], dtype=np.int64)
    graph = Graph.from_edge_array(
        n,
        np.concatenate([seed_u, edge_u[:edge_count]]),
        np.concatenate([seed_v, edge_v[:edge_count]]),
    )
    metadata = {
        "rejected_attempts": int(rejected_attempts),
        "unfilled_stubs": int(unfilled_stubs),
        "strategy": "attempt",
    }
    return graph, metadata


# --------------------------------------------------------------------------- #
# NLPA: nonlinear preferential attachment, Π(k) ∝ k^α (extension)
# --------------------------------------------------------------------------- #
@maybe_njit
def _nlpa_kernel(state, n, m, alpha, cutoff, start_node, degrees, edge_u, edge_v):
    """Grow nodes ``start_node..n-1``; returns ``(edge_count, unfilled)``.

    Replays ``NonlinearPreferentialAttachmentGenerator._build``: per stub
    one pass over ``0..new_node-1`` accumulating ``degree**alpha`` weights
    in node order (float-for-float the reference's ``sum(weights)``), then
    one ``rng.weighted_index`` draw — threshold compare and last-index
    fallback included.  A stub whose eligible set is empty *or* carries
    zero total weight (every eligible node isolated under ``alpha > 0``)
    consumes no draw, exactly like the reference's guard.
    """
    edge_count = 0
    unfilled_stubs = 0
    chosen = np.empty(m, dtype=np.int64)
    for new_node in range(start_node, n):
        chosen_count = 0
        for _stub in range(m):
            total = 0.0
            eligible_count = 0
            for node in range(new_node):
                if degrees[node] >= cutoff or _contains(chosen, chosen_count, node):
                    continue
                total += degrees[node] ** alpha
                eligible_count += 1
            if eligible_count == 0 or total <= 0.0:
                unfilled_stubs += 1
                continue
            threshold = mt_random(state) * total
            cumulative = 0.0
            target = -1
            last_eligible = -1
            for node in range(new_node):
                if degrees[node] >= cutoff or _contains(chosen, chosen_count, node):
                    continue
                cumulative += degrees[node] ** alpha
                last_eligible = node
                if threshold < cumulative:
                    target = node
                    break
            if target < 0:
                target = last_eligible
            edge_u[edge_count] = new_node
            edge_v[edge_count] = target
            edge_count += 1
            degrees[target] += 1
            degrees[new_node] += 1
            chosen[chosen_count] = target
            chosen_count += 1
    return edge_count, unfilled_stubs


def nlpa_build(
    config: Any, alpha: float, rng: RandomSource
) -> Tuple[Graph, Dict[str, Any]]:
    """Kernel-tier replacement for the nlpa ``_build``; same draws, same graph."""
    n, m = config.number_of_nodes, config.stubs
    cutoff = config.effective_cutoff()
    seed_n = min(m + 1, n)

    degrees = np.zeros(n, dtype=np.int64)
    degrees[:seed_n] = seed_n - 1
    growth = m * max(0, n - seed_n)
    edge_u = np.zeros(growth, dtype=np.int64)
    edge_v = np.zeros(growth, dtype=np.int64)

    state = rng.export_mt_state()
    edge_count, unfilled_stubs = _nlpa_kernel(
        state, n, m, float(alpha), cutoff, seed_n, degrees, edge_u, edge_v
    )
    rng.import_mt_state(state)

    seed_u, seed_v = _seed_clique_edges(seed_n)
    graph = Graph.from_edge_array(
        n,
        np.concatenate([seed_u, edge_u[:edge_count]]),
        np.concatenate([seed_v, edge_v[:edge_count]]),
    )
    metadata = {
        "exponent_alpha": float(alpha),
        "unfilled_stubs": int(unfilled_stubs),
    }
    return graph, metadata


# --------------------------------------------------------------------------- #
# HAPA: hop-and-attempt growth (paper §IV-A, Algorithm 3)
# --------------------------------------------------------------------------- #
@maybe_njit
def _hapa_accepts(state, degrees, chosen, chosen_count, new_node, candidate,
                  cutoff, total_degree):
    """HAPA's acceptance test (Algorithm 3, lines 4 and 11): draw the coin
    only when the pre-checks pass."""
    if candidate == new_node or _contains(chosen, chosen_count, candidate):
        return False
    degree = degrees[candidate]
    if degree >= cutoff or degree == 0:
        return False
    if total_degree == 0:
        return False
    return mt_random(state) < degree / total_degree


@maybe_njit
def _hapa_kernel(
    state, n, m, cutoff, max_hops,
    pool, starts, caps, degrees, cursor, edge_u, edge_v,
):
    """Build the whole HAPA topology; returns the metadata counters.

    The seed clique is constructed in the kernel (no draws, same adjacency
    order as ``Graph.complete``); growth edges are emitted in attachment
    order.
    """
    seed_n = m + 1 if m + 1 < n else n
    for u in range(seed_n):
        for v in range(u + 1, seed_n):
            _pool_append(pool, starts, caps, degrees, cursor, u, v)
            _pool_append(pool, starts, caps, degrees, cursor, v, u)
    total_degree = seed_n * (seed_n - 1)

    edge_count = 0
    total_hops = 0
    fallback_attachments = 0
    unfilled_stubs = 0
    chosen = np.empty(m, dtype=np.int64)
    for new_node in range(seed_n, n):
        filled = 0
        chosen_count = 0

        # Step 1 (paper lines 3-7): one attempt at a uniform existing node.
        candidate = mt_randbelow(state, new_node)
        if _hapa_accepts(state, degrees, chosen, chosen_count, new_node,
                         candidate, cutoff, total_degree):
            _pool_append(pool, starts, caps, degrees, cursor, new_node, candidate)
            _pool_append(pool, starts, caps, degrees, cursor, candidate, new_node)
            total_degree += 2
            edge_u[edge_count] = new_node
            edge_v[edge_count] = candidate
            edge_count += 1
            chosen[chosen_count] = candidate
            chosen_count += 1
            filled = 1
        current = candidate

        # Step 2 (paper lines 8-15): hop along links, attempting everywhere.
        hops_for_node = 0
        while filled < m:
            degree_current = degrees[current]
            if degree_current > 0:
                next_node = pool[starts[current]
                                 + mt_randbelow(state, degree_current)]
            else:
                # Isolated landing spot: restart from a random existing node.
                next_node = mt_randbelow(state, new_node)
            current = next_node
            hops_for_node += 1
            total_hops += 1
            if current != new_node and _hapa_accepts(
                state, degrees, chosen, chosen_count, new_node, current,
                cutoff, total_degree,
            ):
                _pool_append(pool, starts, caps, degrees, cursor, new_node, current)
                _pool_append(pool, starts, caps, degrees, cursor, current, new_node)
                total_degree += 2
                edge_u[edge_count] = new_node
                edge_v[edge_count] = current
                edge_count += 1
                chosen[chosen_count] = current
                chosen_count += 1
                filled += 1
                hops_for_node = 0
                continue
            if hops_for_node >= max_hops:
                # Fallback: uniform choice over the eligible nodes
                # (one draw, exactly rng.choice over the eligible list).
                eligible = 0
                for node in range(new_node + 1):
                    if (
                        node != new_node
                        and degrees[node] < cutoff
                        and not _contains(chosen, chosen_count, node)
                    ):
                        eligible += 1
                if eligible == 0:
                    unfilled_stubs += m - filled
                    break
                pick_index = mt_randbelow(state, eligible)
                picked = -1
                seen = 0
                for node in range(new_node + 1):
                    if (
                        node != new_node
                        and degrees[node] < cutoff
                        and not _contains(chosen, chosen_count, node)
                    ):
                        if seen == pick_index:
                            picked = node
                            break
                        seen += 1
                _pool_append(pool, starts, caps, degrees, cursor, new_node, picked)
                _pool_append(pool, starts, caps, degrees, cursor, picked, new_node)
                total_degree += 2
                edge_u[edge_count] = new_node
                edge_v[edge_count] = picked
                edge_count += 1
                chosen[chosen_count] = picked
                chosen_count += 1
                fallback_attachments += 1
                filled += 1
                hops_for_node = 0
    return edge_count, total_hops, fallback_attachments, unfilled_stubs


def hapa_build(config: Any, rng: RandomSource) -> Tuple[Graph, Dict[str, Any]]:
    """Kernel-tier replacement for ``HAPAGenerator._build``; same draws."""
    n, m = config.number_of_nodes, config.stubs
    cutoff = config.effective_cutoff()
    max_hops = config.max_hops_per_stub
    seed_n = min(m + 1, n)

    max_edges = seed_n * (seed_n - 1) // 2 + m * max(0, n - seed_n)
    pool = np.zeros(8 * max_edges + 8 * n + 64, dtype=np.int64)
    starts = np.zeros(n, dtype=np.int64)
    caps = np.zeros(n, dtype=np.int64)
    degrees = np.zeros(n, dtype=np.int64)
    cursor = np.zeros(1, dtype=np.int64)
    growth = m * max(0, n - seed_n)
    edge_u = np.zeros(growth, dtype=np.int64)
    edge_v = np.zeros(growth, dtype=np.int64)

    state = rng.export_mt_state()
    edge_count, total_hops, fallback_attachments, unfilled_stubs = _hapa_kernel(
        state, n, m, cutoff, max_hops,
        pool, starts, caps, degrees, cursor, edge_u, edge_v,
    )
    rng.import_mt_state(state)

    seed_u, seed_v = _seed_clique_edges(seed_n)
    graph = Graph.from_edge_array(
        n,
        np.concatenate([seed_u, edge_u[:edge_count]]),
        np.concatenate([seed_v, edge_v[:edge_count]]),
    )
    metadata = {
        "total_hops": int(total_hops),
        "fallback_attachments": int(fallback_attachments),
        "unfilled_stubs": int(unfilled_stubs),
    }
    return graph, metadata


# --------------------------------------------------------------------------- #
# DAPA: discover-and-attempt growth on a substrate (paper §IV-B, Algorithm 4)
# --------------------------------------------------------------------------- #
@maybe_njit
def _dapa_kernel(
    state, indptr, indices, n_sub, target_peers, m, cutoff, max_depth,
    max_attempts, peer_mask, overlay_deg, overlay_pos, peers_count,
    visited_epoch, depth, queue, horizon,
    join_rows, join_edge_counts, edge_u, edge_v,
):
    """Grow the overlay to ``target_peers``; returns join/edge counters.

    Replays ``DAPAGenerator._grow_overlay`` over the frozen substrate's
    ``indptr``/``indices`` (BFS discovery in defined neighbor order, the
    horizon-restricted accept/reject attachment, and the weighted-draw
    termination fallback), recording joining rows and their edges in
    insertion order.  ``overlay_pos`` maps a substrate row to the node's
    position in the overlay's insertion order (seeds first), and the edge
    arrays are emitted in *position* space so the wrapper can hand them to
    ``Graph.from_edge_array(..., edges_are_rows=True)`` without a
    per-edge id translation.
    """
    max_without_progress = 20 * n_sub
    attempts_without_progress = 0
    empty_horizons = 0
    short_horizons = 0
    discovery_messages = 0
    join_count = 0
    edge_count = 0
    epoch = 0
    chosen = np.empty(m, dtype=np.int64)
    while peers_count < target_peers:
        if attempts_without_progress > max_without_progress:
            # No remaining substrate node can see a peer within tau_sub hops.
            break
        node = mt_randbelow(state, n_sub)
        if peer_mask[node]:
            attempts_without_progress += 1
            continue

        # Horizon discovery: BFS bounded by tau_sub, epoch-stamped scratch.
        epoch += 1
        horizon_len = 0
        remaining_peers = peers_count
        visited_epoch[node] = epoch
        depth[node] = 0
        queue[0] = node
        head = 0
        tail = 1
        while head < tail and remaining_peers > 0:
            current = queue[head]
            head += 1
            current_depth = depth[current]
            if current_depth >= max_depth:
                continue
            for idx in range(indptr[current], indptr[current + 1]):
                neighbor = indices[idx]
                if visited_epoch[neighbor] == epoch:
                    continue
                visited_epoch[neighbor] = epoch
                depth[neighbor] = current_depth + 1
                queue[tail] = neighbor
                tail += 1
                if peer_mask[neighbor]:
                    remaining_peers -= 1
                    if overlay_deg[neighbor] < cutoff:
                        horizon[horizon_len] = neighbor
                        horizon_len += 1
        discovery_messages += 1
        if horizon_len == 0:
            empty_horizons += 1
            attempts_without_progress += 1
            continue

        join_rows[join_count] = node
        overlay_pos[node] = peers_count
        node_pos = overlay_pos[node]
        edges_before = edge_count
        if horizon_len <= m:
            short_horizons += 1
            for i in range(horizon_len):
                peer = horizon[i]
                edge_u[edge_count] = node_pos
                edge_v[edge_count] = overlay_pos[peer]
                edge_count += 1
                overlay_deg[node] += 1
                overlay_deg[peer] += 1
        else:
            # Accept/reject attachment (Algorithm 4 lines 18-29); the
            # horizon's total degree is computed once and deliberately
            # left stale as edges land, exactly like the reference.
            chosen_count = 0
            attempts = 0
            horizon_total_degree = 0
            for i in range(horizon_len):
                horizon_total_degree += overlay_deg[horizon[i]]
            while chosen_count < m and chosen_count < horizon_len:
                if attempts >= max_attempts or horizon_total_degree == 0:
                    # Weighted (or uniform) draw over the remaining
                    # eligible peers to guarantee termination.
                    total = 0
                    remaining_count = 0
                    for i in range(horizon_len):
                        peer = horizon[i]
                        if (
                            not _contains(chosen, chosen_count, peer)
                            and overlay_deg[peer] < cutoff
                        ):
                            weight = overlay_deg[peer]
                            if weight < 1:
                                weight = 1
                            total += weight
                            remaining_count += 1
                    if remaining_count == 0:
                        break
                    threshold = mt_random(state) * float(total)
                    cumulative = 0.0
                    picked = -1
                    last_eligible = -1
                    for i in range(horizon_len):
                        peer = horizon[i]
                        if (
                            not _contains(chosen, chosen_count, peer)
                            and overlay_deg[peer] < cutoff
                        ):
                            weight = overlay_deg[peer]
                            if weight < 1:
                                weight = 1
                            cumulative += weight
                            last_eligible = peer
                            if threshold < cumulative:
                                picked = peer
                                break
                    if picked < 0:
                        picked = last_eligible
                    edge_u[edge_count] = node_pos
                    edge_v[edge_count] = overlay_pos[picked]
                    edge_count += 1
                    overlay_deg[node] += 1
                    overlay_deg[picked] += 1
                    chosen[chosen_count] = picked
                    chosen_count += 1
                    attempts = 0
                    continue
                attempts += 1
                peer = horizon[mt_randbelow(state, horizon_len)]
                if _contains(chosen, chosen_count, peer):
                    continue
                degree = overlay_deg[peer]
                if degree >= cutoff:
                    continue
                if mt_random(state) < degree / horizon_total_degree:
                    edge_u[edge_count] = node_pos
                    edge_v[edge_count] = overlay_pos[peer]
                    edge_count += 1
                    overlay_deg[node] += 1
                    overlay_deg[peer] += 1
                    chosen[chosen_count] = peer
                    chosen_count += 1
        join_edge_counts[join_count] = edge_count - edges_before
        join_count += 1
        peer_mask[node] = True
        peers_count += 1
        attempts_without_progress = 0
    return (
        join_count, edge_count, peers_count,
        empty_horizons, short_horizons, discovery_messages,
    )


def dapa_build(
    config: Any, substrate: Any, rng: RandomSource
) -> Tuple[Graph, Dict[str, Any]]:
    """Kernel-tier replacement for ``DAPAGenerator._build`` (post-substrate).

    ``substrate`` is the already-resolved substrate graph — resolving it
    (and its ``rng.spawn``) happens in the generator so the stream prefix
    is shared with the reference.  The seed sampling below replays the
    reference's ``rng.sample`` on the real source; only the growth loop
    runs in the kernel.
    """
    from repro.core.csr import CSRGraph

    cutoff = config.effective_cutoff()
    m = config.stubs
    target_peers = config.overlay_size

    csr = substrate if isinstance(substrate, CSRGraph) else substrate.freeze()
    substrate_nodes = substrate.nodes()
    n_sub = len(substrate_nodes)

    seeds = rng.sample(substrate_nodes, config.initial_peers)
    seed_rows = [csr._row_of(node) for node in seeds]
    peer_mask = np.zeros(n_sub, dtype=np.bool_)
    overlay_deg = np.zeros(n_sub, dtype=np.int64)
    overlay_pos = np.full(n_sub, -1, dtype=np.int64)
    for position, row in enumerate(seed_rows):
        peer_mask[row] = True
        overlay_deg[row] = config.initial_peers - 1
        overlay_pos[row] = position

    max_joins = max(0, target_peers - config.initial_peers)
    max_edges = m * max_joins
    join_rows = np.zeros(max_joins, dtype=np.int64)
    join_edge_counts = np.zeros(max_joins, dtype=np.int64)
    edge_u = np.zeros(max_edges, dtype=np.int64)
    edge_v = np.zeros(max_edges, dtype=np.int64)

    state = rng.export_mt_state()
    (
        join_count, edge_count, peers_count,
        empty_horizons, short_horizons, discovery_messages,
    ) = _dapa_kernel(
        state, csr._indptr, csr._indices, n_sub, target_peers, m, cutoff,
        config.local_ttl, _DAPA_MAX_ATTEMPTS, peer_mask, overlay_deg,
        overlay_pos, config.initial_peers, np.zeros(n_sub, dtype=np.int64),
        np.zeros(n_sub, dtype=np.int64), np.zeros(n_sub, dtype=np.int64),
        np.zeros(n_sub, dtype=np.int64), join_rows, join_edge_counts,
        edge_u, edge_v,
    )
    rng.import_mt_state(state)

    row_ids = np.arange(n_sub, dtype=np.int64) if csr._ids is None else csr._ids
    join_ids = row_ids[join_rows[:join_count]]
    # Seed-clique edges in reference add order, as overlay *positions*
    # (seeds occupy positions 0..initial_peers-1 by construction).
    clique = [
        (i, j)
        for i in range(len(seeds))
        for j in range(i + 1, len(seeds))
    ]
    clique_u = np.array([pair[0] for pair in clique], dtype=np.int64)
    clique_v = np.array([pair[1] for pair in clique], dtype=np.int64)
    overlay = Graph.from_edge_array(
        list(seeds) + [int(node) for node in join_ids],
        np.concatenate([clique_u, edge_u[:edge_count]]),
        np.concatenate([clique_v, edge_v[:edge_count]]),
        edges_are_rows=True,
    )
    metadata = {
        "substrate_nodes": substrate.number_of_nodes,
        "substrate_edges": substrate.number_of_edges,
        "substrate_mean_degree": substrate.mean_degree(),
        "overlay_peers": int(peers_count),
        "target_overlay_size": target_peers,
        "reached_target": int(peers_count) >= target_peers,
        "empty_horizons": int(empty_horizons),
        "short_horizons": int(short_horizons),
        "discovery_messages": int(discovery_messages),
        "substrate_graph": substrate,
    }
    return overlay, metadata


# --------------------------------------------------------------------------- #
# CM: stub matching with self-loop/multi-edge removal (paper §III-C)
# --------------------------------------------------------------------------- #
@maybe_njit
def _cm_stub_matching_kernel(state, stubs, starts, lengths, pool, edge_u, edge_v):
    """Shuffle the stub list and pair consecutive stubs; returns counters.

    The shuffle is CPython's ``random.shuffle`` draw for draw; duplicate
    edges are detected with a scan over the shorter endpoint's adjacency
    slab (bounded by the prescribed cutoff).
    """
    length = stubs.shape[0]
    for i in range(length - 1, 0, -1):
        j = mt_randbelow(state, i + 1)
        swap = stubs[i]
        stubs[i] = stubs[j]
        stubs[j] = swap
    removed_self_loops = 0
    removed_multi_edges = 0
    edge_count = 0
    for index in range(0, length - 1, 2):
        u = stubs[index]
        v = stubs[index + 1]
        if u == v:
            removed_self_loops += 1
            continue
        if lengths[u] <= lengths[v]:
            scan, other = u, v
        else:
            scan, other = v, u
        duplicate = False
        for i in range(lengths[scan]):
            if pool[starts[scan] + i] == other:
                duplicate = True
                break
        if duplicate:
            removed_multi_edges += 1
            continue
        pool[starts[u] + lengths[u]] = v
        lengths[u] += 1
        pool[starts[v] + lengths[v]] = u
        lengths[v] += 1
        edge_u[edge_count] = u
        edge_v[edge_count] = v
        edge_count += 1
    return edge_count, removed_self_loops, removed_multi_edges


def cm_stub_matching_build(
    sequence: Sequence[int], rng: RandomSource
) -> Tuple[Graph, int, int]:
    """Kernel-tier replacement for ``_stub_matching``; same draws, same graph."""
    degrees = np.array(sequence, dtype=np.int64)
    n = len(degrees)
    stubs = np.repeat(np.arange(n, dtype=np.int64), degrees)
    starts = np.zeros(n, dtype=np.int64)
    np.cumsum(degrees[:-1], out=starts[1:])
    lengths = np.zeros(n, dtype=np.int64)
    pool = np.zeros(max(1, int(degrees.sum())), dtype=np.int64)
    max_edges = len(stubs) // 2
    edge_u = np.zeros(max(1, max_edges), dtype=np.int64)
    edge_v = np.zeros(max(1, max_edges), dtype=np.int64)

    state = rng.export_mt_state()
    edge_count, removed_self_loops, removed_multi_edges = _cm_stub_matching_kernel(
        state, stubs, starts, lengths, pool, edge_u, edge_v
    )
    rng.import_mt_state(state)

    graph = Graph.from_edge_array(n, edge_u[:edge_count], edge_v[:edge_count])
    return graph, int(removed_self_loops), int(removed_multi_edges)
