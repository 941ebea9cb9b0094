"""Batched Gnutella query kernel over the frozen overlay's CSR arrays.

PR 4 promised the simulation layer a compiled query path; this module
delivers it.  The event-driven
:meth:`repro.simulation.protocol.GnutellaProtocol.query` cannot be made
draw-identical to a batch (every ``send`` draws a latency sample and the
event heap orders deliveries by those draws), so the batched path defines
its own synchronous semantics — shared, statement for statement, with the
pure-Python reference
:func:`repro.simulation.protocol.batch_query_reference`:

* deliveries are processed in FIFO send order over the frozen overlay's
  ``indptr``/``indices`` rows (CSR insertion order, *not* the live peers'
  sorted neighbor tables);
* per delivery the live path's bookkeeping applies — first-time receipt
  counts the peer, a first-time provider answers exactly once, duplicates
  and exhausted TTLs stop, and forwarding excludes the previous hop with
  the policy's draw semantics (``fl`` all, ``nf`` a ``random.sample`` of
  ``branching``, ``rw`` one uniform pick);
* ``first_hit`` is the hop count of the first provider delivery (the event
  path reports a latency timestamp instead), and per-peer counters are not
  updated.

The kernel consumes the CPython Mersenne-Twister stream through
:mod:`repro.kernels.mt19937` (``random.sample`` via the same ``_mt_sample``
replica the search kernels use), so reference and kernel produce identical
statistics *and* leave the RNG at the same position.  Dispatch goes through
:func:`repro.kernels.dispatch.kernel_ready`, with the same
``auto`` parity self-check and telemetry tier counters as search and
generation.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.core.rng import RandomSource
from repro.kernels._compat import maybe_njit
from repro.kernels.mt19937 import mt_randbelow
from repro.kernels.search import _mt_sample

__all__ = ["POLICY_CODES", "gnutella_query_batch"]

#: Forwarding-policy encoding shared by the kernel and its callers.
POLICY_CODES = {"fl": 0, "nf": 1, "rw": 2}


@maybe_njit
def _gnutella_batch_kernel(
    indptr, indices, state, sources, ttl, policy, branching, walkers,
    provider_mask, max_degree,
    seen_epoch, queue_node, queue_prev, queue_ttl,
    out_reached, out_query_messages, out_hit_messages, out_first_hit,
    providers_flat, provider_counts,
):
    """Run every query in ``sources`` to completion; fills the out arrays.

    Scratch arrays are caller-allocated and reused across queries via
    epoch stamping (``seen_epoch``) so a large batch allocates nothing per
    query.  ``providers_flat`` records providers in hit order, packed
    consecutively per query (``provider_counts`` holds the slice lengths).
    """
    scratch = np.empty(max_degree, dtype=np.int64)
    pick = branching if branching < max_degree else max_degree
    if pick < 1:
        pick = 1
    chosen = np.empty(pick, dtype=np.int64)
    provider_cursor = 0
    for query_index in range(sources.shape[0]):
        source = sources[query_index]
        epoch = query_index + 1
        reached = 0
        query_messages = 0
        hit_messages = 0
        first_hit = -1
        provider_count = 0
        seen_epoch[source] = epoch
        head = 0
        tail = 0

        start = indptr[source]
        end = indptr[source + 1]
        count = end - start
        if count > 0:
            if policy == 0:  # flooding: every neighbor, no previous hop
                for i in range(count):
                    queue_node[tail] = indices[start + i]
                    queue_prev[tail] = source
                    queue_ttl[tail] = ttl
                    tail += 1
                    query_messages += 1
            elif policy == 1:  # normalized flooding
                if count <= branching:
                    recipients = count
                    for i in range(count):
                        scratch[i] = indices[start + i]
                else:
                    recipients = branching
                    for i in range(count):
                        scratch[i] = indices[start + i]
                    _mt_sample(state, scratch, count, branching, chosen)
                    for i in range(branching):
                        scratch[i] = chosen[i]
                for i in range(recipients):
                    queue_node[tail] = scratch[i]
                    queue_prev[tail] = source
                    queue_ttl[tail] = ttl
                    tail += 1
                    query_messages += 1
            else:  # random walk: min(walkers, degree) independent walkers
                launches = walkers if walkers < count else count
                for _walker in range(launches):
                    target = indices[start + mt_randbelow(state, count)]
                    queue_node[tail] = target
                    queue_prev[tail] = source
                    queue_ttl[tail] = ttl
                    tail += 1
                    query_messages += 1

        while head < tail:
            node = queue_node[head]
            previous = queue_prev[head]
            message_ttl = queue_ttl[head]
            head += 1
            first_time = seen_epoch[node] != epoch
            if first_time:
                seen_epoch[node] = epoch
                reached += 1
                if provider_mask[node]:
                    hit_messages += 1
                    providers_flat[provider_cursor + provider_count] = node
                    provider_count += 1
                    if first_hit < 0:
                        first_hit = ttl - message_ttl + 1
            if not first_time:
                continue
            if message_ttl - 1 < 1:
                continue
            start = indptr[node]
            end = indptr[node + 1]
            count = 0
            for idx in range(start, end):
                neighbor = indices[idx]
                if neighbor != previous:
                    scratch[count] = neighbor
                    count += 1
            if count == 0:
                continue
            if policy == 0:
                recipients = count
            elif policy == 1:
                if count <= branching:
                    recipients = count
                else:
                    recipients = branching
                    _mt_sample(state, scratch, count, branching, chosen)
                    for i in range(branching):
                        scratch[i] = chosen[i]
            else:
                scratch[0] = scratch[mt_randbelow(state, count)]
                recipients = 1
            for i in range(recipients):
                queue_node[tail] = scratch[i]
                queue_prev[tail] = node
                queue_ttl[tail] = message_ttl - 1
                tail += 1
                query_messages += 1

        out_reached[query_index] = reached
        out_query_messages[query_index] = query_messages
        out_hit_messages[query_index] = hit_messages
        out_first_hit[query_index] = first_hit
        provider_counts[query_index] = provider_count
        provider_cursor += provider_count


def gnutella_query_batch(
    frozen,
    source_rows: Sequence[int],
    ttl: int,
    policy: str,
    branching: int,
    walkers: int,
    provider_mask: np.ndarray,
    rng: RandomSource,
) -> Tuple[List[int], List[int], List[int], List[int], List[List[int]]]:
    """Kernel-tier batch query; same draws and results as the reference.

    Everything is in *row* space: ``source_rows`` and the returned provider
    lists index rows of ``frozen`` (the caller translates to peer ids).
    Returns ``(peers_reached, query_messages, hit_messages, first_hit_hop,
    providers)`` with ``first_hit_hop == -1`` when no provider answered.
    """
    indptr = frozen._indptr
    indices = frozen._indices
    n = int(indptr.shape[0] - 1)
    sources = np.asarray(list(source_rows), dtype=np.int64)
    queries = len(sources)
    mask = np.asarray(provider_mask, dtype=np.bool_)
    max_degree = max(1, int(frozen.max_degree())) if n else 1
    queue_capacity = int(indices.shape[0]) + max(1, int(walkers)) + 1

    seen_epoch = np.zeros(n, dtype=np.int64)
    queue_node = np.empty(queue_capacity, dtype=np.int64)
    queue_prev = np.empty(queue_capacity, dtype=np.int64)
    queue_ttl = np.empty(queue_capacity, dtype=np.int64)
    out_reached = np.zeros(queries, dtype=np.int64)
    out_query_messages = np.zeros(queries, dtype=np.int64)
    out_hit_messages = np.zeros(queries, dtype=np.int64)
    out_first_hit = np.full(queries, -1, dtype=np.int64)
    providers_flat = np.empty(
        max(1, queries * int(mask.sum())), dtype=np.int64
    )
    provider_counts = np.zeros(queries, dtype=np.int64)

    state = rng.export_mt_state()
    _gnutella_batch_kernel(
        indptr, indices, state, sources, ttl, POLICY_CODES[policy],
        branching, walkers, mask, max_degree,
        seen_epoch, queue_node, queue_prev, queue_ttl,
        out_reached, out_query_messages, out_hit_messages, out_first_hit,
        providers_flat, provider_counts,
    )
    rng.import_mt_state(state)

    providers: List[List[int]] = []
    cursor = 0
    for query_index in range(queries):
        span = int(provider_counts[query_index])
        providers.append(
            [int(row) for row in providers_flat[cursor : cursor + span]]
        )
        cursor += span
    return (
        [int(value) for value in out_reached],
        [int(value) for value in out_query_messages],
        [int(value) for value in out_hit_messages],
        [int(value) for value in out_first_hit],
        providers,
    )
