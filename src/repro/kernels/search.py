"""Stochastic search kernels over CSR arrays, in reference draw order.

Each kernel replays one of the Python search implementations —
:class:`~repro.search.normalized_flooding.NormalizedFloodingSearch` (NF),
:class:`~repro.search.probabilistic_flooding.ProbabilisticFloodingSearch`
(PF, including the forward-probability coin), and
:class:`~repro.search.random_walk.RandomWalkSearch` (RW) — over a frozen
graph's ``indptr``/``indices`` arrays while consuming **exactly** the
Mersenne-Twister draw sequence the reference consumes (via
:mod:`repro.kernels.mt19937`, including CPython's ``random.sample``
pool-swap/rejection-set split and ``_randbelow`` rejection loops).  A
kernel query therefore returns the same hits/messages curves, the same
visited set, the same ``found_at``, *and leaves the RNG stream at the same
position* as the Python loop it replaces — the representation contract
of ``tests/test_backend_equivalence.py``, extended to this tier.

Two layers live here:

* the ``*_query_kernel`` / ``*_curve_batch_kernel`` functions — plain
  array-in/array-out code decorated with
  :func:`repro.kernels._compat.maybe_njit` (compiled under numba,
  interpreted otherwise, identical values either way).  The batch kernels
  are the throughput mode: they run a whole query batch back-to-back
  inside one compiled call, consuming the single shared stream in query
  order — draw-identical to looping the single-query kernel, without the
  per-query Python and state-marshalling overhead;
* the Python-facing wrappers (:func:`nf_query`, :func:`pf_query`,
  :func:`rw_query`, :func:`nf_curve_batch`, :func:`pf_curve_batch`,
  :func:`rw_curve_batch`) — they translate node ids to rows, export the
  :class:`~repro.core.rng.RandomSource` stream into a kernel state vector,
  run the kernel, and import the advanced stream position back.

Never call the kernels directly from experiment code; go through
:mod:`repro.kernels.dispatch` (or simply the search classes, which
dispatch here when the ``jit`` tier is active).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.csr import CSRGraph
from repro.core.rng import RandomSource
from repro.core.types import NodeId
from repro.kernels._compat import maybe_njit
from repro.kernels.mt19937 import mt_randbelow, mt_random

__all__ = [
    "nf_query",
    "pf_query",
    "rw_query",
    "nf_curve_batch",
    "pf_curve_batch",
    "rw_curve_batch",
    "nf_query_kernel",
    "pf_query_kernel",
    "rw_query_kernel",
    "nf_curve_batch_kernel",
    "pf_curve_batch_kernel",
    "rw_curve_batch_kernel",
]


# --------------------------------------------------------------------------- #
# random.sample replica
# --------------------------------------------------------------------------- #
@maybe_njit
def _mt_sample(state, pool, n, k, out):  # pragma: no cover - via kernels
    """``random.Random.sample(pool[:n], k)`` for ``k < n``; fills ``out[:k]``.

    Replicates CPython's size heuristic exactly: small populations use the
    pool-swap algorithm (``pool`` is mutated — callers pass a scratch
    copy), large ones rejection-sample indices against a seen-set.  Both
    paths draw through ``_randbelow``, so the stream advances identically
    to the reference.
    """
    setsize = 21
    if k > 5:
        setsize += int(4.0 ** np.ceil(np.log(k * 3.0) / np.log(4.0)))
    if n <= setsize:
        for i in range(k):
            j = mt_randbelow(state, n - i)
            out[i] = pool[j]
            pool[j] = pool[n - i - 1]
    else:
        selected = np.zeros(n, dtype=np.bool_)
        for i in range(k):
            j = mt_randbelow(state, n)
            while selected[j]:
                j = mt_randbelow(state, n)
            selected[j] = True
            out[i] = pool[j]


# --------------------------------------------------------------------------- #
# Normalized flooding (NF)
# --------------------------------------------------------------------------- #
@maybe_njit
def nf_query_kernel(
    indptr, indices, state, source, ttl, branching, target, base_hits, max_degree
):
    """One NF query; returns ``(hits, messages, visited_mask, found_at)``.

    ``target`` is a row index or ``-1`` for none; ``found_at`` is ``-1``
    when the target was never reached; ``max_degree`` (the graph's, a
    batch invariant the caller computes once) sizes the candidate
    scratch.  Draw order matches ``NormalizedFloodingSearch.run``
    statement for statement.
    """
    n = indptr.shape[0] - 1
    hits = np.empty(ttl + 1, dtype=np.int64)
    messages = np.empty(ttl + 1, dtype=np.int64)
    visited = np.zeros(n, dtype=np.bool_)
    visited[source] = True
    found_at = 0 if target == source else -1
    cumulative_hits = base_hits
    cumulative_messages = 0
    hits[0] = cumulative_hits
    messages[0] = 0

    scratch = np.empty(max_degree, dtype=np.int64)
    pick = branching if branching < max_degree else max_degree
    chosen = np.empty(pick, dtype=np.int64)
    frontier_nodes = np.empty(n, dtype=np.int64)
    frontier_prev = np.empty(n, dtype=np.int64)
    next_nodes = np.empty(n, dtype=np.int64)
    next_prev = np.empty(n, dtype=np.int64)
    frontier_len = 0

    # Hop 1: the source forwards to `branching` random neighbors (or all
    # of them when it has fewer); no previous hop to exclude.
    if ttl >= 1:
        start = indptr[source]
        end = indptr[source + 1]
        count = end - start
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
            neighbor = scratch[i]
            cumulative_messages += 1
            if not visited[neighbor]:
                visited[neighbor] = True
                cumulative_hits += 1
                if target >= 0 and neighbor == target and found_at == -1:
                    found_at = 1
                frontier_nodes[frontier_len] = neighbor
                frontier_prev[frontier_len] = source
                frontier_len += 1
        hits[1] = cumulative_hits
        messages[1] = cumulative_messages

    # A node joins a frontier only on its first visit, so each forwards at
    # most once.
    hop = 2
    while hop <= ttl:
        next_len = 0
        for entry in range(frontier_len):
            node = frontier_nodes[entry]
            previous = frontier_prev[entry]
            start = indptr[node]
            end = indptr[node + 1]
            count = 0
            for idx in range(start, end):
                neighbor = indices[idx]
                if neighbor != previous:
                    scratch[count] = neighbor
                    count += 1
            if count <= branching:
                recipients = count
            else:
                recipients = branching
                _mt_sample(state, scratch, count, branching, chosen)
                for i in range(branching):
                    scratch[i] = chosen[i]
            for i in range(recipients):
                neighbor = scratch[i]
                cumulative_messages += 1
                if visited[neighbor]:
                    continue
                visited[neighbor] = True
                cumulative_hits += 1
                if target >= 0 and neighbor == target and found_at == -1:
                    found_at = hop
                next_nodes[next_len] = neighbor
                next_prev[next_len] = node
                next_len += 1
        swap_nodes = frontier_nodes
        frontier_nodes = next_nodes
        next_nodes = swap_nodes
        swap_prev = frontier_prev
        frontier_prev = next_prev
        next_prev = swap_prev
        frontier_len = next_len
        hits[hop] = cumulative_hits
        messages[hop] = cumulative_messages
        if frontier_len == 0:
            for t in range(hop + 1, ttl + 1):
                hits[t] = cumulative_hits
                messages[t] = cumulative_messages
            break
        hop += 1
    return hits, messages, visited, found_at


# --------------------------------------------------------------------------- #
# Probabilistic flooding (PF)
# --------------------------------------------------------------------------- #
@maybe_njit
def pf_query_kernel(indptr, indices, state, source, ttl, probability, target, base_hits):
    """One PF query; returns ``(hits, messages, visited_mask, found_at)``.

    One forwarding coin per (in-order) neighbor, drawn only when
    ``probability < 1.0`` — exactly the reference's per-neighbor loop.
    """
    n = indptr.shape[0] - 1
    hits = np.empty(ttl + 1, dtype=np.int64)
    messages = np.empty(ttl + 1, dtype=np.int64)
    visited = np.zeros(n, dtype=np.bool_)
    visited[source] = True
    found_at = 0 if target == source else -1
    cumulative_hits = base_hits
    cumulative_messages = 0
    hits[0] = cumulative_hits
    messages[0] = 0

    frontier_nodes = np.empty(n, dtype=np.int64)
    frontier_prev = np.empty(n, dtype=np.int64)
    next_nodes = np.empty(n, dtype=np.int64)
    next_prev = np.empty(n, dtype=np.int64)
    frontier_nodes[0] = source
    frontier_prev[0] = -1
    frontier_len = 1

    for hop in range(1, ttl + 1):
        next_len = 0
        for entry in range(frontier_len):
            node = frontier_nodes[entry]
            previous = frontier_prev[entry]
            for idx in range(indptr[node], indptr[node + 1]):
                neighbor = indices[idx]
                if neighbor == previous:
                    continue
                if probability < 1.0 and mt_random(state) >= probability:
                    continue
                cumulative_messages += 1
                if visited[neighbor]:
                    continue
                visited[neighbor] = True
                cumulative_hits += 1
                if target >= 0 and neighbor == target and found_at == -1:
                    found_at = hop
                next_nodes[next_len] = neighbor
                next_prev[next_len] = node
                next_len += 1
        swap_nodes = frontier_nodes
        frontier_nodes = next_nodes
        next_nodes = swap_nodes
        swap_prev = frontier_prev
        frontier_prev = next_prev
        next_prev = swap_prev
        frontier_len = next_len
        hits[hop] = cumulative_hits
        messages[hop] = cumulative_messages
        if frontier_len == 0:
            for t in range(hop + 1, ttl + 1):
                hits[t] = cumulative_hits
                messages[t] = cumulative_messages
            break
    return hits, messages, visited, found_at


# --------------------------------------------------------------------------- #
# Random walk (RW)
# --------------------------------------------------------------------------- #
@maybe_njit
def rw_query_kernel(
    indptr, indices, state, source, ttl, walkers, allow_backtracking, target, base_hits
):
    """One RW query (``walkers`` parallel walkers, walker-index draw order).

    Returns ``(hits, messages, visited_mask, found_at)``.  Each step draws
    one ``_randbelow`` over the previous-hop-excluded candidate count and
    maps the index onto the shared neighbor slice — the reference's
    allocation-free step, draw for draw.
    """
    n = indptr.shape[0] - 1
    hits = np.empty(ttl + 1, dtype=np.int64)
    messages = np.empty(ttl + 1, dtype=np.int64)
    visited = np.zeros(n, dtype=np.bool_)
    visited[source] = True
    found_at = 0 if target == source else -1
    cumulative_hits = base_hits
    cumulative_messages = 0
    hits[0] = cumulative_hits
    messages[0] = 0

    positions = np.full(walkers, source, dtype=np.int64)
    previous = np.full(walkers, -1, dtype=np.int64)
    alive = np.ones(walkers, dtype=np.bool_)
    alive_count = walkers

    for hop in range(1, ttl + 1):
        for walker in range(walkers):
            if not alive[walker]:
                continue
            current = positions[walker]
            start = indptr[current]
            end = indptr[current + 1]
            exclude_position = -1
            if not allow_backtracking and previous[walker] >= 0:
                for idx in range(start, end):
                    if indices[idx] == previous[walker]:
                        exclude_position = idx - start
                        break
            candidate_count = end - start
            if exclude_position >= 0:
                candidate_count -= 1
            if candidate_count == 0:
                alive[walker] = False
                alive_count -= 1
                continue
            choice = mt_randbelow(state, candidate_count)
            if exclude_position >= 0 and choice >= exclude_position:
                choice += 1
            next_node = indices[start + choice]
            cumulative_messages += 1
            previous[walker] = current
            positions[walker] = next_node
            if not visited[next_node]:
                visited[next_node] = True
                cumulative_hits += 1
                if target >= 0 and next_node == target and found_at == -1:
                    found_at = hop
        hits[hop] = cumulative_hits
        messages[hop] = cumulative_messages
        if alive_count == 0:
            for t in range(hop + 1, ttl + 1):
                hits[t] = cumulative_hits
                messages[t] = cumulative_messages
            break
    return hits, messages, visited, found_at


# --------------------------------------------------------------------------- #
# Throughput mode: whole query batches inside one kernel call
# --------------------------------------------------------------------------- #
@maybe_njit
def nf_curve_batch_kernel(
    indptr, indices, state, sources, ttl, branching, base_hits, max_degree
):
    """NF curves for a query batch, one shared stream in query order."""
    total = sources.shape[0]
    hits = np.empty((total, ttl + 1), dtype=np.int64)
    messages = np.empty((total, ttl + 1), dtype=np.int64)
    for query in range(total):
        row_hits, row_messages, _visited, _found = nf_query_kernel(
            indptr, indices, state, sources[query], ttl, branching, -1,
            base_hits, max_degree,
        )
        hits[query, :] = row_hits
        messages[query, :] = row_messages
    return hits, messages


@maybe_njit
def pf_curve_batch_kernel(indptr, indices, state, sources, ttl, probability, base_hits):
    """PF curves for a query batch, one shared stream in query order."""
    total = sources.shape[0]
    hits = np.empty((total, ttl + 1), dtype=np.int64)
    messages = np.empty((total, ttl + 1), dtype=np.int64)
    for query in range(total):
        row_hits, row_messages, _visited, _found = pf_query_kernel(
            indptr, indices, state, sources[query], ttl, probability, -1, base_hits
        )
        hits[query, :] = row_hits
        messages[query, :] = row_messages
    return hits, messages


@maybe_njit
def rw_curve_batch_kernel(
    indptr, indices, state, sources, ttls, walkers, allow_backtracking, base_hits
):
    """RW curves for a query batch with per-query TTL budgets.

    Row ``i`` is valid up to column ``ttls[i]`` (the remainder stays 0 —
    callers index within each query's own budget, mirroring the
    reference's per-query curve lengths).
    """
    total = sources.shape[0]
    max_ttl = 0
    for query in range(total):
        if ttls[query] > max_ttl:
            max_ttl = ttls[query]
    hits = np.zeros((total, max_ttl + 1), dtype=np.int64)
    messages = np.zeros((total, max_ttl + 1), dtype=np.int64)
    for query in range(total):
        row_hits, row_messages, _visited, _found = rw_query_kernel(
            indptr,
            indices,
            state,
            sources[query],
            ttls[query],
            walkers,
            allow_backtracking,
            -1,
            base_hits,
        )
        for t in range(ttls[query] + 1):
            hits[query, t] = row_hits[t]
            messages[query, t] = row_messages[t]
    return hits, messages


# --------------------------------------------------------------------------- #
# Python-facing wrappers: id translation + RNG stream splice
# --------------------------------------------------------------------------- #
QueryPayload = Tuple[List[int], List[int], Set[NodeId], Optional[int]]


def _target_row(csr: CSRGraph, target: Optional[NodeId]) -> int:
    if target is None or not csr.has_node(target):
        return -1
    return csr._row_of(target)


def _visited_ids(csr: CSRGraph, mask: np.ndarray) -> Set[NodeId]:
    rows = np.nonzero(mask)[0]
    if csr._ids is None:
        return set(rows.tolist())
    return set(csr._ids[rows].tolist())


def _payload(csr, rng, state, hits, messages, visited, found_at) -> QueryPayload:
    rng.import_mt_state(state)
    return (
        [int(value) for value in hits],
        [int(value) for value in messages],
        _visited_ids(csr, visited),
        None if found_at < 0 else int(found_at),
    )


def nf_query(
    csr: CSRGraph,
    source: NodeId,
    ttl: int,
    rng: RandomSource,
    branching: int,
    count_source_as_hit: bool,
    target: Optional[NodeId],
) -> QueryPayload:
    """Run one NF query on the kernel tier; splice the stream back into ``rng``."""
    state = rng.export_mt_state()
    hits, messages, visited, found_at = nf_query_kernel(
        csr._indptr,
        csr._indices,
        state,
        csr._row_of(source),
        ttl,
        branching,
        _target_row(csr, target),
        1 if count_source_as_hit else 0,
        csr.max_degree(),
    )
    return _payload(csr, rng, state, hits, messages, visited, found_at)


def pf_query(
    csr: CSRGraph,
    source: NodeId,
    ttl: int,
    rng: RandomSource,
    forward_probability: float,
    count_source_as_hit: bool,
    target: Optional[NodeId],
) -> QueryPayload:
    """Run one PF query on the kernel tier; splice the stream back into ``rng``."""
    state = rng.export_mt_state()
    hits, messages, visited, found_at = pf_query_kernel(
        csr._indptr,
        csr._indices,
        state,
        csr._row_of(source),
        ttl,
        forward_probability,
        _target_row(csr, target),
        1 if count_source_as_hit else 0,
    )
    return _payload(csr, rng, state, hits, messages, visited, found_at)


def rw_query(
    csr: CSRGraph,
    source: NodeId,
    ttl: int,
    rng: RandomSource,
    walkers: int,
    allow_backtracking: bool,
    count_source_as_hit: bool,
    target: Optional[NodeId],
) -> QueryPayload:
    """Run one RW query on the kernel tier; splice the stream back into ``rng``."""
    state = rng.export_mt_state()
    hits, messages, visited, found_at = rw_query_kernel(
        csr._indptr,
        csr._indices,
        state,
        csr._row_of(source),
        ttl,
        walkers,
        allow_backtracking,
        _target_row(csr, target),
        1 if count_source_as_hit else 0,
    )
    return _payload(csr, rng, state, hits, messages, visited, found_at)


def _source_rows(csr: CSRGraph, sources: Sequence[NodeId]) -> np.ndarray:
    return np.array([csr._row_of(node) for node in sources], dtype=np.int64)


def nf_curve_batch(
    csr: CSRGraph,
    sources: Sequence[NodeId],
    ttl: int,
    rng: RandomSource,
    branching: int,
    count_source_as_hit: bool,
) -> Tuple[np.ndarray, np.ndarray]:
    """Whole-batch NF curves (throughput mode); one stream splice total."""
    state = rng.export_mt_state()
    hits, messages = nf_curve_batch_kernel(
        csr._indptr,
        csr._indices,
        state,
        _source_rows(csr, sources),
        ttl,
        branching,
        1 if count_source_as_hit else 0,
        csr.max_degree(),
    )
    rng.import_mt_state(state)
    return hits, messages


def pf_curve_batch(
    csr: CSRGraph,
    sources: Sequence[NodeId],
    ttl: int,
    rng: RandomSource,
    forward_probability: float,
    count_source_as_hit: bool,
) -> Tuple[np.ndarray, np.ndarray]:
    """Whole-batch PF curves (throughput mode); one stream splice total."""
    state = rng.export_mt_state()
    hits, messages = pf_curve_batch_kernel(
        csr._indptr,
        csr._indices,
        state,
        _source_rows(csr, sources),
        ttl,
        forward_probability,
        1 if count_source_as_hit else 0,
    )
    rng.import_mt_state(state)
    return hits, messages


def rw_curve_batch(
    csr: CSRGraph,
    sources: Sequence[NodeId],
    ttls: Sequence[int],
    rng: RandomSource,
    walkers: int,
    allow_backtracking: bool,
    count_source_as_hit: bool,
) -> Tuple[np.ndarray, np.ndarray]:
    """Whole-batch RW curves with per-query TTL budgets (throughput mode)."""
    state = rng.export_mt_state()
    hits, messages = rw_curve_batch_kernel(
        csr._indptr,
        csr._indices,
        state,
        _source_rows(csr, sources),
        np.array([int(value) for value in ttls], dtype=np.int64),
        walkers,
        allow_backtracking,
        1 if count_source_as_hit else 0,
    )
    rng.import_mt_state(state)
    return hits, messages
