"""Frozen compressed-sparse-row (CSR) graph: the search-phase representation.

The dict-of-sets :class:`~repro.core.graph.Graph` is tuned for *incremental
growth* — the generators add one node and a handful of edges at a time.  The
search phase of every experiment is the opposite workload: the topology is
finished and read-only, and each of hundreds of queries traverses a large
fraction of the edges.  :class:`CSRGraph` is an immutable snapshot of a
finished :class:`Graph` in the standard compressed-sparse-row layout used by
scientific graph stacks:

* ``indptr`` — ``int64[N + 1]``; node ``i``'s neighbors live at
  ``indices[indptr[i]:indptr[i + 1]]``;
* ``indices`` — ``int64[2E]``; the concatenated adjacency lists, **in the
  same per-node insertion order as the mutable graph's neighbor lists**.

Preserving the neighbor order is what makes the snapshot *exactly*
interchangeable with its source: every seeded draw the search algorithms
perform (random neighbor selection, ``rng.sample`` over a candidate list,
per-neighbor forwarding coins) indexes into the same sequence on both
representations, so a frozen graph produces byte-identical search results
to its mutable source — a property pinned by
``tests/test_backend_equivalence.py``.  The experiment pipeline always
searches the frozen snapshot; the :class:`Graph` loops stay as the
reference those tests compare against.

On top of the arrays this module provides vectorized kernels:

* :func:`flood_levels` / :func:`flood_curve` — frontier-based BFS that
  computes the whole hits-vs-τ **and** messages-vs-τ curve of a flooding
  query in a handful of NumPy operations (no Python-level per-edge loop);
* :func:`batch_flood_curves` — the same curves for a batch of sources in
  one sparse-matrix BFS (SciPy when installed, NumPy otherwise);
* :func:`distance_totals` — the shortest-path totals of Table I (distance
  sum, pairs, largest distance) over many sources, on the same batched BFS.

A :class:`CSRGraph` implements the read-only subset of the :class:`Graph`
API (degrees, neighbors, membership, stats, conversion), so analysis and
search code that only reads the topology accepts either (:data:`GraphLike`).
Mutation methods raise :class:`~repro.core.errors.GraphError`, and the
underlying arrays are marked read-only.  Instances are picklable and
compact, so they flow through the experiment engine's worker processes.
"""

from __future__ import annotations

from itertools import chain
from types import MappingProxyType
from typing import Any, Dict, Iterator, List, Mapping, Optional, Set, Tuple, TYPE_CHECKING, Union

import numpy as np

from repro.core.errors import GraphError, NodeNotFoundError
from repro.core.rng import RandomSource
from repro.core.types import Edge, GraphStats, NodeId

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (graph imports us lazily)
    import networkx as nx

    from repro.core.graph import Graph

__all__ = [
    "CSRGraph",
    "GraphLike",
    "edge_arrays_to_csr",
    "flood_levels",
    "flood_curve",
    "batch_flood_curves",
    "distance_totals",
]


def edge_arrays_to_csr(
    number_of_nodes: int, edge_u: np.ndarray, edge_v: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Lower ordered edge arrays to CSR ``(indptr, indices)`` row arrays.

    ``edge_u[i]``/``edge_v[i]`` are the *row* endpoints of the ``i``-th
    undirected edge, in insertion order.  The returned ``indices`` lists
    each node's neighbors in exactly the order incremental
    ``Graph.add_edge`` calls would have appended them — the library's
    defined neighbor order, which every seeded draw depends on — computed
    with vectorized NumPy instead of a per-edge Python loop.
    """
    edge_u = np.ascontiguousarray(edge_u, dtype=np.int64)
    edge_v = np.ascontiguousarray(edge_v, dtype=np.int64)
    if edge_u.shape != edge_v.shape or edge_u.ndim != 1:
        raise GraphError("edge arrays must be one-dimensional and equal-length")
    count = edge_u.shape[0]
    if count and (
        min(edge_u.min(), edge_v.min()) < 0
        or max(edge_u.max(), edge_v.max()) >= number_of_nodes
    ):
        raise GraphError("edge endpoints must be rows in [0, number_of_nodes)")
    # Interleave the two directions so node x's entries appear in global
    # edge order (add_edge appends to both endpoints' lists per edge).
    src = np.empty(2 * count, dtype=np.int64)
    dst = np.empty(2 * count, dtype=np.int64)
    src[0::2] = edge_u
    src[1::2] = edge_v
    dst[0::2] = edge_v
    dst[1::2] = edge_u
    order = np.argsort(src, kind="stable")
    indices = dst[order]
    degrees = np.bincount(src, minlength=number_of_nodes)
    indptr = np.zeros(number_of_nodes + 1, dtype=np.int64)
    np.cumsum(degrees, out=indptr[1:])
    return indptr, indices

_FROZEN_MESSAGE = (
    "CSRGraph is a frozen snapshot; mutate the source Graph and freeze() again"
)

#: The neighbor cache of a snapshot whose lists are not built yet.
_UNBUILT: Mapping[NodeId, List[NodeId]] = MappingProxyType({})


class CSRGraph:
    """An immutable undirected graph in compressed-sparse-row form.

    Build one with :meth:`Graph.freeze` (or :meth:`CSRGraph.from_graph`);
    the constructor is an internal detail.

    Examples
    --------
    >>> from repro.core.graph import Graph
    >>> g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    >>> frozen = g.freeze()
    >>> frozen.degree(1)
    2
    >>> frozen.neighbors(2)
    [1, 3]
    >>> frozen.add_edge(0, 3)
    Traceback (most recent call last):
        ...
    repro.core.errors.GraphError: CSRGraph is a frozen snapshot; mutate the source Graph and freeze() again
    """

    __slots__ = (
        "_indptr",
        "_indices",
        "_degrees",
        "_ids",
        "_rows",
        "_neighbor_lists",
        "_edge_sources",
        "_sparse_matrix",
    )

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        ids: Optional[np.ndarray] = None,
    ) -> None:
        self._indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        self._indices = np.ascontiguousarray(indices, dtype=np.int64)
        self._degrees = np.diff(self._indptr)
        # ``ids`` maps row -> node id for graphs whose ids are not the dense
        # range 0..N-1 (e.g. after removals); ``None`` means row == id.
        self._ids = None if ids is None else np.ascontiguousarray(ids, dtype=np.int64)
        self._rows: Optional[Dict[int, int]] = (
            None
            if self._ids is None
            else {int(node): row for row, node in enumerate(self._ids)}
        )
        for array in (self._indptr, self._indices, self._degrees, self._ids):
            if array is not None:
                array.setflags(write=False)
        # id -> Python neighbor list (node *ids*, insertion order): the
        # search loops' hot lookup, one dict access like Graph's.  Built by
        # from_graph in its single pass, else lazily on first use.
        self._neighbor_lists: Mapping[NodeId, List[NodeId]] = _UNBUILT
        # Lazy ``int64[2E]`` array: the source row of every directed edge
        # slot in ``indices`` (the BFS kernel's frontier-expansion index).
        self._edge_sources: Optional[np.ndarray] = None
        # Lazy scipy.sparse adjacency matrix for the batched flood kernel.
        self._sparse_matrix = None

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_graph(cls, graph: "Graph") -> "CSRGraph":
        """Snapshot a mutable :class:`Graph` (neighbor order is preserved).

        One pass copies every neighbor list; the copies become the
        snapshot's neighbor cache *and* the source of its index array, so
        the search loops never pay a second conversion.
        """
        nodes = graph.nodes()
        n = len(nodes)
        lists = {node: list(graph.iter_neighbors(node)) for node in nodes}
        flat = list(chain.from_iterable(lists.values()))
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(
            np.fromiter(map(len, lists.values()), dtype=np.int64, count=n),
            out=indptr[1:],
        )
        if nodes == list(range(n)):
            ids: Optional[np.ndarray] = None
            indices = np.array(flat, dtype=np.int64)
        else:
            row_of = {node: row for row, node in enumerate(nodes)}
            ids = np.array(nodes, dtype=np.int64)
            indices = np.array([row_of[v] for v in flat], dtype=np.int64)
        frozen = cls(indptr, indices, ids=ids)
        frozen._neighbor_lists = lists
        return frozen

    @classmethod
    def from_edge_arrays(
        cls,
        number_of_nodes: int,
        edge_u: np.ndarray,
        edge_v: np.ndarray,
        ids: Optional[np.ndarray] = None,
    ) -> "CSRGraph":
        """Assemble a frozen graph directly from ordered edge arrays.

        ``edge_u``/``edge_v`` hold row endpoints in edge-insertion order
        (the bulk builds emit exactly this); ``ids`` optionally maps
        rows to node ids for non-dense graphs (e.g. DAPA overlays, whose
        peers keep their substrate ids).  The result is byte-identical to
        building a mutable :class:`~repro.core.graph.Graph` edge by edge
        and calling :meth:`~repro.core.graph.Graph.freeze`, without the
        per-edge Python work.
        """
        indptr, indices = edge_arrays_to_csr(number_of_nodes, edge_u, edge_v)
        return cls(indptr, indices, ids=ids)

    def thaw(self) -> "Graph":
        """Return a new mutable :class:`Graph` with the same nodes and edges."""
        from repro.core.graph import Graph

        graph = Graph()
        for node in self.nodes():
            graph.add_node(node)
        for u, v in self.edges():
            graph.add_edge(u, v)
        return graph

    # ------------------------------------------------------------------ #
    # Row <-> id translation
    # ------------------------------------------------------------------ #
    def _row_of(self, node: NodeId) -> int:
        if self._rows is None:
            if isinstance(node, (int, np.integer)) and 0 <= node < len(self._degrees):
                return int(node)
            raise NodeNotFoundError(node)
        try:
            return self._rows[node]
        except (KeyError, TypeError):
            raise NodeNotFoundError(node) from None

    # ------------------------------------------------------------------ #
    # Node queries
    # ------------------------------------------------------------------ #
    def has_node(self, node: NodeId) -> bool:
        """Return ``True`` if ``node`` is in the graph."""
        if self._rows is None:
            return isinstance(node, (int, np.integer)) and 0 <= node < len(self._degrees)
        return node in self._rows

    def nodes(self) -> List[NodeId]:
        """Return all node ids, in the source graph's insertion order."""
        if self._ids is None:
            return list(range(len(self._degrees)))
        return [int(node) for node in self._ids]

    def __contains__(self, node: object) -> bool:
        return self.has_node(node)  # type: ignore[arg-type]

    def __iter__(self) -> Iterator[NodeId]:
        return iter(self.nodes())

    def __len__(self) -> int:
        return len(self._degrees)

    @property
    def number_of_nodes(self) -> int:
        """Total number of nodes ``N``."""
        return len(self._degrees)

    @property
    def number_of_edges(self) -> int:
        """Total number of undirected edges."""
        return len(self._indices) // 2

    # ------------------------------------------------------------------ #
    # Degrees and neighborhoods
    # ------------------------------------------------------------------ #
    def degree(self, node: NodeId) -> int:
        """Return the degree of ``node``."""
        return int(self._degrees[self._row_of(node)])

    def degrees(self) -> Dict[NodeId, int]:
        """Return a mapping ``node -> degree`` for every node."""
        return {node: int(self._degrees[row]) for row, node in enumerate(self.nodes())}

    def degree_sequence(self) -> List[int]:
        """Return the list of degrees in node order."""
        degrees: List[int] = self._degrees.tolist()
        return degrees

    def degree_array(self) -> np.ndarray:
        """Return the (read-only) degree vector, one entry per node row."""
        return self._degrees

    @property
    def total_degree(self) -> int:
        """Sum of all degrees (``2E``, the paper's ``ktotal``)."""
        return len(self._indices)

    def min_degree(self) -> int:
        """Return the smallest degree (0 for an empty graph)."""
        if len(self._degrees) == 0:
            return 0
        return int(self._degrees.min())

    def max_degree(self) -> int:
        """Return the largest degree, i.e. the empirical cutoff of the network."""
        if len(self._degrees) == 0:
            return 0
        return int(self._degrees.max())

    def mean_degree(self) -> float:
        """Return the average degree ``2E / N`` (0.0 for an empty graph)."""
        if len(self._degrees) == 0:
            return 0.0
        return len(self._indices) / len(self._degrees)

    def edge_source_rows(self) -> np.ndarray:
        """Return the (read-only) source row of each directed-edge slot.

        ``edge_source_rows()[k]`` is the row whose adjacency slice contains
        ``indices[k]``; the vectorized BFS uses it to expand a whole
        frontier with one boolean gather over the edge array.
        """
        if self._edge_sources is None:
            sources = np.repeat(
                np.arange(len(self._degrees), dtype=np.int64), self._degrees
            )
            sources.setflags(write=False)
            self._edge_sources = sources
        return self._edge_sources

    def sparse_adjacency(self) -> Optional[Any]:
        """Return the cached :mod:`scipy.sparse` adjacency, or ``None``.

        The matrix shares this graph's ``indptr``/``indices`` buffers (no
        copy beyond the unit data vector) and drives the batched flood
        kernel; ``None`` when SciPy is not installed.  SciPy is imported
        here, on first use, so a process that never floods a batch (serve,
        HAPA/DAPA generation, NF/PF/RW search) never loads it.
        """
        if self._sparse_matrix is None:
            try:
                from scipy import sparse
            except ImportError:  # pragma: no cover - scipy-less installs
                return None
            n = len(self._degrees)
            self._sparse_matrix = sparse.csr_matrix(
                (np.ones(len(self._indices), dtype=np.int32), self._indices, self._indptr),
                shape=(n, n),
            )
        return self._sparse_matrix

    def fresh_neighbor_lists(self) -> Dict[NodeId, List[NodeId]]:
        """Return a new id -> neighbor-list dict built from the CSR arrays.

        Nodes come in row order and each list in insertion order.  The
        lists are the caller's own: a bulk-built
        :class:`~repro.core.graph.Graph` takes them as its mutable views.
        """
        flat = (self._indices if self._ids is None else self._ids[self._indices]).tolist()
        bounds = self._indptr.tolist()
        return {
            node: flat[start:end]
            for node, start, end in zip(self.nodes(), bounds, bounds[1:])
        }

    def _build_neighbor_lists(self) -> Dict[NodeId, List[NodeId]]:
        """Materialise the id -> neighbor-list cache from the CSR arrays."""
        lists = self.fresh_neighbor_lists()
        self._neighbor_lists = lists
        return lists

    def iter_neighbors(self, node: NodeId) -> List[NodeId]:
        """Return the cached neighbor list of ``node`` — do **not** mutate.

        The list holds plain Python ints in the source graph's insertion
        order and is shared across calls (freeze once, search many); the
        lookup is one dict access, the same cost as
        :meth:`Graph.iter_neighbors`.
        """
        try:
            return self._neighbor_lists[node]
        except KeyError:
            # Checking for the unbuilt cache only on a miss keeps a hit
            # exactly as cheap as Graph's lookup.
            if self._neighbor_lists is not _UNBUILT:
                raise NodeNotFoundError(node) from None
        except TypeError:  # unhashable id
            raise NodeNotFoundError(node) from None
        self._build_neighbor_lists()
        return self.iter_neighbors(node)

    def neighbor_lists(self) -> Mapping[NodeId, List[NodeId]]:
        """Return the cached id -> neighbor-list mapping :meth:`iter_neighbors`
        reads — do **not** mutate it or its lists.

        A loop that looks up one row per node or step binds this once and
        indexes it, with no method call per lookup.  The cache is built on
        first use, like :meth:`iter_neighbors`'s.
        """
        if self._neighbor_lists is _UNBUILT:
            return self._build_neighbor_lists()
        return self._neighbor_lists

    def neighbors(self, node: NodeId) -> List[NodeId]:
        """Return a fresh list of the neighbors of ``node``."""
        return list(self.iter_neighbors(node))

    def neighbor_set(self, node: NodeId) -> Set[NodeId]:
        """Return the neighbor set of ``node``."""
        return set(self.iter_neighbors(node))

    def neighbor_array(self, node: NodeId) -> np.ndarray:
        """Return the (read-only) row-index slice of ``node``'s neighbors."""
        row = self._row_of(node)
        return self._indices[self._indptr[row] : self._indptr[row + 1]]

    def has_edge(self, u: NodeId, v: NodeId) -> bool:
        """Return ``True`` if the undirected edge ``(u, v)`` exists."""
        if not self.has_node(u) or not self.has_node(v):
            return False
        row_u, row_v = self._row_of(u), self._row_of(v)
        # Scan the smaller adjacency of the two endpoints.
        if self._degrees[row_v] < self._degrees[row_u]:
            row_u, row_v = row_v, row_u
        slice_u = self._indices[self._indptr[row_u] : self._indptr[row_u + 1]]
        return bool(np.any(slice_u == row_v))

    def random_neighbor(self, node: NodeId, rng: RandomSource) -> Optional[NodeId]:
        """Return a uniformly random neighbor of ``node`` or ``None`` if isolated.

        Consumes exactly the draws :meth:`Graph.random_neighbor` does, so a
        shared seed selects the same neighbor on both representations.
        """
        neighbors = self.iter_neighbors(node)
        if not neighbors:
            return None
        return neighbors[rng.randint(0, len(neighbors) - 1)]

    # ------------------------------------------------------------------ #
    # Edges and whole-graph utilities
    # ------------------------------------------------------------------ #
    def edges(self) -> List[Edge]:
        """Return all edges as ``(min(u, v), max(u, v))`` pairs."""
        rows_u = self.edge_source_rows()
        rows_v = self._indices
        if self._ids is not None:
            rows_u = self._ids[rows_u]
            rows_v = self._ids[rows_v]
        mask = rows_u < rows_v
        return list(zip(rows_u[mask].tolist(), rows_v[mask].tolist()))

    def stats(self) -> GraphStats:
        """Return a :class:`~repro.core.types.GraphStats` summary."""
        return GraphStats(
            number_of_nodes=self.number_of_nodes,
            number_of_edges=self.number_of_edges,
            min_degree=self.min_degree(),
            max_degree=self.max_degree(),
            mean_degree=self.mean_degree(),
        )

    def to_networkx(self) -> "nx.Graph":
        """Convert to a :class:`networkx.Graph` (nodes and edges only)."""
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(self.nodes())
        g.add_edges_from(self.edges())
        return g

    def copy(self) -> "CSRGraph":
        """Return ``self``: frozen graphs are immutable, sharing is safe."""
        return self

    def freeze(self) -> "CSRGraph":
        """Already frozen; return ``self`` (so ``freeze`` is idempotent)."""
        return self

    # ------------------------------------------------------------------ #
    # Mutation is rejected
    # ------------------------------------------------------------------ #
    def add_node(self, node: Optional[NodeId] = None) -> NodeId:
        raise GraphError(_FROZEN_MESSAGE)

    def add_edge(self, u: NodeId, v: NodeId) -> bool:
        raise GraphError(_FROZEN_MESSAGE)

    def remove_node(self, node: NodeId) -> None:
        raise GraphError(_FROZEN_MESSAGE)

    def remove_edge(self, u: NodeId, v: NodeId) -> None:
        raise GraphError(_FROZEN_MESSAGE)

    # ------------------------------------------------------------------ #
    # Pickling (worker processes receive frozen graphs)
    # ------------------------------------------------------------------ #
    def __getstate__(self) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
        return (self._indptr, self._indices, self._ids)

    def __setstate__(
        self, state: Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]
    ) -> None:
        indptr, indices, ids = state
        self.__init__(indptr, indices, ids=ids)  # type: ignore[misc]

    # ------------------------------------------------------------------ #
    # Comparison / debugging
    # ------------------------------------------------------------------ #
    def __eq__(self, other: object) -> bool:
        from repro.core.graph import Graph

        if isinstance(other, CSRGraph):
            return set(self.nodes()) == set(other.nodes()) and set(self.edges()) == set(
                other.edges()
            )
        if isinstance(other, Graph):
            return set(self.nodes()) == set(other.nodes()) and set(self.edges()) == set(
                other.edges()
            )
        return NotImplemented

    def __hash__(self) -> int:  # mirror Graph: identity hash
        return id(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CSRGraph(nodes={self.number_of_nodes}, edges={self.number_of_edges}, "
            f"max_degree={self.max_degree()})"
        )


#: Either graph representation; search and analysis code that only reads the
#: topology accepts both.
GraphLike = Union["Graph", CSRGraph]


# --------------------------------------------------------------------------- #
# Vectorized kernels
# --------------------------------------------------------------------------- #
def flood_levels(csr: CSRGraph, source_row: int, max_level: int) -> np.ndarray:
    """BFS hop distances from ``source_row``, capped at ``max_level``.

    Returns an ``int64[N]`` array of levels (``-1`` for nodes beyond
    ``max_level`` or in another component).  This is the frontier machinery
    the flooding-family kernels are built on: each hop expands the whole
    frontier with a boolean gather over the directed-edge arrays — no
    Python per-edge loop and no sort-based dedup.
    """
    indices = csr._indices
    n = len(csr._degrees)
    levels = np.full(n, -1, dtype=np.int64)
    if n == 0:
        return levels
    edge_sources = csr.edge_source_rows()
    levels[source_row] = 0
    unreached = n - 1
    frontier_mask = np.zeros(n, dtype=bool)
    frontier_mask[source_row] = True
    for level in range(1, max_level + 1):
        if unreached == 0:
            break
        # Every directed edge whose source row is in the frontier delivers
        # the query; keep the targets not yet assigned a level.
        candidates = indices[frontier_mask[edge_sources]]
        fresh = candidates[levels[candidates] < 0]
        if fresh.size == 0:
            break
        # Duplicate targets (reached from several frontier nodes) collapse
        # in the fancy-index assignment — no explicit dedup needed.
        levels[fresh] = level
        frontier_mask[:] = False
        frontier_mask[fresh] = True
        unreached -= int(np.count_nonzero(frontier_mask))
    return levels


def flood_curve(
    csr: CSRGraph, source_row: int, ttl: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Whole flooding curve from one BFS: ``(levels, hits, messages)``.

    ``hits[t]`` (``t = 0..ttl - 1``) is the number of *discovered* nodes
    (source excluded) within ``t + 1`` hops; ``messages[t]`` is the
    cumulative message count after hop ``t + 1``.  Both match the
    reference :class:`~repro.search.flooding.FloodingSearch` exactly:
    every node visited at hop ``h`` forwards at hop ``h + 1`` to all its
    neighbors except the one the query arrived on, and duplicate
    deliveries count as messages.
    """
    levels = flood_levels(csr, source_row, ttl)
    reached = levels >= 0
    reached_levels = levels[reached]
    counts = np.bincount(reached_levels, minlength=ttl + 1).astype(np.int64)
    degree_sums = np.bincount(
        reached_levels, weights=csr._degrees[reached], minlength=ttl + 1
    ).astype(np.int64)
    hits = np.cumsum(counts[1:])
    # Nodes at level h forward deg - 1 messages at hop h + 1 (the previous
    # hop is excluded); the source (level 0, no previous hop) forwards deg.
    per_hop = degree_sums[:ttl] - counts[:ttl]
    if ttl > 0:
        per_hop[0] += counts[0]  # counts[0] == 1: undo the source's exclusion
    messages = np.cumsum(per_hop)
    return levels, hits, messages


def _batch_bfs(
    adjacency: Any, source_rows: np.ndarray, max_level: int
) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """Breadth-first search from many sources at once, one column each.

    Yields ``(frontier, fresh)`` for hops ``1..max_level``: ``frontier``
    (``int32[N, S]``) marks the nodes each source reached at the previous
    hop, ``fresh`` (``bool[N, S]``) those it reaches first at this hop.
    Each hop is one sparse ``adjacency @ frontier`` product; the search
    stops after the first hop that reaches no new node.
    """
    n, total = adjacency.shape[0], len(source_rows)
    span = np.arange(total)
    visited = np.zeros((n, total), dtype=bool)
    visited[source_rows, span] = True
    frontier = np.zeros((n, total), dtype=np.int32)
    frontier[source_rows, span] = 1
    for _ in range(max_level):
        fresh = (adjacency @ frontier) > 0
        fresh &= ~visited
        yield frontier, fresh
        if not fresh.any():
            return
        visited |= fresh
        frontier = fresh.astype(np.int32)


def batch_flood_curves(
    csr: CSRGraph, source_rows: "np.ndarray | List[int]", ttl: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Flooding curves for many sources at once: ``(hits, messages)``.

    Returns two ``int64[S, ttl + 1]`` arrays; row ``i`` is the cumulative
    hits (source excluded) and messages curve of a flooding query from
    ``source_rows[i]``, identical to what :func:`flood_curve` computes one
    source at a time (pinned by ``tests/test_core_csr.py``).

    With SciPy installed every hop advances *all* sources with one sparse
    matrix–matrix product; otherwise the per-source kernel runs in a loop.
    This is what makes ``search_curve`` — hundreds of flooding queries on
    one frozen topology — scale: the per-query Python and NumPy call
    overhead is amortised across the whole query batch.
    """
    if ttl < 0:
        raise GraphError("ttl must be non-negative")
    rows = np.asarray(source_rows, dtype=np.int64)
    total = len(rows)
    hits = np.zeros((total, ttl + 1), dtype=np.int64)
    messages = np.zeros((total, ttl + 1), dtype=np.int64)
    if total == 0 or len(csr._degrees) == 0:
        return hits, messages

    adjacency = csr.sparse_adjacency()
    if adjacency is None:
        for index, row in enumerate(rows):
            _, row_hits, row_messages = flood_curve(csr, int(row), ttl)
            hits[index, 1:] = row_hits
            messages[index, 1:] = row_messages
        return hits, messages

    degrees = csr._degrees
    degrees_minus_one = degrees - 1
    hits_t = np.zeros((ttl + 1, total), dtype=np.int64)
    messages_t = np.zeros((ttl + 1, total), dtype=np.int64)
    hop = 0
    for hop, (frontier, fresh) in enumerate(_batch_bfs(adjacency, rows, ttl), start=1):
        # A node visited at the previous hop forwards to all neighbors but
        # the one it was reached from (the source, hop 1, has no previous).
        weights = degrees if hop == 1 else degrees_minus_one
        messages_t[hop] = messages_t[hop - 1] + weights @ frontier
        hits_t[hop] = hits_t[hop - 1] + fresh.sum(axis=0)
    # Coverage completed before the largest TTL: the curves stay flat.
    hits_t[hop + 1 :] = hits_t[hop]
    messages_t[hop + 1 :] = messages_t[hop]
    return hits_t.T.copy(), messages_t.T.copy()


#: Sources one sparse BFS advances together in :func:`distance_totals`.
_DISTANCE_BLOCK = 64


def distance_totals(
    csr: CSRGraph, source_rows: "np.ndarray | List[int]"
) -> Tuple[int, int, int]:
    """Shortest-path totals over ``source_rows``: ``(distance sum, pairs, largest)``.

    ``pairs`` counts the (source, node) pairs with the node reachable from
    the source and distinct from it, ``distance sum`` adds their hop
    distances and ``largest`` is the greatest of them (0 without pairs).
    With SciPy installed, blocks of up to 64 sources advance together, one
    sparse product per hop (:func:`batch_flood_curves`' step), and each
    hop adds its level times the nodes it newly reached; otherwise each
    source runs :func:`flood_levels`.  The totals are integers, so the
    order they are added in cannot change them.
    """
    rows = np.asarray(source_rows, dtype=np.int64)
    n = len(csr._degrees)
    distance_sum = pairs = largest = 0
    adjacency = csr.sparse_adjacency()
    if adjacency is None:
        for row in rows:
            # No shortest path is longer than the node count.
            levels = flood_levels(csr, int(row), n)
            reached = levels[levels > 0]
            if len(reached):
                distance_sum += int(reached.sum())
                pairs += len(reached)
                largest = max(largest, int(reached.max()))
        return distance_sum, pairs, largest
    for start in range(0, len(rows), _DISTANCE_BLOCK):
        block = rows[start : start + _DISTANCE_BLOCK]
        for level, (_, fresh) in enumerate(_batch_bfs(adjacency, block, n), start=1):
            reached = int(np.count_nonzero(fresh))
            if reached:
                distance_sum += level * reached
                pairs += reached
                largest = max(largest, level)
    return distance_sum, pairs, largest
