"""Adjacency-list undirected graph.

:class:`Graph` is the data structure every generator and search algorithm
operates on.  It is deliberately small and tuned for the access patterns of
the paper's algorithms:

* constant-time degree queries (``ktotal`` and per-node degrees drive the
  preferential-attachment acceptance test),
* constant-time edge-existence checks (``node not in Adj[i]`` in the
  pseudo-code),
* O(1) uniform random neighbor selection (the HAPA hop and the random-walk
  step),
* incremental growth one node / edge at a time,
* conversion to and from :mod:`networkx`, which the tests use as a
  reference (networkx is a development dependency, imported on first use).

Nodes are integers.  Parallel edges are not stored (an ``add_edge`` on an
existing edge is a no-op returning ``False``) and self-loops are rejected,
which matches the paper's models: the configuration model explicitly deletes
self-loops and multi-edges after stub matching, and the growth models never
create them in the first place.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Iterable, Iterator, List, Mapping, Optional, Set

import numpy as np

from repro.core.errors import GraphError, NodeNotFoundError
from repro.core.rng import RandomSource
from repro.core.types import Edge, GraphStats, NodeId

if TYPE_CHECKING:  # pragma: no cover - annotations only; csr imports us
    import networkx as nx

    from repro.core.csr import CSRGraph

__all__ = ["Graph"]


class Graph:
    """A mutable, undirected, simple graph over integer node ids.

    Parameters
    ----------
    number_of_nodes:
        If given, nodes ``0 .. number_of_nodes - 1`` are created up front.

    Examples
    --------
    >>> g = Graph(3)
    >>> g.add_edge(0, 1)
    True
    >>> g.degree(0)
    1
    >>> sorted(g.neighbors(1))
    [0]
    >>> g.has_edge(1, 0)
    True
    """

    __slots__ = (
        "_adjacency",
        "_neighbor_lists",
        "_number_of_edges",
        "_total_degree",
        "_csr_cache",
    )

    def __init__(self, number_of_nodes: int = 0) -> None:
        if number_of_nodes < 0:
            raise GraphError("number_of_nodes must be non-negative")
        # Set-based adjacency for O(1) membership tests.
        self._adjacency: Dict[NodeId, Set[NodeId]] = {
            node: set() for node in range(number_of_nodes)
        }
        # List-based adjacency mirrors, kept in sync, for O(1) random
        # neighbor selection without materialising the set each time.
        self._neighbor_lists: Dict[NodeId, List[NodeId]] = {
            node: [] for node in range(number_of_nodes)
        }
        self._number_of_edges = 0
        self._total_degree = 0
        # Prebuilt CSRGraph snapshot from a bulk constructor; makes
        # freeze() free and is dropped on any mutation.
        self._csr_cache: Optional["CSRGraph"] = None

    def __getattr__(self, name: str) -> Any:
        """Build a bulk-built graph's mutable views on first access.

        :meth:`from_edge_array` leaves the ``_adjacency`` and
        ``_neighbor_lists`` slots unset and keeps only the CSR snapshot.
        Python calls this method only when a normal lookup fails, so a
        graph built with :meth:`add_edge` never pays for it.  The lists
        follow the snapshot's row order, which is edge-insertion order, and
        each set is built from its list, so set iteration order and
        :meth:`edges` match an ``add_edge``-built twin.  Every mutator reads
        ``_adjacency`` before it drops the snapshot, so the views always
        exist before the snapshot goes.
        """
        if name not in ("_adjacency", "_neighbor_lists"):
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}"
            )
        lists = self._csr_cache.fresh_neighbor_lists()
        adjacency = {node: set(values) for node, values in lists.items()}
        # Concurrent first accesses each build equal views; whichever
        # assignment lands last is kept.
        self._neighbor_lists = lists
        self._adjacency = adjacency
        return lists if name == "_neighbor_lists" else adjacency

    # ------------------------------------------------------------------ #
    # Node operations
    # ------------------------------------------------------------------ #
    def add_node(self, node: Optional[NodeId] = None) -> NodeId:
        """Add a node and return its id.

        If ``node`` is ``None`` the next unused integer id is assigned.
        Adding an existing node is a no-op.
        """
        if node is None:
            node = len(self._adjacency)
            while node in self._adjacency:  # defensive: ids may be sparse
                node += 1
        if node < 0:
            raise GraphError("node ids must be non-negative integers")
        if node not in self._adjacency:
            self._adjacency[node] = set()
            self._neighbor_lists[node] = []
            self._csr_cache = None
        return node

    def remove_node(self, node: NodeId) -> None:
        """Remove ``node`` and all its incident edges."""
        if node not in self._adjacency:
            raise NodeNotFoundError(node)
        for neighbor in list(self._adjacency[node]):
            self.remove_edge(node, neighbor)
        del self._adjacency[node]
        del self._neighbor_lists[node]
        self._csr_cache = None

    def has_node(self, node: NodeId) -> bool:
        """Return ``True`` if ``node`` is in the graph."""
        return node in self._adjacency

    def nodes(self) -> List[NodeId]:
        """Return a list of all node ids (in insertion order)."""
        return list(self._adjacency.keys())

    def __contains__(self, node: object) -> bool:
        return node in self._adjacency

    def __iter__(self) -> Iterator[NodeId]:
        return iter(self._adjacency)

    def __len__(self) -> int:
        return len(self._adjacency)

    @property
    def number_of_nodes(self) -> int:
        """Total number of nodes ``N``."""
        if self._csr_cache is not None:
            return self._csr_cache.number_of_nodes
        return len(self._adjacency)

    # ------------------------------------------------------------------ #
    # Edge operations
    # ------------------------------------------------------------------ #
    def add_edge(self, u: NodeId, v: NodeId) -> bool:
        """Add the undirected edge ``(u, v)``.

        Returns ``True`` if the edge was added, ``False`` if it already
        existed.  Self-loops raise :class:`GraphError`; referencing a missing
        node raises :class:`NodeNotFoundError`.
        """
        if u == v:
            raise GraphError(f"self-loops are not allowed (node {u})")
        if u not in self._adjacency:
            raise NodeNotFoundError(u)
        if v not in self._adjacency:
            raise NodeNotFoundError(v)
        if v in self._adjacency[u]:
            return False
        self._adjacency[u].add(v)
        self._adjacency[v].add(u)
        self._neighbor_lists[u].append(v)
        self._neighbor_lists[v].append(u)
        self._number_of_edges += 1
        self._total_degree += 2
        self._csr_cache = None
        return True

    def remove_edge(self, u: NodeId, v: NodeId) -> None:
        """Remove the undirected edge ``(u, v)``; missing edges are ignored."""
        if u not in self._adjacency or v not in self._adjacency:
            raise NodeNotFoundError(u if u not in self._adjacency else v)
        if v not in self._adjacency[u]:
            return
        self._adjacency[u].discard(v)
        self._adjacency[v].discard(u)
        self._neighbor_lists[u].remove(v)
        self._neighbor_lists[v].remove(u)
        self._number_of_edges -= 1
        self._total_degree -= 2
        self._csr_cache = None

    def has_edge(self, u: NodeId, v: NodeId) -> bool:
        """Return ``True`` if the undirected edge ``(u, v)`` exists."""
        neighbors = self._adjacency.get(u)
        return neighbors is not None and v in neighbors

    def edges(self) -> List[Edge]:
        """Return all edges as ``(min(u, v), max(u, v))`` pairs."""
        seen: List[Edge] = []
        for u, neighbors in self._adjacency.items():
            for v in neighbors:
                if u < v:
                    seen.append((u, v))
        return seen

    @property
    def number_of_edges(self) -> int:
        """Total number of undirected edges."""
        return self._number_of_edges

    # ------------------------------------------------------------------ #
    # Degrees and neighborhoods
    # ------------------------------------------------------------------ #
    def degree(self, node: NodeId) -> int:
        """Return the degree of ``node``."""
        try:
            return len(self._adjacency[node])
        except KeyError:
            raise NodeNotFoundError(node) from None

    def degrees(self) -> Dict[NodeId, int]:
        """Return a mapping ``node -> degree`` for every node."""
        return {node: len(neighbors) for node, neighbors in self._adjacency.items()}

    def degree_sequence(self) -> List[int]:
        """Return the list of degrees in node-id order."""
        if self._csr_cache is not None:
            # The snapshot's degree array answers without building the
            # mutable views of a bulk-built graph.
            return self._csr_cache.degree_sequence()
        return [len(self._adjacency[node]) for node in self._adjacency]

    @property
    def total_degree(self) -> int:
        """Sum of all degrees (``2 * number_of_edges``, the paper's ``ktotal``)."""
        return self._total_degree

    def min_degree(self) -> int:
        """Return the smallest degree (0 for an empty graph)."""
        return min(self.degree_sequence(), default=0)

    def max_degree(self) -> int:
        """Return the largest degree, i.e. the empirical cutoff of the network."""
        return max(self.degree_sequence(), default=0)

    def mean_degree(self) -> float:
        """Return the average degree ``2E / N`` (0.0 for an empty graph)."""
        nodes = self.number_of_nodes
        if not nodes:
            return 0.0
        return self._total_degree / nodes

    def neighbors(self, node: NodeId) -> List[NodeId]:
        """Return a list of the neighbors of ``node``."""
        try:
            return list(self._neighbor_lists[node])
        except KeyError:
            raise NodeNotFoundError(node) from None

    def neighbor_set(self, node: NodeId) -> Set[NodeId]:
        """Return the neighbor set of ``node`` (do not mutate)."""
        try:
            return self._adjacency[node]
        except KeyError:
            raise NodeNotFoundError(node) from None

    def iter_neighbors(self, node: NodeId) -> List[NodeId]:
        """Return the internal neighbor list of ``node`` — do **not** mutate.

        Unlike :meth:`neighbors` this does not copy.  The order is the edge
        insertion order, which is the *defined* neighbor order of the
        library: the frozen CSR snapshot preserves it, so every seeded draw
        the search algorithms make over a neighbor list lands on the same
        element on either representation (see
        ``tests/test_backend_equivalence``).
        """
        try:
            return self._neighbor_lists[node]
        except KeyError:
            raise NodeNotFoundError(node) from None

    def neighbor_lists(self) -> Mapping[NodeId, List[NodeId]]:
        """Return the id -> neighbor-list mapping :meth:`iter_neighbors`
        reads — do **not** mutate it or its lists.

        A loop that looks up one row per node or step binds this once and
        indexes it, with no method call per lookup.  The mapping is live:
        it follows later mutations of the graph.
        """
        return self._neighbor_lists

    def random_neighbor(self, node: NodeId, rng: RandomSource) -> Optional[NodeId]:
        """Return a uniformly random neighbor of ``node`` or ``None`` if isolated.

        This is the ``RANDOM_LINK(i)`` primitive from the HAPA pseudo-code and
        the single step of a random walk.
        """
        neighbors = self._neighbor_lists.get(node)
        if neighbors is None:
            raise NodeNotFoundError(node)
        if not neighbors:
            return None
        return neighbors[rng.randint(0, len(neighbors) - 1)]

    # ------------------------------------------------------------------ #
    # Whole-graph utilities
    # ------------------------------------------------------------------ #
    def copy(self) -> "Graph":
        """Return a deep copy of the graph."""
        clone = Graph()
        for node in self._adjacency:
            clone.add_node(node)
        for u, v in self.edges():
            clone.add_edge(u, v)
        return clone

    def subgraph(self, nodes: Iterable[NodeId]) -> "Graph":
        """Return the subgraph induced by ``nodes``."""
        keep = set(nodes)
        missing = keep - set(self._adjacency)
        if missing:
            raise NodeNotFoundError(next(iter(missing)))
        sub = Graph()
        for node in keep:
            sub.add_node(node)
        for u in keep:
            for v in self._adjacency[u]:
                if v in keep and u < v:
                    sub.add_edge(u, v)
        return sub

    def freeze(self) -> "CSRGraph":
        """Return an immutable CSR snapshot of this graph.

        The snapshot (:class:`~repro.core.csr.CSRGraph`) preserves the
        per-node neighbor insertion order, implements the read-only part of
        this class's API, and unlocks the vectorized search kernels; use it
        for the generate-once / search-many phase of an experiment.  Later
        mutations of this graph do not affect the snapshot.

        Graphs built by :meth:`from_edge_array` carry their frozen snapshot
        already (the bulk constructor builds nothing else), so freezing one
        is free — the shared immutable instance is returned — until the
        first mutation drops it.
        """
        from repro.core.csr import CSRGraph

        if self._csr_cache is not None:
            return self._csr_cache
        return CSRGraph.from_graph(self)

    @property
    def has_snapshot(self) -> bool:
        """``True`` when :meth:`freeze` returns a prebuilt snapshot for free.

        That holds for a :meth:`from_edge_array` graph until its first
        mutation; any other graph is snapshotted on each ``freeze()``.
        """
        return self._csr_cache is not None

    def stats(self) -> GraphStats:
        """Return a :class:`~repro.core.types.GraphStats` summary."""
        return GraphStats(
            number_of_nodes=self.number_of_nodes,
            number_of_edges=self.number_of_edges,
            min_degree=self.min_degree(),
            max_degree=self.max_degree(),
            mean_degree=self.mean_degree(),
        )

    # ------------------------------------------------------------------ #
    # Interoperability
    # ------------------------------------------------------------------ #
    def to_networkx(self) -> nx.Graph:
        """Convert to a :class:`networkx.Graph` (nodes and edges only).

        networkx is imported here, on first use: nothing on the generation,
        search or serve paths converts, so ``import repro`` does not load it
        and a ``pip install .`` without the ``dev`` extra does not need it.
        """
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(self._adjacency.keys())
        g.add_edges_from(self.edges())
        return g

    @classmethod
    def from_networkx(cls, g: nx.Graph) -> "Graph":
        """Build a :class:`Graph` from a :class:`networkx.Graph`.

        Node labels must be hashable; they are relabelled to dense integers
        ``0..N-1`` in iteration order if they are not already integers.
        """
        labels = list(g.nodes())
        if all(isinstance(label, int) for label in labels):
            mapping = {label: label for label in labels}
            graph = cls()
            for label in labels:
                graph.add_node(label)
        else:
            mapping = {label: index for index, label in enumerate(labels)}
            graph = cls(len(labels))
        for u, v in g.edges():
            if u == v:
                continue  # drop self-loops on import
            graph.add_edge(mapping[u], mapping[v])
        return graph

    @classmethod
    def from_edges(cls, number_of_nodes: int, edges: Iterable[Edge]) -> "Graph":
        """Build a graph with ``number_of_nodes`` nodes and the given edges."""
        graph = cls(number_of_nodes)
        for u, v in edges:
            graph.add_edge(u, v)
        return graph

    @classmethod
    def from_edge_array(
        cls,
        nodes: "int | Iterable[NodeId]",
        edge_u: "np.ndarray",
        edge_v: "np.ndarray",
        edges_are_rows: bool = False,
    ) -> "Graph":
        """Bulk-build a graph from ordered edge arrays (no per-edge Python).

        ``nodes`` is either a node count (dense ids ``0..N-1``) or an
        iterable of node ids in insertion order (e.g. a DAPA overlay's join
        order).  ``edge_u[i]``/``edge_v[i]`` are the endpoints of the
        ``i``-th edge, in the order incremental construction would have
        added them; the resulting per-node neighbor lists — the library's
        defined draw order — are identical to ``add_edge``-ing each pair in
        sequence.  With ``edges_are_rows`` the endpoints are positions into
        the node sequence instead of ids — DAPA's growth loop emits overlay
        positions directly, which skips the id-to-row translation loop for
        non-dense graphs.  Edges must be simple: self-loops and duplicates
        raise :class:`~repro.core.errors.GraphError`.

        This is the ingestion path for every bulk build (PA, CM, HAPA,
        DAPA, the GRN and mesh substrates): they emit edge arrays, and this
        constructor checks them and assembles only the frozen
        :class:`~repro.core.csr.CSRGraph` snapshot, in a handful of
        vectorized operations.  The measurement phase's
        ``freeze()`` returns that snapshot for free, and the mutable views
        (neighbor sets and lists) are built from it on first access.

        Examples
        --------
        >>> import numpy as np
        >>> g = Graph.from_edge_array(4, np.array([0, 1, 2]), np.array([1, 2, 3]))
        >>> g.number_of_edges
        3
        >>> g.neighbors(1)
        [0, 2]
        """
        from repro.core.csr import CSRGraph

        edge_u = np.ascontiguousarray(edge_u, dtype=np.int64)
        edge_v = np.ascontiguousarray(edge_v, dtype=np.int64)
        if isinstance(nodes, (int, np.integer)):
            ids: Optional[List[int]] = None
            count = int(nodes)
        else:
            ids = [int(node) for node in nodes]
            count = len(ids)
            if len(set(ids)) != count:
                raise GraphError("node ids must be unique")
        if np.any(edge_u == edge_v):
            raise GraphError("self-loops are not allowed")
        if ids is None or edges_are_rows:
            row_u, row_v = edge_u, edge_v
        else:
            row_of = {node: row for row, node in enumerate(ids)}
            try:
                row_u = np.array([row_of[int(u)] for u in edge_u], dtype=np.int64)
                row_v = np.array([row_of[int(v)] for v in edge_v], dtype=np.int64)
            except KeyError as error:
                raise NodeNotFoundError(error.args[0]) from None
        if len(edge_u):
            low = np.minimum(row_u, row_v)
            high = np.maximum(row_u, row_v)
            keys = np.sort(low * np.int64(count) + high)
            # Equal neighbors after a sort: many times faster than
            # np.unique, which hashes on numpy 2.x.
            if np.any(keys[1:] == keys[:-1]):
                raise GraphError("duplicate edges are not allowed")
        ids_array = None if ids is None else np.array(ids, dtype=np.int64)
        graph = cls.__new__(cls)
        # The view slots stay unset: __getattr__ builds them on first use.
        graph._number_of_edges = len(edge_u)
        graph._total_degree = 2 * len(edge_u)
        graph._csr_cache = CSRGraph.from_edge_arrays(count, row_u, row_v, ids=ids_array)
        return graph

    @classmethod
    def complete(cls, number_of_nodes: int) -> "Graph":
        """Return the complete graph on ``number_of_nodes`` nodes.

        The PA and HAPA growth models start from a fully connected seed of
        ``m + 1`` nodes; this constructor builds that seed.
        """
        graph = cls(number_of_nodes)
        for u in range(number_of_nodes):
            for v in range(u + 1, number_of_nodes):
                graph.add_edge(u, v)
        return graph

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Graph(nodes={self.number_of_nodes}, edges={self.number_of_edges}, "
            f"max_degree={self.max_degree()})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            set(self._adjacency) == set(other._adjacency)
            and {n: set(v) for n, v in self._adjacency.items()}
            == {n: set(v) for n, v in other._adjacency.items()}
        )

    def __hash__(self) -> int:  # Graphs are mutable; identity hash only.
        return id(self)
