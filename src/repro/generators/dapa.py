"""Discover-and-Attempt Preferential Attachment (DAPA, paper §IV-B, Algorithm 4).

DAPA is the paper's fully-local construction and the one that "imitates the
method for finding peers in Gnutella-like unstructured P2P networks".  It
maintains two graphs:

* a fixed **substrate network** ``G_S`` (the physical connectivity — the
  paper uses a 2-D geometric random network with N_S = 2×10⁴ nodes and mean
  degree 10, or alternatively a regular mesh), and
* the **overlay network** ``G_O`` being built on top of it.

At every step a random substrate node that is not yet a peer sends a
discovery query limited to ``τ_sub`` substrate hops (its *horizon*), collects
the overlay peers it can see whose overlay degree is still below the hard
cutoff, and then connects to ``m`` of them chosen by preferential attachment
restricted to that horizon.  If it sees fewer than ``m`` peers it connects to
all of them.  A node that finds at least one peer becomes a peer itself.
The process repeats until the overlay has ``N_O`` peers.

Small ``τ_sub`` makes nodes short-sighted and the overlay degree distribution
exponential; large ``τ_sub`` recovers a power law (paper Fig. 4) — DAPA
interpolates between the two purely through the locality parameter, without
any node ever holding global topology information.
"""

from __future__ import annotations

import random  # repro-lint: disable=RPL103(annotation only: the attach step draws from raw_stream(rng), the twister inside the RandomSource)
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.core.config import DAPAConfig, GRNConfig, MeshConfig
from repro.core.errors import ConfigurationError, GenerationError
from repro.core.graph import Graph
from repro.core.rng import RandomSource, raw_stream
from repro.generators.base import TopologyGenerator
from repro.substrate.grn import GeometricRandomNetwork
from repro.substrate.mesh import MeshNetwork
from repro.telemetry.collector import active_telemetry

__all__ = ["DAPAGenerator", "generate_dapa"]

#: Acceptance-test retries per stub before falling back to a weighted draw
#: over the horizon.  The paper's repeat-until loop has no bound; this keeps
#: construction from stalling on tiny or saturated horizons.
_MAX_ATTEMPTS_PER_STUB = 50_000


class DAPAGenerator(TopologyGenerator):
    """Build a P2P overlay on a substrate using horizon-limited preferential attachment.

    Parameters
    ----------
    overlay_size:
        Target number of overlay peers ``N_O``.
    stubs:
        Stubs ``m`` each joining peer tries to fill.
    hard_cutoff:
        Hard cutoff ``kc`` on overlay degree (``None`` for unbounded).
    local_ttl:
        Horizon ``τ_sub`` in substrate hops.
    initial_peers:
        Number of substrate nodes seeded into the overlay (the paper uses 2;
        they are connected in a clique so the overlay starts connected).
    substrate_graph:
        An explicit substrate :class:`~repro.core.graph.Graph` to build on.
        Mutually exclusive with ``substrate_config``.
    substrate_config:
        A :class:`~repro.core.config.GRNConfig` or
        :class:`~repro.core.config.MeshConfig` describing the substrate to
        build.  When both are omitted the paper's default substrate (2-D GRN,
        ``N_S = 2 · N_O``, mean degree 10) is used.
    seed:
        Optional RNG seed.

    Examples
    --------
    >>> gen = DAPAGenerator(overlay_size=100, stubs=2, hard_cutoff=10,
    ...                     local_ttl=4, seed=5)
    >>> result = gen.generate()
    >>> result.graph.number_of_nodes <= 100
    True
    >>> result.graph.max_degree() <= 10
    True
    """

    model_name = "dapa"
    uses_global_information = "no"

    def __init__(
        self,
        overlay_size: int,
        stubs: int = 1,
        hard_cutoff: Optional[int] = None,
        local_ttl: int = 2,
        initial_peers: int = 2,
        substrate_graph: Optional[Graph] = None,
        substrate_config: "GRNConfig | MeshConfig | None" = None,
        seed: Optional[int] = None,
    ) -> None:
        if substrate_graph is not None and substrate_config is not None:
            raise ConfigurationError(
                "provide either substrate_graph or substrate_config, not both"
            )
        self.config = DAPAConfig(
            overlay_size=overlay_size,
            stubs=stubs,
            hard_cutoff=hard_cutoff,
            local_ttl=local_ttl,
            initial_peers=initial_peers,
            seed=seed,
            substrate=substrate_config,
        )
        if substrate_graph is not None and substrate_graph.number_of_nodes < overlay_size:
            raise ConfigurationError(
                "substrate_graph must have at least overlay_size nodes"
            )
        self.substrate_graph = substrate_graph
        self.seed = seed

    # ------------------------------------------------------------------ #
    # TopologyGenerator interface
    # ------------------------------------------------------------------ #
    def parameters(self) -> Dict[str, Any]:
        substrate_description: Any
        if self.substrate_graph is not None:
            substrate_description = "explicit"
        elif self.config.substrate is not None:
            substrate_description = type(self.config.substrate).__name__
        else:
            substrate_description = "default_grn"
        return {
            "model": self.model_name,
            "overlay_size": self.config.overlay_size,
            "stubs": self.config.stubs,
            "hard_cutoff": self.config.hard_cutoff,
            "local_ttl": self.config.local_ttl,
            "initial_peers": self.config.initial_peers,
            "substrate": substrate_description,
            "seed": self.seed,
        }

    def _span_attributes(self) -> Dict[str, Any]:
        # The substrate's size explains the build's cost; parameters() keeps
        # naming where the substrate comes from.
        attrs = super()._span_attributes()
        if self.substrate_graph is not None:
            attrs["substrate"] = self.substrate_graph.number_of_nodes
        else:
            substrate = self.config.substrate or self.config.default_substrate()
            attrs["substrate"] = substrate.number_of_nodes
        return attrs

    def _build(self, rng: RandomSource) -> Tuple[Graph, Dict[str, Any]]:
        telemetry = active_telemetry()
        attrs: Optional[Dict[str, Any]] = {} if telemetry.enabled else None
        with telemetry.span("substrate", attrs):
            substrate = self._resolve_substrate(rng)
            if attrs is not None:
                attrs["nodes"] = substrate.number_of_nodes
                attrs["edges"] = substrate.number_of_edges
        if substrate.number_of_nodes < self.config.overlay_size:
            raise GenerationError(
                "substrate has fewer nodes than the requested overlay size"
            )
        return self._grow_overlay(substrate, rng)

    def _grow_overlay(
        self, substrate: Graph, rng: RandomSource
    ) -> Tuple[Graph, Dict[str, Any]]:
        """The growth loop.

        The horizon BFS runs on substrate *rows* (positions in
        ``substrate.nodes()``): per-row neighbor lists are built once, and
        peer membership, overlay degree and overlay position live in flat
        per-row lists, kept in step with the overlay after every join.  The
        join picks and the attach step, :meth:`_attach_preferentially_fast`,
        draw from the twister underneath ``rng``: each pick of a joining
        substrate row is CPython's ``_randbelow`` rejection loop over
        ``getrandbits``, which is what ``rng.randint(0, size - 1)`` draws
        (the test oracle ``tests/oracles/dapa.py``).  Only the seed peers
        come from a method, ``rng.sample``.  The overlay is built once, at
        the end: the peers' ids in join order and the edges as overlay
        positions, seed clique first and then each join's links in the
        order it chose them, go to :meth:`Graph.from_edge_array`.
        """
        config = self.config
        stream = raw_stream(rng)
        getrandbits = stream.getrandbits
        cutoff = config.effective_cutoff()
        m = config.stubs
        target_peers = config.overlay_size
        substrate_nodes = substrate.nodes()
        size = len(substrate_nodes)
        width = size.bit_length()
        row_of = {node: row for row, node in enumerate(substrate_nodes)}
        if substrate_nodes == list(range(size)):
            # Dense ids are their own rows: share the substrate's lists.
            rows = [substrate.iter_neighbors(node) for node in substrate_nodes]
        else:
            rows = [
                [row_of[neighbor] for neighbor in substrate.iter_neighbors(node)]
                for node in substrate_nodes
            ]
        is_peer = [False] * size
        overlay_degree = [0] * size
        position = [0] * size
        # Epoch stamps: row r was seen by the current BFS iff seen[r] == epoch.
        seen = [0] * size
        epoch = 0

        # The overlay shares node ids with the substrate: its nodes are the
        # peers in join order, its edges pairs of overlay positions.
        seeds = rng.sample(substrate_nodes, config.initial_peers)
        joined_ids = list(seeds)
        edge_u: List[int] = []
        edge_v: List[int] = []
        # Seed the overlay with a small clique of random substrate nodes.
        for index, node in enumerate(seeds):
            row = row_of[node]
            is_peer[row] = True
            overlay_degree[row] = len(seeds) - 1
            position[row] = index
            for later in range(index + 1, len(seeds)):
                edge_u.append(index)
                edge_v.append(later)
        peer_count = len(seeds)

        attempts_without_progress = 0
        max_attempts_without_progress = 20 * size
        empty_horizons = 0
        short_horizons = 0
        discovery_messages = 0

        while peer_count < target_peers:
            if attempts_without_progress > max_attempts_without_progress:
                # No remaining substrate node can see a peer within tau_sub
                # hops (e.g. a disconnected substrate component with no seed).
                break
            row = getrandbits(width)
            while row >= size:
                row = getrandbits(width)
            if is_peer[row]:
                attempts_without_progress += 1
                continue

            epoch += 1
            horizon, horizon_degrees = self._discover_horizon(
                rows, row, is_peer, overlay_degree, peer_count, cutoff, seen, epoch,
            )
            discovery_messages += 1
            if not horizon:
                empty_horizons += 1
                attempts_without_progress += 1
                continue

            if len(horizon) <= m:
                short_horizons += 1
                chosen = horizon
            else:
                chosen = self._attach_preferentially_fast(
                    horizon, horizon_degrees, m, cutoff, rng, stream
                )
            for peer in chosen:
                overlay_degree[peer] += 1
                edge_u.append(peer_count)
                edge_v.append(position[peer])
            overlay_degree[row] = len(chosen)
            position[row] = peer_count
            is_peer[row] = True
            joined_ids.append(substrate_nodes[row])
            peer_count += 1
            attempts_without_progress = 0

        overlay = Graph.from_edge_array(
            joined_ids,
            np.array(edge_u, dtype=np.int64),
            np.array(edge_v, dtype=np.int64),
            edges_are_rows=True,
        )
        metadata = {
            "substrate_nodes": substrate.number_of_nodes,
            "substrate_edges": substrate.number_of_edges,
            "substrate_mean_degree": substrate.mean_degree(),
            "overlay_peers": peer_count,
            "target_overlay_size": target_peers,
            "reached_target": peer_count >= target_peers,
            "empty_horizons": empty_horizons,
            "short_horizons": short_horizons,
            "discovery_messages": discovery_messages,
            "substrate_graph": substrate,
        }
        return overlay, metadata

    # ------------------------------------------------------------------ #
    # Substrate handling
    # ------------------------------------------------------------------ #
    def _resolve_substrate(self, rng: RandomSource) -> Graph:
        if self.substrate_graph is not None:
            return self.substrate_graph
        config = self.config.substrate
        if config is None:
            config = self.config.default_substrate()
        if isinstance(config, GRNConfig):
            builder = GeometricRandomNetwork(
                number_of_nodes=config.number_of_nodes,
                radius=config.radius,
                target_mean_degree=config.target_mean_degree,
                dimensions=config.dimensions,
                torus=config.torus,
                seed=config.seed,
            )
            return builder.build(rng.spawn("substrate"))
        if isinstance(config, MeshConfig):
            builder = MeshNetwork(
                rows=config.rows, columns=config.columns, torus=config.torus
            )
            return builder.build(rng.spawn("substrate"))
        raise ConfigurationError(f"unsupported substrate configuration: {config!r}")

    # ------------------------------------------------------------------ #
    # Discovery and attachment
    # ------------------------------------------------------------------ #
    def _discover_horizon(
        self,
        rows: List[List[int]],
        root: int,
        is_peer: List[bool],
        overlay_degree: List[int],
        peer_count: int,
        cutoff: int,
        seen: List[int],
        epoch: int,
    ) -> Tuple[List[int], List[int]]:
        """Breadth-first search bounded by ``τ_sub`` returning eligible peers.

        Eligible means: already an overlay peer, within ``τ_sub`` substrate
        hops of ``root``, and with overlay degree strictly below the hard
        cutoff (paper Algorithm 4, lines 6-10).  The horizon lists their
        rows in discovery order; a second list holds their overlay degrees,
        which the attach step reads instead of asking the overlay.

        The search runs on rows, one level at a time: each level's nodes
        are expanded in discovery order, and their neighbors in the
        substrate's *defined* order (edge-insertion order, not set order),
        so the discovery order is a FIFO BFS's.  That order matters: the
        horizon's element order feeds the attachment draws.  Nodes at depth
        ``τ_sub`` are not expanded, and the search stops as soon as all
        ``peer_count`` peers have been seen.  ``seen[row] == epoch`` marks a
        row seen by this search (``epoch`` is fresh per call), which spares
        clearing a visited set per join.
        """
        seen[root] = epoch
        frontier = [root]
        horizon: List[int] = []
        degrees: List[int] = []
        remaining_peers = peer_count
        for _ in range(self.config.local_ttl):
            next_frontier: List[int] = []
            for current in frontier:
                for neighbor in rows[current]:
                    if seen[neighbor] == epoch:
                        continue
                    seen[neighbor] = epoch
                    next_frontier.append(neighbor)
                    if is_peer[neighbor]:
                        degree = overlay_degree[neighbor]
                        if degree < cutoff:
                            horizon.append(neighbor)
                            degrees.append(degree)
                        remaining_peers -= 1
                        if not remaining_peers:
                            return horizon, degrees
            frontier = next_frontier
        return horizon, degrees

    @staticmethod
    def _attach_preferentially_fast(
        horizon: List[int],
        degrees: List[int],
        stubs: int,
        cutoff: int,
        rng: RandomSource,
        stream: random.Random,
    ) -> List[int]:
        """Choose ``stubs`` horizon peers with probability ∝ degree.

        Follows the accept/reject loop of Algorithm 4 (lines 18-29): a random
        horizon peer is accepted with probability ``k_peer / k_horizon``
        where ``k_horizon`` is the total degree of the peers in the horizon
        ("their degrees divided by the total degrees of the peers in its
        horizon").  A weighted draw over the remaining eligible peers
        places a stub once ``_MAX_ATTEMPTS_PER_STUB`` attempts have run
        since the last such draw (the budget carries over from stub to
        stub), or every stub when all horizon degrees are zero.  Returns
        the chosen peers in the order they were chosen.

        ``stream`` is the Mersenne Twister underneath ``rng`` (see
        :func:`~repro.core.rng.raw_stream`): each pick is CPython's
        ``_randbelow`` rejection loop over ``getrandbits`` and each coin a
        bound ``random()``, so the draws are those of the same loop written
        with ``rng.randint`` and ``rng.random`` (the test oracle
        ``tests/oracles/dapa.py``).  ``degrees[i]`` is ``horizon[i]``'s
        overlay degree.  The joining node links only to the peers it
        chooses here, so "already linked" is membership in ``chosen``, and
        an unchosen peer's degree cannot change during the call.
        """
        getrandbits = stream.getrandbits
        random_float = stream.random
        horizon_total_degree = sum(degrees)
        size = len(horizon)
        width = size.bit_length()
        # Read at call time, so patching the module constant takes effect.
        # With every degree zero no attempt can accept: skip straight to
        # the weighted draw.
        max_attempts = _MAX_ATTEMPTS_PER_STUB if horizon_total_degree else 0
        chosen: List[int] = []
        attempts = 0
        for _ in range(min(stubs, size)):
            for attempts in range(attempts + 1, max_attempts + 1):
                pick = getrandbits(width)
                while pick >= size:
                    pick = getrandbits(width)
                peer = horizon[pick]
                if peer in chosen:
                    continue
                degree = degrees[pick]
                if degree < cutoff and random_float() < degree / horizon_total_degree:
                    chosen.append(peer)
                    break
            else:
                remaining = [
                    index
                    for index, peer in enumerate(horizon)
                    if peer not in chosen and degrees[index] < cutoff
                ]
                if not remaining:
                    break
                weights = [max(degrees[index], 1) for index in remaining]
                chosen.append(horizon[remaining[rng.weighted_index(weights)]])
                attempts = 0
        return chosen


def generate_dapa(
    overlay_size: int,
    stubs: int = 1,
    hard_cutoff: Optional[int] = None,
    local_ttl: int = 2,
    initial_peers: int = 2,
    substrate_graph: Optional[Graph] = None,
    substrate_config: "GRNConfig | MeshConfig | None" = None,
    seed: Optional[int] = None,
    rng: Optional[RandomSource] = None,
) -> Graph:
    """Generate a DAPA overlay and return the overlay graph.

    Examples
    --------
    >>> graph = generate_dapa(80, stubs=1, hard_cutoff=10, local_ttl=3, seed=2)
    >>> graph.number_of_nodes <= 80
    True
    """
    generator = DAPAGenerator(
        overlay_size=overlay_size,
        stubs=stubs,
        hard_cutoff=hard_cutoff,
        local_ttl=local_ttl,
        initial_peers=initial_peers,
        substrate_graph=substrate_graph,
        substrate_config=substrate_config,
        seed=seed,
    )
    return generator.generate_graph(rng)
