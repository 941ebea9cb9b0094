"""DAPA's python-tier build with its deque horizon BFS, the dict GRN sweep
and the reference attach step.

This is ``DAPAGenerator``'s python tier as it ran before its two draw-free
phases were rewritten and its inlined-draw attach step became the only
one: the substrate comes from the dict cell sweep (:mod:`oracles.grn`),
every joining node discovers its horizon with a ``deque`` BFS over
``Graph.iter_neighbors``, with peer membership in a set and overlay
degrees read from the overlay graph, and :func:`attach_preferentially`
(``DAPAGenerator._attach_preferentially``) makes every draw through the
``RandomSource`` methods, so a counting source sees all of them.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Dict, List, Set, Tuple

from oracles.grn import build_grn
from repro.core.config import GRNConfig, MeshConfig
from repro.core.errors import ConfigurationError, GenerationError
from repro.core.graph import Graph
from repro.core.rng import RandomSource
from repro.generators import dapa as dapa_module
from repro.generators.dapa import DAPAGenerator
from repro.substrate.grn import GeometricRandomNetwork
from repro.substrate.mesh import MeshNetwork


def build_dapa(
    generator: DAPAGenerator, rng: RandomSource
) -> Tuple[Graph, Dict[str, Any]]:
    """``generator``'s python-tier ``_build``: substrate, then overlay."""
    substrate = resolve_substrate(generator, rng)
    if substrate.number_of_nodes < generator.config.overlay_size:
        raise GenerationError(
            "substrate has fewer nodes than the requested overlay size"
        )
    return grow_overlay(generator, substrate, rng)


def resolve_substrate(generator: DAPAGenerator, rng: RandomSource) -> Graph:
    if generator.substrate_graph is not None:
        return generator.substrate_graph
    config = generator.config.substrate
    if config is None:
        config = generator.config.default_substrate()
    if isinstance(config, GRNConfig):
        builder = GeometricRandomNetwork(
            number_of_nodes=config.number_of_nodes,
            radius=config.radius,
            target_mean_degree=config.target_mean_degree,
            dimensions=config.dimensions,
            torus=config.torus,
            seed=config.seed,
        )
        return build_grn(builder, rng.spawn("substrate"))
    if isinstance(config, MeshConfig):
        builder = MeshNetwork(
            rows=config.rows, columns=config.columns, torus=config.torus
        )
        return builder.build(rng.spawn("substrate"))
    raise ConfigurationError(f"unsupported substrate configuration: {config!r}")


def grow_overlay(
    generator: DAPAGenerator, substrate: Graph, rng: RandomSource
) -> Tuple[Graph, Dict[str, Any]]:
    config = generator.config
    cutoff = config.effective_cutoff()
    m = config.stubs
    target_peers = config.overlay_size
    substrate_nodes = substrate.nodes()

    # Overlay graph shares node ids with the substrate; only peers are
    # added to it.  `peers` tracks membership for O(1) lookups.
    overlay = Graph()
    peers: Set[int] = set()

    # Seed the overlay with a small clique of random substrate nodes.
    seeds = rng.sample(substrate_nodes, config.initial_peers)
    for node in seeds:
        overlay.add_node(node)
        peers.add(node)
    for index, u in enumerate(seeds):
        for v in seeds[index + 1 :]:
            overlay.add_edge(u, v)

    attempts_without_progress = 0
    max_attempts_without_progress = 20 * len(substrate_nodes)
    empty_horizons = 0
    short_horizons = 0
    discovery_messages = 0

    while len(peers) < target_peers:
        if attempts_without_progress > max_attempts_without_progress:
            # No remaining substrate node can see a peer within tau_sub
            # hops (e.g. a disconnected substrate component with no seed).
            break
        node = substrate_nodes[rng.randint(0, len(substrate_nodes) - 1)]
        if node in peers:
            attempts_without_progress += 1
            continue

        horizon = discover_horizon(generator, substrate, node, peers, overlay, cutoff)
        discovery_messages += 1
        if not horizon:
            empty_horizons += 1
            attempts_without_progress += 1
            continue

        overlay.add_node(node)
        if len(horizon) <= m:
            short_horizons += 1
            for peer in horizon:
                overlay.add_edge(node, peer)
        else:
            attach_preferentially(overlay, node, horizon, m, cutoff, rng)
        peers.add(node)
        attempts_without_progress = 0

    metadata = {
        "substrate_nodes": substrate.number_of_nodes,
        "substrate_edges": substrate.number_of_edges,
        "substrate_mean_degree": substrate.mean_degree(),
        "overlay_peers": len(peers),
        "target_overlay_size": target_peers,
        "reached_target": len(peers) >= target_peers,
        "empty_horizons": empty_horizons,
        "short_horizons": short_horizons,
        "discovery_messages": discovery_messages,
        "substrate_graph": substrate,
    }
    return overlay, metadata


def discover_horizon(
    generator: DAPAGenerator,
    substrate: Graph,
    node: int,
    peers: Set[int],
    overlay: Graph,
    cutoff: int,
) -> List[int]:
    """Breadth-first search bounded by ``τ_sub`` returning eligible peers,
    in discovery order (neighbors in the substrate's defined order)."""
    max_depth = generator.config.local_ttl
    visited = {node: 0}
    frontier = deque([node])
    horizon: List[int] = []
    remaining_peers = len(peers)
    while frontier and remaining_peers > 0:
        current = frontier.popleft()
        depth = visited[current]
        if depth >= max_depth:
            continue
        for neighbor in substrate.iter_neighbors(current):
            if neighbor in visited:
                continue
            visited[neighbor] = depth + 1
            frontier.append(neighbor)
            if neighbor in peers:
                remaining_peers -= 1
                if overlay.degree(neighbor) < cutoff:
                    horizon.append(neighbor)
    return horizon


def attach_preferentially(
    overlay: Graph,
    node: int,
    horizon: List[int],
    stubs: int,
    cutoff: int,
    rng: RandomSource,
) -> None:
    """Connect ``node`` to ``stubs`` horizon peers with probability ∝ degree.

    Follows the accept/reject loop of Algorithm 4 (lines 18-29): a random
    horizon peer is accepted with probability ``k_peer / k_horizon``
    where ``k_horizon`` is the total degree of the peers in the horizon
    ("their degrees divided by the total degrees of the peers in its
    horizon").  Degenerate horizons (all degrees zero) fall back to a
    uniform choice.
    """
    chosen: Set[int] = set()
    attempts = 0
    horizon_total_degree = sum(overlay.degree(peer) for peer in horizon)
    # Read at call time, so patching the module constant takes effect.
    max_attempts = dapa_module._MAX_ATTEMPTS_PER_STUB
    while len(chosen) < stubs and len(chosen) < len(horizon):
        if attempts >= max_attempts or horizon_total_degree == 0:
            # Weighted (or uniform) draw over the remaining eligible peers
            # to guarantee termination.
            remaining = [
                peer
                for peer in horizon
                if peer not in chosen and overlay.degree(peer) < cutoff
            ]
            if not remaining:
                break
            weights = [max(overlay.degree(peer), 1) for peer in remaining]
            peer = remaining[rng.weighted_index(weights)]
            overlay.add_edge(node, peer)
            chosen.add(peer)
            attempts = 0
            continue
        attempts += 1
        peer = horizon[rng.randint(0, len(horizon) - 1)]
        if peer in chosen or overlay.has_edge(node, peer):
            continue
        degree = overlay.degree(peer)
        if degree >= cutoff:
            continue
        if rng.random() < degree / horizon_total_degree:
            overlay.add_edge(node, peer)
            chosen.add(peer)
