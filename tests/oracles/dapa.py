"""DAPA's python-tier build with its deque horizon BFS and the dict GRN sweep.

This is ``DAPAGenerator``'s python tier as it ran before its two draw-free
phases were rewritten: the substrate comes from the dict cell sweep
(:mod:`oracles.grn`), and every joining node discovers its horizon with a
``deque`` BFS over ``Graph.iter_neighbors``, with peer membership in a set
and overlay degrees read from the overlay graph.  The draws are untouched:
the seed sample, the join picks and the attach step (which still forks on
:func:`~repro.core.rng.raw_stream` between the generator's two attach
methods) are the generator's own.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Dict, List, Set, Tuple

from oracles.grn import build_grn
from repro.core.config import GRNConfig, MeshConfig
from repro.core.errors import ConfigurationError, GenerationError
from repro.core.graph import Graph
from repro.core.rng import RandomSource, raw_stream
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
    stream = raw_stream(rng)
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
        elif stream is None:
            generator._attach_preferentially(overlay, node, horizon, m, cutoff, rng)
        else:
            degrees = [overlay.degree(peer) for peer in horizon]
            generator._attach_preferentially_fast(
                overlay, node, horizon, degrees, m, cutoff, rng, stream
            )
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
