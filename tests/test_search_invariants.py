"""FL, NF, PF and RW on generated overlays, against breadth-first oracles.

Flooding is exact: within ``τ`` hops it reaches every peer at hop distance
``1..τ`` and sends ``deg(source)`` messages plus ``deg(v) - 1`` for every
peer ``v`` it reached before the last hop.  The other policies forward along
a subset of the flood's links, so at every TTL they reach no more peers and
send no more messages than flooding does; NF with a branching factor at the
maximum degree and PF with ``p = 1`` are flooding.  A random walker sends one
message per hop and never leaves the flood's ball.

The overlays are the paper's four models at test size; CM with ``m = 1`` is
disconnected, so component bounds are exercised too.  Flooding runs on the
mutable graph and on its frozen CSR snapshot, whose vectorized BFS is a
separate implementation of the same search.
"""

from __future__ import annotations

from functools import lru_cache

import pytest

from oracles.bfs import bfs_distances
from repro.generators.cm import generate_cm
from repro.generators.dapa import generate_dapa
from repro.generators.hapa import generate_hapa
from repro.generators.pa import generate_pa
from repro.search.flooding import flood
from repro.search.normalized_flooding import normalized_flood
from repro.search.probabilistic_flooding import probabilistic_flood
from repro.search.random_walk import random_walk
from repro.search.registry import create_search_algorithm

TTL = 8

OVERLAYS = {
    "pa": lambda: generate_pa(300, stubs=2, hard_cutoff=10, seed=11),
    "hapa": lambda: generate_hapa(300, stubs=1, hard_cutoff=8, seed=12),
    "dapa": lambda: generate_dapa(200, stubs=2, hard_cutoff=8, local_ttl=3, seed=13),
    "cm": lambda: generate_cm(300, exponent=2.5, min_degree=1, hard_cutoff=15, seed=14),
}
OVERLAY_NAMES = sorted(OVERLAYS)

ALGORITHMS = {
    "fl": {},
    "nf": {"k_min": 2},
    "pf": {"forward_probability": 0.5},
    "rw": {"walkers": 2},
}


@lru_cache(maxsize=None)
def _overlay(name, frozen=False):
    """Each overlay is built once; ``frozen`` gives its CSR snapshot."""
    if frozen:
        return _overlay(name).freeze()
    return OVERLAYS[name]()


def _sources(graph):
    """The first peer, a hub, a least-connected peer and a middle peer."""
    nodes = graph.nodes()
    hub = max(nodes, key=graph.degree)
    leaf = min(nodes, key=graph.degree)
    return [nodes[0], hub, leaf, nodes[len(nodes) // 2]]


def _ball_sizes(distances, ttl):
    """Peers at hop distance 1..t from the source, for t = 0..ttl."""
    return [sum(1 for d in distances.values() if 1 <= d <= t) for t in range(ttl + 1)]


def _flood_messages(graph, source, distances, ttl):
    """Messages a flood sends within t hops, for t = 0..ttl."""
    messages = [0]
    for t in range(1, ttl + 1):
        forwarded = sum(graph.degree(v) - 1 for v, d in distances.items() if 1 <= d < t)
        messages.append(graph.degree(source) + forwarded)
    return messages


def _assert_dominated_by_flood(result, flooded):
    for t in range(result.ttl + 1):
        assert result.hits_at(t) <= flooded.hits_at(t)
        assert result.messages_at(t) <= flooded.messages_at(t)
    assert result.visited <= flooded.visited


@pytest.mark.parametrize("frozen", [False, True], ids=["graph", "csr"])
@pytest.mark.parametrize("name", OVERLAY_NAMES)
class TestFloodingOracle:
    def test_hits_are_bfs_ball_sizes(self, name, frozen):
        graph = _overlay(name)
        searched = _overlay(name, frozen)
        for source in _sources(graph):
            distances = bfs_distances(graph, source)
            result = flood(searched, source, TTL)
            assert result.hits_per_ttl == _ball_sizes(distances, TTL)
            assert result.visited == {v for v, d in distances.items() if d <= TTL}

    def test_messages_are_source_degree_plus_forwarders_degrees(self, name, frozen):
        graph = _overlay(name)
        searched = _overlay(name, frozen)
        for source in _sources(graph):
            distances = bfs_distances(graph, source)
            result = flood(searched, source, TTL)
            assert result.messages_per_ttl == _flood_messages(graph, source, distances, TTL)

    def test_target_found_at_its_bfs_distance(self, name, frozen):
        graph = _overlay(name)
        searched = _overlay(name, frozen)
        for source in _sources(graph):
            distances = bfs_distances(graph, source)
            for target in graph.nodes()[::23]:
                result = flood(searched, source, TTL, target=target)
                distance = distances.get(target)
                if distance is not None and distance <= TTL:
                    assert result.found_at == distance
                    assert result.success
                else:
                    assert result.found_at is None
                    assert not result.success

    def test_flood_at_eccentricity_covers_the_component(self, name, frozen):
        graph = _overlay(name)
        searched = _overlay(name, frozen)
        for source in _sources(graph):
            distances = bfs_distances(graph, source)
            eccentricity = max(distances.values())
            result = flood(searched, source, eccentricity)
            assert result.visited == set(distances)
            assert result.hits == len(distances) - 1
            if eccentricity:
                short = flood(searched, source, eccentricity - 1)
                assert short.hits < result.hits


@pytest.mark.parametrize("name", OVERLAY_NAMES)
class TestNormalizedFlooding:
    @pytest.mark.parametrize("k_min", [1, 2])
    def test_dominated_by_flooding_at_every_ttl(self, name, k_min):
        graph = _overlay(name, frozen=True)
        for seed, source in enumerate(_sources(graph)):
            flooded = flood(graph, source, TTL)
            result = normalized_flood(graph, source, TTL, k_min=k_min, rng=seed)
            _assert_dominated_by_flood(result, flooded)

    def test_branching_at_max_degree_is_flooding(self, name):
        graph = _overlay(name, frozen=True)
        for seed, source in enumerate(_sources(graph)):
            flooded = flood(graph, source, TTL)
            result = normalized_flood(graph, source, TTL, k_min=graph.max_degree(), rng=seed)
            assert result.hits_per_ttl == flooded.hits_per_ttl
            assert result.messages_per_ttl == flooded.messages_per_ttl
            assert result.visited == flooded.visited

    def test_each_forwarder_sends_at_most_kmin_messages(self, name):
        k_min = 2
        graph = _overlay(name, frozen=True)
        for seed, source in enumerate(_sources(graph)):
            result = normalized_flood(graph, source, TTL, k_min=k_min, rng=seed)
            first_hop = min(graph.degree(source), k_min)
            assert result.hits_at(1) == result.messages_at(1) == first_hop
            # The peers first reached at hop t - 1 forward at hop t.
            for t in range(2, TTL + 1):
                forwarders = result.hits_at(t - 1) - result.hits_at(t - 2)
                sent = result.messages_at(t) - result.messages_at(t - 1)
                assert sent <= k_min * forwarders


@pytest.mark.parametrize("name", OVERLAY_NAMES)
class TestProbabilisticFlooding:
    def test_probability_one_is_flooding(self, name):
        graph = _overlay(name, frozen=True)
        for seed, source in enumerate(_sources(graph)):
            flooded = flood(graph, source, TTL)
            result = probabilistic_flood(graph, source, TTL, forward_probability=1.0, rng=seed)
            assert result.hits_per_ttl == flooded.hits_per_ttl
            assert result.messages_per_ttl == flooded.messages_per_ttl
            assert result.visited == flooded.visited

    @pytest.mark.parametrize("probability", [0.3, 0.7])
    def test_dominated_by_flooding_at_every_ttl(self, name, probability):
        graph = _overlay(name, frozen=True)
        for seed, source in enumerate(_sources(graph)):
            flooded = flood(graph, source, TTL)
            result = probabilistic_flood(
                graph, source, TTL, forward_probability=probability, rng=seed
            )
            _assert_dominated_by_flood(result, flooded)


@pytest.mark.parametrize("name", OVERLAY_NAMES)
class TestRandomWalk:
    @pytest.mark.parametrize("walkers", [1, 4])
    def test_each_hop_sends_at_most_one_message_per_walker(self, name, walkers):
        graph = _overlay(name, frozen=True)
        for seed, source in enumerate(_sources(graph)):
            result = random_walk(graph, source, TTL, walkers=walkers, rng=seed)
            for t in range(1, TTL + 1):
                assert 0 <= result.messages_at(t) - result.messages_at(t - 1) <= walkers
                assert result.hits_at(t) <= result.messages_at(t)

    def test_walk_stays_within_ttl_hops(self, name):
        graph = _overlay(name)
        searched = _overlay(name, frozen=True)
        for seed, source in enumerate(_sources(graph)):
            distances = bfs_distances(graph, source, max_depth=TTL)
            for target in graph.nodes()[::37]:
                result = random_walk(searched, source, TTL, walkers=3, rng=seed, target=target)
                assert result.visited <= set(distances)
                if result.success:
                    assert result.found_at >= distances[target]


@pytest.mark.parametrize("walkers", [1, 4])
def test_walkers_never_stop_early_without_dead_ends(walkers):
    """With minimum degree 2 a non-backtracking walker always has a next hop."""
    graph = _overlay("pa", frozen=True)
    assert graph.min_degree() >= 2
    for seed, source in enumerate(_sources(graph)):
        result = random_walk(graph, source, TTL, walkers=walkers, rng=seed)
        assert result.messages_per_ttl == [walkers * t for t in range(TTL + 1)]


@pytest.mark.parametrize("name", OVERLAY_NAMES)
@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
def test_curves_are_cumulative_and_bounded_by_the_component(algorithm, name):
    graph = _overlay(name)
    search = create_search_algorithm(algorithm, **ALGORITHMS[algorithm])
    for seed, source in enumerate(_sources(graph)):
        component = set(bfs_distances(graph, source))
        result = search.run(_overlay(name, frozen=True), source, TTL, rng=seed)
        for curve in (result.hits_per_ttl, result.messages_per_ttl):
            assert len(curve) == TTL + 1
            assert curve[0] == 0
            assert all(a <= b for a, b in zip(curve, curve[1:]))
        assert source in result.visited <= component
        assert result.hits == len(result.visited) - 1 <= len(component) - 1

