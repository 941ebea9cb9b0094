"""Unit tests for the Gnutella-like query protocol."""

from __future__ import annotations

import pytest

from repro.core.errors import SimulationError
from repro.simulation.network import P2PNetwork
from repro.simulation.protocol import GnutellaProtocol


def build_network(peers: int = 40, cutoff: int = 6, seed: int = 3) -> P2PNetwork:
    network = P2PNetwork(hard_cutoff=cutoff, stubs=2, rng=seed)
    for _ in range(peers):
        network.join()
    return network


class TestFloodingQueries:
    def test_query_finds_provider(self):
        network = build_network()
        provider = network.online_peers()[-1]
        network.peer(provider).share("song.mp3")
        protocol = GnutellaProtocol(network, policy="fl", rng=1)
        stats = protocol.query(network.online_peers()[0], "song.mp3", ttl=8)
        assert stats.success
        assert provider in stats.providers
        assert stats.first_hit_time is not None

    def test_query_miss(self):
        network = build_network()
        protocol = GnutellaProtocol(network, policy="fl", rng=1)
        stats = protocol.query(network.online_peers()[0], "missing-item", ttl=6)
        assert not stats.success
        assert stats.hit_messages == 0

    def test_flooding_reaches_whole_component(self):
        network = build_network(peers=30)
        protocol = GnutellaProtocol(network, policy="fl", rng=2)
        stats = protocol.query(network.online_peers()[0], "x", ttl=15)
        assert stats.peers_reached == network.peer_count - 1

    def test_peers_reached_counts_distinct_peers_once(self):
        network = build_network(peers=25)
        protocol = GnutellaProtocol(network, policy="fl", rng=3)
        stats = protocol.query(network.online_peers()[0], "x", ttl=20)
        assert stats.peers_reached <= network.peer_count - 1

    def test_single_provider_answers_once(self):
        network = build_network(peers=30)
        provider = network.online_peers()[5]
        network.peer(provider).share("rare")
        protocol = GnutellaProtocol(network, policy="fl", rng=4)
        stats = protocol.query(network.online_peers()[0], "rare", ttl=12)
        assert stats.hit_messages == 1
        assert stats.providers == {provider}


class TestPolicies:
    def test_nf_uses_fewer_messages_than_fl(self):
        network = build_network(peers=60, seed=5)
        target = network.online_peers()[10]
        network.peer(target).share("item")
        source = network.online_peers()[0]

        fl_stats = GnutellaProtocol(network, policy="fl", rng=6).query(source, "item", ttl=5)
        for peer_id in network.online_peers():
            network.peer(peer_id).seen_messages.clear()
        nf_stats = GnutellaProtocol(network, policy="nf", k_min=2, rng=6).query(
            source, "item", ttl=5
        )
        assert nf_stats.query_messages < fl_stats.query_messages

    def test_rw_sends_one_message_per_hop(self):
        network = build_network(peers=30, seed=7)
        protocol = GnutellaProtocol(network, policy="rw", rng=8)
        stats = protocol.query(network.online_peers()[0], "nothing", ttl=10)
        assert stats.query_messages <= 10

    def test_multiple_walkers(self):
        network = build_network(peers=30, seed=9)
        protocol = GnutellaProtocol(network, policy="rw", walkers=4, rng=10)
        stats = protocol.query(network.online_peers()[0], "nothing", ttl=5)
        assert stats.query_messages <= 4 * 5
        assert stats.query_messages > 5  # more than a single walker would send

    def test_policy_override_per_query(self):
        network = build_network(peers=20, seed=11)
        protocol = GnutellaProtocol(network, policy="fl", rng=12)
        stats = protocol.query(network.online_peers()[0], "y", ttl=4, policy="nf")
        assert stats.policy == "nf"

    def test_invalid_policy_rejected(self):
        network = build_network(peers=10, seed=13)
        with pytest.raises(SimulationError):
            GnutellaProtocol(network, policy="dht")
        protocol = GnutellaProtocol(network, policy="fl", rng=14)
        with pytest.raises(SimulationError):
            protocol.query(network.online_peers()[0], "z", ttl=3, policy="chord")

    def test_invalid_ttl_and_walkers(self):
        network = build_network(peers=10, seed=15)
        protocol = GnutellaProtocol(network, rng=16)
        with pytest.raises(SimulationError):
            protocol.query(network.online_peers()[0], "z", ttl=0)
        with pytest.raises(SimulationError):
            GnutellaProtocol(network, walkers=0)


class TestAccounting:
    def test_stats_for_lookup(self):
        network = build_network(peers=15, seed=17)
        protocol = GnutellaProtocol(network, policy="fl", rng=18)
        stats = protocol.query(network.online_peers()[0], "q", ttl=3)
        assert protocol.stats_for(stats.query_id) is stats
        with pytest.raises(SimulationError):
            protocol.stats_for(999_999)

    def test_as_dict_summary(self):
        network = build_network(peers=15, seed=19)
        provider = network.online_peers()[3]
        network.peer(provider).share("doc")
        protocol = GnutellaProtocol(network, policy="fl", rng=20)
        stats = protocol.query(network.online_peers()[0], "doc", ttl=6)
        payload = stats.as_dict()
        assert payload["success"] is True
        assert payload["providers"] == [provider]
        assert payload["total_messages"] if "total_messages" in payload else True
        assert stats.total_messages == stats.query_messages + stats.hit_messages

    def test_peer_counters_incremented(self):
        network = build_network(peers=20, seed=21)
        protocol = GnutellaProtocol(network, policy="fl", rng=22)
        source = network.online_peers()[0]
        protocol.query(source, "anything", ttl=6)
        forwarded = sum(network.peer(p).messages_forwarded for p in network.online_peers())
        received = sum(network.peer(p).messages_received for p in network.online_peers())
        assert forwarded > 0
        assert received > 0


class TestBatchQueries:
    """query_batch: synchronous FIFO semantics over the frozen overlay."""

    def test_batch_finds_provider(self):
        network = build_network(peers=30, seed=23)
        provider = network.online_peers()[-1]
        network.peer(provider).share("song.mp3")
        protocol = GnutellaProtocol(network, policy="fl", rng=24)
        sources = network.online_peers()[:5]
        stats_list = protocol.query_batch(sources, "song.mp3", ttl=12)
        assert len(stats_list) == len(sources)
        for stats in stats_list:
            assert stats.success
            assert stats.providers == {provider}
            assert stats.hit_messages == 1
            # first_hit_time is a hop count here, within the ttl budget.
            assert 1.0 <= stats.first_hit_time <= 12.0
            assert protocol.stats_for(stats.query_id) is stats

    def test_batch_flooding_reaches_whole_component(self):
        network = build_network(peers=25, seed=25)
        protocol = GnutellaProtocol(network, policy="fl", rng=26)
        stats_list = protocol.query_batch(network.online_peers()[:3], "x", ttl=20)
        for stats in stats_list:
            assert stats.peers_reached == network.peer_count - 1

    def test_batch_random_walk_message_budget(self):
        network = build_network(peers=30, seed=29)
        protocol = GnutellaProtocol(network, policy="rw", walkers=3, rng=30)
        stats_list = protocol.query_batch(network.online_peers()[:4], "x", ttl=5)
        for stats in stats_list:
            # Each of the <= 3 walkers sends at most one message per hop.
            assert stats.query_messages <= 3 * 5

    def test_batch_validates_inputs(self):
        network = build_network(peers=10, seed=31)
        protocol = GnutellaProtocol(network, rng=32)
        source = network.online_peers()[0]
        with pytest.raises(SimulationError):
            protocol.query_batch([source], "x", ttl=0)
        with pytest.raises(SimulationError):
            protocol.query_batch([source], "x", policy="bogus")
        with pytest.raises(SimulationError):
            protocol.query_batch([999_999], "x")

    def test_batch_leaves_peer_counters_untouched(self):
        network = build_network(peers=20, seed=33)
        protocol = GnutellaProtocol(network, policy="fl", rng=34)
        protocol.query_batch(network.online_peers()[:3], "x", ttl=6)
        assert all(
            network.peer(p).messages_forwarded == 0
            for p in network.online_peers()
        )

    def test_batch_reference_function_matches_method(self):
        import numpy as np

        from repro.core.rng import RandomSource
        from repro.simulation.protocol import batch_query_reference

        network = build_network(peers=20, seed=35)
        provider = network.online_peers()[4]
        network.peer(provider).share("doc")
        frozen = network.graph.freeze()
        provider_mask = np.zeros(network.peer_count, dtype=np.bool_)
        provider_mask[frozen._row_of(provider)] = True
        sources = network.online_peers()[:3]
        rows = [frozen._row_of(s) for s in sources]

        protocol = GnutellaProtocol(network, policy="fl", rng=36)
        stats_list = protocol.query_batch(sources, "doc", ttl=8)
        reached, query_messages, hit_messages, first_hits, providers = (
            batch_query_reference(
                frozen, rows, 8, "fl", protocol._branching(), 1, provider_mask,
                RandomSource(seed=36),
            )
        )
        for index, stats in enumerate(stats_list):
            assert stats.peers_reached == reached[index]
            assert stats.query_messages == query_messages[index]
            assert stats.hit_messages == hit_messages[index]
            assert stats.providers == {
                frozen._id_of(row) for row in providers[index]
            }
