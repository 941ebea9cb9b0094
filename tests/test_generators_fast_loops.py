"""The generators' inlined-draw loops against their test oracles.

Every :class:`RandomSource` builds HAPA with ``HAPAGenerator._build_fast``,
and picks DAPA's joining nodes and runs its accept/reject attach step
through ``DAPAGenerator._grow_overlay`` and
``_attach_preferentially_fast``; both inline CPython's ``_randbelow`` over
the source's Mersenne Twister.  The contract is the exact draw sequence of
the loops written with the ``RandomSource`` methods, so every build here
is compared with its oracle (``tests/oracles/hapa.py``,
``tests/oracles/dapa.py``), each side drawing from a logged twister.  Each
comparison covers the sequence of ``getrandbits``/``random`` calls, node
order, the frozen CSR arrays, every neighbor list, ``edges()`` order, the
metadata, and the next ``random()`` draw.  CM's shuffle and the GRN's
positions also draw from the twister (their oracle comparisons are in
``tests/test_generators_bulk_builds.py`` and
``tests/test_draw_free_phases.py``); here, as for HAPA and DAPA, a
counting subclass checks that no draw reaches its methods.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from draw_log import logged_source
from oracles import cm as cm_oracle
from oracles import dapa as dapa_oracle
from oracles import grn as grn_oracle
from oracles import hapa as hapa_oracle
from repro.core.graph import Graph
from repro.core.rng import RandomSource, raw_stream
from repro.generators import dapa as dapa_module
from repro.generators.cm import ConfigurationModelGenerator
from repro.generators.dapa import DAPAGenerator
from repro.generators.degree_sequence import power_law_degree_sequence
from repro.generators.hapa import HAPAGenerator
from repro.substrate.grn import GeometricRandomNetwork


class _CountingSource(RandomSource):
    """Counts the draw-method calls that reach it."""

    def __init__(self, seed=None):
        super().__init__(seed)
        self.calls = Counter()

    def random(self):
        self.calls["random"] += 1
        return super().random()

    def randint(self, low, high):
        self.calls["randint"] += 1
        return super().randint(low, high)

    def choice(self, items):
        self.calls["choice"] += 1
        return super().choice(items)

    def sample(self, items, count):
        self.calls["sample"] += 1
        return super().sample(items, count)

    def shuffle(self, items):
        self.calls["shuffle"] += 1
        return super().shuffle(items)

    def weighted_index(self, weights):
        self.calls["weighted_index"] += 1
        return super().weighted_index(weights)

    def spawn(self, label=""):
        self.calls["spawn"] += 1
        return super().spawn(label)


def _assert_same_graph(reference: Graph, fast: Graph) -> None:
    assert fast.nodes() == reference.nodes()
    frozen_reference, frozen_fast = reference.freeze(), fast.freeze()
    assert np.array_equal(frozen_fast._indptr, frozen_reference._indptr)
    assert np.array_equal(frozen_fast._indices, frozen_reference._indices)
    for node in reference.nodes():
        assert fast.neighbors(node) == reference.neighbors(node)
    assert fast.edges() == reference.edges()
    assert fast.total_degree == reference.total_degree


def _hapa_pair(generator: HAPAGenerator, seed: int):
    """Build with the oracle and the shipped loop; return the metadata."""
    (rng_oracle, calls_oracle), (rng, calls) = logged_source(seed), logged_source(seed)
    graph_oracle, meta_oracle = hapa_oracle.build_reference(generator, rng_oracle)
    graph, meta = generator._build_fast(raw_stream(rng), rng)
    assert calls == calls_oracle
    _assert_same_graph(graph_oracle, graph)
    assert meta == meta_oracle
    assert rng.random() == rng_oracle.random()
    return meta_oracle


def _dapa_pair(generator: DAPAGenerator, seed: int):
    """Build with the oracle and generate with the shipped loop; return the
    shipped result."""
    (rng_oracle, calls_oracle), (rng, calls) = logged_source(seed), logged_source(seed)
    overlay_oracle, meta_oracle = dapa_oracle.build_dapa(generator, rng_oracle)
    result = generator.generate(rng)
    assert calls == calls_oracle
    _assert_same_graph(overlay_oracle, result.graph)
    meta_oracle, meta = dict(meta_oracle), dict(result.metadata)
    _assert_same_graph(meta_oracle.pop("substrate_graph"), meta.pop("substrate_graph"))
    assert meta == meta_oracle
    assert rng.random() == rng_oracle.random()
    return result


class TestRawStream:
    def test_every_source_exposes_its_twister(self):
        for rng in (RandomSource(seed=3), _CountingSource(seed=3)):
            stream = raw_stream(rng)
            assert stream is rng._random
            assert stream.random() == RandomSource(seed=3).random()


class TestHAPAFastLoop:
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        n=st.integers(min_value=2, max_value=90),
        m=st.integers(min_value=1, max_value=3),
        cutoff_slack=st.one_of(st.none(), st.integers(min_value=1, max_value=10)),
        max_hops=st.sampled_from([3, 5, 50, 10_000]),
        seed=st.integers(min_value=0, max_value=2**32),
    )
    def test_property_matches_reference(self, n, m, cutoff_slack, max_hops, seed):
        if m >= n:
            m = n - 1
        cutoff = None if cutoff_slack is None else m + cutoff_slack
        generator = HAPAGenerator(n, stubs=m, hard_cutoff=cutoff, max_hops_per_stub=max_hops)
        _hapa_pair(generator, seed)

    @pytest.mark.parametrize("n, m, cutoff", [(40, 2, 3), (40, 3, 4)])
    @pytest.mark.parametrize("max_hops", [3, 5])
    def test_fallback_and_unfilled_stubs(self, n, m, cutoff, max_hops):
        generator = HAPAGenerator(n, stubs=m, hard_cutoff=cutoff, max_hops_per_stub=max_hops)
        metadata = _hapa_pair(generator, seed=1)
        assert metadata["fallback_attachments"] > 0
        assert metadata["unfilled_stubs"] > 0

    @pytest.mark.parametrize("m, cutoff", [(1, 1), (2, 2), (3, None)])
    def test_seed_clique_is_the_whole_graph(self, m, cutoff):
        # n == m + 1: no growth phase, and no draws either.
        generator = HAPAGenerator(m + 1, stubs=m, hard_cutoff=cutoff)
        assert _hapa_pair(generator, seed=4)["total_hops"] == 0

    @pytest.mark.parametrize("n, m", [(300, 1), (300, 2), (120, 3)])
    def test_without_cutoff(self, n, m):
        _hapa_pair(HAPAGenerator(n, stubs=m, hard_cutoff=None), seed=11)

    def test_paper_shape(self):
        _hapa_pair(HAPAGenerator(420, stubs=2, hard_cutoff=40), seed=101)

    def test_a_subclass_draws_from_its_twister(self):
        # Subclass or not, the one loop draws past the overridden methods.
        generator = HAPAGenerator(80, stubs=2, hard_cutoff=6)
        expected = hapa_oracle.build_reference(generator, RandomSource(seed=9))[0]
        rng = _CountingSource(9)
        graph = generator.generate(rng).graph
        _assert_same_graph(expected, graph)
        assert not rng.calls


class TestDAPAFastAttach:
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        overlay_size=st.integers(min_value=5, max_value=60),
        m=st.integers(min_value=1, max_value=3),
        cutoff_slack=st.one_of(st.none(), st.integers(min_value=0, max_value=6)),
        local_ttl=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=2**32),
    )
    def test_property_matches_reference(self, overlay_size, m, cutoff_slack, local_ttl, seed):
        cutoff = None if cutoff_slack is None else m + cutoff_slack
        generator = DAPAGenerator(
            overlay_size=overlay_size, stubs=m, hard_cutoff=cutoff, local_ttl=local_ttl
        )
        _dapa_pair(generator, seed)

    @pytest.mark.parametrize("max_attempts", [1, 2, 3, 7])
    def test_weighted_fallback(self, monkeypatch, max_attempts):
        # A few attempts per stub: attaches fall back to rng.weighted_index
        # over the horizon.  The attempt budget carries over from stub to
        # stub and resets only at a fallback, as in the oracle.
        monkeypatch.setattr(dapa_module, "_MAX_ATTEMPTS_PER_STUB", max_attempts)
        fallbacks = []
        weighted_index = RandomSource.weighted_index

        def spy(self, weights):
            fallbacks.append(len(weights))
            return weighted_index(self, weights)

        monkeypatch.setattr(RandomSource, "weighted_index", spy)
        generator = DAPAGenerator(overlay_size=120, stubs=2, hard_cutoff=6, local_ttl=3)
        _dapa_pair(generator, seed=5)
        assert fallbacks

    def test_explicit_substrate_with_sparse_ids(self):
        ids = [7 + 5 * index for index in range(60)]
        substrate = Graph()
        for node in ids:
            substrate.add_node(node)
        for index, node in enumerate(ids):
            substrate.add_edge(node, ids[(index + 1) % len(ids)])
            substrate.add_edge(node, ids[(index + 11) % len(ids)])
        generator = DAPAGenerator(
            overlay_size=40, stubs=2, hard_cutoff=5, local_ttl=3, substrate_graph=substrate
        )
        result = _dapa_pair(generator, seed=8)
        assert set(result.graph.nodes()) <= set(ids)
        assert result.metadata["reached_target"]

    def test_a_subclass_draws_from_its_twister(self):
        # The join picks and the attach step draw past the overridden
        # methods; only the seed peers (sample) and the substrate's child
        # source (spawn) go through them.
        generator = DAPAGenerator(overlay_size=150, stubs=2, hard_cutoff=10, local_ttl=4)
        oracle_rng = RandomSource(seed=9)
        expected = dapa_oracle.build_dapa(generator, oracle_rng)[0]
        rng = _CountingSource(9)
        graph = generator.generate(rng).graph
        _assert_same_graph(expected, graph)
        assert rng.getstate() == oracle_rng.getstate()
        assert rng.calls == {"spawn": 1, "sample": 1}

    def test_disconnected_substrate_stops_without_progress(self):
        # A 20-node ring plus 30 isolated nodes: at most the ring and the
        # seeds can join, so the 30-peer target is out of reach.
        ring = 20
        edges = [(index, (index + 1) % ring) for index in range(ring)]
        edges += [(index, (index + 3) % ring) for index in range(ring)]
        substrate = Graph.from_edges(50, edges)
        generator = DAPAGenerator(
            overlay_size=30, stubs=2, hard_cutoff=6, local_ttl=2, substrate_graph=substrate
        )
        result = _dapa_pair(generator, seed=2)
        assert not result.metadata["reached_target"]
        assert result.metadata["overlay_peers"] < 30


class TestCMFastShuffle:
    def test_a_subclass_draws_from_its_twister(self):
        # The sequence is sampled up front: its parity fix draws one
        # randint through the method, outside the shuffle.
        sequence = power_law_degree_sequence(300, 2.5, min_degree=2, max_degree=20, rng=3)
        generator = ConfigurationModelGenerator(300, degree_sequence=sequence)
        oracle_rng = RandomSource(seed=9)
        expected = cm_oracle.build_cm(generator, oracle_rng)[0]
        rng = _CountingSource(9)
        graph = generator.generate(rng).graph
        _assert_same_graph(expected, graph)
        assert rng.getstate() == oracle_rng.getstate()
        assert not rng.calls


class TestGRNPositions:
    def test_a_subclass_draws_from_its_twister(self):
        builder = GeometricRandomNetwork(400, radius=0.1)
        oracle_rng = RandomSource(seed=9)
        expected = grn_oracle.build_grn(builder, oracle_rng)
        expected_positions = dict(builder.positions)
        rng = _CountingSource(9)
        graph = builder.build(rng)
        _assert_same_graph(expected, graph)
        assert builder.positions == expected_positions
        assert rng.getstate() == oracle_rng.getstate()
        assert not rng.calls
