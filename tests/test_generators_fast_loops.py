"""The python tier's inlined-draw loops against the reference loops.

A plain :class:`RandomSource` builds HAPA with ``HAPAGenerator._build_fast``
and runs DAPA's accept/reject attach step through
``DAPAGenerator._attach_preferentially_fast``; both inline CPython's
``_randbelow`` over the raw Mersenne Twister.  The contract is the
reference's exact draw sequence, so every build here is compared with its
reference twin: HAPA through ``_build_reference``, DAPA through a trivial
``RandomSource`` subclass (``raw_stream`` refuses subclasses, so they keep
the reference attach step).  Each comparison covers node order, the frozen
CSR arrays, every neighbor list, ``edges()`` order, the metadata, and the
next ``random()`` draw.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.graph import Graph
from repro.core.rng import RandomSource, raw_stream
from repro.generators import dapa as dapa_module
from repro.generators.dapa import DAPAGenerator
from repro.generators.hapa import HAPAGenerator
from repro.kernels.dispatch import use_kernels


class _SubclassSource(RandomSource):
    """Overrides nothing but ``weighted_index``, which it counts: being a
    subclass is enough to keep the reference attach step."""

    def __init__(self, seed=None):
        super().__init__(seed)
        self.calls = Counter()

    def weighted_index(self, weights):
        self.calls["weighted_index"] += 1
        return super().weighted_index(weights)


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
    """Build with the reference and the fast loop; return both metadata."""
    rng_reference, rng_fast = RandomSource(seed), RandomSource(seed)
    graph_reference, meta_reference = generator._build_reference(rng_reference)
    graph_fast, meta_fast = generator._build_fast(raw_stream(rng_fast), rng_fast)
    _assert_same_graph(graph_reference, graph_fast)
    assert meta_fast == meta_reference
    assert rng_fast.random() == rng_reference.random()
    return meta_reference


def _dapa_pair(generator: DAPAGenerator, seed: int):
    """Generate with a subclass (reference attach) and a plain source (fast
    attach) on the python tier; return the reference result and source."""
    rng_reference, rng_fast = _SubclassSource(seed), RandomSource(seed)
    with use_kernels("python"):
        reference = generator.generate(rng_reference)
        fast = generator.generate(rng_fast)
    _assert_same_graph(reference.graph, fast.graph)
    meta_reference, meta_fast = dict(reference.metadata), dict(fast.metadata)
    _assert_same_graph(meta_reference.pop("substrate_graph"), meta_fast.pop("substrate_graph"))
    assert meta_fast == meta_reference
    assert rng_fast.random() == rng_reference.random()
    return reference, rng_reference


class TestRawStream:
    def test_plain_source_exposes_its_twister(self):
        rng = RandomSource(seed=3)
        stream = raw_stream(rng)
        assert stream is not None
        assert stream.random() == RandomSource(seed=3).random()

    def test_subclasses_and_non_sources_get_none(self):
        assert raw_stream(_SubclassSource(3)) is None
        assert raw_stream(3) is None
        assert raw_stream(None) is None


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

    def test_plain_source_takes_the_fast_loop(self, monkeypatch):
        generator = HAPAGenerator(80, stubs=2, hard_cutoff=6)
        expected = generator._build_reference(RandomSource(seed=9))[0]

        def refuse(self, rng):
            raise AssertionError("a plain source reached _build_reference")

        monkeypatch.setattr(HAPAGenerator, "_build_reference", refuse)
        with use_kernels("python"):
            graph = generator.generate(RandomSource(seed=9)).graph
        _assert_same_graph(expected, graph)

    def test_subclass_keeps_the_reference_loop(self, monkeypatch):
        def refuse(self, stream, rng):
            raise AssertionError("a RandomSource subclass reached _build_fast")

        monkeypatch.setattr(HAPAGenerator, "_build_fast", refuse)
        with use_kernels("python"):
            graph = HAPAGenerator(80, stubs=2, hard_cutoff=6).generate(_SubclassSource(9)).graph
        assert graph.number_of_nodes == 80


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

    def test_weighted_fallback(self, monkeypatch):
        # One attempt per stub: every attach after a rejection falls back
        # to rng.weighted_index over the horizon.
        monkeypatch.setattr(dapa_module, "_MAX_ATTEMPTS_PER_STUB", 1)
        generator = DAPAGenerator(overlay_size=120, stubs=2, hard_cutoff=6, local_ttl=3)
        _, rng_reference = _dapa_pair(generator, seed=5)
        assert rng_reference.calls["weighted_index"] > 0

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
        reference, _ = _dapa_pair(generator, seed=8)
        assert set(reference.graph.nodes()) <= set(ids)
        assert reference.metadata["reached_target"]

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
        reference, _ = _dapa_pair(generator, seed=2)
        assert not reference.metadata["reached_target"]
        assert reference.metadata["overlay_peers"] < 30

    def test_attach_step_forks_on_the_source(self, monkeypatch):
        generator = DAPAGenerator(overlay_size=60, stubs=2, hard_cutoff=6, local_ttl=3)

        def refuse(*args):
            raise AssertionError("the wrong attach step ran")

        with monkeypatch.context() as patch:
            patch.setattr(DAPAGenerator, "_attach_preferentially", staticmethod(refuse))
            with use_kernels("python"):
                generator.generate(RandomSource(seed=3))
        with monkeypatch.context() as patch:
            patch.setattr(DAPAGenerator, "_attach_preferentially_fast", staticmethod(refuse))
            with use_kernels("python"):
                generator.generate(_SubclassSource(3))
