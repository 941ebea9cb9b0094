"""PA's roulette loop and CM's stub matching against the loops they replaced.

Both builds now work on flat lists and numpy arrays and hand ordered edge
arrays to ``Graph.from_edge_array``; the oracles in ``tests/oracles/`` grow
the same networks edge by edge on the mutable ``Graph``.  Each property
compares the sequence of twister calls (both sides draw from a logged
twister), the CSR arrays, the node order, the metadata with its key order
and the next draw.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from draw_log import logged_source
from oracles import cm as cm_oracle
from oracles import pa as pa_oracle
from repro.core.graph import Graph
from repro.generators import pa as pa_module
from repro.generators.cm import ConfigurationModelGenerator
from repro.generators.pa import PreferentialAttachmentGenerator


def _build_pair(oracle_build, generator, seed):
    """Build with the oracle and the shipped loop; compare them."""
    (rng_oracle, calls_oracle), (rng, calls) = logged_source(seed), logged_source(seed)
    graph_oracle, meta_oracle = oracle_build(generator, rng_oracle)
    graph, meta = generator._build(rng)
    assert calls == calls_oracle
    assert graph.nodes() == graph_oracle.nodes()
    frozen_oracle, frozen = graph_oracle.freeze(), graph.freeze()
    assert np.array_equal(frozen._indptr, frozen_oracle._indptr)
    assert np.array_equal(frozen._indices, frozen_oracle._indices)
    assert list(meta.items()) == list(meta_oracle.items())
    assert rng.random() == rng_oracle.random()
    return graph, meta


def _pa_pair(generator, seed):
    return _build_pair(pa_oracle.build_pa, generator, seed)


def _cm_pair(generator, seed):
    return _build_pair(cm_oracle.build_cm, generator, seed)


@st.composite
def pa_generators(draw):
    n = draw(st.integers(min_value=2, max_value=300))
    m = draw(st.integers(min_value=1, max_value=min(5, n - 1)))
    cutoff = draw(st.one_of(st.none(), st.integers(min_value=m + 1, max_value=m + 6)))
    return PreferentialAttachmentGenerator(n, stubs=m, hard_cutoff=cutoff)


class TestPARoulette:
    @settings(max_examples=150, deadline=None)
    @given(
        generator=pa_generators(),
        scan_only=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**32),
    )
    def test_property_matches_graph_loop(self, generator, scan_only, seed):
        # With the rejection loop disabled every stub goes through the
        # degree-weighted fallback scan.
        cap = 0 if scan_only else pa_module._MAX_REJECTIONS_PER_STUB
        with mock.patch.object(pa_module, "_MAX_REJECTIONS_PER_STUB", cap):
            _pa_pair(generator, seed)

    def test_artefact_search_shape(self):
        generator = PreferentialAttachmentGenerator(1400, stubs=2, hard_cutoff=10)
        _, meta = _pa_pair(generator, seed=3)
        assert meta["rejected_attempts"] > 0

    def test_tight_cutoff_leaves_unfilled_stubs(self):
        # kc == m + 1 makes doomed picks common: the live-entry audit must
        # skip them without a draw on both sides.
        generator = PreferentialAttachmentGenerator(120, stubs=3, hard_cutoff=4)
        _, meta = _pa_pair(generator, seed=8)
        assert meta["unfilled_stubs"] > 0

    def test_seed_clique_only(self):
        generator = PreferentialAttachmentGenerator(4, stubs=3)
        graph, meta = _pa_pair(generator, seed=1)
        assert graph.edges() == Graph.complete(4).edges()
        assert meta["rejected_attempts"] == meta["unfilled_stubs"] == 0


@st.composite
def explicit_sequences(draw):
    """Short sequences with big degrees: self-loops and repeats abound."""
    n = draw(st.integers(min_value=2, max_value=12))
    degrees = draw(st.lists(st.integers(min_value=0, max_value=30), min_size=n, max_size=n))
    if draw(st.booleans()):
        # A one-node hub holding most of the stubs.
        degrees[draw(st.integers(min_value=0, max_value=n - 1))] = draw(
            st.integers(min_value=20, max_value=80)
        )
    if sum(degrees) % 2:
        degrees[0] += 1
    return degrees


class TestCMStubMatching:
    @settings(max_examples=150, deadline=None)
    @given(
        sequence=explicit_sequences(),
        seed=st.integers(min_value=0, max_value=2**32),
    )
    def test_property_explicit_sequences(self, sequence, seed):
        generator = ConfigurationModelGenerator(len(sequence), degree_sequence=sequence)
        _cm_pair(generator, seed)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(min_value=8, max_value=300),
        exponent=st.floats(min_value=2.0, max_value=3.5),
        min_degree=st.integers(min_value=1, max_value=3),
        cutoff_share=st.one_of(st.none(), st.floats(min_value=0.0, max_value=1.0)),
        seed=st.integers(min_value=0, max_value=2**32),
    )
    def test_property_sampled_sequences(self, n, exponent, min_degree, cutoff_share, seed):
        # At least two degree values, so an even-sum sequence always exists.
        cutoff = (
            None
            if cutoff_share is None
            else min_degree + 1 + round(cutoff_share * (n - min_degree - 1))
        )
        generator = ConfigurationModelGenerator(
            n, exponent=exponent, min_degree=min_degree, hard_cutoff=cutoff
        )
        _cm_pair(generator, seed)

    def test_hub_pairs_only_with_itself(self):
        # Every pair is a self-loop: no edge survives, every node is isolated.
        generator = ConfigurationModelGenerator(3, degree_sequence=[40, 0, 0])
        graph, meta = _cm_pair(generator, seed=2)
        assert graph.number_of_edges == 0
        assert meta["removed_self_loops"] == 20
        assert meta["isolated_nodes"] == 3

    def test_two_nodes_link_once(self):
        # Two nodes: every pair is a self-loop or links 0 and 1, and all but
        # the first 0-1 pair repeat it.
        generator = ConfigurationModelGenerator(2, degree_sequence=[6, 6])
        graph, meta = _cm_pair(generator, seed=4)
        assert graph.number_of_edges == 1
        assert meta["removed_self_loops"] + meta["removed_multi_edges"] == 5

    def test_artefact_search_shape(self):
        generator = ConfigurationModelGenerator(1400, exponent=2.2, min_degree=2, hard_cutoff=40)
        _, meta = _cm_pair(generator, seed=3)
        assert meta["removed_multi_edges"] > 0
