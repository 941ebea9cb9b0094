"""DAPA's draw-free phases against the scalar loops they replaced.

The GRN cell sweep (:func:`repro.substrate.grn.sweep_cells`) and DAPA's
level-by-level horizon BFS (``DAPAGenerator._discover_horizon``) consume no
draws, so they are draw-identical to the old loops exactly when they return
the same ordered lists.  These properties compare them with the oracles in
``tests/oracles/``: the dict sweep and the deque BFS (the DAPA oracle also
runs the reference attach step).  A GRN comparison covers the edges, every
neighbor list, the positions and the next draw; a DAPA comparison covers
the sequence of twister calls, the overlay's node order, neighbor lists
and ``edges()`` order, the substrate, the metadata and the next draw.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from draw_log import logged_source
from oracles import dapa as dapa_oracle
from oracles import grn as grn_oracle
from repro.core.config import GRNConfig, MeshConfig
from repro.core.graph import Graph
from repro.core.rng import RandomSource
from repro.generators.dapa import DAPAGenerator
from repro.substrate.grn import GeometricRandomNetwork


class _SubclassSource(RandomSource):
    """Overrides nothing: a subclass runs the same loops as a plain source."""


def _assert_same_graph(expected: Graph, actual: Graph) -> None:
    assert actual.nodes() == expected.nodes()
    for node in expected.nodes():
        assert actual.iter_neighbors(node) == expected.iter_neighbors(node)
    assert actual.edges() == expected.edges()
    assert actual.number_of_edges == expected.number_of_edges


def _grn_pair(n, radius, dimensions, torus, seed):
    """Build with the dict sweep and the shipped sweep; compare; return the graph."""
    oracle_builder = GeometricRandomNetwork(n, radius=radius, dimensions=dimensions, torus=torus)
    builder = GeometricRandomNetwork(n, radius=radius, dimensions=dimensions, torus=torus)
    rng_oracle, rng = RandomSource(seed), RandomSource(seed)
    expected = grn_oracle.build_grn(oracle_builder, rng_oracle)
    graph = builder.build(rng)
    _assert_same_graph(expected, graph)
    assert builder.positions == oracle_builder.positions
    assert rng.random() == rng_oracle.random()
    return graph


class TestGRNSweep:
    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=70),
        dimensions=st.integers(min_value=1, max_value=3),
        torus=st.booleans(),
        radius=st.one_of(
            # cells_per_side above 2, exactly 2 and 1, and the complete graph.
            st.floats(min_value=1e-4, max_value=1 / 3),
            st.floats(min_value=0.34, max_value=0.5),
            st.floats(min_value=0.5, max_value=1.0, exclude_min=True),
            st.sampled_from([1e-4, 0.25, 1 / 3, 0.5, 1.0, math.sqrt(3)]),
        ),
        seed=st.integers(min_value=0, max_value=2**32),
    )
    def test_property_matches_dict_sweep(self, n, dimensions, torus, radius, seed):
        _grn_pair(n, min(radius, math.sqrt(dimensions)), dimensions, torus, seed)

    @pytest.mark.parametrize("dimensions", [1, 2, 3])
    @pytest.mark.parametrize("torus", [False, True])
    @pytest.mark.parametrize("radius", [0.1, 0.2, 0.34, 0.45, 0.6])
    def test_cells_per_side_many_two_and_one(self, dimensions, torus, radius):
        # floor(1 / radius): 10, 5, 2, 2, 1 cells per side.
        graph = _grn_pair(60, radius, dimensions, torus, seed=dimensions)
        assert graph.number_of_edges > 0

    @pytest.mark.parametrize("dimensions", [1, 2, 3])
    @pytest.mark.parametrize("torus", [False, True])
    def test_radius_too_small_for_any_edge(self, dimensions, torus):
        assert _grn_pair(12, 1e-9, dimensions, torus, seed=4).number_of_edges == 0

    @pytest.mark.parametrize("dimensions", [1, 2, 3])
    @pytest.mark.parametrize("torus", [False, True])
    def test_radius_spanning_the_box_is_complete(self, dimensions, torus):
        n = 25
        graph = _grn_pair(n, math.sqrt(dimensions), dimensions, torus, seed=8)
        assert graph.number_of_edges == n * (n - 1) // 2

    def test_paper_shape_torus(self):
        _grn_pair(3000, GRNConfig(3000, target_mean_degree=10.0).effective_radius(), 2, True, 1)


def _explicit_substrate(ids, edges):
    graph = Graph()
    for node in ids:
        graph.add_node(node)
    for a, b in edges:
        if a != b:
            graph.add_edge(ids[a], ids[b])
    return graph


@st.composite
def _dapa_generators(draw):
    overlay = draw(st.integers(min_value=2, max_value=40))
    m = draw(st.integers(min_value=1, max_value=3))
    cutoff = draw(st.one_of(st.none(), st.integers(min_value=m, max_value=m + 3)))
    local_ttl = draw(st.integers(min_value=1, max_value=10))
    kind = draw(st.sampled_from(["default", "grn", "mesh", "explicit"]))
    substrate_graph = substrate_config = None
    if kind == "grn":
        substrate_config = GRNConfig(
            number_of_nodes=draw(st.integers(min_value=overlay, max_value=2 * overlay + 20)),
            target_mean_degree=draw(st.floats(min_value=1.0, max_value=12.0)),
            dimensions=draw(st.integers(min_value=1, max_value=3)),
            torus=draw(st.booleans()),
        )
    elif kind == "mesh":
        rows = draw(st.integers(min_value=2, max_value=9))
        least = max(2, -(-overlay // rows))
        columns = draw(st.integers(min_value=least, max_value=least + 4))
        substrate_config = MeshConfig(rows=rows, columns=columns, torus=draw(st.booleans()))
    elif kind == "explicit":
        # Sparse ids in drawn (unsorted) order and a drawn edge list, which
        # often leaves the substrate in several parts.
        ids = draw(
            st.lists(
                st.integers(min_value=0, max_value=10_000),
                min_size=overlay,
                max_size=overlay + 30,
                unique=True,
            )
        )
        index = st.integers(min_value=0, max_value=len(ids) - 1)
        edges = draw(st.lists(st.tuples(index, index), max_size=3 * len(ids)))
        substrate_graph = _explicit_substrate(ids, edges)
    generator = DAPAGenerator(
        overlay_size=overlay,
        stubs=m,
        hard_cutoff=cutoff,
        local_ttl=local_ttl,
        substrate_graph=substrate_graph,
        substrate_config=substrate_config,
    )
    return generator


def _dapa_pair(generator, seed, source_class=RandomSource):
    """Generate with a ``source_class`` source and with the oracle on a
    plain one; compare everything."""
    rng_oracle, calls_oracle = logged_source(seed)
    rng, calls = logged_source(seed, source_class)
    overlay_oracle, metadata_oracle = dapa_oracle.build_dapa(generator, rng_oracle)
    result = generator.generate(rng)
    assert calls == calls_oracle
    _assert_same_graph(overlay_oracle, result.graph)
    metadata_oracle, metadata = dict(metadata_oracle), dict(result.metadata)
    _assert_same_graph(metadata_oracle.pop("substrate_graph"), metadata.pop("substrate_graph"))
    assert metadata == metadata_oracle
    assert rng.random() == rng_oracle.random()
    return result


class TestDAPAHorizon:
    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        generator=_dapa_generators(),
        source_class=st.sampled_from([RandomSource, _SubclassSource]),
        seed=st.integers(min_value=0, max_value=2**32),
    )
    def test_property_matches_deque_bfs(self, generator, source_class, seed):
        _dapa_pair(generator, seed, source_class)

    @pytest.mark.parametrize("local_ttl", [1, 2, 4, 10])
    @pytest.mark.parametrize("source_class", [RandomSource, _SubclassSource])
    def test_workload_shape(self, local_ttl, source_class):
        generator = DAPAGenerator(overlay_size=420, stubs=2, hard_cutoff=10, local_ttl=local_ttl)
        result = _dapa_pair(generator, 3, source_class)
        assert result.metadata["reached_target"]

    @pytest.mark.parametrize("cutoff", [None, 2])
    def test_sparse_ids_on_a_ring(self, cutoff):
        ids = [7 + 5 * index for index in range(60)][::-1]
        edges = [(index, (index + 1) % 60) for index in range(60)]
        edges += [(index, (index + 11) % 60) for index in range(60)]
        generator = DAPAGenerator(
            overlay_size=40,
            stubs=2,
            hard_cutoff=cutoff,
            local_ttl=3,
            substrate_graph=_explicit_substrate(ids, edges),
        )
        result = _dapa_pair(generator, 8)
        assert set(result.graph.nodes()) <= set(ids)

    def test_disconnected_substrate_stops_without_progress(self):
        # A 20-node ring plus 30 isolated nodes: the 30-peer target is out
        # of reach, and both loops give up after the same empty horizons.
        ring = 20
        edges = [(index, (index + 1) % ring) for index in range(ring)]
        edges += [(index, (index + 3) % ring) for index in range(ring)]
        generator = DAPAGenerator(
            overlay_size=30,
            stubs=2,
            hard_cutoff=6,
            local_ttl=2,
            substrate_graph=Graph.from_edges(50, edges),
        )
        result = _dapa_pair(generator, 2)
        assert not result.metadata["reached_target"]
        assert result.metadata["empty_horizons"] > 0

    @pytest.mark.parametrize("torus", [False, True])
    def test_mesh_substrate(self, torus):
        generator = DAPAGenerator(
            overlay_size=50,
            stubs=2,
            hard_cutoff=4,
            local_ttl=2,
            substrate_config=MeshConfig(rows=8, columns=9, torus=torus),
        )
        _dapa_pair(generator, 6)
