"""Unit tests for the geometric-random-network substrate."""

from __future__ import annotations

import math

import numpy as np
import pytest

from oracles import grn as grn_oracle
from repro.analysis.components import giant_component_fraction
from repro.core.errors import ConfigurationError
from repro.core.rng import RandomSource
from repro.substrate.grn import (
    CRITICAL_MEAN_DEGREE_2D,
    GeometricRandomNetwork,
    bucket_cells,
    generate_grn,
    sweep_cells,
)


class TestTorusCellPairDedupe:
    """Torus wrap with few cells: each unordered cell pair swept exactly once.

    With ``cells_per_side == 1`` (radius >= 0.5) every ±1 offset wraps back
    onto the home cell; without the dedupe the sweep would enumerate the
    same cell pair for all 3^d offsets, burning 9× the distance checks in
    2-D.  The dict sweep (``tests/oracles/grn.py``) counts its scalar
    distance calls; the shipped numpy sweep reports how many candidate
    pairs it tested.
    """

    def test_large_radius_torus_checks_each_pair_once(self, monkeypatch):
        calls = {"count": 0}
        original = grn_oracle.distance_squared

        def counting(a, b, torus):
            calls["count"] += 1
            return original(a, b, torus)

        monkeypatch.setattr(grn_oracle, "distance_squared", counting)
        n = 12
        builder = GeometricRandomNetwork(n, radius=0.8, torus=True)
        graph = grn_oracle.build_grn(builder, RandomSource(seed=6))
        # On the torus no pair is farther than sqrt(2)/2 < 0.8, so the
        # graph is complete and every pair was checked exactly once.
        assert graph.number_of_edges == n * (n - 1) // 2
        assert calls["count"] == n * (n - 1) // 2

    def test_shipped_sweep_tests_each_pair_once(self):
        n = 12
        builder = GeometricRandomNetwork(n, radius=0.8, torus=True)
        builder.build(RandomSource(seed=6))
        positions = np.array([builder.positions[node] for node in range(n)])
        grid = bucket_cells(positions, 1)
        edge_u, _, tested = sweep_cells(positions, grid, 1, True, 0.8 * 0.8)
        assert len(edge_u) == n * (n - 1) // 2
        assert tested == n * (n - 1) // 2

    def test_wrapped_sweep_produces_same_graph_as_wide_grid(self):
        # The dedupe must not change results: a radius just below 0.5
        # (two cells per side, wrap still collapses offsets) agrees with
        # the brute-force distance filter.
        builder = GeometricRandomNetwork(40, radius=0.45, torus=True)
        graph = builder.build(RandomSource(seed=17))
        positions = builder.positions
        expected = set()
        for u in range(40):
            for v in range(u + 1, 40):
                if (
                    grn_oracle.distance_squared(positions[u], positions[v], True)
                    <= 0.45 * 0.45
                ):
                    expected.add((u, v))
        actual = {(min(u, v), max(u, v)) for u, v in graph.edges()}
        assert actual == expected


class TestConstruction:
    def test_node_count(self):
        graph = generate_grn(300, target_mean_degree=8.0, seed=1)
        assert graph.number_of_nodes == 300

    def test_reproducible(self):
        a = generate_grn(200, target_mean_degree=6.0, seed=3)
        b = generate_grn(200, target_mean_degree=6.0, seed=3)
        assert a == b

    def test_mean_degree_close_to_target(self):
        graph = generate_grn(1500, target_mean_degree=10.0, seed=5, torus=True)
        assert graph.mean_degree() == pytest.approx(10.0, rel=0.25)

    def test_boundary_effects_reduce_mean_degree(self):
        torus = generate_grn(800, target_mean_degree=8.0, seed=7, torus=True)
        box = generate_grn(800, target_mean_degree=8.0, seed=7, torus=False)
        assert box.mean_degree() <= torus.mean_degree()

    def test_explicit_radius(self):
        builder = GeometricRandomNetwork(100, radius=0.2, seed=2)
        graph = builder.generate_graph()
        assert graph.number_of_nodes == 100
        assert builder.positions  # positions recorded for the last build

    def test_edges_respect_radius(self):
        builder = GeometricRandomNetwork(150, radius=0.15, seed=4)
        graph = builder.generate_graph()
        positions = builder.positions
        for u, v in graph.edges():
            dx = positions[u][0] - positions[v][0]
            dy = positions[u][1] - positions[v][1]
            assert math.hypot(dx, dy) <= 0.15 + 1e-12


class TestGiantComponent:
    def test_supercritical_mean_degree_has_giant_component(self):
        """The paper uses <k>=10 >> k_c=4.52, giving a giant component."""
        graph = generate_grn(1000, target_mean_degree=10.0, seed=9)
        assert giant_component_fraction(graph) > 0.9

    def test_subcritical_mean_degree_fragments(self):
        graph = generate_grn(1000, target_mean_degree=1.0, seed=9)
        assert giant_component_fraction(graph) < 0.5

    def test_critical_constant_exposed(self):
        assert CRITICAL_MEAN_DEGREE_2D == pytest.approx(4.52)


class TestValidation:
    def test_missing_radius_and_degree(self):
        with pytest.raises(ConfigurationError):
            GeometricRandomNetwork(100)

    def test_one_and_three_dimensions_supported(self):
        line = generate_grn(200, target_mean_degree=4.0, dimensions=1, seed=11)
        cube = generate_grn(200, target_mean_degree=6.0, dimensions=3, seed=11)
        assert line.number_of_nodes == 200
        assert cube.number_of_nodes == 200

    def test_parameters_dict(self):
        builder = GeometricRandomNetwork(100, target_mean_degree=5.0, seed=13)
        params = builder.parameters()
        assert params["substrate"] == "grn"
        assert params["effective_radius"] > 0
