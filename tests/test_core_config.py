"""Unit tests for the configuration dataclasses and their validation."""

from __future__ import annotations

import math

import pytest

from repro.core.config import (
    CMConfig,
    DAPAConfig,
    GRNConfig,
    HAPAConfig,
    MeshConfig,
    PAConfig,
    TopologyConfig,
)
from repro.core.errors import ConfigurationError
from repro.generators.dapa import DAPAGenerator


class TestTopologyConfig:
    def test_valid_configuration(self):
        config = TopologyConfig(number_of_nodes=100, stubs=2, hard_cutoff=10)
        assert config.has_cutoff
        assert config.effective_cutoff() == 10

    def test_no_cutoff_effective_value_is_n(self):
        config = TopologyConfig(number_of_nodes=50, stubs=1)
        assert not config.has_cutoff
        assert config.effective_cutoff() == 50

    def test_too_few_nodes(self):
        with pytest.raises(ConfigurationError):
            TopologyConfig(number_of_nodes=1)

    def test_zero_stubs(self):
        with pytest.raises(ConfigurationError):
            TopologyConfig(number_of_nodes=10, stubs=0)

    def test_stubs_must_be_less_than_nodes(self):
        with pytest.raises(ConfigurationError):
            TopologyConfig(number_of_nodes=5, stubs=5)

    def test_cutoff_below_stubs_rejected(self):
        with pytest.raises(ConfigurationError):
            TopologyConfig(number_of_nodes=10, stubs=3, hard_cutoff=2)

    def test_pa_and_hapa_subclasses(self):
        assert PAConfig(number_of_nodes=10, stubs=1).number_of_nodes == 10
        hapa = HAPAConfig(number_of_nodes=10, stubs=1, max_hops_per_stub=5)
        assert hapa.max_hops_per_stub == 5

    def test_hapa_invalid_hop_budget(self):
        with pytest.raises(ConfigurationError):
            HAPAConfig(number_of_nodes=10, stubs=1, max_hops_per_stub=0)


class TestCMConfig:
    def test_valid(self):
        config = CMConfig(number_of_nodes=100, exponent=2.5, min_degree=2, hard_cutoff=20)
        assert config.effective_cutoff() == 20
        assert config.has_cutoff

    def test_default_cutoff_is_n(self):
        config = CMConfig(number_of_nodes=100)
        assert config.effective_cutoff() == 100

    def test_exponent_must_exceed_one(self):
        with pytest.raises(ConfigurationError):
            CMConfig(number_of_nodes=100, exponent=1.0)

    def test_cutoff_below_min_degree(self):
        with pytest.raises(ConfigurationError):
            CMConfig(number_of_nodes=100, min_degree=5, hard_cutoff=3)

    def test_cutoff_above_n(self):
        with pytest.raises(ConfigurationError):
            CMConfig(number_of_nodes=10, hard_cutoff=20)


class TestGRNConfig:
    def test_requires_radius_or_mean_degree(self):
        with pytest.raises(ConfigurationError):
            GRNConfig(number_of_nodes=100)

    def test_effective_radius_from_explicit_radius(self):
        config = GRNConfig(number_of_nodes=100, radius=0.1)
        assert config.effective_radius() == 0.1

    def test_effective_radius_from_mean_degree_2d(self):
        config = GRNConfig(number_of_nodes=1000, target_mean_degree=10.0)
        radius = config.effective_radius()
        # <k> = (N-1) * pi * R^2  =>  R = sqrt(<k> / ((N-1) pi))
        expected = math.sqrt(10.0 / (999 * math.pi))
        assert radius == pytest.approx(expected)

    def test_invalid_dimension(self):
        with pytest.raises(ConfigurationError):
            GRNConfig(number_of_nodes=10, radius=0.1, dimensions=4)

    def test_invalid_radius(self):
        with pytest.raises(ConfigurationError):
            GRNConfig(number_of_nodes=10, radius=0.0)

    def test_one_dimensional_radius(self):
        config = GRNConfig(number_of_nodes=101, target_mean_degree=4.0, dimensions=1)
        assert config.effective_radius() == pytest.approx(4.0 / (100 * 2.0))


class TestMeshConfig:
    def test_node_count(self):
        assert MeshConfig(rows=3, columns=4).number_of_nodes == 12

    def test_minimum_size(self):
        with pytest.raises(ConfigurationError):
            MeshConfig(rows=1, columns=5)


class TestDAPAConfig:
    def test_valid_with_default_substrate(self):
        config = DAPAConfig(overlay_size=100, stubs=2, hard_cutoff=10, local_ttl=3)
        substrate = config.default_substrate()
        assert substrate.number_of_nodes == 200
        assert substrate.target_mean_degree == 10.0

    def test_effective_cutoff(self):
        assert DAPAConfig(overlay_size=50, hard_cutoff=8).effective_cutoff() == 8
        assert DAPAConfig(overlay_size=50).effective_cutoff() == 50

    def test_local_ttl_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            DAPAConfig(overlay_size=50, local_ttl=0)

    def test_initial_peers_bounds(self):
        with pytest.raises(ConfigurationError):
            DAPAConfig(overlay_size=50, initial_peers=1)
        with pytest.raises(ConfigurationError):
            DAPAConfig(overlay_size=5, initial_peers=10)

    def test_seed_clique_must_respect_cutoff(self):
        # The initial_peers seeds form a clique of degree initial_peers - 1.
        with pytest.raises(ConfigurationError, match="seed clique"):
            DAPAConfig(overlay_size=60, hard_cutoff=2, initial_peers=5)
        with pytest.raises(ConfigurationError, match="seed clique"):
            DAPAGenerator(
                overlay_size=60, stubs=1, hard_cutoff=2, local_ttl=3,
                initial_peers=5, seed=3,
            )
        # A clique of degree exactly kc is allowed, as is any clique
        # without a cutoff.
        DAPAConfig(overlay_size=60, hard_cutoff=2, initial_peers=3)
        DAPAConfig(overlay_size=60, initial_peers=20)

    def test_substrate_must_be_large_enough(self):
        small_substrate = GRNConfig(number_of_nodes=10, radius=0.2)
        with pytest.raises(ConfigurationError):
            DAPAConfig(overlay_size=50, substrate=small_substrate)

    def test_substrate_type_validated(self):
        with pytest.raises(ConfigurationError):
            DAPAConfig(overlay_size=50, substrate="not-a-config")

    def test_cutoff_below_stubs(self):
        with pytest.raises(ConfigurationError):
            DAPAConfig(overlay_size=50, stubs=3, hard_cutoff=2)
