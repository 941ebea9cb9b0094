"""Unit tests for the experiment scale presets, realization seeds, curve
averaging, and sweeps."""

from __future__ import annotations

import zlib

import pytest

from repro.core.errors import ExperimentError
from repro.experiments.runner import (
    ExperimentScale,
    average_curves,
    realization_seeds,
)
from repro.experiments.sweeps import format_cutoff, format_label, parameter_grid


class TestExperimentScale:
    def test_presets(self):
        smoke = ExperimentScale.smoke()
        small = ExperimentScale.small()
        paper = ExperimentScale.paper()
        assert smoke.nodes < small.nodes < paper.nodes
        assert paper.search_nodes == 10_000
        assert paper.substrate_nodes == 20_000

    def test_from_name(self):
        assert ExperimentScale.from_name("smoke").name == "smoke"
        with pytest.raises(ExperimentError):
            ExperimentScale.from_name("huge")

    def test_with_seed(self):
        scale = ExperimentScale.smoke().with_seed(99)
        assert scale.seed == 99
        assert scale.name == "smoke"

    def test_ttl_grids(self):
        scale = ExperimentScale(max_ttl=10, flooding_max_ttl=5)
        assert scale.ttl_grid() == [2, 4, 6, 8, 10]
        assert scale.flooding_ttl_grid() == [1, 2, 3, 4, 5]

    def test_validation(self):
        with pytest.raises(ExperimentError):
            ExperimentScale(nodes=5)
        with pytest.raises(ExperimentError):
            ExperimentScale(substrate_nodes=100, search_nodes=200)
        with pytest.raises(ExperimentError):
            ExperimentScale(realizations=0)

    def test_as_dict(self):
        payload = ExperimentScale.smoke().as_dict()
        assert payload["name"] == "smoke"
        assert "seed" in payload


class TestRealizationSeeds:
    def test_count_matches_realizations(self):
        scale = ExperimentScale(realizations=4)
        assert len(realization_seeds(scale)) == 4

    def test_labels_decorrelate_seeds(self):
        scale = ExperimentScale(realizations=2)
        assert realization_seeds(scale, "a") != realization_seeds(scale, "b")

    def test_stable_across_calls(self):
        scale = ExperimentScale(realizations=3)
        assert realization_seeds(scale, "x") == realization_seeds(scale, "x")

    def test_unlabelled_seeds_keep_simple_ladder(self):
        scale = ExperimentScale(realizations=3).with_seed(50)
        assert realization_seeds(scale) == [50, 51, 52]

    def test_labelled_seeds_pinned(self):
        """Labelled seed derivation is part of the on-disk cache contract:
        these exact values must stay stable across interpreter runs, worker
        processes, and releases (changing them invalidates every store)."""
        scale = ExperimentScale(realizations=3).with_seed(123)
        assert realization_seeds(scale, "m=2, kc=10") == [
            6523444782494324316,
            5191790838856947213,
            546939511412477096,
        ]

    def test_nearby_crc32_offsets_do_not_collide(self):
        """Regression: the old scheme derived labelled seeds as
        ``seed + crc32(label) % 10_000 + index``, so two labels whose offsets
        differed by less than ``realizations`` shared seeds and silently
        correlated curves the paper averages as independent.  ``curve-22``
        and ``curve-32`` are such a pair (offsets 8812 and 8810)."""
        offsets = [zlib.crc32(label.encode()) % 10_000 for label in ("curve-22", "curve-32")]
        assert abs(offsets[0] - offsets[1]) < 3  # the hazard the old scheme had
        scale = ExperimentScale(realizations=3)
        seeds_a = set(realization_seeds(scale, "curve-22"))
        seeds_b = set(realization_seeds(scale, "curve-32"))
        assert seeds_a.isdisjoint(seeds_b)

    def test_every_labelled_realization_gets_a_distinct_seed(self):
        scale = ExperimentScale(realizations=10)
        labels = [f"m={m}, kc={kc}" for m in (1, 2, 3) for kc in (10, 20, 50, None)]
        all_seeds = [seed for label in labels for seed in realization_seeds(scale, label)]
        assert len(all_seeds) == len(set(all_seeds))


class TestAverageCurves:
    def test_average_curves(self):
        assert average_curves([[1.0, 3.0], [3.0, 5.0]]) == [2.0, 4.0]
        with pytest.raises(ExperimentError):
            average_curves([])
        with pytest.raises(ExperimentError):
            average_curves([[1.0], [1.0, 2.0]])


class TestSweeps:
    def test_parameter_grid_order(self):
        grid = parameter_grid({"m": [1, 2], "kc": [10, None]})
        assert grid == [
            {"m": 1, "kc": 10},
            {"m": 1, "kc": None},
            {"m": 2, "kc": 10},
            {"m": 2, "kc": None},
        ]

    def test_empty_space_rejected(self):
        with pytest.raises(ExperimentError):
            parameter_grid({})
        with pytest.raises(ExperimentError):
            parameter_grid({"m": []})

    def test_format_cutoff(self):
        assert format_cutoff(None) == "no kc"
        assert format_cutoff(40) == "kc=40"

    def test_format_label(self):
        assert format_label(m=2, kc=None) == "m=2, no kc"
        assert format_label(m=1, kc=40, tau_sub=6) == "m=1, kc=40, tau_sub=6"
        assert format_label(m=1, gamma=None) == "m=1"
