"""Unit tests for the seedable random source."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.rng import DEFAULT_SEED, RandomSource, ensure_source


class TestScalarDraws:
    def test_reproducibility_with_same_seed(self):
        a = [RandomSource(seed=5).random() for _ in range(5)]
        b = [RandomSource(seed=5).random() for _ in range(5)]
        assert a == b

    def test_different_seeds_differ(self):
        a = [RandomSource(seed=1).random() for _ in range(5)]
        b = [RandomSource(seed=2).random() for _ in range(5)]
        assert a != b

    def test_random_in_unit_interval(self, rng):
        values = [rng.random() for _ in range(100)]
        assert all(0.0 <= value < 1.0 for value in values)

    def test_randint_inclusive_bounds(self, rng):
        values = {rng.randint(3, 5) for _ in range(200)}
        assert values == {3, 4, 5}

    def test_randint_empty_range_raises(self, rng):
        with pytest.raises(ValueError):
            rng.randint(5, 3)

    def test_seed_property(self):
        assert RandomSource(seed=9).seed == 9
        assert RandomSource().seed is None


class TestCollectionDraws:
    def test_choice_from_sequence(self, rng):
        assert rng.choice([7]) == 7
        assert rng.choice(["a", "b"]) in ("a", "b")

    def test_choice_empty_raises(self, rng):
        with pytest.raises(IndexError):
            rng.choice([])

    def test_sample_distinct_elements(self, rng):
        sample = rng.sample(list(range(10)), 4)
        assert len(sample) == 4
        assert len(set(sample)) == 4

    def test_sample_larger_than_population_returns_all(self, rng):
        sample = rng.sample([1, 2, 3], 10)
        assert sorted(sample) == [1, 2, 3]

    def test_shuffled_preserves_elements(self, rng):
        items = list(range(20))
        shuffled = rng.shuffled(items)
        assert sorted(shuffled) == items
        assert items == list(range(20))  # original untouched

    def test_weighted_index_distribution(self, rng):
        counts = [0, 0]
        for _ in range(2000):
            counts[rng.weighted_index([3.0, 1.0])] += 1
        assert counts[0] > counts[1]

    def test_weighted_index_zero_total_raises(self, rng):
        with pytest.raises(ValueError):
            rng.weighted_index([0.0, 0.0])


class TestDerivedSources:
    def test_spawn_is_deterministic_given_parent_seed(self):
        a = RandomSource(seed=3).spawn("child").random()
        b = RandomSource(seed=3).spawn("child").random()
        assert a == b

    def test_spawned_children_with_labels_differ(self):
        parent = RandomSource(seed=3)
        a = parent.spawn("one")
        b = parent.spawn("two")
        assert a.random() != b.random()

    def test_numpy_generator(self, rng):
        generator = rng.numpy_generator()
        assert isinstance(generator, np.random.Generator)
        assert 0.0 <= generator.random() < 1.0


class TestEnsureSource:
    def test_passthrough(self, rng):
        assert ensure_source(rng) is rng

    def test_from_int(self):
        assert isinstance(ensure_source(4), RandomSource)
        assert ensure_source(4).seed == 4

    def test_from_none(self):
        assert ensure_source(None).seed is None

    def test_invalid_type(self):
        with pytest.raises(TypeError):
            ensure_source("not-a-seed")

    def test_default_seed_constant(self):
        assert isinstance(DEFAULT_SEED, int)
