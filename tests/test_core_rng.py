"""Unit tests for the seedable random source."""

from __future__ import annotations

from math import ceil, log

import numpy as np
import pytest

from draw_log import logged_source
from repro.core.rng import DEFAULT_SEED, RandomSource, ensure_source, raw_stream


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


class TestStreamPosition:
    def test_getstate_setstate_round_trip(self):
        source = RandomSource(seed=77)
        checkpoint = source.getstate()
        first = [source.random() for _ in range(10)]
        source.setstate(checkpoint)
        assert [source.random() for _ in range(10)] == first


def _randbelow(twister, bound):
    """CPython's ``_randbelow``: ``getrandbits`` of the bound's width,
    redrawn until it falls below the bound (one draw even for 1)."""
    width = bound.bit_length()
    value = twister.getrandbits(width)
    while value >= bound:
        value = twister.getrandbits(width)
    return value


class TestTwisterContract:
    """The CPython draws that the inlined loops replay by hand.

    HAPA, PA's roulette, CM's shuffle, DAPA's join picks and attach step,
    NF and single-walker RW draw from the twister under a source
    (``raw_stream``) and replay CPython's bounded draws: ``randint`` as
    ``_randbelow``'s rejection loop, ``shuffle`` as a downward
    Fisher-Yates over it, and ``sample`` as its pool or set algorithm.
    Each test replays one of them on a logged twister and requires the
    source's method to return the same values from the same twister
    calls, so a Python release that changed one fails here by name, and
    not only as a mismatch between a loop and its oracle.
    """

    @pytest.mark.parametrize("bound", [1, 2, 3, 8, 9, 2**31 + 1])
    def test_randint_is_a_getrandbits_rejection_loop(self, bound):
        (rng, calls), (replay, replay_calls) = logged_source(11), logged_source(11)
        twister = raw_stream(replay)
        drawn = [rng.randint(0, bound - 1) for _ in range(40)]
        assert drawn == [_randbelow(twister, bound) for _ in range(40)]
        assert calls == replay_calls
        assert set(calls) == {bound.bit_length()}

    @pytest.mark.parametrize("size", [0, 1, 2, 65])
    def test_shuffle_is_a_downward_fisher_yates(self, size):
        (rng, calls), (replay, replay_calls) = logged_source(12), logged_source(12)
        twister = raw_stream(replay)
        shuffled = list(range(size))
        rng.shuffle(shuffled)
        expected = list(range(size))
        for index in range(size - 1, 0, -1):
            pick = _randbelow(twister, index + 1)
            expected[index], expected[pick] = expected[pick], expected[index]
        assert shuffled == expected
        assert calls == replay_calls

    @pytest.mark.parametrize(
        "size, count",
        # The pool branch up to setsize (21, or 85 for counts 6 to 21) and
        # the set branch beyond it.
        [(10, 3), (21, 5), (22, 5), (60, 6), (85, 8), (86, 8), (100, 6)],
    )
    def test_sample_is_the_pool_or_set_algorithm(self, size, count):
        (rng, calls), (replay, replay_calls) = logged_source(13), logged_source(13)
        twister = raw_stream(replay)
        population = [3 * index + 1 for index in range(size)]
        drawn = rng.sample(population, count)
        setsize = 21
        if count > 5:
            setsize += 4 ** ceil(log(count * 3, 4))
        expected = []
        if size <= setsize:
            pool = list(population)
            for index in range(count):
                pick = _randbelow(twister, size - index)
                expected.append(pool[pick])
                pool[pick] = pool[size - index - 1]
        else:
            selected = set()
            for _ in range(count):
                pick = _randbelow(twister, size)
                while pick in selected:
                    pick = _randbelow(twister, size)
                selected.add(pick)
                expected.append(population[pick])
        assert drawn == expected
        assert calls == replay_calls


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
