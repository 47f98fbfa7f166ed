"""Tests for the Markov correlation prefetcher."""

import pytest

from repro.common.errors import ConfigError
from repro.prefetchers.markov import MarkovConfig, MarkovPrefetcher


def miss(line):
    """``on_access`` arguments for an L1 miss on ``line``."""
    return 0x400000, line, line * 64, False


def hit(line):
    """``on_access`` arguments for an L1 hit on ``line``."""
    return 0x400000, line, line * 64, True


class TestConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            MarkovConfig(table_entries=0)
        with pytest.raises(ConfigError):
            MarkovConfig(successors=0)

    def test_storage(self):
        assert MarkovPrefetcher().storage_bits() == 16384 * 32 * 3


class TestCorrelation:
    def test_repeated_sequence_predicted(self):
        prefetcher = MarkovPrefetcher()
        sequence = [5, 90, 33, 7]
        for line in sequence:
            prefetcher.on_access(*miss(line))
        # The second pass sees each transition predicted.
        assert prefetcher.on_access(*miss(5)) == [90]
        assert prefetcher.on_access(*miss(90)) == [33]

    def test_most_recent_successor_first(self):
        prefetcher = MarkovPrefetcher()
        for line in (1, 10, 1, 20, 1):
            prefetcher.on_access(*miss(line))
        assert prefetcher.successors_of(1) == [20, 10]

    def test_successor_slots_bounded(self):
        prefetcher = MarkovPrefetcher(MarkovConfig(successors=2))
        for follower in (10, 20, 30, 40):
            prefetcher.on_access(*miss(1))
            prefetcher.on_access(*miss(follower))
        assert len(prefetcher.successors_of(1)) == 2
        assert prefetcher.successors_of(1)[0] == 40

    def test_hits_do_not_train_or_trigger(self):
        prefetcher = MarkovPrefetcher()
        prefetcher.on_access(*miss(1))
        prefetcher.on_access(*hit(99))
        prefetcher.on_access(*miss(2))
        # The hit did not break the 1 -> 2 correlation.
        assert prefetcher.successors_of(1) == [2]

    def test_self_loop_ignored(self):
        prefetcher = MarkovPrefetcher()
        prefetcher.on_access(*miss(7))
        prefetcher.on_access(*miss(7))
        assert prefetcher.successors_of(7) == []

    def test_table_capacity_lru(self):
        prefetcher = MarkovPrefetcher(MarkovConfig(table_entries=2))
        for line in (1, 2, 3, 4):
            prefetcher.on_access(*miss(line))
        assert prefetcher.successors_of(1) == []
        assert prefetcher.successors_of(3) == [4]

class TestPointerChase:
    def test_covers_repeating_permutation_cycle(self):
        """The mcf scenario: a pointer chase repeating the same cycle is
        invisible to stride/delta schemes but trivially Markov."""
        import random

        rng = random.Random(3)
        cycle = list(range(100, 160))
        rng.shuffle(cycle)
        prefetcher = MarkovPrefetcher()
        for line in cycle:  # first lap trains
            prefetcher.on_access(*miss(line))
        prefetcher.on_access(*miss(cycle[0]))
        covered = 0
        for index in range(1, len(cycle)):
            predictions = prefetcher.on_access(*miss(cycle[index]))
            if index + 1 < len(cycle) and cycle[index + 1] in predictions:
                covered += 1
        assert covered > 0.9 * (len(cycle) - 2)
