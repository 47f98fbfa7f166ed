"""Tests for the deterministic RNG wrapper."""

import pytest

from repro.common.rng import DeterministicRng, named_stream


class TestDeterminism:
    def test_same_seed_same_sequence(self):
        a = DeterministicRng(42)
        b = DeterministicRng(42)
        assert [a.randint(0, 100) for _ in range(20)] == [
            b.randint(0, 100) for _ in range(20)
        ]

    def test_different_seeds_diverge(self):
        a = DeterministicRng(1)
        b = DeterministicRng(2)
        assert [a.randint(0, 10**9) for _ in range(8)] != [
            b.randint(0, 10**9) for _ in range(8)
        ]

    def test_seed_is_recorded(self):
        assert DeterministicRng(7).seed == 7


class TestOperations:
    def test_index_range(self):
        rng = DeterministicRng(0)
        for _ in range(100):
            assert 0 <= rng.index(5) < 5

    def test_index_rejects_empty(self):
        with pytest.raises(ValueError):
            DeterministicRng(0).index(0)

    def test_choice_from_singleton(self):
        assert DeterministicRng(0).choice(["only"]) == "only"

    def test_shuffled_is_permutation(self):
        rng = DeterministicRng(3)
        items = list(range(50))
        shuffled = rng.shuffled(items)
        assert sorted(shuffled) == items
        assert items == list(range(50))  # input untouched

    def test_fork_is_stable_and_independent(self):
        base = DeterministicRng(5)
        fork_a1 = base.fork(1)
        fork_a2 = DeterministicRng(5).fork(1)
        fork_b = base.fork(2)
        seq = [fork_a1.randint(0, 1000) for _ in range(5)]
        assert seq == [fork_a2.randint(0, 1000) for _ in range(5)]
        assert seq != [fork_b.randint(0, 1000) for _ in range(5)]


class TestNamedStreams:
    """Seeded streams for every stochastic site in the system."""

    def test_pure_and_stable(self):
        a = named_stream("cbws.history-table", 0xCB35)
        b = named_stream("cbws.history-table", 0xCB35)
        assert [a.randint(0, 10**6) for _ in range(10)] == [
            b.randint(0, 10**6) for _ in range(10)
        ]

    def test_name_and_seed_both_key_the_stream(self):
        base = [named_stream("site-a", 1).randint(0, 10**9) for _ in range(6)]
        other_name = [
            named_stream("site-b", 1).randint(0, 10**9) for _ in range(6)
        ]
        other_seed = [
            named_stream("site-a", 2).randint(0, 10**9) for _ in range(6)
        ]
        assert base != other_name
        assert base != other_seed

    def test_stream_matches_fork_of_crc(self):
        import zlib

        direct = DeterministicRng(9).stream("x")
        forked = DeterministicRng(9).fork(zlib.crc32(b"x"))
        assert [direct.randint(0, 10**6) for _ in range(5)] == [
            forked.randint(0, 10**6) for _ in range(5)
        ]

    def test_history_table_default_evictions_are_reproducible(self):
        # Regression: the CBWS history table's random-eviction path draws
        # from the predictor's own generator, seeded by its config, so two
        # predictors of one config evict the same victims in the same
        # order.
        from array import array

        from repro.core.predictor import CbwsConfig, CbwsPredictor, _drive

        def evictions():
            predictor = CbwsPredictor(CbwsConfig(table_entries=4))
            victims = []
            for line in range(0, 64 * 7, 7):
                before = set(predictor.table)
                _drive(predictor, array("B", [1, 0, 2]),
                       array("Q", [0, line * line, 0]), 0)
                victims.extend(sorted(before - set(predictor.table)))
            return victims

        first = evictions()
        assert first == evictions()
        assert first  # the table filled and actually evicted
