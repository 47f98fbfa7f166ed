"""Tests for the RPT stride prefetcher."""

import pytest

from repro.common.errors import ConfigError
from repro.prefetchers.stride import (
    StrideConfig,
    StridePrefetcher,
    _INITIAL,
    _NO_PRED,
    _STEADY,
    _TRANSIENT,
)


def access(pc, address, l1_hit=False):
    """``on_access`` arguments for an access to byte ``address``."""
    return pc, address >> 6, address, l1_hit


class TestConfig:
    def test_defaults_match_table2(self):
        config = StrideConfig()
        assert config.table_entries == 256
        assert config.pc_bits == 48

    def test_invalid_rejected(self):
        with pytest.raises(ConfigError):
            StrideConfig(table_entries=0)
        with pytest.raises(ConfigError):
            StrideConfig(degree=0)


class TestStateMachine:
    def test_warmup_takes_three_accesses(self):
        prefetcher = StridePrefetcher()
        assert prefetcher.on_access(*access(1, 0)) == []
        assert prefetcher.on_access(*access(1, 1024)) == []
        # Third access confirms the stride: prediction fires.
        assert prefetcher.on_access(*access(1, 2048)) != []
        assert prefetcher.entry_state(1) == (1024, _STEADY)

    def test_stride_change_silences(self):
        prefetcher = StridePrefetcher()
        for address in (0, 1024, 2048):
            prefetcher.on_access(*access(1, address))
        assert prefetcher.on_access(*access(1, 2048 + 640)) == []
        assert prefetcher.entry_state(1)[1] == _INITIAL

    def test_two_changes_reach_no_pred(self):
        prefetcher = StridePrefetcher()
        prefetcher.on_access(*access(1, 0))
        prefetcher.on_access(*access(1, 100))   # stride 100, TRANSIENT
        prefetcher.on_access(*access(1, 350))   # stride 250, NO_PRED
        assert prefetcher.entry_state(1) == (250, _NO_PRED)

    def test_recovery_from_no_pred(self):
        prefetcher = StridePrefetcher()
        prefetcher.on_access(*access(1, 0))
        prefetcher.on_access(*access(1, 100))
        prefetcher.on_access(*access(1, 350))    # NO_PRED, stride 250
        prefetcher.on_access(*access(1, 600))    # matched -> TRANSIENT
        assert prefetcher.entry_state(1)[1] == _TRANSIENT
        assert prefetcher.on_access(*access(1, 850)) != []  # STEADY again


class TestPredictions:
    def test_predicts_degree_strides_ahead(self):
        prefetcher = StridePrefetcher(StrideConfig(degree=2))
        for address in (0, 1024):
            prefetcher.on_access(*access(1, address))
        candidates = prefetcher.on_access(*access(1, 2048))
        assert candidates == [(2048 + 1024) >> 6, (2048 + 2048) >> 6]

    def test_unit_word_stride_mostly_stays_in_line(self):
        """The word-granularity property: an 8-byte stride with degree 2
        reaches only 16 bytes ahead, so no new line is prefetched except
        at the line boundary — the classic RPT is weak on dense
        streaming code."""
        prefetcher = StridePrefetcher(StrideConfig(degree=2))
        per_access = [
            prefetcher.on_access(*access(1, k * 8)) for k in range(8)
        ]
        # Steady from k=2; only the last two accesses (bytes 48 and 56,
        # within 16 bytes of the boundary) reach into the next line.
        assert all(candidates == [] for candidates in per_access[:6])
        assert per_access[6] == [1]
        assert per_access[7] == [1]

    def test_zero_stride_never_predicts(self):
        prefetcher = StridePrefetcher()
        for _ in range(5):
            candidates = prefetcher.on_access(*access(1, 4096))
        assert candidates == []

    def test_negative_stride_supported(self):
        prefetcher = StridePrefetcher(StrideConfig(degree=1))
        for address in (8192, 7168, 6144):
            candidates = prefetcher.on_access(*access(1, address))
        assert candidates == [5120 >> 6]

    def test_streams_tracked_independently_per_pc(self):
        prefetcher = StridePrefetcher()
        for k in range(3):
            prefetcher.on_access(*access(1, k * 1024))
            prefetcher.on_access(*access(2, 65536 + k * 2048))
        assert prefetcher.entry_state(1)[0] == 1024
        assert prefetcher.entry_state(2)[0] == 2048


class TestCapacity:
    def test_lru_replacement_of_streams(self):
        prefetcher = StridePrefetcher(StrideConfig(table_entries=2))
        prefetcher.on_access(*access(1, 0))
        prefetcher.on_access(*access(2, 0))
        prefetcher.on_access(*access(3, 0))  # evicts pc=1
        assert prefetcher.entry_state(1) is None
        assert prefetcher.entry_state(2) is not None

    def test_storage_matches_table3(self):
        assert StridePrefetcher().storage_bits() == 18432  # 2.25 KB
