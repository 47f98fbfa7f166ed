"""Tests for the simulation configuration (Table II)."""

import pytest

from repro.common.errors import ConfigError
from repro.sim.config import (
    CONFIG_PARAMS,
    PAPER_CONFIG,
    REDUCED_CONFIG,
    CoreConfig,
    PrefetchPathConfig,
    config_values,
    resolve_cell_config,
)


class TestPaperConfig:
    def test_core_matches_table2(self):
        core = PAPER_CONFIG.core
        assert core.width == 4
        assert core.rob_entries == 128
        assert core.l1_latency == 2
        assert core.l2_latency == 30
        assert core.memory_latency == 300

    def test_caches_match_table2(self):
        hierarchy = PAPER_CONFIG.hierarchy
        assert hierarchy.l1.size_bytes == 32 * 1024
        assert hierarchy.l1.associativity == 4
        assert hierarchy.l1.mshrs == 4
        assert hierarchy.l2.size_bytes == 2 * 1024 * 1024
        assert hierarchy.l2.associativity == 8
        assert hierarchy.l2.mshrs == 32
        assert hierarchy.line_size == 64

    def test_reduced_preserves_structure(self):
        assert REDUCED_CONFIG.core == PAPER_CONFIG.core
        assert (
            REDUCED_CONFIG.hierarchy.l1.associativity
            == PAPER_CONFIG.hierarchy.l1.associativity
        )
        assert REDUCED_CONFIG.hierarchy.l1.size_bytes < (
            PAPER_CONFIG.hierarchy.l1.size_bytes
        )


class TestValidation:
    def test_non_monotone_latencies_rejected(self):
        with pytest.raises(ConfigError):
            CoreConfig(l1_latency=10, l2_latency=5)

    def test_zero_width_rejected(self):
        with pytest.raises(ConfigError):
            CoreConfig(width=0)

    def test_prefetch_path_validation(self):
        with pytest.raises(ConfigError):
            PrefetchPathConfig(queue_capacity=0)
        with pytest.raises(ConfigError):
            PrefetchPathConfig(issue_interval=0)
        with pytest.raises(ConfigError):
            PrefetchPathConfig(max_in_flight=0)

    def test_negative_latencies_rejected(self):
        # Negative-but-monotone latencies must not slip through.
        with pytest.raises(ConfigError, match="at least one cycle"):
            CoreConfig(l1_latency=-5, l2_latency=30, memory_latency=300)
        with pytest.raises(ConfigError, match="at least one cycle"):
            CoreConfig(l1_latency=0)

    def test_cache_geometry_validation(self):
        from repro.memory.cache import CacheConfig

        with pytest.raises(ConfigError, match="positive"):
            CacheConfig(name="L1", size_bytes=0, associativity=4)
        with pytest.raises(ConfigError, match="power of two"):
            CacheConfig(name="L1", size_bytes=4096, associativity=4,
                        line_size=48)
        with pytest.raises(ConfigError, match="at least one cycle"):
            CacheConfig(name="L1", size_bytes=4096, associativity=4,
                        latency=0)
        with pytest.raises(ConfigError, match="MSHR"):
            CacheConfig(name="L1", size_bytes=4096, associativity=4,
                        mshrs=0)


class TestOverridePaths:
    @pytest.mark.parametrize("base", [REDUCED_CONFIG, PAPER_CONFIG],
                             ids=["reduced", "paper"])
    def test_config_values_inverts_resolve(self, base):
        values = config_values(base)
        assert set(values) == CONFIG_PARAMS
        assert resolve_cell_config(values, base) == base

    def test_values_read_the_base(self):
        values = config_values(PAPER_CONFIG)
        assert values["l1_kb"] == 32 and values["l2_kb"] == 2048
        assert values["l2.associativity"] == 8
        assert values["core.memory_latency"] == 300

    def test_each_path_reaches_its_field(self):
        base = config_values(REDUCED_CONFIG)
        for path in CONFIG_PARAMS:
            changed = resolve_cell_config({path: base[path] * 2})
            assert config_values(changed) == {**base, path: base[path] * 2}
