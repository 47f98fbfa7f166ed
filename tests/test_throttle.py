"""Tests for the feedback-directed throttling wrapper."""

import pytest

from repro.common.errors import ConfigError
from repro.prefetchers.base import DemandInfo, Prefetcher
from repro.prefetchers.throttle import ThrottleConfig, ThrottledPrefetcher
from repro.trace.stream import Trace


def access(line):
    return DemandInfo(
        pc=0x400000, line=line, address=line * 64,
        is_write=False, l1_hit=False, l2_hit=False,
    )


class _FixedPrefetcher(Prefetcher):
    """Predicts `fan` lines ahead of every access."""

    name = "fixed"

    def __init__(self, fan=4, offset=1000):
        self.fan = fan
        self.offset = offset

    def on_access(self, info):
        return [info.line + self.offset + k for k in range(self.fan)]


class TestConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            ThrottleConfig(interval_accesses=0)
        with pytest.raises(ConfigError):
            ThrottleConfig(quota_levels=())
        with pytest.raises(ConfigError):
            ThrottleConfig(start_level=9)
        with pytest.raises(ConfigError):
            ThrottleConfig(low_accuracy=0.9, high_accuracy=0.5)
        with pytest.raises(ConfigError):
            ThrottleConfig(quota_levels=(0.0, 1.0))


class TestQuota:
    def test_quota_limits_batch(self):
        throttled = ThrottledPrefetcher(
            _FixedPrefetcher(fan=8),
            ThrottleConfig(quota_levels=(0.25, 1.0), start_level=0),
        )
        assert len(throttled.on_access(access(0))) == 2

    def test_full_quota_passes_everything(self):
        throttled = ThrottledPrefetcher(
            _FixedPrefetcher(fan=8),
            ThrottleConfig(quota_levels=(1.0,), start_level=0),
        )
        assert len(throttled.on_access(access(0))) == 8

    def test_at_least_one_candidate_survives(self):
        throttled = ThrottledPrefetcher(
            _FixedPrefetcher(fan=2),
            ThrottleConfig(quota_levels=(0.25,), start_level=0),
        )
        assert len(throttled.on_access(access(0))) == 1


class TestFeedback:
    def test_wasteful_prefetcher_gets_throttled_down(self):
        config = ThrottleConfig(interval_accesses=64)
        throttled = ThrottledPrefetcher(
            _FixedPrefetcher(fan=4, offset=10**6), config
        )
        start = throttled.level
        # The predicted lines are never demanded: accuracy 0 each
        # interval, so the level falls to the floor.
        for k in range(64 * 4):
            throttled.on_access(access(k))
        assert throttled.level < start
        assert throttled.level == 0
        assert throttled.feedback_log
        assert throttled.feedback_log[-1][1] == 0.0

    def test_accurate_prefetcher_gets_promoted(self):
        config = ThrottleConfig(interval_accesses=64, start_level=0)
        throttled = ThrottledPrefetcher(
            _FixedPrefetcher(fan=1, offset=1), config
        )
        # Unit-stride consumer: every predicted line (line+1) is demanded
        # on the next access, so accuracy is ~1.0 per interval.
        for k in range(64 * 4):
            throttled.on_access(access(k))
        assert throttled.level == len(config.quota_levels) - 1

    def test_block_callbacks_forwarded(self):
        calls = []

        class Recorder(Prefetcher):
            name = "rec"

            def on_trace(self, trace, line_shift):
                calls.append((trace, line_shift))

            def on_block_end(self, block_id):
                return [42]

        throttled = ThrottledPrefetcher(Recorder())
        trace = Trace("t", [], 0)
        throttled.on_trace(trace, 7)
        assert calls == [(trace, 7)]
        assert throttled.on_block_end(5) == [42]

    def test_reset(self):
        throttled = ThrottledPrefetcher(
            _FixedPrefetcher(), ThrottleConfig(interval_accesses=8)
        )
        for k in range(40):
            throttled.on_access(access(k))
        throttled.reset()
        assert throttled.feedback_log == []
        assert throttled.level == ThrottleConfig().start_level

    def test_name_and_storage(self):
        throttled = ThrottledPrefetcher(_FixedPrefetcher())
        assert throttled.name == "fdp(fixed)"
        assert throttled.storage_bits() > _FixedPrefetcher().storage_bits()
