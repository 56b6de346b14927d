"""Tests for shared-access channels."""

import numpy as np
import pytest

from repro.workload.address_space import Region
from repro.workload.channels import PoolChannel


def rng(seed=0):
    return np.random.default_rng(seed)


def channel(**overrides):
    defaults = dict(
        region=Region(64, 16),
        weight=1.0,
        write_prob=0.5,
        mean_run=8.0,
        span=1,
        run_level_writes=False,
    )
    defaults.update(overrides)
    return PoolChannel(**defaults)


class TestValidation:
    def test_zero_weight_rejected(self):
        with pytest.raises(ValueError):
            channel(weight=0.0)

    def test_bad_write_prob_rejected(self):
        with pytest.raises(ValueError):
            channel(write_prob=1.5)

    def test_span_exceeding_region_rejected(self):
        with pytest.raises(ValueError):
            channel(span=17)

    def test_single_word_region_ok(self):
        c = channel(region=Region(0, 1), span=1)
        addrs, _, _ = c.sample_runs(rng(), 10, 10)
        assert set(addrs) == {0}

    def test_nonpositive_max_run_rejected(self):
        with pytest.raises(ValueError):
            channel().sample_runs(rng(), 10, 0)


def runs(c, seed, total, max_run=8192):
    """Split sample_runs' columns into per-run (addrs, writes) pairs."""
    addrs, writes, lengths = c.sample_runs(rng(seed), total, max_run)
    assert addrs.size == writes.size == lengths.sum() == total
    cuts = np.cumsum(lengths)[:-1]
    return list(zip(np.split(addrs, cuts), np.split(writes, cuts)))


class TestSampleRun:
    def test_addresses_inside_region(self):
        c = channel()
        for seed in range(20):
            addrs, writes, _ = c.sample_runs(rng(seed), 100, 8192)
            assert addrs.min() >= 64
            assert addrs.max() < 80
            assert addrs.size == writes.size

    def test_max_len_respected(self):
        c = channel(mean_run=1000.0)
        _, _, lengths = c.sample_runs(rng(), 50, 5)
        assert lengths.max() <= 5
        assert lengths.sum() == 50

    def test_span_one_single_address(self):
        c = channel(span=1)
        for addrs, _ in runs(c, 3, 50):
            assert len(set(addrs.tolist())) == 1

    def test_span_window_cycles(self):
        c = channel(span=4, mean_run=40.0)
        for addrs, _ in runs(c, 5, 200):
            distinct = set(addrs.tolist())
            assert len(distinct) <= 4
            # Consecutive addresses within a window.
            assert max(distinct) - min(distinct) <= 3
            assert addrs.tolist() == [addrs[0] + k % 4 for k in range(addrs.size)]

    def test_run_level_writes_all_or_nothing(self):
        c = channel(run_level_writes=True, write_prob=0.5, mean_run=20.0)
        for seed in range(20):
            for _, writes in runs(c, seed, 100):
                assert writes.all() or not writes.any()

    def test_write_prob_zero_never_writes(self):
        c = channel(write_prob=0.0)
        for seed in range(10):
            _, writes, _ = c.sample_runs(rng(seed), 100, 8192)
            assert not writes.any()

    def test_write_prob_one_always_writes(self):
        c = channel(write_prob=1.0)
        _, writes, _ = c.sample_runs(rng(), 100, 8192)
        assert writes.all()

    def test_run_length_bounded_by_mean_multiple(self):
        """Pathological geometric draws are capped near 4x the mean."""
        c = channel(mean_run=5.0)
        for seed in range(50):
            _, _, lengths = c.sample_runs(rng(seed), 10_000, 8192)
            assert lengths.max() <= 4 * 5 + 8

    def test_mean_run_approx(self):
        c = channel(mean_run=10.0)
        _, _, lengths = c.sample_runs(rng(), 50_000, 8192)
        assert np.mean(lengths) == pytest.approx(10.0, rel=0.25)

    def test_zero_total_draws_nothing(self):
        c = channel()
        generator = rng(4)
        addrs, writes, lengths = c.sample_runs(generator, 0, 8192)
        assert addrs.size == writes.size == lengths.size == 0
        assert generator.random() == rng(4).random()

    def test_writes_staged_beyond_the_draw_buffer(self):
        """Per-reference write draws are staged through a bounded buffer;
        a channel drawing several buffers' worth consumes the generator
        exactly like one ``rng.random(length)`` per run."""
        c = channel(mean_run=9000.0, region=Region(0, 64))
        total = 3 * (1 << 14) + 123
        _, writes, lengths = c.sample_runs(rng(8), total, 8192)
        reference = rng(8)
        expected = []
        for length in lengths:
            assert min(int(reference.geometric(1 / 9000.0)), 8192) >= length
            reference.integers(0, 64)
            expected.append(reference.random(int(length)) < 0.5)
        assert np.array_equal(writes, np.concatenate(expected))
