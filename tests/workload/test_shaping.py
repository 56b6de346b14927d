"""Tests for distribution shaping (lengths, gaps, runs)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.workload.shaping import distribute_gaps, shaped_lengths


def rng(seed=0):
    return np.random.default_rng(seed)


class TestShapedLengths:
    def test_zero_cv_uniform(self):
        lengths = shaped_lengths(rng(), 10, 500, 0.0)
        assert np.all(lengths == 500)

    def test_mean_matched(self):
        lengths = shaped_lengths(rng(), 64, 1000, 0.5)
        assert lengths.mean() == pytest.approx(1000, rel=0.02)

    def test_cv_matched(self):
        lengths = shaped_lengths(rng(), 256, 2000, 0.8)
        cv = lengths.std(ddof=0) / lengths.mean()
        assert cv == pytest.approx(0.8, abs=0.08)

    def test_extreme_cv_fft(self):
        """FFT's 187.6% deviation must be (approximately) reachable."""
        lengths = shaped_lengths(rng(), 64, 764, 1.876, floor=32)
        cv = lengths.std(ddof=0) / lengths.mean()
        assert cv == pytest.approx(1.876, rel=0.15)

    def test_floor_respected(self):
        lengths = shaped_lengths(rng(), 100, 100, 2.5, floor=16)
        assert lengths.min() >= 16

    def test_deterministic(self):
        a = shaped_lengths(rng(7), 20, 300, 0.4)
        b = shaped_lengths(rng(7), 20, 300, 0.4)
        assert np.array_equal(a, b)

    def test_single_thread(self):
        assert list(shaped_lengths(rng(), 1, 500, 0.9)) == [500]

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            shaped_lengths(rng(), 0, 100, 0.5)
        with pytest.raises(ValueError):
            shaped_lengths(rng(), 5, -1, 0.5)
        with pytest.raises(ValueError):
            shaped_lengths(rng(), 5, 100, -0.5)


class TestDistributeGaps:
    def test_exact_total(self):
        gaps = distribute_gaps(rng(), 10, 57)
        assert gaps.sum() == 57
        assert gaps.size == 10
        assert gaps.min() >= 0

    def test_zero_gap(self):
        assert distribute_gaps(rng(), 5, 0).sum() == 0

    def test_zero_refs_zero_gap(self):
        assert distribute_gaps(rng(), 0, 0).size == 0

    def test_zero_refs_nonzero_gap_rejected(self):
        with pytest.raises(ValueError):
            distribute_gaps(rng(), 0, 3)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            distribute_gaps(rng(), -1, 0)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 200), st.integers(0, 5000))
    def test_sum_property(self, n, total):
        gaps = distribute_gaps(rng(n * 31 + total), n, total)
        assert gaps.sum() == total
        assert gaps.min() >= 0
