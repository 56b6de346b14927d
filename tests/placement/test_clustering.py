"""Tests for the agglomerative clustering engine, including the paper's
Figure 1 worked example."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.placement.balance import LoadBalance, ThreadBalance, Unconstrained
from repro.placement.clustering import (
    MatrixAverageScorer,
    agglomerate,
    cross_sums,
    matrix_average_scorer,
    pair_scores,
)


def symmetric(entries, n):
    """Build a symmetric matrix from {(i, j): value} (0-indexed)."""
    m = np.zeros((n, n))
    for (i, j), v in entries.items():
        m[i, j] = m[j, i] = v
    return m


# The paper's Figure 1 example uses threads 1..5; we use 0..4.  Values are
# chosen to reproduce the narrated combining order: (2,3) first, then
# (1,5), then {1,5}+{4}; shared-references(2,4)=5 and (3,4)=4 are given in
# the text.
PAPER_EXAMPLE = symmetric(
    {
        (1, 2): 10,  # threads 2,3: the iteration-1 winner
        (0, 4): 8,   # threads 1,5: the iteration-2 winner
        (1, 3): 5,   # shared-references(2,4) = 5
        (2, 3): 4,   # shared-references(3,4) = 4
        (0, 3): 6,   # threads 1,4
        (3, 4): 6,   # threads 4,5
        (0, 1): 1, (0, 2): 1, (1, 4): 1, (2, 4): 1,
    },
    5,
)


class TestPaperExample:
    def test_metric_formula_matches_worked_value(self):
        """sharing-metric({2,3},{4}) = (5+4)/(2*1) = 4.5 (§2.1.1)."""
        scorer = MatrixAverageScorer(PAPER_EXAMPLE)
        assert scorer([1, 2], [3]) == (4.5,)

    def test_final_clusters(self):
        """The example ends with clusters {2,3} and {1,4,5}."""
        result = agglomerate(
            5, 2, matrix_average_scorer(PAPER_EXAMPLE), ThreadBalance(),
            np.ones(5, dtype=np.int64),
        )
        clusters = {frozenset(c) for c in result.clusters}
        assert clusters == {frozenset({1, 2}), frozenset({0, 3, 4})}
        assert not result.relaxed

    def test_merge_order(self):
        """Iteration 1 combines threads 2,3 (the largest metric value)."""
        scorer = MatrixAverageScorer(PAPER_EXAMPLE)
        first = scorer([1], [2])
        assert all(
            scorer([i], [j]) <= first
            for i in range(5)
            for j in range(i + 1, 5)
        )


class TestCrossSums:
    def test_matches_manual(self):
        m = symmetric({(0, 1): 2, (0, 2): 3, (1, 2): 4}, 3)
        sums = cross_sums(m, [[0], [1, 2]])
        assert sums[0, 1] == pytest.approx(2 + 3)

    def test_symmetry(self):
        m = symmetric({(0, 1): 2, (2, 3): 7}, 4)
        sums = cross_sums(m, [[0, 2], [1, 3]])
        assert sums[0, 1] == sums[1, 0]


class TestMatrixAverageScorer:
    def test_normalized(self):
        m = symmetric({(0, 1): 6, (0, 2): 0, (1, 2): 0}, 3)
        scorer = MatrixAverageScorer(m)
        assert scorer([0], [1, 2]) == ((6 + 0) / 2,)

    def test_unnormalized(self):
        m = symmetric({(0, 1): 6, (0, 2): 2}, 3)
        scorer = MatrixAverageScorer(m, normalize=False)
        assert scorer([0], [1, 2]) == (8.0,)

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(0)
        m = rng.random((6, 6))
        m = (m + m.T) / 2
        np.fill_diagonal(m, 0)
        scorer = MatrixAverageScorer(m)
        clusters = [[0, 3], [1], [2, 4, 5]]
        scores, pairs = pair_scores(scorer, clusters)
        for (score,), (i, j) in zip(scores, pairs):
            assert score == pytest.approx(scorer(clusters[i], clusters[j])[0])


class TestAgglomerate:
    def test_trivial_already_done(self):
        result = agglomerate(
            3, 3, matrix_average_scorer(np.zeros((3, 3))), ThreadBalance(),
            np.ones(3, np.int64),
        )
        assert result.clusters == [[0], [1], [2]]
        assert result.merges == 0

    def test_single_processor(self):
        result = agglomerate(
            4, 1, matrix_average_scorer(np.ones((4, 4))), ThreadBalance(),
            np.ones(4, np.int64),
        )
        assert len(result.clusters) == 1
        assert sorted(result.clusters[0]) == [0, 1, 2, 3]

    def test_partition_is_exact(self):
        rng = np.random.default_rng(2)
        m = rng.random((12, 12))
        m = (m + m.T) / 2
        result = agglomerate(
            12, 5, matrix_average_scorer(m), ThreadBalance(), np.ones(12, np.int64)
        )
        all_threads = sorted(t for c in result.clusters for t in c)
        assert all_threads == list(range(12))
        sizes = sorted(len(c) for c in result.clusters)
        assert sizes == [2, 2, 2, 3, 3]

    def test_minimize_direction(self):
        # Threads 0,1 share heavily; minimizing sharing must split them
        # across clusters.
        m = symmetric({(0, 1): 100, (2, 3): 100, (0, 2): 1, (1, 3): 1}, 4)
        result = agglomerate(
            4, 2, matrix_average_scorer(m), ThreadBalance(),
            np.ones(4, np.int64), maximize=False,
        )
        clusters = {frozenset(c) for c in result.clusters}
        assert frozenset({0, 1}) not in clusters
        assert frozenset({2, 3}) not in clusters

    def test_load_balance_policy_fallback(self):
        """When the tolerance blocks all merges, the fallback finishes."""
        lengths = np.array([100, 100, 100, 100], dtype=np.int64)
        # p=2 -> ideal 200; any merge of two singletons is exactly 200,
        # allowed; but merging two pairs (400) is not. Engine must still
        # produce 2 clusters.
        result = agglomerate(
            4, 2, matrix_average_scorer(np.ones((4, 4))), LoadBalance(0.10),
            lengths,
        )
        assert len(result.clusters) == 2

    def test_impossible_tolerance_relaxes(self):
        # p=2 over three equal threads: ideal 150, every merge totals 200,
        # so a zero tolerance blocks all progress and the fallback must
        # finish (and flag) the partition.
        lengths = np.array([100, 100, 100], dtype=np.int64)
        result = agglomerate(
            3, 2, matrix_average_scorer(np.ones((3, 3))), LoadBalance(0.0),
            lengths,
        )
        assert len(result.clusters) == 2
        assert result.relaxed

    def test_unconstrained_greedy(self):
        m = symmetric({(0, 1): 9, (2, 3): 8, (0, 2): 1}, 4)
        result = agglomerate(
            4, 2, matrix_average_scorer(m), Unconstrained(), np.ones(4, np.int64)
        )
        clusters = {frozenset(c) for c in result.clusters}
        assert frozenset({0, 1}) in clusters

    def test_more_processors_than_threads_rejected(self):
        with pytest.raises(ValueError):
            agglomerate(
                2, 3, matrix_average_scorer(np.zeros((2, 2))), ThreadBalance(),
                np.ones(2, np.int64),
            )

    def test_wrong_lengths_rejected(self):
        with pytest.raises(ValueError):
            agglomerate(
                3, 2, matrix_average_scorer(np.zeros((3, 3))), ThreadBalance(),
                np.ones(5, np.int64),
            )

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        m = rng.random((10, 10))
        m = (m + m.T) / 2
        kwargs = dict(
            scorer=matrix_average_scorer(m),
            balance=ThreadBalance(),
            lengths=np.ones(10, np.int64),
        )
        a = agglomerate(10, 4, **kwargs)
        b = agglomerate(10, 4, **kwargs)
        assert a.clusters == b.clusters

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 12), st.integers(1, 6), st.integers(0, 10_000))
    def test_always_thread_balanced_partition(self, t, p, seed):
        """Under ThreadBalance the result is always an exact partition with
        floor/ceil cluster sizes."""
        if p > t:
            return
        rng = np.random.default_rng(seed)
        m = rng.random((t, t))
        m = (m + m.T) / 2
        np.fill_diagonal(m, 0)
        result = agglomerate(
            t, p, matrix_average_scorer(m), ThreadBalance(),
            rng.integers(1, 100, size=t).astype(np.int64),
        )
        assert sorted(x for c in result.clusters for x in c) == list(range(t))
        floor, ceil = t // p, -(-t // p)
        assert all(len(c) in (floor, ceil) for c in result.clusters)


class TestPathologicalMetrics:
    def test_all_zero_matrix(self):
        """No sharing signal at all: the engine still produces an exact
        thread-balanced partition (deterministically)."""
        result = agglomerate(
            8, 3, matrix_average_scorer(np.zeros((8, 8))), ThreadBalance(),
            np.ones(8, np.int64),
        )
        sizes = sorted(len(c) for c in result.clusters)
        assert sizes == [2, 3, 3]
        again = agglomerate(
            8, 3, matrix_average_scorer(np.zeros((8, 8))), ThreadBalance(),
            np.ones(8, np.int64),
        )
        assert result.clusters == again.clusters

    def test_all_equal_matrix(self):
        """Perfectly uniform sharing — the paper's workload in the limit:
        any thread-balanced partition is equally good, and one is found."""
        matrix = np.ones((9, 9)) - np.eye(9)
        result = agglomerate(
            9, 3, matrix_average_scorer(matrix), ThreadBalance(),
            np.ones(9, np.int64),
        )
        assert sorted(len(c) for c in result.clusters) == [3, 3, 3]
        assert not result.relaxed

    def test_negative_values(self):
        """Metrics may be negative (e.g. MIN-PRIV's secondary): ordering
        still works."""
        matrix = symmetric(
            {(i, j): -20.0 for i in range(4) for j in range(i + 1, 4)}, 4
        )
        matrix[2, 3] = matrix[3, 2] = -1.0  # the (least negative) maximum
        result = agglomerate(
            4, 2, matrix_average_scorer(matrix), ThreadBalance(),
            np.ones(4, np.int64),
        )
        clusters = {frozenset(c) for c in result.clusters}
        # Highest value (-1) pair combines first.
        assert frozenset({2, 3}) in clusters

    def test_single_thread(self):
        result = agglomerate(
            1, 1, matrix_average_scorer(np.zeros((1, 1))), ThreadBalance(),
            np.ones(1, np.int64),
        )
        assert result.clusters == [[0]]

    def test_huge_values_no_overflow(self):
        matrix = symmetric({(0, 1): 1e15, (2, 3): 1e14}, 4)
        result = agglomerate(
            4, 2, matrix_average_scorer(matrix), ThreadBalance(),
            np.ones(4, np.int64),
        )
        assert {frozenset(c) for c in result.clusters} == {
            frozenset({0, 1}), frozenset({2, 3})
        }
