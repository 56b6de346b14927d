"""Tests for the sharing-metric scorers."""

import numpy as np
import pytest

from repro.placement.clustering import pair_scores
from repro.placement.metrics import (
    MinPrivScorer,
    ShareAddrScorer,
    coherence_traffic_scorer,
    max_writes_scorer,
    min_invs_scorer,
    min_priv_scorer,
    min_share_scorer,
    share_addr_scorer,
    share_refs_scorer,
)
from repro.trace.analysis import TraceSetAnalysis
from repro.trace.stream import ThreadTrace, TraceSet


@pytest.fixture
def analysis():
    """Threads 0,1 heavily share address 1 (0 writes it); thread 2 shares
    address 2 lightly with thread 1; thread 3 is nearly isolated."""
    def trace(tid, refs):
        gaps = np.zeros(len(refs), np.int64)
        addrs = np.array([a for a, _ in refs], np.int64)
        writes = np.array([w for _, w in refs], bool)
        return ThreadTrace(tid, gaps, addrs, writes)

    return TraceSetAnalysis(
        TraceSet(
            "t",
            [
                trace(0, [(1, True), (1, False), (1, False), (10, False)]),
                trace(1, [(1, False), (1, False), (2, False)]),
                trace(2, [(2, False), (20, False), (20, False)]),
                trace(3, [(30, False), (1, False)]),
            ],
        )
    )


class TestShareRefsScorer:
    def test_pair_values(self, analysis):
        scorer = share_refs_scorer(analysis)
        # Threads 0,1 common addr {1}: 3 + 2 = 5 refs.
        assert scorer([0], [1]) == (5.0,)
        # Threads 1,2 common addr {2}: 1 + 1 = 2.
        assert scorer([1], [2]) == (2.0,)

    def test_cluster_average(self, analysis):
        scorer = share_refs_scorer(analysis)
        # ({0,1},{2}): (refs(0,2)=0 + refs(1,2)=2) / 2.
        assert scorer([0, 1], [2]) == (1.0,)


class TestShareAddrScorer:
    def test_density_secondary(self, analysis):
        scorer = share_addr_scorer(analysis)
        primary, density = scorer([0], [1])
        assert primary == 5.0
        assert density == pytest.approx(5.0)  # 5 refs / 1 common addr

    def test_zero_addrs_zero_density(self):
        scorer = ShareAddrScorer(np.zeros((2, 2)), np.zeros((2, 2)))
        assert scorer([0], [1]) == (0.0, 0.0)

    def test_prefers_denser_sharing(self):
        refs = np.array([[0, 10, 10], [10, 0, 0], [10, 0, 0]], float)
        addrs = np.array([[0, 1, 5], [1, 0, 0], [5, 0, 0]], float)
        scorer = ShareAddrScorer(refs, addrs)
        dense = scorer([0], [1])
        sparse = scorer([0], [2])
        assert dense[0] == sparse[0]  # same refs
        assert dense > sparse  # density tie-break


class TestMinPrivScorer:
    def test_secondary_negates_private(self, analysis):
        scorer = min_priv_scorer(analysis)
        primary, secondary = scorer([0], [1])
        assert primary == 5.0
        # Thread 0 has private addr {10}: 1; thread 1 has none.
        assert secondary == -1.0

    def test_prefers_less_private(self):
        refs = np.zeros((3, 3))
        scorer = MinPrivScorer(refs, np.array([5.0, 1.0, 9.0]))
        light = scorer([0], [1])
        heavy = scorer([0], [2])
        assert light > heavy


class TestMinInvsScorer:
    def test_unnormalized(self, analysis):
        scorer = min_invs_scorer(analysis)
        # Write-shared between 0,1: addr 1 written by 0 -> 3+2=5.
        assert scorer([0], [1]) == (5.0,)
        # Cluster {0,1} vs {2}: write-shared(0,2)=0, (1,2)=0 -> total 0,
        # NOT divided by cluster sizes.
        assert scorer([0, 1], [2]) == (0.0,)


class TestMaxWritesScorer:
    def test_only_write_shared_counted(self, analysis):
        scorer = max_writes_scorer(analysis)
        # (1,2) share addr 2, never written -> 0.
        assert scorer([1], [2]) == (0.0,)
        # (0,1) share addr 1, written by 0 -> 5, averaged /1.
        assert scorer([0], [1]) == (5.0,)


class TestMinShareScorer:
    def test_same_matrix_as_share_refs(self, analysis):
        assert min_share_scorer(analysis)([0], [1]) == share_refs_scorer(analysis)(
            [0], [1]
        )


class TestCoherenceTrafficScorer:
    def test_valid_matrix(self):
        m = np.array([[0, 3], [3, 0]], float)
        scorer = coherence_traffic_scorer(m)
        assert scorer([0], [1]) == (3.0,)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            coherence_traffic_scorer(np.zeros((2, 3)))

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            coherence_traffic_scorer(np.array([[0, 1], [2, 0]], float))


class TestBatchConsistency:
    """Every scorer's batch path must agree with its scalar path."""

    @pytest.mark.parametrize(
        "factory",
        [
            share_refs_scorer,
            share_addr_scorer,
            min_priv_scorer,
            min_invs_scorer,
            max_writes_scorer,
            min_share_scorer,
        ],
        ids=lambda f: f.__name__,
    )
    def test_batch_matches_scalar(self, analysis, factory):
        scorer = factory(analysis)
        clusters = [[0, 2], [1], [3]]
        scores, pairs = pair_scores(scorer, clusters)
        for score_row, (i, j) in zip(scores, pairs):
            expected = scorer(clusters[i], clusters[j])
            assert tuple(score_row) == pytest.approx(tuple(expected))
