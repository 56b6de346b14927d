"""Differential tier for the incremental clustering-engine state.

The clustering engine has two loops: the from-scratch reference (every
candidate re-derives sizes and re-asks ``allows``) and the incremental
path (per-cluster size/load arrays carried across merges, one vectorized
``pair_mask`` per state).  The contract: same trajectory, same
backtracks, same fallback, same clusters — bit for bit, for every metric
and balance policy.

CI runs this file derandomized (``--hypothesis-profile=oracle-ci``).
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.placement.balance import (  # noqa: E402
    LoadBalance,
    ThreadBalance,
    Unconstrained,
)
from repro.placement.clustering import (  # noqa: E402
    MatrixAverageScorer,
    agglomerate,
)

pytestmark = pytest.mark.speculation


def _assert_equal_runs(fast, ref):
    assert fast.clusters == ref.clusters
    assert fast.merges == ref.merges
    assert fast.backtracks == ref.backtracks
    assert fast.relaxed == ref.relaxed


@st.composite
def clustering_problems(draw):
    """(t, p, matrix, lengths, scorer, maximize) — integer-valued sharing
    matrices so float reductions are exact in any summation order."""
    t = draw(st.integers(min_value=2, max_value=12))
    p = draw(st.integers(min_value=1, max_value=t))
    upper = draw(st.lists(st.integers(0, 50),
                          min_size=t * (t - 1) // 2,
                          max_size=t * (t - 1) // 2))
    matrix = np.zeros((t, t))
    matrix[np.triu_indices(t, k=1)] = upper
    matrix += matrix.T
    lengths = draw(st.lists(st.integers(1, 1000), min_size=t, max_size=t))
    normalize = draw(st.booleans())
    maximize = draw(st.booleans())
    return t, p, matrix, lengths, MatrixAverageScorer(
        matrix, normalize=normalize), maximize


POLICIES = [
    ThreadBalance(),
    LoadBalance(0.10),
    LoadBalance(0.35),
    Unconstrained(),
]


class TestIncrementalClusteringDifferential:
    @settings(max_examples=150, deadline=None)
    @given(problem=clustering_problems(),
           policy=st.sampled_from(POLICIES))
    def test_incremental_equals_reference(self, problem, policy):
        t, p, _matrix, lengths, scorer, maximize = problem
        fast = agglomerate(t, p, scorer, policy, lengths,
                           maximize=maximize, incremental=True)
        ref = agglomerate(t, p, scorer, policy, lengths,
                          maximize=maximize, incremental=False)
        _assert_equal_runs(fast, ref)

    @settings(max_examples=60, deadline=None)
    @given(problem=clustering_problems(),
           budget=st.integers(min_value=0, max_value=5))
    def test_equal_under_tiny_backtrack_budgets(self, problem, budget):
        """The budget cut-off and the metric-blind fallback must trigger
        at exactly the same point in both loops."""
        t, p, _matrix, lengths, scorer, maximize = problem
        fast = agglomerate(t, p, scorer, ThreadBalance(), lengths,
                           maximize=maximize, max_backtracks=budget,
                           incremental=True)
        ref = agglomerate(t, p, scorer, ThreadBalance(), lengths,
                          maximize=maximize, max_backtracks=budget,
                          incremental=False)
        _assert_equal_runs(fast, ref)


class TestIncrementalClusteringUnit:
    def test_policy_without_pair_mask_falls_back_to_reference(self):
        """A custom policy with only ``allows`` must still work (and the
        engine must produce the reference answer through it)."""
        calls = []

        class OddOnly(ThreadBalance):
            def allows(self, a, b, sizes, lengths, t, p):
                calls.append((tuple(a), tuple(b)))
                return super().allows(a, b, sizes, lengths, t, p)

            def pair_mask(self, pairs, sizes, loads, t, p):
                return None

        matrix = np.arange(36, dtype=float).reshape(6, 6)
        matrix = matrix + matrix.T
        np.fill_diagonal(matrix, 0.0)
        scorer = MatrixAverageScorer(matrix)
        fast = agglomerate(6, 3, scorer, OddOnly(), [1] * 6,
                           incremental=True)
        assert calls, "fallback must route through allows()"
        ref = agglomerate(6, 3, scorer, ThreadBalance(), [1] * 6,
                          incremental=False)
        _assert_equal_runs(fast, ref)

    def test_backtracking_search_is_identical(self):
        """A metric that prefers inadmissible merges forces real
        backtracking; counters must agree exactly."""
        rng = np.random.default_rng(7)
        t = 9
        matrix = rng.integers(0, 40, size=(t, t)).astype(float)
        matrix = matrix + matrix.T
        np.fill_diagonal(matrix, 0.0)
        scorer = MatrixAverageScorer(matrix)
        lengths = rng.integers(1, 500, size=t)
        fast = agglomerate(t, 4, scorer, LoadBalance(0.10), lengths,
                           incremental=True)
        ref = agglomerate(t, 4, scorer, LoadBalance(0.10), lengths,
                          incremental=False)
        _assert_equal_runs(fast, ref)

    @pytest.mark.parametrize("policy", POLICIES,
                             ids=lambda p: type(p).__name__)
    def test_pair_mask_matches_allows_pointwise(self, policy):
        """The vectorized mask must equal allows() pair by pair on a
        mid-search state with mixed cluster sizes and loads."""
        clusters = [[0, 1], [2], [3, 4, 5], [6], [7, 8]]
        lengths = np.array([5, 7, 100, 3, 9, 2, 40, 11, 13], dtype=np.int64)
        sizes = np.array([len(c) for c in clusters], dtype=np.int64)
        loads = np.array([int(lengths[c].sum()) for c in clusters],
                         dtype=np.int64)
        n = len(clusters)
        pairs = np.array([(i, j) for i in range(n) for j in range(i + 1, n)],
                         dtype=np.int64)
        mask = policy.pair_mask(pairs, sizes, loads, 9, 3)
        assert mask is not None
        for (i, j), got in zip(pairs, mask):
            post = [int(s) for k, s in enumerate(sizes) if k not in (i, j)]
            post.append(int(sizes[i] + sizes[j]))
            expected = policy.allows(clusters[i], clusters[j], post,
                                     lengths, 9, 3)
            assert bool(got) == expected, (type(policy).__name__, i, j)

    def test_suite_placements_identical_with_and_without_machinery(self):
        """End to end: the default suite's placements must equal the
        audited suite's reference-loop placements (this is what makes
        reports byte-identical)."""
        from repro.experiments.runner import ExperimentSuite

        on = ExperimentSuite(scale=0.001, seed=0)
        off = ExperimentSuite(scale=0.001, seed=0, check_invariants=True)
        for algo in ("SHARE-REFS", "MIN-INVS+LB", "MIN-SHARE",
                     "MAX-WRITES+LB"):
            assert on.placement("Water", algo, 4) == \
                off.placement("Water", algo, 4), algo
