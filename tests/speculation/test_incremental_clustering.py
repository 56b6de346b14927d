"""Differential tier for the incremental clustering-engine state.

The clustering engine has two loops: the from-scratch reference (every
state re-scores and re-sorts every pair, every candidate re-derives sizes
and re-asks ``allows``) and the incremental path (cross sums carried by
Lance–Williams updates, the candidate order kept across merges, one
vectorized ``pair_mask`` per state, and failed subtrees priced by the
policy's ``failed_merges`` instead of walked).  The contract: same
trajectory, same backtracks, same fallback, same clusters — bit for bit,
for every scorer and balance policy.

CI runs this file derandomized (``--hypothesis-profile=oracle-ci``); the
tests marked ``oracle`` also run in the oracle job.
"""

from dataclasses import dataclass, field

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
    _merge_slots,
    agglomerate,
)
from repro.placement.metrics import MinPrivScorer, ShareAddrScorer  # noqa: E402
from repro.topo.placement import _SubsetScorer  # noqa: E402

pytestmark = pytest.mark.speculation


def _assert_equal_runs(fast, ref):
    assert fast.clusters == ref.clusters
    assert fast.merges == ref.merges
    assert fast.backtracks == ref.backtracks
    assert fast.relaxed == ref.relaxed


@st.composite
def pair_matrices(draw, width, high):
    """A symmetric integer-valued thread-pair matrix (zero diagonal);
    small ``high`` values make score ties common."""
    upper = draw(st.lists(st.integers(0, high),
                          min_size=width * (width - 1) // 2,
                          max_size=width * (width - 1) // 2))
    matrix = np.zeros((width, width))
    matrix[np.triu_indices(width, k=1)] = upper
    return matrix + matrix.T


@st.composite
def clustering_problems(draw):
    """(t, p, lengths, scorer, maximize) — integer-valued matrices so
    float reductions are exact in any summation order.  The scorer is any
    of the three scorer classes, optionally wrapped in the hierarchical
    placement's ``_SubsetScorer`` over a subset of a wider thread set."""
    t = draw(st.integers(min_value=2, max_value=16))
    p = draw(st.integers(min_value=1, max_value=t))
    subset = None
    width = t
    if draw(st.booleans()):
        width = t + draw(st.integers(0, 4))
        subset = sorted(draw(st.permutations(range(width)))[:t])
    high = draw(st.sampled_from([2, 50]))
    kind = draw(st.sampled_from(["average", "share-addr", "min-priv"]))
    refs = draw(pair_matrices(width, high))
    if kind == "average":
        scorer = MatrixAverageScorer(refs, normalize=draw(st.booleans()))
    elif kind == "share-addr":
        scorer = ShareAddrScorer(refs, draw(pair_matrices(width, 3)))
    else:
        private = draw(st.lists(st.integers(0, 5), min_size=width,
                                max_size=width))
        scorer = MinPrivScorer(refs, np.array(private, dtype=float))
    if subset is not None:
        scorer = _SubsetScorer(scorer, subset)
    lengths = draw(st.lists(st.integers(1, 1000), min_size=t, max_size=t))
    maximize = draw(st.booleans())
    return t, p, lengths, scorer, maximize


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
        t, p, lengths, scorer, maximize = problem
        fast = agglomerate(t, p, scorer, policy, lengths,
                           maximize=maximize, incremental=True)
        ref = agglomerate(t, p, scorer, policy, lengths,
                          maximize=maximize, incremental=False)
        _assert_equal_runs(fast, ref)

    @settings(max_examples=60, deadline=None)
    @given(problem=clustering_problems(),
           policy=st.sampled_from([ThreadBalance(), LoadBalance(0.10),
                                   LoadBalance(0.0)]),
           budget=st.integers(min_value=0, max_value=5))
    def test_equal_under_tiny_backtrack_budgets(self, problem, policy,
                                                budget):
        """The budget cut-off and the metric-blind fallback must trigger
        at exactly the same point in both loops — under LoadBalance also
        when the cut-off lands in a subtree the incremental loop would
        otherwise price without walking."""
        t, p, lengths, scorer, maximize = problem
        fast = agglomerate(t, p, scorer, policy, lengths,
                           maximize=maximize, max_backtracks=budget,
                           incremental=True)
        ref = agglomerate(t, p, scorer, policy, lengths,
                          maximize=maximize, max_backtracks=budget,
                          incremental=False)
        _assert_equal_runs(fast, ref)

    @settings(max_examples=100, deadline=None)
    @given(clusters=st.integers(3, 12).flatmap(
               lambda n: st.lists(st.integers(1, 1000), min_size=n,
                                  max_size=n)),
           processors=st.integers(1, 4),
           tolerance=st.sampled_from([0.0, 0.10, 0.35]),
           data=st.data())
    def test_dead_merges_cost_zero_pointwise(self, clusters, processors,
                                             tolerance, data):
        """``cost(i, j, cap)`` is 0 exactly when the merged state's mask is
        all-False, for every merge of a random state; a child that is
        already a full partition, or a negative budget, is never
        priced."""
        policy = LoadBalance(tolerance)
        loads = np.array(clusters, dtype=np.int64)
        sizes = np.array(data.draw(st.lists(
            st.integers(1, 3), min_size=loads.size, max_size=loads.size)),
            dtype=np.int64)
        cost = policy.failed_merges(sizes, loads, int(sizes.sum()),
                                    processors, {})
        n = loads.size
        for i in range(n):
            for j in range(i + 1, n):
                price = cost(i, j, 1000)
                assert cost(i, j, -1) is None
                if n - 1 <= processors:
                    assert price is None, (i, j)
                    continue
                keep = [k for k in range(n) if k not in (i, j)]
                child_sizes = np.append(sizes[keep], sizes[i] + sizes[j])
                child_loads = np.append(loads[keep], loads[i] + loads[j])
                pairs = np.array([(a, b) for a in range(n - 1)
                                  for b in range(a + 1, n - 1)],
                                 dtype=np.int64)
                mask = policy.pair_mask(pairs, child_sizes, child_loads,
                                        int(sizes.sum()), processors)
                assert (price == 0) == (not mask.any()), (i, j)

    @pytest.mark.oracle
    @settings(max_examples=100, deadline=None)
    @given(sizes=st.lists(st.integers(1, 4), min_size=2, max_size=12),
           processors=st.integers(1, 6))
    def test_thread_balance_mask_matches_allows(self, sizes, processors):
        """The mask derived once per size multiset answers every pair of
        a state as ``allows`` does."""
        t = sum(sizes)
        processors = min(processors, len(sizes))
        policy = ThreadBalance()
        n = len(sizes)
        pairs = np.array([(i, j) for i in range(n) for j in range(i + 1, n)],
                         dtype=np.int64)
        array = np.array(sizes, dtype=np.int64)
        mask = policy.pair_mask(pairs, array, array, t, processors)
        start = np.cumsum([0] + sizes)
        clusters = [list(range(start[k], start[k + 1])) for k in range(n)]
        for (i, j), got in zip(pairs, mask):
            post = [s for k, s in enumerate(sizes) if k not in (i, j)]
            post.append(sizes[i] + sizes[j])
            assert bool(got) == policy.allows(
                clusters[i], clusters[j], post, np.ones(t), t, processors)


def _random_matrix(rng, t):
    matrix = rng.integers(0, 40, size=(t, t)).astype(float)
    matrix = matrix + matrix.T
    np.fill_diagonal(matrix, 0.0)
    return matrix


def _root_count(policy, lengths, processors, cap):
    """The policy's price of a whole search: every admissible merge of the
    all-singletons state, plus its child's count, plus the backtrack
    undoing it — or ``None`` if any child is not priced."""
    n = len(lengths)
    sizes = np.ones(n, dtype=np.int64)
    loads = np.array(lengths, dtype=np.int64)
    pairs = np.array([(i, j) for i in range(n) for j in range(i + 1, n)],
                     dtype=np.int64)
    admissible = pairs[policy.pair_mask(pairs, sizes, loads, n, processors)]
    cost = policy.failed_merges(sizes, loads, n, processors, {})
    prices = [cost(int(i), int(j), cap) for i, j in admissible]
    return None if None in prices else sum(price + 1 for price in prices)


#: The reference searches' budget in the count oracle.  A run that ends
#: relaxed below it emptied its stack, exactly as it would with any larger
#: budget, so its backtracks are the whole search's.
REFERENCE_BUDGET = 2000


@st.composite
def tight_load_problems(draw):
    """(lengths, processors, policy): at most nine threads under tight
    tolerances, so the reference's exhaustive search stays small; small
    lengths tie often, which makes packings fail."""
    n = draw(st.integers(3, 9))
    processors = draw(st.integers(2, n - 1))
    high = draw(st.sampled_from([12, 1000]))
    lengths = draw(st.lists(st.integers(1, high), min_size=n, max_size=n))
    policy = LoadBalance(draw(st.sampled_from([0.0, 0.02, 0.05])))
    return lengths, processors, policy


@pytest.mark.oracle
class TestFailedSubtreeCount:
    @settings(max_examples=150, deadline=None)
    @given(problem=tight_load_problems(), seed=st.integers(0, 2 ** 16))
    def test_count_equals_the_reference_search(self, problem, seed):
        """The priced search equals the reference loop's: its backtracks
        when the stack empties, ``None`` when the search completes."""
        lengths, processors, policy = problem
        n = len(lengths)
        count = _root_count(policy, lengths, processors, 10 ** 9)
        ref = agglomerate(
            n, processors,
            MatrixAverageScorer(_random_matrix(np.random.default_rng(seed),
                                               n)),
            policy, lengths, max_backtracks=REFERENCE_BUDGET,
            incremental=False)
        if not ref.relaxed:
            assert count is None
        elif ref.backtracks < REFERENCE_BUDGET:
            assert count == ref.backtracks
        else:
            assert count is None or count >= REFERENCE_BUDGET

    def test_count_by_hand(self):
        """Five equal loads into two bins of 2.5: only pairs of singletons
        merge.  The root's 10 pairs each lead to {1, 1, 1, 2}, whose 3
        pairs each lead to the dead {1, 2, 2}: 10 * (3 * 1 + 1) = 40."""
        lengths = [1] * 5
        assert _root_count(LoadBalance(0.0), lengths, 2, 10 ** 9) == 40
        assert _root_count(LoadBalance(0.0), lengths, 2, 3) == 40
        assert _root_count(LoadBalance(0.0), lengths, 2, 2) is None
        ref = agglomerate(5, 2, MatrixAverageScorer(np.zeros((5, 5))),
                          LoadBalance(0.0), lengths, incremental=False)
        assert (ref.backtracks, ref.relaxed) == (40, True)

    def test_budget_cut_offs_inside_priced_subtrees(self):
        """With near-equal lengths most subtrees fail and are priced; with
        budgets up to 60 the budget often runs out inside one.  The loop
        must then walk the reference's path and finish from the same
        clusters.  The sample must contain such cut-offs, so the test
        cannot silently stop covering them."""
        rng = np.random.default_rng(21)
        cut_offs = 0
        for _ in range(150):
            t = int(rng.integers(6, 13))
            processors = int(rng.integers(2, 6))
            lengths = (100 + rng.integers(0, 4, size=t)).tolist()
            tolerance = float(rng.choice([0.0, 0.02, 0.10]))
            budget = int(rng.integers(0, 61))
            scorer = MatrixAverageScorer(_random_matrix(rng, t))
            maximize = bool(rng.integers(0, 2))
            logged = _PricingLog(tolerance)
            fast = agglomerate(t, processors, scorer, logged, lengths,
                               maximize=maximize, max_backtracks=budget,
                               incremental=True)
            ref = agglomerate(t, processors, scorer, LoadBalance(tolerance),
                              lengths, maximize=maximize,
                              max_backtracks=budget, incremental=False)
            _assert_equal_runs(fast, ref)
            cut_offs += sum(
                1 for cost, i, j, cap, answer in logged.log
                if answer is None and cap >= 0
                and cost(i, j, 10 ** 6) is not None)
        assert cut_offs >= 100


@dataclass(frozen=True)
class _PricingLog(LoadBalance):
    """``LoadBalance`` logging every priced child as
    ``(cost, i, j, cap, answer)``."""

    log: list = field(default_factory=list, compare=False)

    def failed_merges(self, sizes, loads, num_threads, num_processors, memo):
        cost = super().failed_merges(sizes, loads, num_threads,
                                     num_processors, memo)

        def logged(i, j, cap):
            answer = cost(i, j, cap)
            self.log.append((cost, i, j, cap, answer))
            return answer

        return logged


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

    @pytest.mark.parametrize("columns", [1, 2, 3])
    def test_merge_slots_match_a_full_sort(self, columns):
        """Slotting new candidates into ordered ones lands each where a
        full lexicographic sort of both puts it, ties and -0.0 included,
        for any number of key columns."""
        rng = np.random.default_rng(columns)
        for _ in range(200):
            size = int(rng.integers(0, 30))
            new_size = int(rng.integers(1, 8))
            keys = rng.integers(-2, 3, size=(size + new_size, columns)) * 1.0
            keys[keys == 0] *= rng.choice([-1.0, 1.0],
                                          size=int((keys == 0).sum()))
            codes = rng.permutation(100)[:size + new_size]
            full = np.lexsort((codes, *keys.T[::-1]))
            old = full[full < size]
            slots = _merge_slots(keys[old], codes[old], keys[size:],
                                 codes[size:])
            expected = [int(np.flatnonzero(full == size + q)[0])
                        for q in range(new_size)]
            assert slots.tolist() == expected

    @pytest.mark.parametrize("policy", [ThreadBalance(), Unconstrained()],
                             ids=lambda p: type(p).__name__)
    def test_policies_without_a_subtree_price_say_unknown(self, policy):
        sizes = np.array([1, 2, 3], dtype=np.int64)
        assert policy.failed_merges(sizes, sizes * 10, 6, 2, {}) is None

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
