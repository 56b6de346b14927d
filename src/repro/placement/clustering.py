"""The agglomerative clustering engine (paper §2.1).

All sharing-based placement algorithms share one skeleton: start with every
thread in its own cluster, repeatedly combine the pair of clusters with the
best sharing-metric value subject to the balance criteria, and backtrack
(undo the last combine and take the next-best choice) when the greedy path
dead-ends — "If forward progress is not possible, ... backtracking is
applied and the last combining step is undone until progress can be made"
(§2.1 step 4).

The engine is metric-agnostic: a *scorer* maps a cluster pair to a
comparable score (floats or tuples for lexicographic criteria like
SHARE-ADDR's), and a :class:`~repro.placement.balance.BalancePolicy`
decides admissibility.  If the search space is exhausted (or a backtrack
budget is hit — possible with adversarial metrics), the engine completes
the partition with a metric-blind fallback and flags the result, mirroring
the paper's observation that "+LB" algorithms sometimes "compromised on the
load balancing requirement and were unable to generate a well balanced
load".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.placement.balance import BalancePolicy, thread_balance_feasible
from repro.util.validate import check_positive

__all__ = [
    "ClusterScorer",
    "ClusteringResult",
    "agglomerate",
    "matrix_average_scorer",
    "cross_sums",
    "pair_scores",
    "MatrixAverageScorer",
]

# A scorer returns a comparable score for a cluster pair; tuples give
# lexicographic secondary criteria.  A *matrix scorer* also exposes what
# its score is a function of, so the engine can score many pairs at once
# and carry the sums across merges:
#
# * ``pair_matrices``: tuple of (t, t) thread-pair matrices;
# * ``thread_vector``: a per-thread vector summed per cluster, or None;
# * ``score_columns(sums, size_a, size_b, vec_a, vec_b)``: the (n, k)
#   score array of n cluster pairs, from one cross-sum array per matrix,
#   the two clusters' sizes and their ``thread_vector`` sums (None
#   without a vector).
#
# A scorer without ``pair_matrices`` is scored pair by pair through
# ``__call__`` by the reference loop.
ClusterScorer = Callable[[list[int], list[int]], tuple]


def cross_sums(matrix: np.ndarray, clusters: list[list[int]]) -> np.ndarray:
    """Cluster-by-cluster cross sums of a thread-pair matrix.

    ``result[i, j]`` is the sum of ``matrix[a, b]`` over threads a in
    cluster i and b in cluster j — the numerator of the paper's sharing
    metric, for every pair at once.
    """
    t = matrix.shape[0]
    membership = np.zeros((t, len(clusters)))
    for ci, cluster in enumerate(clusters):
        membership[cluster, ci] = 1.0
    return membership.T @ matrix @ membership


def pair_scores(
    scorer: ClusterScorer, clusters: list[list[int]]
) -> tuple[np.ndarray, np.ndarray]:
    """A matrix scorer's scores for every cluster pair: (scores, pairs).

    ``scores`` is (n_pairs, k), one column per score component;
    ``pairs`` the matching (n_pairs, 2) cluster index pairs, i < j.
    """
    upper_i, upper_j = np.triu_indices(len(clusters), k=1)
    sums = [cross_sums(matrix, clusters)[upper_i, upper_j]
            for matrix in scorer.pair_matrices]
    sizes = np.array([len(c) for c in clusters], dtype=float)
    vector = scorer.thread_vector
    if vector is None:
        vec_a = vec_b = None
    else:
        totals = np.array([float(vector[c].sum()) for c in clusters])
        vec_a, vec_b = totals[upper_i], totals[upper_j]
    scores = scorer.score_columns(sums, sizes[upper_i], sizes[upper_j],
                                  vec_a, vec_b)
    return scores, np.column_stack([upper_i, upper_j])


class MatrixAverageScorer:
    """The paper's sharing metric: averaged cross-cluster pair sum.

    sharing-metric(c_a, c_b) = sum of matrix[t_a, t_b] over t_a in c_a,
    t_b in c_b, divided by |c_a| * |c_b| (§2.1 step 2b).  The average
    normalizes the magnitude between clusters of unequal sizes.  Pass
    ``normalize=False`` for MIN-INVS's unnormalized separation cost.
    """

    thread_vector = None

    def __init__(self, matrix: np.ndarray, *, normalize: bool = True) -> None:
        self.matrix = np.asarray(matrix, dtype=float)
        self.normalize = normalize
        self.pair_matrices = (self.matrix,)

    def __call__(self, cluster_a: list[int], cluster_b: list[int]) -> tuple:
        total = float(self.matrix[np.ix_(cluster_a, cluster_b)].sum())
        if self.normalize:
            total /= len(cluster_a) * len(cluster_b)
        return (total,)

    def score_columns(self, sums, size_a, size_b, vec_a, vec_b) -> np.ndarray:
        """The (averaged) cross sum, as one score column."""
        total = sums[0]
        if self.normalize:
            total = total / (size_a * size_b)
        return total[:, None]


def matrix_average_scorer(matrix: np.ndarray) -> ClusterScorer:
    """Factory kept for API symmetry; see :class:`MatrixAverageScorer`."""
    return MatrixAverageScorer(matrix)


@dataclass(frozen=True)
class ClusteringResult:
    """Outcome of one agglomeration.

    Attributes:
        clusters: Final partition, ``num_processors`` clusters.
        merges: Total combine operations performed (including undone ones).
        backtracks: How many combines were undone.
        relaxed: True when the metric-blind fallback had to finish the job.
    """

    clusters: list[list[int]]
    merges: int
    backtracks: int
    relaxed: bool


def _candidate_order(pairs: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Permutation sorting candidates by key columns (most significant
    first), ties broken by the index pair for determinism."""
    # np.lexsort: last key is primary -> pair indices first (least
    # significant), then score components from least to most significant.
    columns = [pairs[:, 1], pairs[:, 0]]
    columns += [keys[:, c] for c in range(keys.shape[1] - 1, -1, -1)]
    return np.lexsort(tuple(columns))


def _ordered_candidates(
    clusters: list[list[int]], scorer: ClusterScorer, maximize: bool
) -> np.ndarray:
    """All cluster index pairs, best score first (deterministic ties).

    Returns an (n_pairs, 2) integer array of cluster index pairs, ordered
    by score (lexicographic across score components), ties broken by the
    index pair.
    """
    if getattr(scorer, "pair_matrices", None) is not None:
        scores, pairs = pair_scores(scorer, clusters)
    else:
        rows = [
            (scorer(clusters[i], clusters[j]), (i, j))
            for i in range(len(clusters))
            for j in range(i + 1, len(clusters))
        ]
        scores = np.array([list(score) for score, _ in rows], dtype=float)
        pairs = np.array([pair for _, pair in rows], dtype=np.int64)
    if maximize:
        scores = -scores
    return pairs[_candidate_order(pairs, scores)]


def _merge(clusters: list[list[int]], i: int, j: int) -> list[list[int]]:
    """New cluster list with clusters i and j combined (i < j)."""
    merged = clusters[i] + clusters[j]
    return (
        [c for k, c in enumerate(clusters) if k not in (i, j)] + [merged]
    )


def _fallback_finish(
    clusters: list[list[int]],
    num_processors: int,
    lengths: np.ndarray,
    num_threads: int,
) -> list[list[int]]:
    """Metric-blind completion: merge lightest clusters, preferring merges
    that keep exact thread balance reachable; relax if none do."""
    clusters = [list(c) for c in clusters]
    while len(clusters) > num_processors:
        order = sorted(
            range(len(clusters)), key=lambda k: int(lengths[clusters[k]].sum())
        )
        chosen: tuple[int, int] | None = None
        for a_pos in range(len(order)):
            for b_pos in range(a_pos + 1, len(order)):
                i, j = sorted((order[a_pos], order[b_pos]))
                merged = _merge(clusters, i, j)
                sizes = [len(c) for c in merged]
                if thread_balance_feasible(sizes, num_threads, num_processors):
                    chosen = (i, j)
                    break
            if chosen:
                break
        if chosen is None:
            # Nothing keeps balance reachable: merge the two lightest.
            chosen = tuple(sorted((order[0], order[1])))  # type: ignore[assignment]
        clusters = _merge(clusters, chosen[0], chosen[1])
    return clusters


def agglomerate(
    num_threads: int,
    num_processors: int,
    scorer: ClusterScorer,
    balance: BalancePolicy,
    lengths: Sequence[int] | np.ndarray,
    *,
    maximize: bool = True,
    max_backtracks: int = 2000,
    incremental: bool = True,
) -> ClusteringResult:
    """Run the §2.1 clustering algorithm.

    Args:
        num_threads: Thread count t (each starts in its own cluster).
        num_processors: Target cluster count p.
        scorer: Cluster-pair metric; higher is combined first when
            ``maximize``, lower first otherwise.
        balance: Admissibility of each combine.
        lengths: Per-thread instruction lengths (consulted by load-balance
            policies and by the fallback).
        maximize: Direction of the metric.
        max_backtracks: Search budget before the fallback finishes the
            partition.
        incremental: Use incrementally maintained search state: per-cluster
            sizes, loads and cross sums carried across merges
            (Lance–Williams), the candidate order kept and extended
            instead of re-sorted, one vectorized admissibility mask per
            state, and subtrees that cannot complete priced by the
            policy's ``failed_merges`` instead of walked.  The
            trajectory's counts — and therefore the result — are
            bit-identical to the reference loop
            (``incremental=False``), which is kept as the
            differential-testing oracle; scorers without (exactly
            summable integer) ``pair_matrices`` and policies without a
            :meth:`~repro.placement.balance.BalancePolicy.pair_mask`
            automatically fall back to the reference loop.

    Returns:
        A :class:`ClusteringResult` with exactly ``num_processors``
        clusters covering every thread.
    """
    check_positive("num_threads", num_threads)
    check_positive("num_processors", num_processors)
    if num_processors > num_threads:
        raise ValueError(
            f"cannot form {num_processors} non-empty clusters from "
            f"{num_threads} threads"
        )
    lengths = np.asarray(lengths, dtype=np.int64)
    if lengths.size != num_threads:
        raise ValueError(f"expected {num_threads} lengths, got {lengths.size}")

    if incremental:
        fast = _agglomerate_incremental(
            num_threads, num_processors, scorer, balance, lengths,
            maximize=maximize, max_backtracks=max_backtracks,
        )
        if fast is not None:
            return fast

    clusters: list[list[int]] = [[tid] for tid in range(num_threads)]
    # Each stack level: (clusters before the merge, candidate order, index
    # of the next candidate to try on re-entry).
    stack: list[tuple[list[list[int]], np.ndarray, int]] = []
    merges = 0
    backtracks = 0
    candidates = _ordered_candidates(clusters, scorer, maximize)
    next_index = 0

    while len(clusters) > num_processors:
        chosen: tuple[int, int] | None = None
        cluster_sizes = [len(c) for c in clusters]
        for k in range(next_index, len(candidates)):
            i, j = int(candidates[k][0]), int(candidates[k][1])
            sizes = [
                s for idx, s in enumerate(cluster_sizes) if idx not in (i, j)
            ] + [cluster_sizes[i] + cluster_sizes[j]]
            if balance.allows(
                clusters[i], clusters[j], sizes, lengths, num_threads,
                num_processors,
            ):
                chosen = (i, j)
                next_index = k + 1
                break
        if chosen is None:
            if not stack or backtracks >= max_backtracks:
                finished = _fallback_finish(
                    clusters, num_processors, lengths, num_threads
                )
                return ClusteringResult(finished, merges, backtracks, relaxed=True)
            clusters, candidates, next_index = stack.pop()
            backtracks += 1
            continue
        stack.append(([list(c) for c in clusters], candidates, next_index))
        clusters = _merge(clusters, chosen[0], chosen[1])
        merges += 1
        candidates = _ordered_candidates(clusters, scorer, maximize)
        next_index = 0

    return ClusteringResult(clusters, merges, backtracks, relaxed=False)


def _exact_sums(arrays: Sequence[np.ndarray]) -> bool:
    """Whether every partial sum of these arrays' entries is exact in
    float64: integer-valued entries whose absolute total is below 2**53."""
    return all(
        np.array_equal(a, np.round(a)) and float(np.abs(a).sum()) < 2.0 ** 53
        for a in arrays
    )


def _merged_sums(sums: np.ndarray, order: np.ndarray, j: int) -> np.ndarray:
    """Cross sums after merging clusters ``order[-1]`` and ``j`` (Lance–
    Williams).

    ``order`` lists the kept clusters, then the first merged one; the
    union takes that last slot, as :func:`_merge` appends it, and gets
    row ``sums[i] + sums[j]`` and the matching column.  With exact integer
    sums this equals :func:`cross_sums` of the merged partition bit for
    bit.
    """
    rows = sums.take(order, axis=0)
    out = rows.take(order, axis=1)
    out[:, -1] += rows[:, j]
    out[-1] += sums[j].take(order)
    out[-1, -1] += sums[j, j]
    return out


def _merge_slots(
    keys: np.ndarray, codes: np.ndarray,
    new_keys: np.ndarray, new_codes: np.ndarray,
) -> np.ndarray:
    """Where each new candidate lands when merged into ordered ones.

    Candidates order lexicographically by (key columns..., code), with
    codes unique across both sides.  numpy orders complex numbers by
    (real, imag), so each level is one ``searchsorted`` over two columns:
    the first two, then (tie-run id so far, next column).
    """
    rank = np.lexsort((new_codes, *new_keys.T[::-1]))
    slots = np.empty(rank.size, dtype=np.intp)
    slots[rank] = np.arange(rank.size)
    if codes.size == 0:
        return slots
    columns = [*keys.T, codes]
    new_columns = [*new_keys.T, new_codes]
    prefix, new_prefix = columns[0], new_columns[0]
    # [lo, hi): the ordered candidates tied with each new one so far.
    lo = np.zeros(new_codes.size, dtype=np.intp)
    hi = np.full(new_codes.size, codes.size, dtype=np.intp)
    for level in range(1, len(columns)):
        ordered = np.empty(codes.size, dtype=complex)
        ordered.real, ordered.imag = prefix, columns[level]
        query = np.empty(new_codes.size, dtype=complex)
        query.real, query.imag = new_prefix, new_columns[level]
        tied = lo < hi
        lo = np.where(tied, np.searchsorted(ordered, query, "left"), lo)
        if level + 1 == len(columns):
            break
        hi = np.where(tied, np.searchsorted(ordered, query, "right"), lo)
        prefix = np.zeros(codes.size)
        np.cumsum(ordered[1:] != ordered[:-1], out=prefix[1:])
        new_prefix = prefix[np.minimum(lo, codes.size - 1)]
    return slots + lo


def _agglomerate_incremental(
    num_threads: int,
    num_processors: int,
    scorer: ClusterScorer,
    balance: BalancePolicy,
    lengths: np.ndarray,
    *,
    maximize: bool,
    max_backtracks: int,
) -> ClusteringResult | None:
    """The incremental-state twin of the reference loop in ``agglomerate``.

    Same search, different bookkeeping.  Each state carries its sizes,
    loads, cross-sum matrices and ordered candidates (all immutable once
    made, so the backtrack stack shares them), and a merge derives the
    child's from the parent's:

    * the cross sums by a Lance–Williams row update (:func:`_merged_sums`);
    * the candidate order by keeping the surviving pairs' order — the
      renumbering after a merge is monotone, so neither their order nor
      their ties change — and slotting in the scored pairs with the new
      cluster (:func:`_merge_slots`);
    * admissibility by one vectorized ``pair_mask`` per built child.

    Before it builds a child, the loop asks the policy's
    ``failed_merges`` price with what is left of the budget.  An integer
    n means the reference loop would merge n times below the child,
    undo each of them and then the child itself, and never run out of
    budget on the way; the loop adds that and tries the next candidate.
    Otherwise it builds the child and searches below it, so when the
    budget runs out inside a failed subtree, this loop is on the
    reference's path and the fallback starts from the same clusters.

    Every sum is over integers below 2**53, so scores, order and every
    decision — merge choice, backtrack, fallback — land on exactly the
    reference loop's.  Returns ``None`` (run the reference loop) for a
    scorer without ``pair_matrices``, sums that would not be exact, or a
    policy without ``pair_mask``.
    """
    matrices = getattr(scorer, "pair_matrices", None)
    if matrices is None:
        return None
    vec = scorer.thread_vector
    if not _exact_sums(matrices if vec is None else (*matrices, vec)):
        return None
    clusters: list[list[int]] = [[tid] for tid in range(num_threads)]
    sizes = np.ones(num_threads, dtype=np.int64)
    loads = lengths.copy()
    sums = tuple(np.asarray(m, dtype=float) for m in matrices)
    scores, pairs = pair_scores(scorer, clusters)
    keys = -scores if maximize else scores
    order = _candidate_order(pairs, keys)
    pairs, keys = pairs[order], keys[order]
    mask = balance.pair_mask(pairs, sizes, loads, num_threads,
                             num_processors)
    if mask is None:
        return None
    memo: dict = {}
    cost = balance.failed_merges(sizes, loads, num_threads, num_processors,
                                 memo)
    # The admissible candidates' positions, and how many are spent.
    live: list[int] = np.flatnonzero(mask).tolist()
    cursor = 0
    stack: list[tuple] = []
    merges = 0
    backtracks = 0

    while len(clusters) > num_processors:
        if cursor == len(live):
            if not stack or backtracks >= max_backtracks:
                finished = _fallback_finish(
                    clusters, num_processors, lengths, num_threads
                )
                return ClusteringResult(finished, merges, backtracks,
                                        relaxed=True)
            (clusters, sizes, loads, vec, sums, pairs, keys, cost, live,
             cursor) = stack.pop()
            backtracks += 1
            continue
        k = live[cursor]
        cursor += 1
        i, j = int(pairs[k, 0]), int(pairs[k, 1])
        merges += 1
        n = len(clusters)
        if n - 1 == num_processors:
            return ClusteringResult(_merge(clusters, i, j), merges,
                                    backtracks, relaxed=False)
        if cost is not None:
            # The child's failed subtree, if the budget outlasts it.
            below = cost(i, j, max_backtracks - backtracks - 1)
            if below is not None:
                backtracks += below + 1
                merges += below
                continue
        stack.append((clusters, sizes, loads, vec, sums, pairs, keys, cost,
                      live, cursor))
        # The child's clusters in _merge's order: the kept ones, then the
        # union, which takes cluster i's entry plus cluster j's.
        order = np.arange(n - 1)
        order[i:] += 1
        order[j - 1:] += 1
        order[-1] = i
        clusters = _merge(clusters, i, j)
        child_sizes = sizes.take(order)
        child_sizes[-1] += sizes[j]
        child_loads = loads.take(order)
        child_loads[-1] += loads[j]
        sizes, loads = child_sizes, child_loads
        if vec is not None:
            child_vec = vec.take(order)
            child_vec[-1] += vec[j]
            vec = child_vec
        sums = tuple(_merged_sums(s, order, j) for s in sums)

        # Surviving pairs keep their order under the monotone renumbering;
        # the pairs with the union (index m) are scored and slotted in.
        m = n - 2
        renumber = np.empty(n, dtype=np.int64)
        renumber[order] = np.arange(n - 1)
        renumber[j] = m
        moved = renumber[pairs]
        survive = moved.max(axis=1) < m
        old_pairs, old_keys = moved[survive], keys[survive]
        size_f = sizes.astype(float)
        new_keys = scorer.score_columns(
            [s[:m, m] for s in sums], size_f[:m], size_f[m],
            None if vec is None else vec[:m],
            None if vec is None else vec[m],
        )
        if maximize:
            new_keys = -new_keys
        new_codes = np.arange(m) * num_threads + m
        slots = _merge_slots(
            old_keys, old_pairs[:, 0] * num_threads + old_pairs[:, 1],
            new_keys, new_codes,
        )
        is_old = np.ones(old_pairs.shape[0] + m, dtype=bool)
        is_old[slots] = False
        pairs = np.empty((is_old.size, 2), dtype=np.int64)
        pairs[is_old] = old_pairs
        pairs[slots, 0] = np.arange(m)
        pairs[slots, 1] = m
        keys = np.empty((is_old.size, old_keys.shape[1]))
        keys[is_old] = old_keys
        keys[slots] = new_keys

        mask = balance.pair_mask(pairs, sizes, loads, num_threads,
                                 num_processors)
        cost = balance.failed_merges(sizes, loads, num_threads,
                                     num_processors, memo)
        live = np.flatnonzero(mask).tolist()
        cursor = 0

    return ClusteringResult(clusters, merges, backtracks, relaxed=False)
