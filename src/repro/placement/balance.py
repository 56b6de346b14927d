"""Balance constraints for cluster combining.

Two constraint families from the paper's §2:

* **Thread balance** (the default): the final partition must have cluster
  sizes in {⌊t/p⌋, ⌈t/p⌉}.  During combining, a merge is admissible only if
  the resulting multiset of cluster sizes can *still* be merged down to
  such a partition — an exact feasibility question this module answers with
  a memoized search (:func:`thread_balance_feasible`).
* **Load balance** (the "+LB" variants, §2 item 8): a merge is admissible
  while the combined instruction load of the two clusters stays within a
  tolerance (typically 10%) of the ideal per-processor load.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from repro.util.validate import check_positive, check_range

__all__ = [
    "balanced_cluster_sizes",
    "thread_balance_feasible",
    "BalancePolicy",
    "ThreadBalance",
    "LoadBalance",
    "Unconstrained",
]


def balanced_cluster_sizes(num_threads: int, num_processors: int) -> list[int]:
    """Target cluster sizes of a thread-balanced placement (descending).

    ``t mod p`` clusters of size ⌈t/p⌉ and the rest of size ⌊t/p⌋.
    """
    check_positive("num_threads", num_threads)
    check_positive("num_processors", num_processors)
    if num_processors > num_threads:
        raise ValueError(
            f"{num_processors} processors for {num_threads} threads: "
            "some processor would be empty"
        )
    floor = num_threads // num_processors
    remainder = num_threads % num_processors
    return [floor + 1] * remainder + [floor] * (num_processors - remainder)


@lru_cache(maxsize=200_000)
def _can_pack(sizes: tuple[int, ...], bins: tuple[int, ...]) -> bool:
    """Can the size multiset be merged into groups with exactly these sums?

    Classic number-partitioning feasibility, exact via DFS.  ``sizes`` must
    be sorted descending and ``bins`` sorted descending; memoized on the
    canonical state.  Cluster counts here are small (they only shrink as
    combining proceeds) and sizes repeat heavily, so the cache keeps this
    fast in practice.
    """
    if not sizes:
        return all(b == 0 for b in bins)
    first, rest = sizes[0], sizes[1:]
    tried: set[int] = set()
    for i, capacity in enumerate(bins):
        if capacity in tried or capacity < first:
            continue
        tried.add(capacity)
        new_bins = tuple(sorted(
            bins[:i] + (capacity - first,) + bins[i + 1:], reverse=True
        ))
        if _can_pack(rest, new_bins):
            return True
    return False


def thread_balance_feasible(
    cluster_sizes: Sequence[int], num_threads: int, num_processors: int
) -> bool:
    """Can these clusters still reach a thread-balanced final partition?

    True iff the multiset of current cluster sizes can be merged (merging
    only ever unions whole clusters) into exactly ``num_processors`` groups
    whose sizes are ⌊t/p⌋ or ⌈t/p⌉.
    """
    sizes = tuple(sorted((int(s) for s in cluster_sizes), reverse=True))
    if sum(sizes) != num_threads:
        raise ValueError(
            f"cluster sizes sum to {sum(sizes)}, expected {num_threads}"
        )
    if len(sizes) < num_processors:
        return False
    bins = tuple(balanced_cluster_sizes(num_threads, num_processors))
    return _can_pack(sizes, bins)


class BalancePolicy:
    """Decides whether two clusters may be combined, given engine state.

    :meth:`allows` is the one required answer, asked pair by pair by the
    clustering engine's reference loop.  :meth:`pair_mask` (the same
    answers for many pairs at once) and :meth:`failed_merges` (the exact
    cost of searching below a merge that cannot complete) are optional
    and let the incremental loop skip work without changing a result.
    """

    def allows(
        self,
        cluster_a: list[int],
        cluster_b: list[int],
        all_sizes: Sequence[int],
        lengths: np.ndarray,
        num_threads: int,
        num_processors: int,
    ) -> bool:
        """May clusters a and b merge?

        Args:
            cluster_a, cluster_b: The candidate clusters (thread ids).
            all_sizes: Sizes of *all* current clusters, with a and b merged
                already reflected (callers pass the post-merge multiset).
            lengths: Per-thread instruction lengths.
            num_threads / num_processors: Problem dimensions.
        """
        raise NotImplementedError

    def pair_mask(
        self,
        pairs: np.ndarray,
        sizes: np.ndarray,
        loads: np.ndarray,
        num_threads: int,
        num_processors: int,
    ) -> np.ndarray | None:
        """Vectorized :meth:`allows` over many candidate pairs at once.

        Args:
            pairs: ``(n, 2)`` integer array of cluster index pairs.
            sizes: Current thread count per cluster (one entry per cluster).
            loads: Current instruction load per cluster (same indexing).
            num_threads / num_processors: Problem dimensions.

        Returns:
            Boolean array of length ``n`` — ``mask[k]`` must equal
            ``allows()`` for ``pairs[k]`` — or ``None`` when the policy has
            no vectorized form (the clustering engine then falls back to
            per-pair :meth:`allows` calls).  Policies are pure functions of
            the sizes/loads state, so evaluating every pair eagerly is
            observationally identical to the engine's lazy reference loop.
        """
        return None

    def failed_merges(
        self,
        sizes: np.ndarray,
        loads: np.ndarray,
        num_threads: int,
        num_processors: int,
        memo: dict,
    ) -> Callable[[int, int, int], int | None] | None:
        """An exact price for merges that lead to a failed subtree.

        Returns ``None`` (no such test; the default) or a function
        ``cost(i, j, cap)``, for cluster indices ``i < j`` of this state.
        An integer answer is exact: the number of backtracks the
        reference loop spends exhaustively searching below the child
        made by merging i and j, which therefore cannot reach
        ``num_processors`` clusters; a dead child (:meth:`pair_mask` over
        all its pairs is all-False) costs 0.  ``None`` means the child may
        complete, or its subtree costs more than ``cap``.  ``None`` is
        always safe: the clustering engine then builds the child and
        searches below it.  ``memo`` is scratch the policy may fill,
        one dict per search.
        """
        return None


@dataclass(frozen=True)
class ThreadBalance(BalancePolicy):
    """The paper's default: exact thread balance must stay reachable."""

    def allows(self, cluster_a, cluster_b, all_sizes, lengths,
               num_threads, num_processors) -> bool:
        """Merge allowed iff exact thread balance remains reachable."""
        ceil = -(-num_threads // num_processors)
        if len(cluster_a) + len(cluster_b) > ceil:
            return False
        return thread_balance_feasible(all_sizes, num_threads, num_processors)

    def pair_mask(self, pairs, sizes, loads, num_threads, num_processors):
        """Vectorized form: feasibility depends only on the merged pair's
        *sizes* and the state's size multiset, so the blocked
        ``(size_a, size_b)`` values are derived once per multiset
        (:func:`_blocked_merges`) and masked out of every pair."""
        sizes = np.asarray(sizes, dtype=np.int64)
        size_a = sizes[pairs[:, 0]]
        size_b = sizes[pairs[:, 1]]
        ceil = -(-num_threads // num_processors)
        mask = (size_a + size_b) <= ceil
        if not mask.any():
            return mask
        blocked = _blocked_merges(tuple(sorted(sizes.tolist())), num_threads,
                                  num_processors)
        if blocked:
            codes = (np.maximum(size_a, size_b) * (num_threads + 1)
                     + np.minimum(size_a, size_b))
            mask &= ~np.isin(codes, blocked)
        return mask


@lru_cache(maxsize=4096)
def _blocked_merges(
    sizes: tuple[int, ...], num_threads: int, num_processors: int
) -> tuple[int, ...]:
    """Size pairs whose merge makes thread balance unreachable.

    ``sizes`` is a state's cluster-size multiset, sorted.  Each pair of
    sizes in it whose union fits in ⌈t/p⌉ and leaves no thread-balanced
    partition reachable is coded ``big * (t + 1) + small``.  States
    revisited by the search, and by searches of other algorithms over
    the same threads, share multisets, so this is memoized on it.
    """
    ceil = -(-num_threads // num_processors)
    distinct = sorted(set(sizes))
    blocked = []
    for a, big in enumerate(distinct):
        for small in distinct[:a + 1]:
            if big + small > ceil or (small == big and sizes.count(big) < 2):
                continue
            multiset = list(sizes)
            multiset.remove(big)
            multiset.remove(small)
            multiset.append(big + small)
            if not thread_balance_feasible(multiset, num_threads,
                                           num_processors):
                blocked.append(big * (num_threads + 1) + small)
    return tuple(blocked)


@dataclass(frozen=True)
class LoadBalance(BalancePolicy):
    """The "+LB" criterion: merged load within tolerance of the ideal.

    "The load-balancing criteria is deemed satisfied if the combined load
    of the two clusters does not exceed a certain percentage (typically
    10%) of the desirable load." (§2, item 8)
    """

    tolerance: float = 0.10

    def __post_init__(self) -> None:
        check_range("tolerance", self.tolerance, 0.0, 1.0)

    def allows(self, cluster_a, cluster_b, all_sizes, lengths,
               num_threads, num_processors) -> bool:
        """Merge allowed iff the combined load stays within tolerance."""
        ideal = float(lengths.sum()) / num_processors
        combined = float(lengths[list(cluster_a) + list(cluster_b)].sum())
        return combined <= (1.0 + self.tolerance) * ideal

    def pair_mask(self, pairs, sizes, loads, num_threads, num_processors):
        """Vectorized form over per-cluster load sums.

        Loads are integer instruction counts, so ``loads[i] + loads[j]``
        converted to float is bit-identical to the reference's
        ``lengths[a + b].sum()`` (exact below 2**53) and the comparison
        reproduces :meth:`allows` decision for decision."""
        loads = np.asarray(loads, dtype=np.int64)
        ideal = float(loads.sum()) / num_processors
        combined = (loads[pairs[:, 0]] + loads[pairs[:, 1]]).astype(float)
        return combined <= (1.0 + self.tolerance) * ideal

    def failed_merges(self, sizes, loads, num_threads, num_processors,
                      memo):
        """Exact, because a state can still complete iff its loads pack
        into p bins of the limit: every partial merge of a bin is a
        subset of it, so passes :meth:`pair_mask`.  A state that cannot
        complete is searched exhaustively below, so its cost depends on
        its load multiset only, not on the scores.  Three tests, cheapest
        first: the child is dead iff its two lightest loads (among this
        state's four lightest other than i and j, plus the union) exceed
        the limit; first-fit-decreasing packing it proves it may
        complete; otherwise :func:`_failed_subtree` counts, memoized in
        ``memo`` on the sorted loads."""
        limit = (1.0 + self.tolerance) * (float(loads.sum()) / num_processors)
        lightest = np.argsort(loads, kind="stable")[:4].tolist()
        light = loads[lightest].tolist()
        ordered = sorted(loads.tolist())

        def cost(i: int, j: int, cap: int) -> int | None:
            if cap < 0 or len(loads) - 1 <= num_processors:
                return None
            union = int(loads[i]) + int(loads[j])
            kept = [load for k, load in zip(lightest, light)
                    if k != i and k != j][:2]
            first, second = sorted(kept + [union])[:2]
            if not float(first + second) <= limit:
                return 0
            child = list(ordered)
            child.remove(int(loads[i]))
            child.remove(int(loads[j]))
            insort(child, union)
            if _first_fit(child, num_processors, limit):
                return None
            return _failed_subtree(tuple(child), cap, num_processors, limit,
                                   memo)

        return cost


def _first_fit(loads: list[int], bins: int, limit: float) -> bool:
    """Does first-fit-decreasing pack these (ascending) loads into
    ``bins`` groups, each a single load or summing within ``limit``?"""
    levels: list[int] = []
    for load in reversed(loads):
        for k, level in enumerate(levels):
            if float(level + load) <= limit:
                levels[k] = level + load
                break
        else:
            if len(levels) == bins:
                return False
            levels.append(load)
    return True


def _failed_subtree(
    loads: tuple[int, ...], cap: int, bins: int, limit: float, memo: dict
) -> int | None:
    """Backtracks an exhaustive ``LoadBalance`` search spends below a
    state with these (ascending) cluster loads, or ``None`` if it may
    reach ``bins`` clusters or costs more than ``cap``.

    Each admissible pair is one merge, the child's own count, and one
    backtrack undoing it.  ``memo`` maps a load tuple to its exact
    count, or to ``-(c + 1)`` once it is known to cost more than ``c``.
    """
    if cap < 0:
        return None
    known = memo.get(loads)
    if known is not None and (known >= 0 or cap < -known):
        return known if 0 <= known <= cap else None
    total = 0
    n = len(loads)
    for a in range(n - 1):
        if not float(loads[a] + loads[a + 1]) <= limit:
            break
        for b in range(a + 1, n):
            if not float(loads[a] + loads[b]) <= limit:
                break
            if n - 1 == bins:
                memo[loads] = -(cap + 1)
                return None
            child = list(loads)
            del child[b]
            del child[a]
            insort(child, loads[a] + loads[b])
            below = _failed_subtree(tuple(child), cap - total - 1, bins, limit,
                                    memo)
            if below is None or total + below + 1 > cap:
                memo[loads] = -(cap + 1)
                return None
            total += below + 1
    memo[loads] = total
    return total


@dataclass(frozen=True)
class Unconstrained(BalancePolicy):
    """No balance constraint (useful for tests and ablations)."""

    def allows(self, cluster_a, cluster_b, all_sizes, lengths,
               num_threads, num_processors) -> bool:
        """Always allowed."""
        return True

    def pair_mask(self, pairs, sizes, loads, num_threads, num_processors):
        """Vectorized form: every pair is admissible."""
        return np.ones(len(pairs), dtype=bool)
