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
    """Decides whether two clusters may be combined, given engine state."""

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

    def dead_merges(
        self,
        sizes: np.ndarray,
        loads: np.ndarray,
        num_threads: int,
        num_processors: int,
    ) -> Callable[[int, int], bool] | None:
        """An exact, cheap test for merges that lead to a dead state.

        Returns ``None`` ("unknown, compute the mask"; the default) or a
        function ``dead(i, j)``, for cluster indices ``i < j`` of this
        state, that is True iff the state after merging them has no
        admissible pair: :meth:`pair_mask` over all its pairs is
        all-False.  The clustering engine asks it before building a
        child state, so a dead child is undone without being scored.
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
        *sizes*, so distinct ``(size_a, size_b)`` values are checked once
        and shared across every pair with those sizes."""
        sizes = np.asarray(sizes, dtype=np.int64)
        size_a = sizes[pairs[:, 0]]
        size_b = sizes[pairs[:, 1]]
        ceil = -(-num_threads // num_processors)
        mask = (size_a + size_b) <= ceil
        if not mask.any():
            return mask
        # One feasibility question per distinct (larger, smaller) size
        # pair, broadcast back to every candidate with those sizes.
        hi = np.maximum(size_a, size_b)
        lo = np.minimum(size_a, size_b)
        codes = np.where(mask, hi * (num_threads + 1) + lo, -1)
        all_sizes = sizes.tolist()
        for code in np.unique(codes[mask]):
            big, small = divmod(int(code), num_threads + 1)
            multiset = list(all_sizes)
            multiset.remove(big)
            multiset.remove(small)
            multiset.append(big + small)
            if not thread_balance_feasible(multiset, num_threads,
                                           num_processors):
                mask[codes == code] = False
        return mask


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

    def dead_merges(self, sizes, loads, num_threads, num_processors):
        """Exact: a state's smallest pair sum is its two lightest loads',
        and int-to-float conversion is monotone, so it has an admissible
        pair iff that one passes :meth:`pair_mask`.  After merging i and
        j, the two lightest are among this state's four lightest other
        than i and j, plus the union; the total (and so the limit) is
        unchanged."""
        limit = (1.0 + self.tolerance) * (float(loads.sum()) / num_processors)
        lightest = np.argsort(loads, kind="stable")[:4].tolist()
        light = loads[lightest].tolist()

        def dead(i: int, j: int) -> bool:
            kept = [load for k, load in zip(lightest, light)
                    if k != i and k != j][:2]
            first, second = sorted(kept + [int(loads[i]) + int(loads[j])])[:2]
            return not float(first + second) <= limit

        return dead


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
