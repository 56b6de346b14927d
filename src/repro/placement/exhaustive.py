"""Exhaustive (provably optimal) sharing-based placement.

The paper argues (§4.2) that even "the best possible placement that a
sharing-based algorithm can produce" — one built from dynamically measured
coherence traffic — does not beat LOAD-BAL.  This module pushes that
argument to its logical end for small thread counts: enumerate *every*
thread-balanced partition, score each against a sharing objective, and
return the true optimum.  If the greedy SHARE-REFS heuristic were leaving
benefit on the table, the optimum would reveal it; on the reproduction's
workloads it does not (see ``tests/placement/test_exhaustive.py`` and
``tests/experiments/test_claims.py``).

Enumeration is over canonical set partitions with prescribed cluster sizes
(symmetry-broken: each cluster is identified by its smallest member, and
clusters of equal size appear in increasing order of those leaders), so
each placement is visited exactly once.
"""

from __future__ import annotations

from typing import Callable, Iterator

import numpy as np

from repro.placement.balance import balanced_cluster_sizes
from repro.placement.base import PlacementMap
from repro.trace.analysis import TraceSetAnalysis
from repro.util.validate import check_positive

__all__ = [
    "count_balanced_partitions",
    "enumerate_balanced_partitions",
    "optimal_sharing_placement",
]

#: Refuse to enumerate beyond this many partitions (keeps misuse cheap).
DEFAULT_PARTITION_LIMIT = 500_000


def count_balanced_partitions(num_threads: int, num_processors: int) -> int:
    """Number of distinct thread-balanced partitions of t threads.

    The multinomial over the size multiset, divided by the permutations of
    equal-sized clusters.
    """
    from math import comb, factorial

    sizes = balanced_cluster_sizes(num_threads, num_processors)
    total = 1
    remaining = num_threads
    for size in sizes:
        total *= comb(remaining, size)
        remaining -= size
    multiplicity: dict[int, int] = {}
    for size in sizes:
        multiplicity[size] = multiplicity.get(size, 0) + 1
    for count in multiplicity.values():
        total //= factorial(count)
    return total


def enumerate_balanced_partitions(
    num_threads: int, num_processors: int
) -> Iterator[list[list[int]]]:
    """Yield every thread-balanced partition exactly once.

    Canonical form: thread 0 always sits in the first cluster; each later
    cluster's leader (smallest member) exceeds the leaders of all earlier
    clusters of the same size.
    """
    from itertools import combinations

    sizes = balanced_cluster_sizes(num_threads, num_processors)

    def recurse(unassigned: list[int], remaining_sizes: tuple[int, ...],
                built: list[list[int]]) -> Iterator[list[list[int]]]:
        if not unassigned:
            yield [list(c) for c in built]
            return
        # Canonical: the smallest unassigned thread leads the next cluster;
        # it may lead a cluster of any size still owed (trying each
        # *distinct* size once keeps equal-sized clusters symmetry-broken,
        # since their leaders then appear in increasing order).
        leader, rest = unassigned[0], unassigned[1:]
        for size in sorted(set(remaining_sizes)):
            index = remaining_sizes.index(size)
            next_sizes = remaining_sizes[:index] + remaining_sizes[index + 1:]
            for members in combinations(rest, size - 1):
                member_set = set(members)
                cluster = [leader] + list(members)
                next_unassigned = [t for t in rest if t not in member_set]
                built.append(cluster)
                yield from recurse(next_unassigned, next_sizes, built)
                built.pop()

    yield from recurse(list(range(num_threads)), tuple(sizes), [])


def optimal_sharing_placement(
    analysis: TraceSetAnalysis,
    num_processors: int,
    *,
    matrix: np.ndarray | None = None,
    objective: Callable[[list[list[int]], np.ndarray], float] | None = None,
    partition_limit: int = DEFAULT_PARTITION_LIMIT,
) -> tuple[PlacementMap, float]:
    """The provably best thread-balanced placement for a sharing objective.

    Args:
        analysis: The application's static analysis.
        num_processors: Target processor count.
        matrix: Pairwise metric matrix; defaults to the SHARE-REFS shared
            references matrix.  The dynamic coherence matrix of
            :func:`repro.placement.dynamic.measure_coherence_matrix` is the
            other natural choice.
        objective: Maps (clusters, matrix) to a score to *maximize*;
            defaults to total within-cluster pair weight (the quantity
            Figure 1(d) of the paper totals).
        partition_limit: Upper bound on partitions to enumerate; exceeding
            it raises ``ValueError`` (use the greedy algorithms instead).

    Returns:
        (optimal placement, optimal objective value).
    """
    check_positive("partition_limit", partition_limit)
    t = analysis.num_threads
    total = count_balanced_partitions(t, num_processors)
    if total > partition_limit:
        raise ValueError(
            f"{total} balanced partitions of {t} threads on {num_processors} "
            f"processors exceeds the limit of {partition_limit}; exhaustive "
            "search is only for small instances"
        )
    if matrix is None:
        matrix = analysis.shared_refs_matrix
    matrix = np.asarray(matrix, dtype=float)

    def default_objective(clusters: list[list[int]], m: np.ndarray) -> float:
        score = 0.0
        for cluster in clusters:
            index = np.ix_(cluster, cluster)
            score += float(m[index].sum()) / 2.0  # each pair counted twice
        return score

    score_of = objective or default_objective
    best_clusters: list[list[int]] | None = None
    best_score = -np.inf
    for clusters in enumerate_balanced_partitions(t, num_processors):
        score = score_of(clusters, matrix)
        if score > best_score:
            best_score = score
            best_clusters = clusters
    assert best_clusters is not None  # t >= p guarantees >= 1 partition
    return (
        PlacementMap.from_clusters(best_clusters, t, num_processors),
        float(best_score),
    )
