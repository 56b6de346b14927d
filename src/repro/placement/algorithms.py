"""The placement-algorithm family (paper §2, items 1-9, plus §4.2).

Fifteen algorithms:

======================  =====================================================
SHARE-REFS              maximize averaged cross-cluster shared references
SHARE-ADDR              ... then references per shared address
MIN-PRIV                ... then fewest private addresses per processor
MIN-INVS                maximize the cost of keeping clusters separated
MAX-WRITES              maximize write-shared references
MIN-SHARE               deliberate worst case: minimize shared references
<each of the above>+LB  load-balance (10% tolerance) instead of thread-balance
LOAD-BAL                perfect load balance from dynamic thread lengths
RANDOM                  thread-balanced random baseline
COHERENCE-TRAFFIC       dynamic: measured coherence traffic as the metric
======================  =====================================================
"""

from __future__ import annotations

import numpy as np

from repro.placement.balance import BalancePolicy, LoadBalance, ThreadBalance
from repro.placement.base import PlacementAlgorithm, PlacementInputs, PlacementMap
from repro.placement.clustering import ClusterScorer, agglomerate
from repro.placement.metrics import (
    coherence_traffic_scorer,
    max_writes_scorer,
    min_invs_scorer,
    min_priv_scorer,
    min_share_scorer,
    share_addr_scorer,
    share_refs_scorer,
)

__all__ = [
    "ClusteringPlacement",
    "ShareRefs",
    "ShareAddr",
    "MinPriv",
    "MinInvs",
    "MaxWrites",
    "MinShare",
    "LoadBal",
    "Random",
    "CoherenceTraffic",
    "static_sharing_algorithms",
    "all_algorithms",
    "algorithm_by_name",
]


class ClusteringPlacement(PlacementAlgorithm):
    """Shared skeleton of every sharing-based algorithm.

    Subclasses define the metric (a scorer factory over the inputs) and the
    direction; the constructor's ``load_balanced`` flag switches the
    combine criterion from thread balance to the "+LB" 10%-tolerance load
    balance (§2, item 8) and appends "+LB" to the name.
    """

    base_name: str = "UNNAMED"
    maximize: bool = True

    def __init__(self, load_balanced: bool = False, *, tolerance: float = 0.10) -> None:
        self.load_balanced = load_balanced
        self.name = self.base_name + ("+LB" if load_balanced else "")
        self._balance: BalancePolicy = (
            LoadBalance(tolerance) if load_balanced else ThreadBalance()
        )

    def scorer(self, inputs: PlacementInputs) -> ClusterScorer:
        """The cluster-pair metric this algorithm clusters by."""
        raise NotImplementedError

    def place(self, inputs: PlacementInputs) -> PlacementMap:
        """Cluster threads with the metric and balance criteria."""
        result = agglomerate(
            inputs.num_threads,
            inputs.num_processors,
            self.scorer(inputs),
            self._balance,
            inputs.thread_lengths,
            maximize=self.maximize,
            incremental=inputs.incremental,
        )
        placement = PlacementMap.from_clusters(
            result.clusters, inputs.num_threads, inputs.num_processors
        )
        placement.relaxed = result.relaxed
        placement.backtracks = result.backtracks
        return placement


class ShareRefs(ClusteringPlacement):
    """§2 item 1: the basic sharing algorithm."""

    base_name = "SHARE-REFS"

    def scorer(self, inputs: PlacementInputs) -> ClusterScorer:
        """Averaged cross-cluster shared references."""
        return share_refs_scorer(inputs.analysis)


class ShareAddr(ClusteringPlacement):
    """§2 item 2: shared references per shared address."""

    base_name = "SHARE-ADDR"

    def scorer(self, inputs: PlacementInputs) -> ClusterScorer:
        """Shared references, density tie-break."""
        return share_addr_scorer(inputs.analysis)


class MinPriv(ClusteringPlacement):
    """§2 item 3: maximize sharing, minimize private addresses."""

    base_name = "MIN-PRIV"

    def scorer(self, inputs: PlacementInputs) -> ClusterScorer:
        """Shared references, fewest-private-addresses tie-break."""
        return min_priv_scorer(inputs.analysis)


class MinInvs(ClusteringPlacement):
    """§2 item 4: minimize cross-processor invalidation-causing references."""

    base_name = "MIN-INVS"

    def scorer(self, inputs: PlacementInputs) -> ClusterScorer:
        """Unnormalized cross-cluster write-shared separation cost."""
        return min_invs_scorer(inputs.analysis)


class MaxWrites(ClusteringPlacement):
    """§2 item 5: maximize co-located write-shared references."""

    base_name = "MAX-WRITES"

    def scorer(self, inputs: PlacementInputs) -> ClusterScorer:
        """Averaged cross-cluster write-shared references."""
        return max_writes_scorer(inputs.analysis)


class MinShare(ClusteringPlacement):
    """§2 item 6: the deliberate worst case for sharing."""

    base_name = "MIN-SHARE"
    maximize = False

    def scorer(self, inputs: PlacementInputs) -> ClusterScorer:
        """Averaged shared references, combined smallest-first."""
        return min_share_scorer(inputs.analysis)


class CoherenceTraffic(ClusteringPlacement):
    """§4.2: placement from *dynamically measured* coherence traffic.

    "We implemented a placement algorithm that used the dynamically
    measured coherence traffic as the sharing metric.  Since it is based on
    runtime information, it represents the best possible placement that a
    sharing-based algorithm can produce."  The measured matrix arrives via
    :attr:`PlacementInputs.coherence_matrix` (see
    :func:`repro.placement.dynamic.measure_coherence_matrix`).
    """

    base_name = "COHERENCE-TRAFFIC"

    def scorer(self, inputs: PlacementInputs) -> ClusterScorer:
        """Averaged measured coherence traffic (requires the matrix)."""
        if inputs.coherence_matrix is None:
            raise ValueError(
                "COHERENCE-TRAFFIC placement needs inputs.coherence_matrix "
                "(measure it with repro.placement.dynamic.measure_coherence_matrix)"
            )
        if inputs.coherence_matrix.shape != (inputs.num_threads, inputs.num_threads):
            raise ValueError(
                f"coherence matrix shape {inputs.coherence_matrix.shape} does "
                f"not match {inputs.num_threads} threads"
            )
        return coherence_traffic_scorer(inputs.coherence_matrix)


class LoadBal(PlacementAlgorithm):
    """§2 item 7: LOAD-BAL — balance dynamic thread lengths.

    Longest-processing-time greedy: threads in decreasing length order,
    each to the least-loaded processor.  For the paper's workloads this is
    within a fraction of a percent of a perfectly balanced execution.
    """

    name = "LOAD-BAL"

    def place(self, inputs: PlacementInputs) -> PlacementMap:
        """Longest-processing-time greedy over dynamic thread lengths."""
        lengths = inputs.thread_lengths
        # Decreasing length; ties by thread id for determinism.
        order = sorted(range(inputs.num_threads), key=lambda tid: (-lengths[tid], tid))
        loads = np.zeros(inputs.num_processors, dtype=np.int64)
        assignment = np.zeros(inputs.num_threads, dtype=np.int64)
        for tid in order:
            proc = int(loads.argmin())
            assignment[tid] = proc
            loads[proc] += lengths[tid]
        return PlacementMap(assignment, inputs.num_processors)


class Random(PlacementAlgorithm):
    """§2 item 9: RANDOM — the thread-balanced random baseline.

    "This is often what a low-overhead runtime scheduler would adopt,
    given no a priori application knowledge."
    """

    name = "RANDOM"

    def place(self, inputs: PlacementInputs) -> PlacementMap:
        """Shuffle the threads and deal them round-robin."""
        order = inputs.rng.permutation(inputs.num_threads)
        assignment = np.zeros(inputs.num_threads, dtype=np.int64)
        for position, tid in enumerate(order):
            assignment[tid] = position % inputs.num_processors
        return PlacementMap(assignment, inputs.num_processors)


_STATIC_SHARING_CLASSES: tuple[type[ClusteringPlacement], ...] = (
    ShareRefs, ShareAddr, MinPriv, MinInvs, MaxWrites, MinShare,
)


def static_sharing_algorithms(*, load_balanced: bool = False) -> list[ClusteringPlacement]:
    """The six static sharing-based algorithms (§2 items 1-6), optionally
    in their "+LB" versions (item 8)."""
    return [cls(load_balanced=load_balanced) for cls in _STATIC_SHARING_CLASSES]


def all_algorithms(*, include_dynamic: bool = False) -> list[PlacementAlgorithm]:
    """Every algorithm the paper evaluates.

    Six sharing algorithms, their six "+LB" versions, LOAD-BAL and RANDOM
    (14); with ``include_dynamic``, COHERENCE-TRAFFIC as well (15).
    """
    algorithms: list[PlacementAlgorithm] = []
    algorithms += static_sharing_algorithms()
    algorithms += static_sharing_algorithms(load_balanced=True)
    algorithms.append(LoadBal())
    algorithms.append(Random())
    if include_dynamic:
        algorithms.append(CoherenceTraffic())
    return algorithms


def algorithm_by_name(name: str) -> PlacementAlgorithm:
    """Instantiate an algorithm from its paper name (e.g. "SHARE-REFS+LB")."""
    for algorithm in all_algorithms(include_dynamic=True):
        if algorithm.name.lower() == name.lower():
            return algorithm
    known = ", ".join(a.name for a in all_algorithms(include_dynamic=True))
    raise KeyError(f"unknown placement algorithm {name!r}; known: {known}")
