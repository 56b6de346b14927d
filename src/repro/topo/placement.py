"""Hierarchy-aware placement: cluster for the topology's tiers.

On a tiered machine a miss serviced inside the requester's group costs
``local_latency``; one serviced across groups costs ``remote_latency``.
The paper's placement algorithms only know "same processor or not", so
they happily split a heavily-sharing thread cluster across groups when
thread balance forces a split.  :class:`HierarchicalPlacement` makes the
split tier-aware by running the same agglomerative engine twice:

1. **Group stage** — cluster all threads into ``topology.groups``
   super-clusters with the base algorithm's own metric and balance
   policy, so the highest-traffic thread pairs land in the *same group*
   (cross-group separation is what the remote tier charges for).
2. **Processor stage** — within each group's thread subset, cluster into
   ``topology.group_size`` per-processor clusters, again with the base
   metric (restricted to the subset via :class:`_SubsetScorer`), so
   intra-group placement still minimizes plain coherence traffic.

Group ``g``'s clusters map to processors ``[g*size, (g+1)*size)`` —
the topology's contiguous-group convention.

A flat topology (``groups == 1`` or uniform latencies) is a strict
special case: the wrapper returns exactly ``base.place(inputs)``, so
``H-X`` on a flat machine is bit-identical to ``X``.

:func:`topology_cost` scores any placement against a topology: the
pairwise-sharing mass weighted by the latency tier separating each
thread pair (0 when co-resident).  It is the metric the experiment
tables report alongside execution time.
"""

from __future__ import annotations

import numpy as np

from repro.placement.algorithms import ClusteringPlacement, static_sharing_algorithms
from repro.placement.base import PlacementAlgorithm, PlacementInputs, PlacementMap
from repro.placement.clustering import agglomerate
from repro.topo.model import Topology

__all__ = [
    "HierarchicalPlacement",
    "hierarchical_algorithms",
    "topology_cost",
]


class _SubsetScorer:
    """Restrict a global-thread-id scorer to a thread subset.

    The processor stage agglomerates over local ids ``0..len(subset)-1``.
    The scalar protocol maps them back to global ids before delegating; a
    matrix scorer's matrices (and thread vector) are sliced to the subset
    instead, so the engine's batch and incremental paths index them by
    local id directly and share the wrapped scorer's ``score_columns``.
    """

    def __init__(self, scorer, subset: list[int]) -> None:
        self._scorer = scorer
        self._subset = subset
        # The engine probes for the attribute, so only expose the matrix
        # protocol when the wrapped scorer actually has one.
        matrices = getattr(scorer, "pair_matrices", None)
        if matrices is not None:
            index = np.ix_(subset, subset)
            self.pair_matrices = tuple(m[index] for m in matrices)
            vector = scorer.thread_vector
            self.thread_vector = None if vector is None else vector[subset]
            self.score_columns = scorer.score_columns

    def _globalize(self, cluster: list[int]) -> list[int]:
        subset = self._subset
        return [subset[local] for local in cluster]

    def __call__(self, cluster_a: list[int], cluster_b: list[int]) -> tuple:
        return self._scorer(self._globalize(cluster_a), self._globalize(cluster_b))


class HierarchicalPlacement(PlacementAlgorithm):
    """Tier-aware wrapper around one sharing-based clustering algorithm.

    ``H-SHARE-REFS`` etc.; see the module docstring for the two-stage
    scheme.  The wrapper reuses the base algorithm's scorer factory,
    direction and balance policy at both stages, so the only new
    behaviour is *where* the balance-forced splits land: across group
    boundaries only after the heaviest sharing has been kept inside one.
    """

    def __init__(self, base: ClusteringPlacement, topology: Topology) -> None:
        self.base = base
        self.topology = topology
        self.name = f"H-{base.name}"

    def place(self, inputs: PlacementInputs) -> PlacementMap:
        """Two-stage tier-aware clustering (flat: exactly the base)."""
        topology = self.topology
        if topology.groups == 1 or topology.uniform:
            return self.base.place(inputs)
        topology.validate_for(inputs.num_processors)
        group_size = inputs.num_processors // topology.groups
        scorer = self.base.scorer(inputs)
        lengths = inputs.thread_lengths

        # Stage 1: threads -> groups, with the base metric and balance
        # (groups play the role of "processors" for the balance policy).
        group_stage = agglomerate(
            inputs.num_threads,
            topology.groups,
            scorer,
            self.base._balance,
            lengths,
            maximize=self.base.maximize,
            incremental=inputs.incremental,
        )

        # Stage 2: each group's subset -> its processors.  t >= p and a
        # thread-balanced stage 1 guarantee every subset has at least
        # group_size threads; a relaxed (fallback-finished) stage 1 may
        # not, so rebalance deterministically before sub-clustering.
        subsets = [sorted(c) for c in group_stage.clusters]
        while True:
            short = min(range(len(subsets)), key=lambda g: (len(subsets[g]), g))
            if len(subsets[short]) >= group_size:
                break
            big = max(range(len(subsets)), key=lambda g: (len(subsets[g]), -g))
            subsets[short].append(subsets[big].pop())
            subsets[short].sort()
        clusters: list[list[int]] = [[] for _ in range(inputs.num_processors)]
        stages = [group_stage]
        for group, subset in enumerate(subsets):
            sub_stage = agglomerate(
                len(subset),
                group_size,
                _SubsetScorer(scorer, subset),
                self.base._balance,
                lengths[subset],
                maximize=self.base.maximize,
                incremental=inputs.incremental,
            )
            stages.append(sub_stage)
            for slot, local_cluster in enumerate(sub_stage.clusters):
                pid = group * group_size + slot
                clusters[pid] = [subset[local] for local in local_cluster]
        placement = PlacementMap.from_clusters(
            clusters, inputs.num_threads, inputs.num_processors
        )
        placement.relaxed = any(stage.relaxed for stage in stages)
        placement.backtracks = sum(stage.backtracks for stage in stages)
        return placement


def hierarchical_algorithms(topology: Topology) -> list[HierarchicalPlacement]:
    """H-variants of the six static sharing algorithms for one topology."""
    return [
        HierarchicalPlacement(base, topology)
        for base in static_sharing_algorithms()
    ]


def topology_cost(
    placement: PlacementMap,
    matrix: np.ndarray,
    topology: Topology | None,
) -> float:
    """Latency-weighted cross-thread sharing mass of a placement.

    Each unordered thread pair contributes ``matrix[a, b] * w`` where
    ``w`` is 0 when the pair shares a processor, ``local_latency`` when
    it shares a group, and ``remote_latency`` otherwise.  ``matrix`` is
    any symmetric pairwise sharing measure (the static shared-reference
    matrix or a measured coherence matrix).  ``None``/flat topologies
    weight every cross-processor pair by the single latency, so the cost
    reduces to latency x cross-processor sharing — the quantity the
    paper's flat algorithms already minimize.
    """
    matrix = np.asarray(matrix, dtype=float)
    t = placement.num_threads
    if matrix.shape != (t, t):
        raise ValueError(
            f"matrix shape {matrix.shape} does not match {t} threads"
        )
    if topology is None:
        topology = Topology.flat()
    topology.validate_for(placement.num_processors)
    group_size = placement.num_processors // topology.groups
    pids = placement.assignment
    groups = pids // group_size
    same_pid = pids[:, None] == pids[None, :]
    same_group = groups[:, None] == groups[None, :]
    weights = np.where(
        same_pid, 0.0,
        np.where(same_group, float(topology.local_latency),
                 float(topology.remote_latency)),
    )
    # Upper triangle only: each unordered pair counts once.
    return float((matrix * weights)[np.triu_indices(t, k=1)].sum())
