"""Cluster-pair scorers: one per sharing metric in the paper's §2.

Every scorer consumes the static :class:`~repro.trace.analysis.TraceSetAnalysis`
(or, for the dynamic algorithm, a measured coherence-traffic matrix) and
returns a :data:`~repro.placement.clustering.ClusterScorer` for the
agglomeration engine.  Scores are tuples so secondary criteria compose
lexicographically.  Every scorer here is a matrix scorer: it exposes its
thread-pair matrices (and MIN-PRIV its per-thread private counts) plus one
``score_columns`` formula, from which the engine scores all pairs at once
and carries the cross sums across merges.
"""

from __future__ import annotations

import numpy as np

from repro.placement.clustering import ClusterScorer, MatrixAverageScorer
from repro.trace.analysis import TraceSetAnalysis

__all__ = [
    "ShareAddrScorer",
    "MinPrivScorer",
    "share_refs_scorer",
    "share_addr_scorer",
    "min_priv_scorer",
    "min_invs_scorer",
    "max_writes_scorer",
    "min_share_scorer",
    "coherence_traffic_scorer",
]


class ShareAddrScorer:
    """SHARE-ADDR: shared references first, then references per shared address.

    "Given two candidate clusters, each with the same number of shared
    references, it picks the one with the smaller shared working set, i.e.,
    more references per shared address." (§2, item 2)
    """

    thread_vector = None

    def __init__(self, refs: np.ndarray, addrs: np.ndarray) -> None:
        self.refs = np.asarray(refs, dtype=float)
        self.addrs = np.asarray(addrs, dtype=float)
        self.pair_matrices = (self.refs, self.addrs)

    def __call__(self, cluster_a: list[int], cluster_b: list[int]) -> tuple:
        index = np.ix_(cluster_a, cluster_b)
        size = len(cluster_a) * len(cluster_b)
        total_refs = float(self.refs[index].sum())
        total_addrs = float(self.addrs[index].sum())
        density = total_refs / total_addrs if total_addrs > 0 else 0.0
        return (total_refs / size, density)

    def score_columns(self, sums, size_a, size_b, vec_a, vec_b) -> np.ndarray:
        """(averaged refs, refs per shared address) columns."""
        refs, addrs = sums
        with np.errstate(divide="ignore", invalid="ignore"):
            density = np.where(addrs > 0, refs / addrs, 0.0)
        return np.column_stack([refs / (size_a * size_b), density])


class MinPrivScorer:
    """MIN-PRIV: maximize shared references; minimize private addresses.

    The secondary criterion is the (negated) private-address count of the
    would-be combined cluster, so ties in sharing fall to the merge that
    adds the least private cache footprint (§2, item 3).
    """

    def __init__(self, refs: np.ndarray, private_per_thread: np.ndarray) -> None:
        self.refs = np.asarray(refs, dtype=float)
        self.private = np.asarray(private_per_thread, dtype=float)
        self.pair_matrices = (self.refs,)
        self.thread_vector = self.private

    def __call__(self, cluster_a: list[int], cluster_b: list[int]) -> tuple:
        index = np.ix_(cluster_a, cluster_b)
        size = len(cluster_a) * len(cluster_b)
        combined = float(self.private[cluster_a].sum() + self.private[cluster_b].sum())
        return (float(self.refs[index].sum()) / size, -combined)

    def score_columns(self, sums, size_a, size_b, vec_a, vec_b) -> np.ndarray:
        """(averaged refs, -combined private addresses) columns."""
        return np.column_stack([sums[0] / (size_a * size_b), -(vec_a + vec_b)])


def share_refs_scorer(analysis: TraceSetAnalysis) -> ClusterScorer:
    """SHARE-REFS: maximize averaged cross-cluster shared references."""
    return MatrixAverageScorer(analysis.shared_refs_matrix)


def share_addr_scorer(analysis: TraceSetAnalysis) -> ClusterScorer:
    """SHARE-ADDR scorer over the analysis's pairwise matrices."""
    return ShareAddrScorer(analysis.shared_refs_matrix, analysis.shared_addrs_matrix)


def min_priv_scorer(analysis: TraceSetAnalysis) -> ClusterScorer:
    """MIN-PRIV scorer over sharing and per-thread private counts."""
    return MinPrivScorer(
        analysis.shared_refs_matrix, analysis.private_addresses_per_thread
    )


def min_invs_scorer(analysis: TraceSetAnalysis) -> ClusterScorer:
    """MIN-INVS: combine the pair whose *separation* costs the most.

    "During clustering, the algorithm compares the cost of keeping two
    clusters separated, rather than comparing the savings in combining
    them" (§2, item 4): the cost of separation is the total (unnormalized)
    cross-cluster write-shared traffic that would cross the interconnect.
    """
    return MatrixAverageScorer(analysis.write_shared_refs_matrix, normalize=False)


def max_writes_scorer(analysis: TraceSetAnalysis) -> ClusterScorer:
    """MAX-WRITES: maximize averaged cross-cluster write-shared references."""
    return MatrixAverageScorer(analysis.write_shared_refs_matrix)


def min_share_scorer(analysis: TraceSetAnalysis) -> ClusterScorer:
    """MIN-SHARE: the deliberate worst case — run with ``maximize=False``."""
    return MatrixAverageScorer(analysis.shared_refs_matrix)


def coherence_traffic_scorer(coherence_matrix: np.ndarray) -> ClusterScorer:
    """Dynamic placement (§4.2): averaged measured coherence traffic.

    ``coherence_matrix[i, j]`` must hold the coherence operations measured
    between threads i and j when simulated one-thread-per-processor.
    """
    matrix = np.asarray(coherence_matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"coherence matrix must be square, got {matrix.shape}")
    if not np.allclose(matrix, matrix.T):
        raise ValueError("coherence matrix must be symmetric")
    return MatrixAverageScorer(matrix)
