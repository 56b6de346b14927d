"""Placement maps and the algorithm interface.

A placement algorithm's job (paper §2): "Given a set of threads and the
number of processors to schedule, ... map each thread to a specific
processor."  The output is a :class:`PlacementMap`; the inputs — everything
an algorithm is allowed to see — are bundled in :class:`PlacementInputs`.

Placement is *static*: the simulator never migrates threads, exactly as in
the paper ("This is a static assignment that does not vary during the
simulation").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from repro.trace.analysis import TraceSetAnalysis
from repro.util.validate import check_positive

__all__ = ["PlacementMap", "PlacementInputs", "PlacementAlgorithm"]


class PlacementMap:
    """An assignment of every thread to one processor.

    Attributes:
        assignment: int array, ``assignment[tid]`` is the processor of
            thread ``tid``.
        num_processors: Number of processors the map targets.  Processors
            may be empty (a map is not required to use them all, though
            every algorithm in this package produces non-empty clusters).
        relaxed: True when a clustering search hit a dead end or its
            backtrack budget and the metric-blind fallback finished the
            map (see :class:`~repro.placement.clustering.ClusteringResult`).
        backtracks: Combines the search undid (summed over stages).

    ``relaxed`` and ``backtracks`` declare how the map was found; they are
    not part of the map, so equality, serialization and every content
    address ignore them.
    """

    __slots__ = ("assignment", "num_processors", "relaxed", "backtracks")

    def __init__(self, assignment: Sequence[int] | np.ndarray, num_processors: int) -> None:
        check_positive("num_processors", num_processors)
        array = np.asarray(assignment, dtype=np.int64)
        if array.ndim != 1 or array.size == 0:
            raise ValueError("assignment must be a non-empty 1-D sequence")
        if array.min() < 0 or array.max() >= num_processors:
            raise ValueError(
                f"assignment values must be in [0, {num_processors}), got "
                f"[{array.min()}, {array.max()}]"
            )
        self.assignment = array
        self.num_processors = int(num_processors)
        self.relaxed = False
        self.backtracks = 0

    @classmethod
    def from_clusters(
        cls, clusters: Sequence[Sequence[int]], num_threads: int,
        num_processors: int | None = None,
    ) -> "PlacementMap":
        """Build a map from explicit clusters (cluster i -> processor i)."""
        if num_processors is None:
            num_processors = len(clusters)
        assignment = np.full(num_threads, -1, dtype=np.int64)
        for proc, cluster in enumerate(clusters):
            for tid in cluster:
                if not 0 <= tid < num_threads:
                    raise ValueError(f"cluster names unknown thread {tid}")
                if assignment[tid] != -1:
                    raise ValueError(f"thread {tid} appears in two clusters")
                assignment[tid] = proc
        if (assignment == -1).any():
            missing = np.flatnonzero(assignment == -1).tolist()
            raise ValueError(f"threads {missing} not placed by any cluster")
        return cls(assignment, num_processors)

    @property
    def num_threads(self) -> int:
        return int(self.assignment.size)

    def threads_on(self, processor: int) -> list[int]:
        """Thread ids placed on one processor, in thread order."""
        return np.flatnonzero(self.assignment == processor).tolist()

    def clusters(self) -> list[list[int]]:
        """Threads per processor, indexed by processor."""
        return [self.threads_on(p) for p in range(self.num_processors)]

    def cluster_sizes(self) -> np.ndarray:
        """Threads per processor, indexed by processor id."""
        return np.bincount(self.assignment, minlength=self.num_processors)

    def loads(self, thread_lengths: Sequence[int] | np.ndarray) -> np.ndarray:
        """Per-processor instruction load under this map."""
        lengths = np.asarray(thread_lengths, dtype=np.int64)
        if lengths.size != self.num_threads:
            raise ValueError(
                f"expected {self.num_threads} thread lengths, got {lengths.size}"
            )
        loads = np.zeros(self.num_processors, dtype=np.int64)
        np.add.at(loads, self.assignment, lengths)
        return loads

    def is_thread_balanced(self) -> bool:
        """True when cluster sizes are all floor or ceil of threads/procs."""
        sizes = self.cluster_sizes()
        floor = self.num_threads // self.num_processors
        ceil = -(-self.num_threads // self.num_processors)
        return bool(np.all((sizes == floor) | (sizes == ceil)))

    def load_imbalance(self, thread_lengths: Sequence[int] | np.ndarray) -> float:
        """Max processor load over the ideal (total / processors); >= 1."""
        loads = self.loads(thread_lengths)
        ideal = loads.sum() / self.num_processors
        return float(loads.max() / ideal) if ideal > 0 else 1.0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PlacementMap):
            return NotImplemented
        return (
            self.num_processors == other.num_processors
            and np.array_equal(self.assignment, other.assignment)
        )

    def __repr__(self) -> str:
        return (
            f"PlacementMap(threads={self.num_threads}, "
            f"processors={self.num_processors}, sizes={self.cluster_sizes().tolist()})"
        )


@dataclass
class PlacementInputs:
    """Everything a placement algorithm may consult.

    Static algorithms read the trace analysis (per-thread profiles, pairwise
    matrices, thread lengths); the dynamic coherence-traffic algorithm
    (§4.2) additionally receives a measured pairwise-traffic matrix.

    Attributes:
        analysis: Static analysis of the application's traces.
        num_processors: Processors to place onto.
        rng: Source of randomness for RANDOM placement (and tie shuffling).
        coherence_matrix: Optional measured pairwise coherence traffic
            (threads x threads), for the dynamic algorithm.
        incremental: Let the clustering engine keep incremental search
            state (bit-identical, much faster).  ``False`` forces the
            from-scratch reference loop, which the audited
            ``--check-invariants`` path and the clustering differential
            tier use.
    """

    analysis: TraceSetAnalysis
    num_processors: int
    rng: np.random.Generator = field(
        default_factory=lambda: np.random.default_rng(0)
    )
    coherence_matrix: np.ndarray | None = None
    incremental: bool = True

    def __post_init__(self) -> None:
        check_positive("num_processors", self.num_processors)
        if self.num_processors > self.analysis.num_threads:
            raise ValueError(
                f"cannot place {self.analysis.num_threads} threads on "
                f"{self.num_processors} processors (threads < processors)"
            )

    @property
    def num_threads(self) -> int:
        return self.analysis.num_threads

    @cached_property
    def thread_lengths(self) -> np.ndarray:
        return np.array([p.length for p in self.analysis.profiles], dtype=np.int64)


class PlacementAlgorithm:
    """Base class for all placement algorithms.

    Subclasses set :attr:`name` (the paper's spelling, e.g. "SHARE-REFS")
    and implement :meth:`place`.
    """

    name: str = "UNNAMED"

    def place(self, inputs: PlacementInputs) -> PlacementMap:
        """Map every thread of ``inputs`` to a processor."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name})"
