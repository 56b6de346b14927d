"""Static per-thread trace analysis.

This module is the reproduction of the paper's *static* measurement pass:
"Traces of the programs were statically analyzed on a per-thread basis for
characteristics that provided cluster-combining criteria" (§3.1).  Nothing
here is temporal — exactly as in the paper, the analysis sees only per-thread
reference *counts* per address, which is precisely why (the paper shows) its
sharing metrics overstate runtime coherence traffic by orders of magnitude.

Definitions (all per the paper):

* An address is **shared** if at least two threads of the application
  reference it; otherwise it is **private** to its single referencing
  thread.  Addresses are counted at word granularity ("we count distinct
  addresses rather than cache lines", §3.1 footnote), so false sharing is
  excluded by construction.
* ``shared_references(a, b)`` — the SHARE-REFS metric: the number of
  references made by threads *a* and *b* to their common addresses.
* ``write_shared_references(a, b)`` — the MAX-WRITES metric: references by
  the pair to common addresses that at least one of the pair writes.
* ``group_shared_references(group)`` — N-way sharing: references by group
  members to addresses shared by at least two group members.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from repro.trace.stream import ThreadTrace, TraceSet
from repro.util.stats import Summary, summarize

__all__ = [
    "ThreadProfile",
    "shared_references",
    "shared_addresses",
    "write_shared_references",
    "group_shared_references",
    "pairwise_matrix",
    "TraceSetAnalysis",
]


@dataclass(frozen=True)
class ThreadProfile:
    """Per-thread address profile: reference counts per distinct address.

    Attributes:
        thread_id: The thread this profile describes.
        addrs: Sorted distinct word addresses the thread references.
        reads: Read count per address (parallel to ``addrs``).
        writes: Write count per address (parallel to ``addrs``).
        length: Thread length in instructions (gaps + references).
    """

    thread_id: int
    addrs: np.ndarray
    reads: np.ndarray
    writes: np.ndarray
    length: int

    @classmethod
    def from_trace(cls, trace: ThreadTrace) -> "ThreadProfile":
        """Reduce a trace to its address profile."""
        if trace.num_refs == 0:
            empty = np.array([], dtype=np.int64)
            return cls(trace.thread_id, empty, empty.copy(), empty.copy(), trace.length)
        addrs, inverse = np.unique(trace.addrs, return_inverse=True)
        writes = np.bincount(inverse, weights=trace.writes, minlength=addrs.size)
        totals = np.bincount(inverse, minlength=addrs.size)
        writes = writes.astype(np.int64)
        reads = totals.astype(np.int64) - writes
        return cls(trace.thread_id, addrs, reads, writes, trace.length)

    @cached_property
    def totals(self) -> np.ndarray:
        """Total references per address (reads + writes)."""
        return self.reads + self.writes

    @property
    def num_addresses(self) -> int:
        return int(self.addrs.size)

    @property
    def total_refs(self) -> int:
        return int(self.totals.sum())

    @cached_property
    def written_addrs(self) -> np.ndarray:
        """Sorted distinct addresses this thread writes at least once."""
        return self.addrs[self.writes > 0]

    def refs_to(self, addresses: np.ndarray) -> int:
        """Total references by this thread to the given sorted addresses."""
        mask = np.isin(self.addrs, addresses, assume_unique=False)
        return int(self.totals[mask].sum())


def _common(a: ThreadProfile, b: ThreadProfile) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Indices into each profile for their common addresses."""
    common, idx_a, idx_b = np.intersect1d(
        a.addrs, b.addrs, assume_unique=True, return_indices=True
    )
    return common, idx_a, idx_b


def shared_references(a: ThreadProfile, b: ThreadProfile) -> int:
    """References by the pair to their common addresses (SHARE-REFS metric)."""
    _, idx_a, idx_b = _common(a, b)
    return int(a.totals[idx_a].sum() + b.totals[idx_b].sum())


def shared_addresses(a: ThreadProfile, b: ThreadProfile) -> int:
    """Number of distinct addresses the pair has in common."""
    common, _, _ = _common(a, b)
    return int(common.size)


def write_shared_references(a: ThreadProfile, b: ThreadProfile) -> int:
    """Pair references to common addresses that at least one of them writes.

    Read-shared data never causes invalidations, so MAX-WRITES restricts the
    SHARE-REFS metric to write-shared addresses (§2, item 5).
    """
    _, idx_a, idx_b = _common(a, b)
    written = (a.writes[idx_a] > 0) | (b.writes[idx_b] > 0)
    return int(a.totals[idx_a][written].sum() + b.totals[idx_b][written].sum())


def group_shared_references(profiles: Sequence[ThreadProfile]) -> int:
    """N-way sharing: group references to addresses >= 2 group members touch.

    This generalizes pairwise sharing to a whole cluster and is the quantity
    Table 2 reports for the "maximum threads per processor" extreme.
    """
    if len(profiles) < 2:
        return 0
    all_addrs = np.concatenate([p.addrs for p in profiles])
    unique, counts = np.unique(all_addrs, return_counts=True)
    shared = unique[counts >= 2]
    if shared.size == 0:
        return 0
    return sum(p.refs_to(shared) for p in profiles)


def pairwise_matrix(
    profiles: Sequence[ThreadProfile],
    metric: Callable[[ThreadProfile, ThreadProfile], float],
) -> np.ndarray:
    """Symmetric matrix of a pairwise metric over all thread pairs.

    The diagonal is zero: a thread does not share with itself in any of the
    paper's metrics.
    """
    n = len(profiles)
    matrix = np.zeros((n, n), dtype=float)
    for i in range(n):
        for j in range(i + 1, n):
            value = float(metric(profiles[i], profiles[j]))
            matrix[i, j] = value
            matrix[j, i] = value
    return matrix


class TraceSetAnalysis:
    """All static characteristics of one application's trace set.

    One instance per application; every derived quantity is computed lazily
    and cached, so the placement algorithms and Table 2 can share the same
    analysis without recomputation.
    """

    def __init__(self, trace_set: TraceSet) -> None:
        self.trace_set = trace_set
        self.profiles = [ThreadProfile.from_trace(t) for t in trace_set]

    @property
    def num_threads(self) -> int:
        return len(self.profiles)

    # ------------------------------------------------------------------
    # Global address classification
    # ------------------------------------------------------------------

    @cached_property
    def _address_sharer_counts(self) -> tuple[np.ndarray, np.ndarray]:
        """(sorted distinct addresses, number of threads touching each)."""
        all_addrs = np.concatenate([p.addrs for p in self.profiles])
        return np.unique(all_addrs, return_counts=True)

    @cached_property
    def shared_address_space(self) -> np.ndarray:
        """Sorted addresses referenced by at least two threads."""
        unique, counts = self._address_sharer_counts
        return unique[counts >= 2]

    @cached_property
    def private_address_space(self) -> np.ndarray:
        """Sorted addresses referenced by exactly one thread."""
        unique, counts = self._address_sharer_counts
        return unique[counts == 1]

    # ------------------------------------------------------------------
    # Per-thread characteristics
    # ------------------------------------------------------------------

    @cached_property
    def shared_refs_per_thread(self) -> np.ndarray:
        """References by each thread into the shared address space."""
        shared = self.shared_address_space
        return np.array([p.refs_to(shared) for p in self.profiles], dtype=np.int64)

    @cached_property
    def private_addresses_per_thread(self) -> np.ndarray:
        """Distinct private addresses per thread (the MIN-PRIV input)."""
        shared = self.shared_address_space
        return np.array(
            [p.num_addresses - int(np.isin(p.addrs, shared).sum()) for p in self.profiles],
            dtype=np.int64,
        )

    @cached_property
    def percent_shared_refs(self) -> Summary:
        """Per-thread percentage of references that touch shared addresses.

        Table 2's "Shared Refs" column (mean over all threads).
        """
        totals = np.array([max(p.total_refs, 1) for p in self.profiles], dtype=float)
        return summarize(100.0 * self.shared_refs_per_thread / totals)

    @cached_property
    def refs_per_shared_address(self) -> Summary:
        """Per-thread references per distinct shared address touched.

        Table 2's "References per shared address" — the temporal-locality
        proxy SHARE-ADDR exploits.
        """
        shared = self.shared_address_space
        values = []
        for profile, refs in zip(self.profiles, self.shared_refs_per_thread):
            touched = int(np.isin(profile.addrs, shared).sum())
            values.append(refs / touched if touched else 0.0)
        return summarize(values)

    @cached_property
    def thread_lengths(self) -> Summary:
        """Thread length in instructions — Table 2's final column."""
        return summarize([float(p.length) for p in self.profiles])

    # ------------------------------------------------------------------
    # Pairwise and N-way sharing
    # ------------------------------------------------------------------

    @cached_property
    def shared_refs_matrix(self) -> np.ndarray:
        """Pairwise SHARE-REFS metric matrix."""
        return pairwise_matrix(self.profiles, shared_references)

    @cached_property
    def shared_addrs_matrix(self) -> np.ndarray:
        """Pairwise count of common addresses."""
        return pairwise_matrix(self.profiles, shared_addresses)

    @cached_property
    def write_shared_refs_matrix(self) -> np.ndarray:
        """Pairwise MAX-WRITES metric matrix."""
        return pairwise_matrix(self.profiles, write_shared_references)

    @cached_property
    def pairwise_sharing(self) -> Summary:
        """Summary of pairwise shared references over all thread pairs."""
        n = self.num_threads
        if n < 2:
            return summarize([0.0])
        upper = self.shared_refs_matrix[np.triu_indices(n, k=1)]
        return summarize(upper)

    def n_way_sharing(
        self, group_size: int, *, samples: int = 16, seed: int = 0
    ) -> Summary:
        """Sharing within random balanced groups of ``group_size`` threads.

        Table 2's "N-way sharing" column reports inter-thread sharing at the
        maximum-threads-per-processor extreme (a two-processor machine, so
        groups of ``t/2`` threads).  The paper averages over placements; we
        sample random thread-balanced groups.
        """
        if not 2 <= group_size <= self.num_threads:
            raise ValueError(
                f"group_size must be in [2, {self.num_threads}], got {group_size}"
            )
        rng = np.random.default_rng(seed)
        values = []
        ids = np.arange(self.num_threads)
        for _ in range(samples):
            chosen = rng.choice(ids, size=group_size, replace=False)
            values.append(group_shared_references([self.profiles[i] for i in chosen]))
        return summarize(values)
