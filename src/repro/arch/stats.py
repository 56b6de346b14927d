"""Simulation statistics.

The statistics mirror what the paper's simulator reports:

* the **processor unit** "maintains statistics on the cycles spent doing
  useful work, context switching and idling" (§3.2) —
  :class:`ProcessorStats`;
* the **cache unit** "maintains separate statistics on the individual cache
  miss components of compulsory, intra-thread conflict, inter-thread
  conflict and invalidation misses" — :class:`CacheStats` keyed by
  :class:`MissKind`;
* the **interconnect** counts the coherence traffic §4.2 measures —
  :class:`InterconnectStats`, including the processor-pair matrix that
  feeds the dynamic COHERENCE-TRAFFIC placement.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

__all__ = ["MissKind", "CacheStats", "ProcessorStats", "InterconnectStats",
           "SimulationResult"]


class MissKind(enum.Enum):
    """The paper's four-way cache-miss decomposition."""

    COMPULSORY = "compulsory"
    INTRA_THREAD_CONFLICT = "intra-thread conflict"
    INTER_THREAD_CONFLICT = "inter-thread conflict"
    INVALIDATION = "invalidation"

    # Members compare by identity, so identity hashing is exact, and in C
    # it spares each ``misses[kind] += 1`` two Python-level Enum hashes.
    __hash__ = object.__hash__


@dataclass
class CacheStats:
    """Per-cache access counters with the four-way miss decomposition."""

    hits: int = 0
    misses: dict[MissKind, int] = field(
        default_factory=lambda: {kind: 0 for kind in MissKind}
    )

    @property
    def total_misses(self) -> int:
        return sum(self.misses.values())

    @property
    def total_accesses(self) -> int:
        return self.hits + self.total_misses

    def record_miss(self, kind: MissKind) -> None:
        """Count one miss of the given kind."""
        self.misses[kind] += 1

    def merged_with(self, other: "CacheStats") -> "CacheStats":
        """Elementwise sum of two counters (machine-wide aggregation)."""
        merged = CacheStats(hits=self.hits + other.hits)
        for kind in MissKind:
            merged.misses[kind] = self.misses[kind] + other.misses[kind]
        return merged


@dataclass
class ProcessorStats:
    """Cycle accounting for one processor.

    busy: instruction execution and cache-access cycles;
    switching: context-switch (pipeline drain) cycles;
    idle: cycles with every context stalled on memory;
    completion_time: local clock when the last context finished.
    """

    busy: int = 0
    switching: int = 0
    idle: int = 0
    completion_time: int = 0

    @property
    def total(self) -> int:
        return self.busy + self.switching + self.idle

    @property
    def utilization(self) -> float:
        return self.busy / self.total if self.total else 0.0


@dataclass
class InterconnectStats:
    """Traffic counters for the (contention-free) interconnect."""

    memory_fetches: int = 0
    invalidations_sent: int = 0

    @property
    def total_operations(self) -> int:
        return self.memory_fetches + self.invalidations_sent


@dataclass
class SimulationResult:
    """Everything one simulation run produced.

    Attributes:
        execution_time: Max completion time over processors — the paper's
            figure-of-merit ("the maximum execution time over all the
            processors").
        processors: Per-processor cycle accounting.
        caches: Per-processor cache statistics.
        interconnect: Aggregate interconnect traffic.
        pairwise_coherence: (p, p) matrix; entry (a, b) counts coherence
            events a's accesses caused involving b's cache (invalidations
            sent a->b, invalidation misses a suffered due to b, compulsory
            fetches a sourced from b).
        total_refs: Data references simulated.
    """

    execution_time: int
    processors: list[ProcessorStats]
    caches: list[CacheStats]
    interconnect: InterconnectStats
    pairwise_coherence: np.ndarray
    total_refs: int

    @property
    def num_processors(self) -> int:
        return len(self.processors)

    @property
    def cache_totals(self) -> CacheStats:
        """Suite-wide cache stats (all processor caches merged)."""
        merged = CacheStats()
        for stats in self.caches:
            merged = merged.merged_with(stats)
        return merged

    def miss_breakdown(self) -> dict[MissKind, int]:
        """Machine-wide miss counts by kind."""
        return dict(self.cache_totals.misses)

    @property
    def compulsory_plus_invalidation(self) -> int:
        """The quantity the paper's hypothesis says placement should reduce."""
        totals = self.cache_totals
        return (
            totals.misses[MissKind.COMPULSORY]
            + totals.misses[MissKind.INVALIDATION]
        )

    @property
    def coherence_traffic(self) -> int:
        """§4.2's measured traffic: invalidations, invalidation misses and
        compulsory misses."""
        totals = self.cache_totals
        return (
            self.interconnect.invalidations_sent
            + totals.misses[MissKind.INVALIDATION]
            + totals.misses[MissKind.COMPULSORY]
        )

    @property
    def coherence_traffic_fraction(self) -> float:
        """Coherence + compulsory traffic as a fraction of total references."""
        return self.coherence_traffic / self.total_refs if self.total_refs else 0.0

    def describe(self) -> str:
        """Per-processor cycle and miss accounting as an aligned table."""
        from repro.util.tables import format_table

        rows = []
        for pid, (proc, cache) in enumerate(zip(self.processors, self.caches)):
            rows.append([
                pid,
                proc.busy,
                proc.switching,
                proc.idle,
                proc.completion_time,
                round(proc.utilization, 3),
                cache.hits,
                cache.misses[MissKind.COMPULSORY],
                cache.misses[MissKind.INTRA_THREAD_CONFLICT],
                cache.misses[MissKind.INTER_THREAD_CONFLICT],
                cache.misses[MissKind.INVALIDATION],
            ])
        return format_table(
            ["proc", "busy", "switch", "idle", "done at", "util",
             "hits", "comp", "intra", "inter", "inval"],
            rows,
            title=f"Simulation: {self.execution_time} cycles, "
                  f"{self.total_refs} references",
        )
