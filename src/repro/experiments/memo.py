"""Exact simulation reuse: the placement-keyed result memo.

A grid cell's simulation is fully determined by its trace set, its
:class:`~repro.arch.config.ArchConfig`, its placement's assignment and the
suite's ``quantum_refs``.  Several placement algorithms often emit the
*same* assignment for one application and machine, so the suite keys a
memo on exactly that tuple and answers a repeat with a deep copy of the
first result instead of replaying it.  An identical key is the same
simulation, so a hit needs no check.  (Relabeled-but-permuted placements
are *not* the same simulation — the min-time heap breaks time ties by
processor id, which the directory can observe — so only byte-identical
assignments share an entry.)

Reuse is counted by the suite's :class:`~repro.obs.probes.SimProbe`
(``sim_memo_lookups`` / ``sim_memo_hits``).
"""

from __future__ import annotations

import numpy as np

from repro.arch.config import ArchConfig
from repro.arch.stats import (
    CacheStats,
    InterconnectStats,
    MissKind,
    ProcessorStats,
    SimulationResult,
)
from repro.placement.base import PlacementMap

__all__ = ["ResultMemo", "clone_result"]


def clone_result(result: SimulationResult) -> SimulationResult:
    """A deep, independent copy of a simulation result.

    The memo never hands out the object it holds: a caller mutating a
    hit must not change what later hits return.
    """
    processors = [
        ProcessorStats(busy=s.busy, switching=s.switching, idle=s.idle,
                       completion_time=s.completion_time)
        for s in result.processors
    ]
    caches = []
    for stats in result.caches:
        copy = CacheStats(hits=stats.hits)
        for kind in MissKind:
            copy.misses[kind] = stats.misses[kind]
        caches.append(copy)
    return SimulationResult(
        execution_time=result.execution_time,
        processors=processors,
        caches=caches,
        interconnect=InterconnectStats(
            memory_fetches=result.interconnect.memory_fetches,
            invalidations_sent=result.interconnect.invalidations_sent,
        ),
        pairwise_coherence=np.array(result.pairwise_coherence,
                                    dtype=np.int64, copy=True),
        total_refs=result.total_refs,
    )


class ResultMemo:
    """Results keyed by (cell group, config, placement assignment bytes).

    The cell group names the application and machine axes; the config
    adds the context count and topology; the assignment bytes are the
    placement itself.  One memo serves one suite, whose ``quantum_refs``
    is fixed, so the key need not repeat it.  An entry is the very result
    object the suite memoized for the cell that simulated it (holding a
    second copy of every result would only cost memory); every hit is a
    clone, so no two cells ever share a result object.
    """

    def __init__(self) -> None:
        self._results: dict[tuple, SimulationResult] = {}

    @staticmethod
    def key(group: tuple, config: ArchConfig,
            placement: PlacementMap) -> tuple:
        return (group, config, placement.assignment.tobytes())

    def get(self, key: tuple) -> SimulationResult | None:
        """A clone of the memoized result for ``key``, or None."""
        hit = self._results.get(key)
        return clone_result(hit) if hit is not None else None

    def put(self, key: tuple, result: SimulationResult) -> None:
        """Remember ``result`` under ``key`` (the first one wins)."""
        self._results.setdefault(key, result)

