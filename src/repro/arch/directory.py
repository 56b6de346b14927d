"""Distributed, directory-based cache coherence (paper §3.2).

"Cache coherency is maintained with a distributed, directory-based cache
coherency protocol" — a full-map write-invalidate directory: every block
has a sharer set; a write anywhere invalidates every other cached copy.

The directory is the *global* coherence authority; the per-processor caches
only learn about invalidations when the directory tells them.  Timing is
folded into the simulator's fixed memory latency (the paper's multipath
network is contention-free with one 50-cycle latency for all remote
operations), so the directory tracks state and traffic, not time.
"""

from __future__ import annotations

import numpy as np

from repro.arch.stats import InterconnectStats

__all__ = ["Directory"]


class Directory:
    """Full-map write-invalidate directory over all processor caches.

    The owning simulator passes in the cache list so invalidations can be
    applied to remote caches immediately (at the issuing processor's
    current time — the trace-driven approximation described in DESIGN.md).
    """

    def __init__(
        self, caches: list, pairwise: np.ndarray,
        lat_rows: list[list[int]] | None = None,
    ) -> None:
        self._caches = caches
        self._sharers: dict[int, set[int]] = {}
        self._last_writer: dict[int, int] = {}
        self.stats = InterconnectStats()
        self.pairwise = pairwise
        #: Per-processor-pair tier latencies (``lat_rows[writer][holder]``)
        #: on a tiered :class:`~repro.topo.model.Topology`; None on the
        #: flat machine, where the invalidation walk pays no tracking.
        self._lat_rows = lat_rows
        #: Max tier latency over the holders the last invalidation round
        #: actually reached — what a stalling upgrade waits out on a
        #: tiered machine.  Engines read it only right after a
        #: ``write_hit`` that sent invalidations, which always refreshes
        #: it (``sent > 0`` implies at least one invalidated holder).
        self.last_upgrade_latency = 0
        #: Optional :class:`~repro.obs.probes.SimProbe` (armed by the
        #: simulator); tested once per invalidation-sending upgrade only.
        self._probe = None

    def sharers_of(self, block: int) -> set[int]:
        """Current sharer set (copy) — for tests and invariant checks."""
        return set(self._sharers.get(block, ()))

    def fetch(self, block: int, processor: int, is_write: bool) -> int | None:
        """A processor misses on ``block``; update global state.

        Counts the memory fetch, invalidates remote copies when the fetch
        is for a write, and returns the processor the data was sourced from
        (the last writer if it still holds the block, else the lowest
        sharer), or None when only memory holds it.
        """
        self.stats.memory_fetches += 1
        sharers = self._sharers.setdefault(block, set())
        source: int | None = None
        if sharers:
            last_writer = self._last_writer.get(block)
            source = last_writer if last_writer in sharers else min(sharers)
        if is_write:
            self._invalidate_others(block, processor, sharers)
            sharers.clear()
            self._last_writer[block] = processor
        sharers.add(processor)
        return source

    def write_hit(self, block: int, processor: int) -> int:
        """A processor writes a block it holds; invalidate other copies.

        This is the upgrade path.  By default it generates invalidations
        (interconnect traffic) but no stall — the simulator models an
        Alewife-style write buffer, so context switches remain purely
        miss-driven as in the paper; the processor can optionally stall on
        it (see ``ArchConfig.write_upgrade_stalls``).

        Returns the number of invalidations sent.
        """
        sharers = self._sharers.setdefault(block, set())
        sent = 0
        if len(sharers) > 1 or (sharers and processor not in sharers):
            before = self.stats.invalidations_sent
            self._invalidate_others(block, processor, sharers)
            sent = self.stats.invalidations_sent - before
            sharers.clear()
            sharers.add(processor)
        self._last_writer[block] = processor
        # Probed only when invalidations went out: the kernel may legally
        # skip provable no-op upgrades, so counting sent>0 events keeps
        # the probe equal to a per-reference replay's count.
        if sent and self._probe is not None:
            self._probe.upgrades += 1
        return sent

    def evict(self, block: int, processor: int) -> None:
        """A cache silently dropped its copy.

        Entries whose sharer set empties are pruned outright: long sweeps
        over large address spaces would otherwise grow the directory by
        one empty set per distinct block ever cached.  ``sharers_of`` and
        ``check_invariants`` treat a missing entry and an empty set
        identically, so pruning is unobservable.
        """
        sharers = self._sharers.get(block)
        if sharers is not None:
            sharers.discard(processor)
            if not sharers:
                del self._sharers[block]

    def _invalidate_others(self, block: int, writer: int, sharers: set[int]) -> None:
        row = self._lat_rows[writer] if self._lat_rows is not None else None
        worst = 0
        for holder in sharers:
            if holder == writer:
                continue
            if self._caches[holder].invalidate(block, by_processor=writer):
                self.stats.invalidations_sent += 1
                self.pairwise[writer, holder] += 1
                if row is not None and row[holder] > worst:
                    worst = row[holder]
        if row is not None:
            self.last_upgrade_latency = worst

    def check_invariants(self) -> None:
        """Single-writer/multi-reader sanity check (used by tests).

        Every block's sharer set must exactly match the caches that hold
        it resident.
        """
        for block, sharers in self._sharers.items():
            resident = {
                pid for pid, cache in enumerate(self._caches)
                if cache.contains(block)
            }
            if resident != sharers:
                raise AssertionError(
                    f"directory out of sync for block {block}: "
                    f"directory={sorted(sharers)}, resident={sorted(resident)}"
                )
