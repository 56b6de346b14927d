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
    State is two flat per-block lists sized to ``max_block``: the sharer
    set as a bitmask (bit ``pid`` set while ``pid`` holds the block) and
    the last writer (-1 = none).
    """

    def __init__(
        self, caches: list, pairwise: np.ndarray, max_block: int,
        lat_rows: list[list[int]] | None = None,
    ) -> None:
        self._caches = caches
        self.sharers = [0] * (max_block + 1)
        self.last_writer = [-1] * (max_block + 1)
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
        return _bits(self.sharers[block])

    def fetch(self, block: int, processor: int, is_write: bool) -> int | None:
        """A processor misses on ``block``; update global state.

        Counts the memory fetch, invalidates remote copies when the fetch
        is for a write, and returns the processor the data was sourced from
        (the last writer if it still holds the block, else the lowest
        sharer), or None when only memory holds it.
        """
        self.stats.memory_fetches += 1
        mask = self.sharers[block]
        bit = 1 << processor
        source = self.last_writer[block]
        if source < 0 or not mask >> source & 1:
            source = (mask & -mask).bit_length() - 1 if mask else None
        if is_write:
            if mask & ~bit:
                self._invalidate_others(block, processor, mask)
            self.sharers[block] = bit
            self.last_writer[block] = processor
        else:
            self.sharers[block] = mask | bit
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
        mask = self.sharers[block]
        bit = 1 << processor
        sent = 0
        if mask & ~bit:
            sent = self._invalidate_others(block, processor, mask)
            self.sharers[block] = bit
        self.last_writer[block] = processor
        # Probed only when invalidations went out: the kernel may legally
        # skip provable no-op upgrades, so counting sent>0 events keeps
        # the probe equal to a per-reference replay's count.
        if sent and self._probe is not None:
            self._probe.upgrades += 1
        return sent

    def evict(self, block: int, processor: int) -> None:
        """A cache silently dropped its copy."""
        self.sharers[block] &= ~(1 << processor)

    def _invalidate_others(self, block: int, writer: int, mask: int) -> int:
        """Invalidate every holder in ``mask`` but ``writer``; returns the
        invalidations sent."""
        row = self._lat_rows[writer] if self._lat_rows is not None else None
        worst = sent = 0
        others = mask & ~(1 << writer)
        while others:
            holder = (others & -others).bit_length() - 1
            others &= others - 1
            if self._caches[holder].invalidate(block, by_processor=writer):
                sent += 1
                self.pairwise[writer, holder] += 1
                if row is not None and row[holder] > worst:
                    worst = row[holder]
        self.stats.invalidations_sent += sent
        if row is not None:
            self.last_upgrade_latency = worst
        return sent

    def check_invariants(self) -> None:
        """Single-writer/multi-reader sanity check (used by tests and the
        invariant checker).

        Every block's sharer set must exactly match the caches that hold
        it resident, in both directions: every cached block with exactly
        its holders, and no directory entry beyond those.  Python-level
        work is one pass over the resident blocks; the empty entries are
        counted in C.
        """
        resident: dict[int, int] = {}
        for pid, cache in enumerate(self._caches):
            for block in cache.resident_blocks():
                resident[block] = resident.get(block, 0) | 1 << pid
        if len(self.sharers) - self.sharers.count(0) != len(resident):
            # Some entry names holders no cache agrees with: audit them all.
            resident = dict.fromkeys(range(len(self.sharers)), 0) | resident
        for block, holders in resident.items():
            if self.sharers[block] != holders:
                raise AssertionError(
                    f"directory out of sync for block {block}: "
                    f"directory={sorted(_bits(self.sharers[block]))}, "
                    f"resident={sorted(_bits(holders))}"
                )


def _bits(mask: int) -> set[int]:
    """The processor ids whose bits ``mask`` sets."""
    return {pid for pid in range(mask.bit_length()) if mask >> pid & 1}
