"""A slow, obviously-correct reference interpreter for the simulator.

:func:`reference_simulate` recomputes exactly what
:func:`repro.arch.simulator.simulate` computes — execution time, the
four-way :class:`~repro.arch.stats.MissKind` decomposition, interconnect
traffic and the pairwise coherence matrix — but from a deliberately naive
implementation whose every step is auditable:

* one **global clock loop**: at each step the processor with the smallest
  ``(local time, pid)`` runs one scheduling quantum (mirroring the
  production heap's tuple ordering, where each active processor always
  holds exactly one entry);
* **per-reference replay**: references are processed one at a time from
  plain ``(gap, block, is_write)`` tuples — no columnar batching, no
  flattened fast path;
* **dict-based caches** whose miss classification is recomputed from the
  full access/departure *history* (first-touch set plus a departure
  record per block), not from the production caches' incremental
  bookkeeping, and whose direct-mapped and set-associative organizations
  are one uniform LRU model (``ways=1`` *is* direct-mapped);
* a **dict-based directory** holding an explicit sharer set per block.

The model it implements is the paper's machine (§3.2) under the
reproduction's stated timing rules (DESIGN.md, "Key design decisions"):

* every reference costs its instruction gap plus the cache hit time,
  charged to *busy* cycles whether it hits or misses;
* a miss stalls the issuing context for the memory latency and hands the
  pipeline to the next ready context in round-robin order (6-cycle
  switch); if no context is ready the processor *idles* until the
  earliest stall resolves;
* coherence actions apply at the issuing processor's current time, in
  global ``(time, pid)`` order at quantum granularity — the standard
  trace-driven approximation.

This module must stay independent of :mod:`repro.arch.cache`,
:mod:`repro.arch.directory` and :mod:`repro.arch.kernel`: it shares
only the configuration, trace and result *types* with the production
simulator, never its mechanisms.
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
from repro.trace.stream import TraceSet
from repro.util.validate import check_positive

__all__ = ["reference_simulate"]


class _HistoryCache:
    """One processor's cache, classified from the full history.

    A uniform LRU set-associative model (``ways=1`` is direct-mapped).
    Classification rules (paper §3.2):

    * block never resident in this cache before → **compulsory**;
    * block's most recent departure was a coherence invalidation →
      **invalidation** miss (the invalidator is the recorded writer);
    * otherwise the block was evicted by a mapping conflict → **conflict**
      miss, *intra*-thread when the evicting reference came from the same
      thread as the missing one, *inter*-thread otherwise.
    """

    def __init__(self, num_sets: int, ways: int) -> None:
        self.num_sets = num_sets
        self.ways = ways
        #: set index -> resident [(block, thread)], most recently used first.
        self.sets: dict[int, list[tuple[int, int]]] = {}
        #: every block that was ever resident here.
        self.ever_seen: set[int] = set()
        #: block -> ("evicted" | "invalidated", actor) for its last departure.
        self.departure: dict[int, tuple[str, int]] = {}
        self.stats = CacheStats()

    def access(
        self, block: int, thread_id: int
    ) -> tuple[MissKind | None, int | None, int | None]:
        """One reference; returns ``(miss_kind, evicted_block, invalidator)``
        with the same contract as the production caches."""
        lines = self.sets.setdefault(block % self.num_sets, [])
        for position, (resident, _) in enumerate(lines):
            if resident == block:
                lines.insert(0, lines.pop(position))  # promote to MRU
                self.stats.hits += 1
                return None, None, None

        invalidator: int | None = None
        if block not in self.ever_seen:
            kind = MissKind.COMPULSORY
            self.ever_seen.add(block)
        else:
            how, actor = self.departure.pop(block)
            if how == "invalidated":
                kind = MissKind.INVALIDATION
                invalidator = actor
            elif actor == thread_id:
                kind = MissKind.INTRA_THREAD_CONFLICT
            else:
                kind = MissKind.INTER_THREAD_CONFLICT
        self.stats.record_miss(kind)

        evicted: int | None = None
        if len(lines) >= self.ways:
            evicted, _ = lines.pop()
            self.departure[evicted] = ("evicted", thread_id)
        lines.insert(0, (block, thread_id))
        return kind, evicted, invalidator

    def invalidate(self, block: int, by_processor: int) -> bool:
        """Coherence invalidation; True when the block was resident."""
        lines = self.sets.get(block % self.num_sets, [])
        for position, (resident, _) in enumerate(lines):
            if resident == block:
                lines.pop(position)
                self.departure[block] = ("invalidated", by_processor)
                return True
        return False

    def resident_blocks(self) -> set[int]:
        return {block for lines in self.sets.values() for block, _ in lines}


class _HistoryDirectory:
    """Full-map write-invalidate directory over the reference caches.

    On a tiered topology (``config.topology`` with unequal tiers) the
    directory additionally remembers, after each invalidation round, the
    farthest tier it reached — recomputed naively per holder from the
    topology's group arithmetic, never from the production lookup
    tables.  A stalling upgrade waits that long.
    """

    def __init__(self, caches: list[_HistoryCache], pairwise: np.ndarray,
                 config: ArchConfig | None = None) -> None:
        self.caches = caches
        self.sharers: dict[int, set[int]] = {}
        self.last_writer: dict[int, int] = {}
        self.stats = InterconnectStats()
        self.pairwise = pairwise
        self.config = config
        self.last_upgrade_latency = 0

    def fetch(self, block: int, processor: int, is_write: bool) -> int | None:
        """A miss fetch; returns the processor the data was sourced from
        (the last writer if it still holds the block, else the lowest
        sharer), or None when only memory holds it."""
        self.stats.memory_fetches += 1
        sharers = self.sharers.setdefault(block, set())
        source: int | None = None
        if sharers:
            writer = self.last_writer.get(block)
            source = writer if writer in sharers else min(sharers)
        if is_write:
            self._invalidate_others(block, processor, sharers)
            sharers.clear()
            self.last_writer[block] = processor
        sharers.add(processor)
        return source

    def write_hit(self, block: int, processor: int) -> int:
        """The upgrade path; returns invalidations sent."""
        sharers = self.sharers.setdefault(block, set())
        sent = 0
        if len(sharers) > 1 or (sharers and processor not in sharers):
            before = self.stats.invalidations_sent
            self._invalidate_others(block, processor, sharers)
            sent = self.stats.invalidations_sent - before
            sharers.clear()
            sharers.add(processor)
        self.last_writer[block] = processor
        return sent

    def evict(self, block: int, processor: int) -> None:
        """A cache silently dropped its copy."""
        sharers = self.sharers.get(block)
        if sharers is not None:
            sharers.discard(processor)

    def _invalidate_others(self, block: int, writer: int, sharers: set[int]) -> None:
        worst = 0
        for holder in sharers:
            if holder == writer:
                continue
            if self.caches[holder].invalidate(block, by_processor=writer):
                self.stats.invalidations_sent += 1
                self.pairwise[writer, holder] += 1
                reached = _tier_latency(self.config, writer, holder)
                if reached > worst:
                    worst = reached
        self.last_upgrade_latency = worst


def _tier_latency(config: ArchConfig | None, pid: int, other: int) -> int:
    """Naive per-pair tier latency: explicit group arithmetic per call.

    Deliberately recomputed from first principles on every use — the
    reference never touches the production kernel's precomputed lookup
    rows.
    """
    if config is None or config.topology is None:
        return 0 if config is None else config.memory_latency_cycles
    topology = config.topology
    group_size = config.num_processors // topology.groups
    if pid // group_size == other // group_size:
        return topology.local_latency
    return topology.remote_latency


def _miss_latency(config: ArchConfig, pid: int, source: int | None,
                  block: int) -> int:
    """Naive miss-stall latency: the source's tier, or the block's home
    group when memory services the fetch (round-robin interleaving)."""
    topology = config.topology
    if topology is None:
        return config.memory_latency_cycles
    if source is not None:
        return _tier_latency(config, pid, source)
    group_size = config.num_processors // topology.groups
    if block % topology.groups == pid // group_size:
        return topology.local_latency
    return topology.remote_latency


class _Context:
    """One hardware context: the thread's references plus a replay cursor."""

    def __init__(self, thread_id: int, refs: list[tuple[int, int, bool]]) -> None:
        self.thread_id = thread_id
        self.refs = refs  # [(gap, block, is_write)]
        self.length = len(refs)
        self.pos = 0
        self.ready_time = 0
        self.done = not refs


class _RefProcessor:
    """One multithreaded processor replayed one reference at a time."""

    def __init__(
        self,
        pid: int,
        config: ArchConfig,
        cache: _HistoryCache,
        directory: _HistoryDirectory,
        contexts: list[_Context],
    ) -> None:
        self.pid = pid
        self.config = config
        self.cache = cache
        self.directory = directory
        self.contexts = contexts
        self.stats = ProcessorStats()
        self.time = 0
        self.current = 0
        self.finished = all(context.done for context in contexts)

    def run_quantum(self, quantum_refs: int) -> bool:
        """One scheduling quantum; returns False once every context is done.

        The current context replays references one by one until it misses,
        finishes, or exhausts the quantum; then the round-robin policy
        picks a successor (or the processor idles / finishes).
        """
        context = self.contexts[self.current]
        stalled = False
        replayed = 0
        while replayed < quantum_refs and context.pos < context.length:
            gap, block, is_write = context.refs[context.pos]
            cost = gap + self.config.hit_cycles
            self.time += cost
            self.stats.busy += cost
            context.pos += 1
            replayed += 1
            kind, evicted, invalidator = self.cache.access(block, context.thread_id)
            if kind is None:
                if is_write:
                    sent = self.directory.write_hit(block, self.pid)
                    if sent and self.config.write_upgrade_stalls:
                        # An invalidation round went out (sent > 0), so the
                        # directory just recomputed how far it reached; the
                        # context waits out the farthest copy (one uniform
                        # latency on the flat machine).
                        stalled = self._stall(
                            context, self.directory.last_upgrade_latency)
                        break
                continue
            # Miss: the coherence transaction, then the memory latency of
            # the tier the data comes from (recomputed naively per miss).
            if evicted is not None:
                self.directory.evict(evicted, self.pid)
            source = self.directory.fetch(block, self.pid, is_write)
            if kind is MissKind.INVALIDATION and invalidator is not None:
                self.directory.pairwise[self.pid, invalidator] += 1
            elif kind is MissKind.COMPULSORY and source is not None:
                self.directory.pairwise[self.pid, source] += 1
            stalled = self._stall(
                context, _miss_latency(self.config, self.pid, source, block))
            break

        # A context that stalled on its final reference completes only when
        # that access returns: it stays pending and is marked done on resume.
        if context.pos >= context.length and not stalled:
            context.done = True
        if not stalled and not context.done:
            return True  # quantum expired mid-run; same context continues
        return self._schedule_next()

    def _stall(self, context: _Context, latency: int) -> bool:
        context.ready_time = self.time + latency
        return True

    def _schedule_next(self) -> bool:
        """Round-robin pick of the next context; switch, idle, or finish."""
        n = len(self.contexts)
        for offset in range(1, n + 1):
            index = (self.current + offset) % n
            candidate = self.contexts[index]
            if not candidate.done and candidate.ready_time <= self.time:
                self._switch_to(index)
                return True

        pending = [
            (context.ready_time, index)
            for index, context in enumerate(self.contexts)
            if not context.done
        ]
        if not pending:
            self.finished = True
            self.stats.completion_time = self.time
            return False

        # Every context is stalled: idle until the earliest miss completes,
        # breaking ties by round-robin distance from the current context.
        ready_time, index = min(
            pending, key=lambda item: (item[0], (item[1] - self.current) % n)
        )
        self.stats.idle += ready_time - self.time
        self.time = ready_time
        self._switch_to(index)
        return True

    def _switch_to(self, index: int) -> None:
        if index != self.current:
            self.time += self.config.context_switch_cycles
            self.stats.switching += self.config.context_switch_cycles
        self.current = index


def reference_simulate(
    trace_set: TraceSet,
    placement: PlacementMap,
    config: ArchConfig,
    *,
    quantum_refs: int = 256,
) -> SimulationResult:
    """Replay one application on the reference machine model.

    Same signature, semantics and :class:`SimulationResult` contract as
    :func:`repro.arch.simulator.simulate`; the differential suite asserts
    the two agree *exactly* on every metric.

    Raises:
        ValueError: On the same placement/configuration mismatches the
            production simulator rejects.
    """
    check_positive("quantum_refs", quantum_refs)
    if placement.num_threads != trace_set.num_threads:
        raise ValueError(
            f"placement covers {placement.num_threads} threads, trace set has "
            f"{trace_set.num_threads}"
        )
    if placement.num_processors != config.num_processors:
        raise ValueError(
            f"placement targets {placement.num_processors} processors, "
            f"config has {config.num_processors}"
        )

    p = config.num_processors
    pairwise = np.zeros((p, p), dtype=np.int64)
    caches = [_HistoryCache(config.num_sets, config.associativity) for _ in range(p)]
    directory = _HistoryDirectory(caches, pairwise, config)
    processors = []
    for pid in range(p):
        contexts = []
        for tid in placement.threads_on(pid):
            trace = trace_set[tid]
            refs = [
                (int(gap), int(addr) >> config.block_bits, bool(write))
                for gap, addr, write in zip(trace.gaps, trace.addrs, trace.writes)
            ]
            contexts.append(_Context(tid, refs))
        if len(contexts) > config.contexts_per_processor:
            raise ValueError(
                f"processor {pid} was assigned {len(contexts)} threads but has "
                f"only {config.contexts_per_processor} hardware contexts"
            )
        processors.append(_RefProcessor(pid, config, caches[pid], directory, contexts))

    # The single global clock: always run the processor with the smallest
    # (local time, pid) among those with work left.  Each active processor
    # is considered exactly once per quantum, so this is the same total
    # order the production simulator's min-heap produces.
    active = {proc.pid: proc for proc in processors if not proc.finished}
    while active:
        proc = min(active.values(), key=lambda candidate: (candidate.time, candidate.pid))
        if not proc.run_quantum(quantum_refs):
            del active[proc.pid]

    return SimulationResult(
        execution_time=max(proc.stats.completion_time for proc in processors),
        processors=[proc.stats for proc in processors],
        caches=[cache.stats for cache in caches],
        interconnect=directory.stats,
        pairwise_coherence=pairwise,
        total_refs=trace_set.total_refs,
    )
