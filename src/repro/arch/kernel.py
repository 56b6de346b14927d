"""The multithreaded processor model (paper §3.2) and its replay kernel.

"Each processor models multiple hardware contexts and a round-robin
context switch policy.  A context switch takes 6 cycles, the time to drain
the execution pipeline.  A context switch is initiated by a cache miss
from the currently executing thread."

One hardware context holds one thread for the whole run.  A context
executes instructions (one cycle each) and issues data references; a cache
hit costs the hit time, a miss stalls the context for the memory latency
and hands the pipeline to the next *ready* context in round-robin order.
If no context is ready the processor idles (charged to the idle counter)
until the earliest outstanding miss completes.

The replay loop steps block *runs* of a run-compressed trace, not single
references, while keeping the per-reference scheduling, coherence and
classification semantics *identical* — the differential suite in
``tests/oracle/`` pins it bit-for-bit against the reference interpreter
(:mod:`repro.oracle.reference`), which steps one reference at a time.

Why it is exact (the full argument is in ``docs/PERFORMANCE.md``):

* within one scheduling quantum only the owning processor acts, so no
  remote invalidation can land mid-quantum — a block confirmed resident
  stays resident for the rest of the quantum;
* a repeated same-block *hit* mutates no classification state: the
  direct-mapped cache only bumps its hit counter, and a set-associative
  cache's MRU move is idempotent once the block is at MRU;
* at most one write per run segment needs a real directory upgrade — the
  first one.  After it (or after a write fetch), the writer is the sole
  sharer and the last writer, so every later ``write_hit`` in the segment
  returns 0 invalidations and changes nothing.

So the kernel replays each run segment as: one slow-stepped reference
(which may miss, exactly like a per-reference loop), one optional
directory upgrade at the segment's first write, and the remaining hits
charged once from the prefix at the window's exit.  Runs are split at
quantum edges so coherence invalidations between quanta are observed at
exactly the same points as in a per-reference replay.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right

from repro.arch.cache import (
    _EVICTED,
    _INVALIDATED,
    _NONE,
    ArrayDirectMappedCache,
)
from repro.arch.config import ArchConfig
from repro.arch.directory import Directory
from repro.arch.stats import MissKind, ProcessorStats
from repro.trace.runs import CompressedTrace, compress_traces
from repro.trace.stream import ThreadTrace

__all__ = ["FastContext", "FastProcessor"]

#: Module-level bindings of the miss kinds for the inlined classifier.
_COMPULSORY = MissKind.COMPULSORY
_INTRA = MissKind.INTRA_THREAD_CONFLICT
_INTER = MissKind.INTER_THREAD_CONFLICT
_INVALIDATION = MissKind.INVALIDATION


class FastContext:
    """One hardware context: a thread's run-compressed trace plus its
    replay cursor (``pos``, ``blocks``, ``ready_time``, ``done`` — the
    surface the oracle's invariant checker audits).

    The replay columns are the thread's whole
    :class:`~repro.trace.runs.CompressedTrace` plus its charge prefix,
    bound once here.  They are built per ``simulate`` call and die with
    the context: nothing is memoized on the trace.
    """

    __slots__ = ("thread_id", "blocks", "writes", "run_end",
                 "next_write", "charge", "length", "pos",
                 "ready_time", "done")

    def __init__(self, compressed: CompressedTrace, hit_cycles: int) -> None:
        self.thread_id = compressed.thread_id
        self.length = compressed.num_refs
        self.blocks = compressed.blocks
        self.writes = compressed.writes
        self.run_end = compressed.run_end
        self.next_write = compressed.next_write
        self.charge = compressed.charge_prefix(hit_cycles)
        self.pos = 0
        self.ready_time = 0
        self.done = self.length == 0

    def __repr__(self) -> str:
        return (
            f"FastContext(thread={self.thread_id}, pos={self.pos}/"
            f"{self.length}, ready={self.ready_time}, done={self.done})"
        )


class FastProcessor:
    """One multithreaded processor: contexts + cache + cycle accounting,
    its replay loop stepping block runs, not references.

    :meth:`advance` runs one scheduling window: the direct-mapped run
    loop inline, or :meth:`_run` for a set-associative cache, then the
    one round-robin pick.
    """

    def __init__(
        self,
        pid: int,
        config: ArchConfig,
        cache,
        directory: Directory,
        traces: list[ThreadTrace],
    ) -> None:
        if len(traces) > config.contexts_per_processor:
            raise ValueError(
                f"processor {pid} was assigned {len(traces)} threads but has "
                f"only {config.contexts_per_processor} hardware contexts"
            )
        self.pid = pid
        self.config = config
        self.cache = cache
        self.directory = directory
        hit_cycles = config.hit_cycles
        # One numpy pass compresses every thread placed here.
        self.contexts = [
            FastContext(compressed, hit_cycles)
            for compressed in compress_traces(
                traces, config.block_bits, hit_cycles=hit_cycles)
        ]
        self.stats = ProcessorStats()
        self.time = 0
        self.current = 0
        self.finished = all(c.done for c in self.contexts)
        if self.finished:
            self.stats.completion_time = 0
        #: Optional :class:`~repro.obs.probes.SimProbe`; every hook is
        #: gated by one ``is not None`` test so the default path stays hot.
        self._probe = None
        # Tier-latency bindings: the per-source lookup row and
        # per-home-group memory row are precomputed tables, so a tiered
        # miss costs one list index; on the flat machine both are None and
        # every charge site takes the constant path.
        if config.tiered:
            topo = config.topology
            p = config.num_processors
            self._lat_row = topo.latency_rows(p)[pid]
            self._mem_lat = topo.memory_latency_row(pid, p)
            self._topo_groups = topo.groups
        else:
            self._lat_row = None
            self._mem_lat = None
            self._topo_groups = 1
        # Direct-mapped caches get the run loop inlined into ``advance``;
        # set-associative ones (``_hot`` None) run ``_run``, which goes
        # through cache.access (the MRU move is stateful even on a hit).
        self._hot = None
        if isinstance(cache, ArrayDirectMappedCache):
            # Loop-invariant bindings for the inline loop, unpacked once
            # per window instead of re-resolved attribute by attribute.
            # All are stable references: the lists/dicts are mutated in
            # place, never reassigned.
            self._hot = (
                cache._tags, cache._mask, cache._seen,
                cache._departure, cache._actor, cache.stats.misses,
                directory.write_hit, directory.sharers,
                directory.last_writer, directory.fetch, directory.pairwise,
                config.flat_miss_latency, config.write_upgrade_stalls,
                pid, 1 << pid, self._lat_row, self._mem_lat,
                self._topo_groups, directory, self.stats, cache.stats,
            )
        self._switch_cycles = config.context_switch_cycles
        # Live (not-done) context slots in ascending order (see advance).
        self._alive = [i for i, c in enumerate(self.contexts) if not c.done]

    # ------------------------------------------------------------------

    def advance(self, quantum_refs: int) -> int | None:
        """Run one scheduling window; return the next service time.

        Executes the current (ready) context until it misses, finishes, or
        exhausts the quantum, then makes the §3.2 round-robin pick inline:
        the next ready context after ``current``, else idle until the
        earliest outstanding miss completes.  The walk covers only live
        slots (``_alive``, ascending), cyclically from the first slot past
        ``current``: the full scan's order minus the completed contexts it
        would skip.  Returns the new local time, or None once every
        context has completed (the completion time is in the stats).

        On a direct-mapped cache the run loop is inline here (a
        set-associative one, ``_hot`` None, runs :meth:`_run`).  A
        read-only run costs one tag compare and no function call;
        ``next_write[i]`` locates the one write per segment that needs a
        real directory upgrade, so writes never cost a per-reference test.
        Each consumed reference costs ``charge[i + 1] - charge[i]``, so
        the window is charged once from the prefix where it stops: at a
        miss (through the missing reference), at a stalling upgrade
        (through the write) or at the window's end.  Every cycle charged
        there is busy time, and every consumed reference but the one
        possible miss is a hit.
        """
        if self.finished:
            return None
        current = self.current
        context = self.contexts[current]
        hot = self._hot
        if hot is None:
            stalled = self._run(context, quantum_refs)
            time = self.time
        else:
            # ``sharers``/``last_writer`` feed the upgrade no-op pre-test:
            # when this processor is the last writer and the sole sharer,
            # write_hit provably changes nothing, so the kernel skips the
            # call.  An eviction is the directory's ``evict`` (one
            # ``&=``), inlined.
            (tags, mask, seen, departure, actor, miss_counts, write_hit,
             sharers, last_writer, dir_fetch, pairwise, memory_latency,
             upgrade_stalls, pid, pid_bit, lat_row, mem_lat, topo_groups,
             directory, stats, cache_stats) = hot
            i = i0 = context.pos
            limit = i + quantum_refs
            if limit > context.length:
                limit = context.length
            blocks = context.blocks
            run_end = context.run_end
            next_write = context.next_write
            stall = None
            missed = 0
            while i < limit:
                block = blocks[i]
                if tags[block & mask] == block:
                    # The whole remaining run hits up to the quantum edge:
                    # no remote action can intervene mid-quantum.
                    stop = run_end[i]
                    if stop > limit:
                        stop = limit
                    w = next_write[i]
                    if w < stop and (last_writer[block] != pid
                                     or sharers[block] != pid_bit):
                        # The segment's first write: the one upgrade that
                        # can send invalidations (and stall).
                        if upgrade_stalls:
                            if write_hit(block, pid):
                                i = w + 1
                                stall = (memory_latency if lat_row is None
                                         else directory.last_upgrade_latency)
                                break
                        else:
                            write_hit(block, pid)
                    i = stop
                else:
                    # Miss: classify (inlined ArrayDirectMappedCache
                    # .access; the hit test already ran) and evict, then
                    # the coherence transaction and its latency.
                    tid = context.thread_id
                    invalidator = None
                    if not seen[block]:
                        kind = _COMPULSORY
                        seen[block] = True
                    elif departure[block] == _INVALIDATED:
                        invalidator = actor[block]
                        departure[block] = _NONE
                        kind = _INVALIDATION
                    else:
                        evictor = (actor[block]
                                   if departure[block] == _EVICTED else tid)
                        departure[block] = _NONE
                        kind = _INTRA if evictor == tid else _INTER
                    miss_counts[kind] += 1
                    index = block & mask
                    evicted = tags[index]
                    if evicted != -1:
                        departure[evicted] = _EVICTED
                        actor[evicted] = tid
                        sharers[evicted] &= ~pid_bit
                    tags[index] = block
                    source = dir_fetch(block, pid, context.writes[i])
                    i += 1
                    missed = 1
                    if kind is _INVALIDATION and invalidator is not None:
                        pairwise[pid, invalidator] += 1
                    elif kind is _COMPULSORY and source is not None:
                        pairwise[pid, source] += 1
                    if lat_row is None:
                        stall = memory_latency
                    elif source is not None:
                        stall = lat_row[source]
                    else:
                        stall = mem_lat[block % topo_groups]
                    break
            charge = context.charge
            busy = charge[i] - charge[i0]
            time = self.time + busy
            context.pos = i
            stalled = stall is not None
            if stalled:
                context.ready_time = time + stall
            stats.busy += busy
            cache_stats.hits += i - i0 - missed
        if not stalled:
            if context.pos < context.length:
                # Quantum expired mid-run: same context continues next turn.
                self.time = time
                return time
            # The last reference was consumed without a stall.  (One that
            # stalls stays pending until its access returns, and is
            # retired here on resume.)  The guard: the initial current
            # slot can be an empty context, done at construction and never
            # in ``_alive``.
            if not context.done:
                context.done = True
                self._alive.remove(current)
        alive = self._alive
        if not alive:
            self.time = time
            self.finished = True
            self.stats.completion_time = time
            return None
        contexts = self.contexts
        m = len(alive)
        # First live slot strictly after ``current`` (cyclic); negative
        # indexing wraps the tail of the ring to the front.
        start = bisect_right(alive, current) - m
        for k in range(start, start + m):
            index = alive[k]
            if contexts[index].ready_time <= time:
                break
        else:
            # Everyone is stalled: idle until the earliest miss completes,
            # breaking ties in round-robin distance from ``current`` —
            # ``current`` itself (distance 0) first, then the cyclic walk.
            start = bisect_left(alive, current) - m
            index = alive[start]
            ready = contexts[index].ready_time
            for k in range(start + 1, start + m):
                if contexts[alive[k]].ready_time < ready:
                    index = alive[k]
                    ready = contexts[index].ready_time
            self.stats.idle += ready - time
            time = ready
        if index != current:
            # The 6-cycle pipeline drain of a context switch.
            time += self._switch_cycles
            self.stats.switching += self._switch_cycles
            if self._probe is not None:
                self._probe.switches += 1
            self.current = index
        self.time = time
        return time

    def _run(self, context: FastContext, quantum_refs: int) -> bool:
        """The set-associative run loop; True when the context stalled.

        Same contract and charging as the direct-mapped loop in
        :meth:`advance`, but every run head goes through ``cache.access``
        (the LRU move is stateful even on a hit); the rest of the run
        hits.  ``access`` counts the heads that hit, so the hit counter
        is set from its value at entry.
        """
        config = self.config
        cache = self.cache
        cache_access = cache.access
        directory = self.directory
        write_hit = directory.write_hit
        pid = self.pid
        pairwise = directory.pairwise
        memory_latency = config.flat_miss_latency
        lat_row = self._lat_row
        upgrade_stalls = config.write_upgrade_stalls
        tid = context.thread_id
        hits = cache.stats.hits
        i = i0 = context.pos
        limit = i + quantum_refs
        if limit > context.length:
            limit = context.length
        blocks = context.blocks
        run_end = context.run_end
        next_write = context.next_write
        stall = None
        missed = 0
        while i < limit:
            block = blocks[i]
            kind, evicted, invalidator = cache_access(block, tid)
            if kind is not None:
                # Miss: coherence transaction plus a memory latency.
                if evicted is not None:
                    directory.evict(evicted, pid)
                source = directory.fetch(block, pid, context.writes[i])
                i += 1
                missed = 1
                if kind is MissKind.INVALIDATION and invalidator is not None:
                    pairwise[pid, invalidator] += 1
                elif kind is MissKind.COMPULSORY and source is not None:
                    pairwise[pid, source] += 1
                if lat_row is None:
                    stall = memory_latency
                elif source is not None:
                    stall = lat_row[source]
                else:
                    stall = self._mem_lat[block % self._topo_groups]
                break
            # The rest of the run hits up to the quantum edge; its first
            # write (the head included) is the one upgrade.
            stop = run_end[i]
            if stop > limit:
                stop = limit
            w = next_write[i]
            if w < stop and write_hit(block, pid) and upgrade_stalls:
                i = w + 1
                stall = (memory_latency if lat_row is None
                         else directory.last_upgrade_latency)
                break
            i = stop
        charge = context.charge
        busy = charge[i] - charge[i0]
        self.time += busy
        context.pos = i
        if stall is not None:
            context.ready_time = self.time + stall
        self.stats.busy += busy
        cache.stats.hits = hits + i - i0 - missed
        return stall is not None
