"""Tests for the multithreaded processor model (timing and switching)."""

import numpy as np
import pytest

from repro.arch.cache import make_cache, max_block_of
from repro.arch.config import ArchConfig
from repro.arch.directory import Directory
from repro.arch.kernel import FastContext, FastProcessor
from repro.arch.simulator import _build_machine
from repro.oracle.reference import reference_simulate
from repro.placement.base import PlacementMap
from repro.topo.model import Topology
from repro.trace.runs import compress_trace
from repro.trace.stream import ThreadTrace, TraceSet


def trace(tid, refs):
    """refs: list of (gap, addr, is_write)."""
    gaps = np.array([g for g, _, _ in refs], np.int64)
    addrs = np.array([a for _, a, _ in refs], np.int64)
    writes = np.array([w for _, _, w in refs], bool)
    return ThreadTrace(tid, gaps, addrs, writes)


def build_processor(traces, contexts=None, **config_overrides):
    defaults = dict(cache_words=64, block_words=8, memory_latency_cycles=50,
                    context_switch_cycles=6)
    defaults.update(config_overrides)
    cfg = ArchConfig(1, contexts if contexts is not None else max(len(traces), 1),
                     **defaults)
    max_block = max_block_of(traces, cfg.block_bits)
    cache = make_cache(cfg, max_block)
    pairwise = np.zeros((1, 1), np.int64)
    directory = Directory([cache], pairwise, max_block)
    return FastProcessor(0, cfg, cache, directory, traces)


def run_to_completion(proc, quantum=1 << 30):
    guard = 0
    while proc.advance(quantum) is not None:
        guard += 1
        assert guard < 100_000, "processor failed to terminate"
    return proc


def context(t, block_bits=3):
    return FastContext(compress_trace(t, block_bits), hit_cycles=1)


class TestFastContext:
    def test_block_conversion(self):
        ctx = context(trace(0, [(0, 17, False)]))
        assert list(ctx.blocks) == [2]

    def test_empty_trace_done(self):
        ctx = context(trace(0, []))
        assert ctx.done


class TestSingleContextTiming:
    def test_all_hits_after_first_miss(self):
        # Two refs to the same block: 1 compulsory miss, 1 hit.
        proc = build_processor([trace(0, [(0, 0, False), (0, 1, False)])])
        run_to_completion(proc)
        # Timeline: ref0 at cycle 1 (miss, ready at 51), idle to 51,
        # ref1 at 52 (hit).
        assert proc.stats.completion_time == 52
        assert proc.stats.busy == 2
        assert proc.stats.idle == 50
        assert proc.stats.switching == 0  # single context never switches

    def test_gap_cycles_counted_busy(self):
        proc = build_processor([trace(0, [(10, 0, False)])])
        run_to_completion(proc)
        assert proc.stats.busy == 11  # 10 gap + 1 access
        assert proc.stats.completion_time == 11 + 50  # miss latency at end

    def test_completion_waits_for_final_miss(self):
        """A miss on the last reference still stalls to completion."""
        proc = build_processor([trace(0, [(0, 0, False)])])
        run_to_completion(proc)
        assert proc.stats.completion_time == 1 + 50


class TestMultiContextSwitching:
    def test_switch_on_miss_overlaps_latency(self):
        # Two contexts, each missing once then hitting once.
        t0 = trace(0, [(0, 0, False), (0, 1, False)])
        t1 = trace(1, [(0, 8, False), (0, 9, False)])
        proc = build_processor([t0, t1])
        run_to_completion(proc)
        # ctx0 misses at 1 -> switch (6) -> ctx1 runs at 7, misses at 8
        # -> no other ready -> idle to 51 (ctx0 ready) -> switch -> ...
        assert proc.stats.switching >= 12  # at least two switches
        # Latency overlapped: completion well below serial 2*(51+1).
        assert proc.stats.completion_time < 104

    def test_utilization_improves_with_contexts(self):
        """The core multithreading effect: more contexts hide latency."""
        def fresh(num):
            streams = []
            for tid in range(num):
                refs = [(0, 64 * tid + i, False) for i in range(8)]
                streams.append(trace(tid, refs))
            return build_processor(streams, cache_words=8192)

        single = run_to_completion(fresh(1))
        quad = run_to_completion(fresh(4))
        assert quad.stats.utilization > single.stats.utilization

    def test_round_robin_order(self):
        # Three contexts; all miss immediately. Switch order must be
        # 0 -> 1 -> 2 (round robin), observable through pairwise timing.
        traces = [trace(tid, [(0, 100 * tid, False)]) for tid in range(3)]
        proc = build_processor(traces, cache_words=8192)
        # ctx0 misses at t=1; switch to ctx1 (ready, never run) etc.
        proc.advance(1 << 30)
        assert proc.current == 1
        proc.advance(1 << 30)
        assert proc.current == 2

    def test_zero_contexts_finishes_immediately(self):
        proc = build_processor([])
        assert proc.finished
        assert proc.advance(100) is None
        assert proc.stats.completion_time == 0

    def test_quantum_expiry_continues_same_context(self):
        refs = [(0, 0, False)] + [(0, i % 8, False) for i in range(1, 20)]
        proc = build_processor([trace(0, refs)], cache_words=8192)
        # First advance: miss at cycle 1, idle through the 50-cycle
        # latency (single context, so no switch), resume at 51.
        assert proc.advance(1 << 30) == 51
        t_resumed = proc.time
        next_time = proc.advance(2)  # quantum of 2 hits
        assert proc.current == 0
        assert next_time == t_resumed + 2

    def test_total_cycles_consistent(self):
        traces = [
            trace(0, [(3, 0, False), (1, 1, False), (0, 8, True)]),
            trace(1, [(2, 16, False), (0, 17, False)]),
        ]
        proc = build_processor(traces)
        run_to_completion(proc)
        stats = proc.stats
        assert stats.completion_time == stats.busy + stats.switching + stats.idle


class TestWindowExits:
    """``advance`` charges a window once, from the prefix, where it stops:
    at a miss, at a stalling upgrade and at a quantum edge.  Every
    expected value below is worked out by hand (block_bits 3, hit 1,
    latency 50, switch 6) and the finals are cross-checked against the
    reference interpreter.  Both cache organisations run each case: the
    direct-mapped loop is inline in ``advance``, the set-associative one
    is ``_run``."""

    @staticmethod
    def machine(thread_refs, assignment, associativity, **overrides):
        traces = TraceSet("app", [trace(tid, refs)
                                  for tid, refs in enumerate(thread_refs)])
        placement = PlacementMap(assignment, max(assignment) + 1)
        config = ArchConfig(placement.num_processors, 1, cache_words=64,
                            block_words=8, associativity=associativity,
                            memory_latency_cycles=50,
                            context_switch_cycles=6, **overrides)
        processors = _build_machine(traces, placement, config)[0]
        return processors, (traces, placement, config)

    @staticmethod
    def state(proc):
        return (proc.time, proc.stats.busy, proc.cache.stats.hits,
                proc.contexts[proc.current].ready_time)

    @staticmethod
    def assert_reference(setup, quantum, completion, busy, hits):
        ref = reference_simulate(*setup, quantum_refs=quantum)
        assert ref.execution_time == max(completion)
        assert [p.completion_time for p in ref.processors] == completion
        assert [p.busy for p in ref.processors] == busy
        assert [c.hits for c in ref.caches] == hits

    @pytest.mark.parametrize("associativity", [1, 2])
    def test_miss_mid_window(self, associativity):
        # Block 0 three times (gaps 0, 1, 2), then block 1 twice.
        refs = [(0, 0, False), (1, 1, False), (2, 2, False),
                (0, 8, False), (3, 9, False)]
        (proc,), setup = self.machine([refs], [0], associativity)
        # Compulsory miss at cycle 1, ready at 51; idle until then.
        assert proc.advance(256) == 51
        assert self.state(proc) == (51, 1, 0, 51)
        # Two hits (2 + 3 cycles) and the miss (1): settled at 57 through
        # the missing reference, ready at 57 + 50.
        assert proc.advance(256) == 107
        assert self.state(proc) == (107, 7, 2, 107)
        assert proc.contexts[0].pos == 4
        # The last hit (3 + 1) completes the thread.
        assert proc.advance(256) is None
        assert (proc.stats.completion_time, proc.stats.busy,
                proc.cache.stats.hits) == (111, 11, 3)
        self.assert_reference(setup, 256, [111], [11], [3])

    @pytest.mark.parametrize("associativity", [1, 2])
    @pytest.mark.parametrize("topology, latency", [
        (None, 50), (Topology.numa(2, 50, 150), 150)])
    def test_stalling_upgrade_mid_run(self, associativity, topology,
                                      latency):
        # Processor 0 reads block 0; processor 1 reads it, hits it, then
        # writes it (gap 1) mid-run, invalidating processor 0's copy.
        refs0 = [(0, 0, False)]
        refs1 = [(0, 0, False), (0, 1, False), (1, 2, True), (0, 3, False)]
        (p0, p1), setup = self.machine(
            [refs0, refs1], [0, 1], associativity,
            write_upgrade_stalls=True, topology=topology)
        # Heap order: p0 misses at 1 (memory: local, 50 cycles on both
        # machines), then p1 misses at 1, sourced from p0 (remote on the
        # tiered machine).
        assert p0.advance(256) == 51
        assert p1.advance(256) == 1 + latency
        assert self.state(p1) == (1 + latency, 1, 0, 1 + latency)
        assert p0.advance(256) is None
        assert p0.stats.completion_time == 51
        # One hit (1) and the stalling write (2): settled through the
        # write at 1 + latency + 3; the upgrade stalls for its latency.
        t = 1 + latency + 3
        assert p1.advance(256) == t + latency
        assert self.state(p1) == (t + latency, 4, 2, t + latency)
        assert p1.contexts[0].pos == 3
        # The last reference hits the now-exclusive block.
        assert p1.advance(256) is None
        assert (p1.stats.completion_time, p1.stats.busy,
                p1.cache.stats.hits) == (t + latency + 1, 5, 3)
        self.assert_reference(setup, 256, [51, t + latency + 1], [1, 5],
                              [0, 3])

    @pytest.mark.parametrize("associativity", [1, 2])
    def test_quantum_expiry_mid_run_then_resume(self, associativity):
        # Block 0 six times, a write among them; every gap is 1.
        refs = [(0, 0, False)] + [(1, a, a == 3) for a in range(1, 6)]
        (proc,), setup = self.machine([refs], [0], associativity)
        assert proc.advance(3) == 51
        # Three hits of 2 cycles each; the quantum ends mid-run, so the
        # same context continues: no switch, no idle, ready time kept.
        assert proc.advance(3) == 57
        assert self.state(proc) == (57, 7, 3, 51)
        assert (proc.current, proc.contexts[0].pos) == (0, 4)
        assert proc.stats.idle == 50
        # The rest of the run resumes where it stopped.
        assert proc.advance(3) is None
        assert (proc.stats.completion_time, proc.stats.busy,
                proc.cache.stats.hits) == (61, 11, 5)
        self.assert_reference(setup, 3, [61], [11], [5])

    @pytest.mark.parametrize("associativity", [1, 2])
    def test_long_run_ending_in_miss(self, associativity):
        # Block 0 six times (gap k at reference k), then block 1.
        refs = [(k, k, False) for k in range(6)] + [(0, 8, False)]
        (proc,), setup = self.machine([refs], [0], associativity)
        assert proc.advance(256) == 51
        # Hits 2 + 3 + 4 + 5 + 6 and the miss (1), charged once from the
        # prefix: settled at 72, ready at 122.
        assert proc.advance(256) == 122
        assert self.state(proc) == (122, 22, 5, 122)
        assert proc.advance(256) is None
        assert proc.stats.completion_time == 122
        self.assert_reference(setup, 256, [122], [22], [5])


class TestCapacity:
    def test_too_many_threads_rejected(self):
        with pytest.raises(ValueError, match="hardware contexts"):
            build_processor([trace(0, []), trace(1, [])], contexts=1)
