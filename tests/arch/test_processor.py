"""Tests for the multithreaded processor model (timing and switching)."""

import numpy as np
import pytest

from repro.arch.cache import make_cache, max_block_of
from repro.arch.config import ArchConfig
from repro.arch.directory import Directory
from repro.arch.kernel import FastContext, FastProcessor
from repro.trace.runs import compress_trace
from repro.trace.stream import ThreadTrace


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
    return FastContext(t, compress_trace(t, block_bits), block_bits,
                       hit_cycles=1)


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


class TestCapacity:
    def test_too_many_threads_rejected(self):
        with pytest.raises(ValueError, match="hardware contexts"):
            build_processor([trace(0, []), trace(1, [])], contexts=1)
