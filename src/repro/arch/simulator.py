"""Whole-system trace-driven simulation.

:func:`simulate` replays an application's traces on the multithreaded
multiprocessor under a placement map and returns the paper's metrics:
execution time (the slowest processor's completion time), per-processor
cycle accounting, the four-way miss decomposition per cache, interconnect
traffic and the pairwise coherence matrix §4.2 measures.

Global timing uses min-time scheduling: the processor with the smallest
local clock advances by one bounded quantum (a run of hits ending in a
miss, completion, or the quantum cap), so inter-processor skew stays within
one quantum while each processor's own timing is exact.  Coherence actions
apply at the issuing processor's current time — the standard trace-driven
approximation (DESIGN.md, "Key design decisions").
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.arch.cache import make_cache, max_block_of
from repro.arch.config import ArchConfig
from repro.arch.directory import Directory
from repro.arch.kernel import FastProcessor
from repro.arch.stats import SimulationResult
from repro.placement.base import PlacementMap
from repro.trace.stream import TraceSet
from repro.util.validate import check_positive

__all__ = ["simulate"]


def simulate(
    trace_set: TraceSet,
    placement: PlacementMap,
    config: ArchConfig,
    *,
    quantum_refs: int = 256,
    check_invariants: bool = False,
    probe=None,
) -> SimulationResult:
    """Simulate one application under one placement and configuration.

    Args:
        trace_set: The application's per-thread traces.
        placement: Thread-to-processor map; must target exactly
            ``config.num_processors`` processors and place every thread.
        config: Architectural parameters (Table 3).
        quantum_refs: Scheduling quantum in references; bounds the timing
            skew between processors.  The default keeps skew far below the
            phase lengths of any workload in the suite.
        check_invariants: Audit the run with the
            :class:`~repro.oracle.invariants.InvariantChecker`
            (conservation laws after every quantum and at completion; see
            ``docs/VALIDATION.md``).  Off by default — the default path
            pays no checking cost.
        probe: Optional :class:`~repro.obs.probes.SimProbe` counting
            quanta, miss classes, directory upgrades and context
            switches as the run replays.  Probes observe, never steer:
            results are bit-for-bit identical with or without one.  Off
            (None) by default — the disabled path pays one pointer test
            per event, never per reference.

    Returns:
        The run's :class:`~repro.arch.stats.SimulationResult`.

    Raises:
        ValueError: On any placement/configuration mismatch (wrong thread
            count, wrong processor count, more threads on a processor than
            hardware contexts).
        repro.oracle.invariants.InvariantViolation: When
            ``check_invariants`` is set and a conservation law fails.
    """
    check_positive("quantum_refs", quantum_refs)
    processors, caches, directory = _build_machine(
        trace_set, placement, config, probe)

    checker = None
    if check_invariants:
        # Imported lazily: the oracle depends on arch types, not vice versa.
        from repro.oracle.invariants import InvariantChecker

        checker = InvariantChecker(processors, caches, directory)

    _run_quanta(processors, quantum_refs, probe,
                None if checker is None
                else lambda heap, pid: checker.after_quantum(pid))

    result = _collect_result(trace_set, processors, caches, directory)
    if checker is not None:
        checker.at_completion(result)
    return result


def _run_quanta(processors, quantum_refs: int, probe=None,
                after_quantum=None) -> None:
    """Min-time scheduling: advance the processor with the smallest
    ``(local time, pid)`` one quantum at a time until all finish.

    One ``heapreplace`` re-keys it in place: the same pop order as pop +
    push, since pids make every entry distinct.  ``after_quantum(heap,
    pid)`` runs after each quantum and may push re-activated processors.
    An armed ``probe`` counts the quanta here and takes its miss classes
    from the caches' own counters once the run is over.
    """
    heap = [(proc.time, proc.pid) for proc in processors if not proc.finished]
    heapq.heapify(heap)
    while heap:
        pid = heap[0][1]
        next_time = processors[pid].advance(quantum_refs)
        if next_time is None:
            heapq.heappop(heap)
        else:
            heapq.heapreplace(heap, (next_time, pid))
        if probe is not None:
            probe.quanta += 1
        if after_quantum is not None:
            after_quantum(heap, pid)
    if probe is not None:
        for proc in processors:
            for kind, count in proc.cache.stats.misses.items():
                probe.misses[kind] += count


def _build_machine(trace_set: TraceSet, placement: PlacementMap,
                  config: ArchConfig, probe=None):
    """Validate ``placement`` against the machine and build it.

    Returns ``(processors, caches, directory)``: one
    :class:`~repro.arch.kernel.FastProcessor` and one cache per
    processor, all sharing the full-map directory (which owns the
    pairwise coherence matrix).  Arms ``probe``'s event hooks when one is
    given.  Shared by :func:`simulate` and
    :func:`repro.topo.migration.simulate_migrating`.
    """
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
    # Tag stores cover only the block range the traces touch (exact; see
    # repro.arch.cache.tag_lines).
    max_block = max_block_of(trace_set, config.block_bits)
    caches = [make_cache(config, max_block) for _ in range(p)]
    lat_rows = config.topology.latency_rows(p) if config.tiered else None
    directory = Directory(caches, pairwise, max_block, lat_rows)
    processors = [
        FastProcessor(
            pid,
            config,
            caches[pid],
            directory,
            [trace_set[tid] for tid in placement.threads_on(pid)],
        )
        for pid in range(p)
    ]

    if probe is not None:
        # Arm the event hooks: each site tests one attribute against
        # None, so an unprobed run never leaves the fast path.
        probe.cells += 1
        directory._probe = probe
        for proc in processors:
            proc._probe = probe
    return processors, caches, directory


def _collect_result(trace_set: TraceSet, processors, caches,
                   directory: Directory) -> SimulationResult:
    """The finished machine's :class:`SimulationResult`."""
    return SimulationResult(
        execution_time=max(proc.stats.completion_time for proc in processors),
        processors=[proc.stats for proc in processors],
        caches=[cache.stats for cache in caches],
        interconnect=directory.stats,
        pairwise_coherence=directory.pairwise,
        total_refs=trace_set.total_refs,
    )
