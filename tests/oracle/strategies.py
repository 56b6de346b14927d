"""Hypothesis strategies for simulator/oracle differential testing.

The generated universe is deliberately tiny — a handful of threads, a few
dozen references, a small block space — so that the address space is
*dense*: random threads collide in cache sets, share blocks, write-share
blocks and invalidate each other constantly.  Small worlds find
classification and coherence bugs orders of magnitude faster than
realistic workloads, where interesting interleavings are rare.

Configurations intentionally include the degenerate corners: a one-set
cache (every block conflicts), zero-cost context switches, a one-reference
scheduling quantum (maximum interleaving), sequentially-consistent
write-upgrade stalls, and placements that leave processors empty.
"""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st

from repro.arch.config import ArchConfig
from repro.placement.base import PlacementMap
from repro.topo.model import Topology
from repro.trace.stream import ThreadTrace, TraceSet

__all__ = [
    "make_trace_set",
    "thread_traces",
    "trace_sets",
    "placements_for",
    "topologies_for",
    "arch_configs_for",
    "simulation_cases",
    "tag_sizing_cases",
    "partitioned_cases",
    "wide_machine_cases",
    "QUANTA",
]

#: Scheduling quanta under test, from maximal interleaving to "one shot".
QUANTA = (1, 3, 17, 256)

#: Word-address universe.  With 4-word blocks this is at most 24 blocks,
#: so a 4-16 set cache thrashes and threads share heavily.
MAX_ADDR = 95


def make_trace_set(threads, name: str = "hand-written") -> TraceSet:
    """A TraceSet from ``[(gaps, addrs, writes), ...]`` literals."""
    return TraceSet(name, [
        ThreadTrace(
            tid,
            np.asarray(gaps, dtype=np.int64),
            np.asarray(addrs, dtype=np.int64),
            np.asarray(writes, dtype=bool),
        )
        for tid, (gaps, addrs, writes) in enumerate(threads)
    ])


@st.composite
def thread_traces(draw, thread_id: int, max_refs: int = 30) -> ThreadTrace:
    """One thread: up to ``max_refs`` references over a dense block space."""
    n = draw(st.integers(min_value=0, max_value=max_refs))
    gaps = draw(st.lists(st.integers(0, 5), min_size=n, max_size=n))
    addrs = draw(st.lists(st.integers(0, MAX_ADDR), min_size=n, max_size=n))
    writes = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return ThreadTrace(
        thread_id,
        np.asarray(gaps, dtype=np.int64),
        np.asarray(addrs, dtype=np.int64),
        np.asarray(writes, dtype=bool),
    )


@st.composite
def trace_sets(draw, max_threads: int = 5, max_refs: int = 30) -> TraceSet:
    """A small application: 1-``max_threads`` threads, possibly empty."""
    num_threads = draw(st.integers(min_value=1, max_value=max_threads))
    return TraceSet(
        "generated",
        [draw(thread_traces(tid, max_refs=max_refs)) for tid in range(num_threads)],
    )


@st.composite
def placements_for(draw, trace_set: TraceSet, max_processors: int = 4) -> PlacementMap:
    """Any thread->processor map, including ones with empty processors."""
    p = draw(st.integers(min_value=1, max_value=max_processors))
    assignment = draw(
        st.lists(
            st.integers(0, p - 1),
            min_size=trace_set.num_threads,
            max_size=trace_set.num_threads,
        )
    )
    return PlacementMap(assignment, p)


@st.composite
def topologies_for(draw, num_processors: int) -> Topology | None:
    """None (the flat baseline), a uniform topology (must be bit-identical
    to flat at the same latency), or a genuinely tiered NUMA machine whose
    group count divides the processor count."""
    choice = draw(st.sampled_from(["none", "none", "uniform", "tiered"]))
    if choice == "none":
        return None
    if choice == "uniform":
        latency = draw(st.sampled_from([3, 11, 50]))
        return Topology.flat(latency)
    divisors = [g for g in (2, 3, 4) if num_processors % g == 0]
    if not divisors:
        return None
    local, remote = draw(st.sampled_from([(3, 17), (11, 50), (50, 150)]))
    return Topology(groups=draw(st.sampled_from(divisors)),
                    local_latency=local, remote_latency=remote)


@st.composite
def arch_configs_for(draw, placement: PlacementMap,
                     tiered: bool = True, geometry=None) -> ArchConfig:
    """A legal machine for the placement, spanning the geometry corners.

    ``tiered=False`` pins ``topology=None``: the partitioned metamorphic
    theorems (processor relabeling) assume every processor sees the same
    memory latency, which a tiered topology deliberately violates.
    ``geometry`` pins ``(num_sets, block_words, associativity)``.
    """
    if geometry is None:
        num_sets = draw(st.sampled_from([1, 2, 4, 8, 16]))
        block_words = draw(st.sampled_from([1, 2, 4]))
        associativity = draw(st.sampled_from([1, 1, 1, 2]))  # bias: DM
    else:
        num_sets, block_words, associativity = geometry
    topology = (
        draw(topologies_for(placement.num_processors)) if tiered else None
    )
    return ArchConfig(
        num_processors=placement.num_processors,
        contexts_per_processor=max(1, int(placement.cluster_sizes().max())),
        cache_words=num_sets * block_words * associativity,
        block_words=block_words,
        associativity=associativity,
        hit_cycles=draw(st.sampled_from([1, 2])),
        memory_latency_cycles=draw(st.sampled_from([3, 11, 50])),
        context_switch_cycles=draw(st.sampled_from([0, 2, 6])),
        # ~25% sequentially-consistent machines; the paper's baseline is
        # the write-buffered (non-stalling) upgrade.
        write_upgrade_stalls=draw(st.booleans()) and draw(st.booleans()),
        topology=topology,
    )


@st.composite
def simulation_cases(draw, max_threads: int = 5, max_refs: int = 30):
    """One full differential case: (trace_set, placement, config, quantum)."""
    traces = draw(trace_sets(max_threads=max_threads, max_refs=max_refs))
    placement = draw(placements_for(traces))
    config = draw(arch_configs_for(placement))
    quantum = draw(st.sampled_from(QUANTA))
    return traces, placement, config, quantum


#: Where a machine's set count sits relative to the highest block a case
#: references (``max_block + 1`` blocks): far above it, one above, equal,
#: one below, or well below.  Tag stores are sized to the block range
#: when the sets outnumber the blocks (:func:`repro.arch.cache.tag_lines`).
SIZINGS = ("far-above", "one-above", "equal", "one-below", "below")


@st.composite
def tag_sizing_cases(draw, associativity: int, max_threads: int = 5,
                     max_refs: int = 30):
    """A differential case whose set count sits at a chosen distance
    (:data:`SIZINGS`) from its block range, with the top block pinned by
    one reference so the distance is exact."""
    sizing = draw(st.sampled_from(SIZINGS))
    block_words = draw(st.sampled_from([1, 2, 4]))
    num_sets = draw(st.sampled_from([2, 4, 8, 16]))
    if sizing == "far-above":
        max_block = draw(st.integers(0, 23))
        num_sets = 1 << 12
    elif sizing == "below":
        max_block = draw(st.integers(num_sets + 1, 3 * num_sets))
    else:
        max_block = num_sets - {"one-above": 2, "equal": 1,
                                "one-below": 0}[sizing]
    words = (max_block + 1) * block_words
    threads = []
    for _ in range(draw(st.integers(1, max_threads))):
        n = draw(st.integers(0, max_refs))
        threads.append((
            draw(st.lists(st.integers(0, 5), min_size=n, max_size=n)),
            draw(st.lists(st.integers(0, words - 1), min_size=n, max_size=n)),
            draw(st.lists(st.booleans(), min_size=n, max_size=n)),
        ))
    gaps, addrs, writes = threads[draw(st.integers(0, len(threads) - 1))]
    gaps.append(draw(st.integers(0, 5)))
    addrs.append(max_block * block_words + draw(st.integers(0, block_words - 1)))
    writes.append(draw(st.booleans()))
    traces = make_trace_set(threads, name="tag-sizing")
    placement = draw(placements_for(traces))
    config = draw(arch_configs_for(
        placement, geometry=(num_sets, block_words, associativity)))
    return traces, placement, config, draw(st.sampled_from(QUANTA))


@st.composite
def partitioned_cases(
    draw, max_threads: int = 5, max_processors: int = 3, max_refs: int = 25
):
    """A case whose processors cannot interact through coherence.

    Each thread draws its addresses from a window private to its assigned
    processor, so no block is ever resident in two caches, the directory
    never sends an invalidation, and every processor's timeline is
    independent of the others.  Several metamorphic relations (processor
    relabeling, quantum-size changes) are *exact* theorems only in this
    regime — the global quantum interleaving breaks ties by processor id,
    which coherence-coupled runs can observe.
    """
    num_threads = draw(st.integers(min_value=1, max_value=max_threads))
    p = draw(st.integers(min_value=1, max_value=max_processors))
    assignment = draw(
        st.lists(st.integers(0, p - 1), min_size=num_threads, max_size=num_threads)
    )
    threads = []
    for tid in range(num_threads):
        base = assignment[tid] * 4096  # disjoint per-processor address window
        n = draw(st.integers(min_value=0, max_value=max_refs))
        gaps = draw(st.lists(st.integers(0, 5), min_size=n, max_size=n))
        addrs = draw(
            st.lists(st.integers(base, base + MAX_ADDR), min_size=n, max_size=n)
        )
        writes = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        threads.append(ThreadTrace(
            tid,
            np.asarray(gaps, dtype=np.int64),
            np.asarray(addrs, dtype=np.int64),
            np.asarray(writes, dtype=bool),
        ))
    traces = TraceSet("partitioned", threads)
    placement = PlacementMap(assignment, p)
    config = draw(arch_configs_for(placement, tiered=False))
    quantum = draw(st.sampled_from(QUANTA))
    return traces, placement, config, quantum


#: Word addresses the threads of a :func:`wide_machine_cases` machine
#: share: with 1-4-word blocks, 8-32 blocks over up to 48 threads, so most
#: blocks end up held by many processors at once.
WIDE_SHARED_ADDR = 31


@st.composite
def wide_machine_cases(draw, p: int, max_refs: int = 24):
    """A differential case on a ``p``-processor machine (the paper's
    larger sizes).

    Every processor runs 2-3 threads, all drawing from one small shared
    address window with frequent writes, so sharer sets span many
    processors (wide directory bitmasks), writes invalidate several
    holders at once, fetches are sourced from the lowest remaining
    sharer once the last writer lost its copy, and multithreaded
    processors regularly idle with every context stalled.
    """
    per_processor = draw(st.integers(2, 3))
    assignment = draw(st.permutations(
        [tid % p for tid in range(p * per_processor)]))
    threads = []
    for _ in assignment:
        n = draw(st.integers(1, max_refs))
        threads.append((
            draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)),
            draw(st.lists(st.integers(0, WIDE_SHARED_ADDR),
                          min_size=n, max_size=n)),
            draw(st.lists(st.booleans(), min_size=n, max_size=n)),
        ))
    traces = make_trace_set(threads, name="wide-machine")
    placement = PlacementMap(assignment, p)
    config = draw(arch_configs_for(placement))
    return traces, placement, config, draw(st.sampled_from(QUANTA))
