"""Bounded-memory workload generation for million-reference scenarios.

The paper-suite generators (:mod:`repro.workload.generator`) materialize
every thread's reference columns before anything replays — fine at the
paper's scale (tens of thousands of references), fatal for the stress
scenarios the streaming architecture exists for.  This module closes the
loop end to end:

* :class:`StreamScenario` — a deterministic *regenerating* workload: any
  chunk of any thread is a pure function of ``(seed, thread, chunk)``,
  so the :class:`~repro.trace.streaming.StreamingTraceSet` it builds
  holds O(chunk) reference data no matter how many total references the
  scenario spans.  Nothing is ever materialized unless a caller asks.
* :func:`spill_streaming_set` — walk any streaming set chunk by chunk
  into a verified :class:`~repro.trace.chunks.ChunkStore`, still with
  one chunk resident, and return the disk-backed set.
* :func:`million_reference_scenario` — the canonical CI stress case:
  1,000,000+ references across 1024 threads, plus the round-robin
  :class:`~repro.placement.base.PlacementMap` the benchmark replays
  under (the placement *algorithms* are O(threads²) on the sharing
  matrix and are not the thing under test here).

Determinism discipline: every random draw comes from a
:class:`~repro.util.rng.RngStreams` child named by the scenario seed,
the thread id and the chunk index — regenerating chunk 17 of thread 3
always yields the same bytes, which is what lets a damaged spill entry
be rebuilt and what pins the streaming-vs-materialized differential
suites bit-for-bit (``docs/STREAMING.md``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.trace.chunks import ChunkStore, TraceChunk
from repro.trace.streaming import (
    StreamingThreadTrace,
    StreamingTraceSet,
    stream_from_store,
)
from repro.util.rng import RngStreams
from repro.util.validate import check_positive
from repro.workload.shaping import distribute_gaps

__all__ = [
    "StreamScenario",
    "spill_streaming_set",
    "million_reference_scenario",
]

#: Stream-name prefix every scenario draw derives from.
_STREAM_NAME = "stream-scenario"


@dataclass(frozen=True)
class StreamScenario:
    """A deterministic, regenerating chunked workload.

    The address space is the classic sharing layout: one shared region of
    ``shared_words`` at the bottom, then one private region of
    ``private_words`` per thread stacked above it.  Each reference is
    shared with probability ``shared_fraction`` (uniform over the shared
    region) and private otherwise (uniform over the thread's own region);
    every ``write_period``-th reference of a thread is a write; each
    reference carries an average of ``gap_per_ref`` non-memory
    instructions, multinomially distributed within its chunk.

    Two deliberate exactness anchors keep the summary metadata O(1) and
    *honest* (the kernel sizes its arrays from it):

    * the gap budget is exact per chunk (``gap_per_ref × chunk_refs``),
      so ``length = refs × (1 + gap_per_ref)`` without a pass;
    * reference 0 of every thread is pinned to the top word of that
      thread's private region, so ``max_addr`` is achieved, not merely
      bounded.
    """

    num_threads: int
    refs_per_thread: int
    seed: int = 0
    chunk_refs: int = 256
    shared_words: int = 4096
    private_words: int = 1024
    shared_fraction: float = 0.2
    write_period: int = 4
    gap_per_ref: int = 2

    def __post_init__(self) -> None:
        check_positive("num_threads", self.num_threads)
        check_positive("refs_per_thread", self.refs_per_thread)
        check_positive("chunk_refs", self.chunk_refs)
        check_positive("shared_words", self.shared_words)
        check_positive("private_words", self.private_words)
        check_positive("write_period", self.write_period)
        if not 0.0 <= self.shared_fraction <= 1.0:
            raise ValueError(
                f"shared_fraction must be in [0, 1], got {self.shared_fraction}"
            )
        if self.gap_per_ref < 0:
            raise ValueError(
                f"gap_per_ref must be >= 0, got {self.gap_per_ref}"
            )

    # -- derived, all O(1) -----------------------------------------------

    @property
    def num_chunks(self) -> int:
        """Chunks per thread."""
        return -(-self.refs_per_thread // self.chunk_refs)

    @property
    def total_refs(self) -> int:
        return self.num_threads * self.refs_per_thread

    def _private_base(self, thread_id: int) -> int:
        return self.shared_words + thread_id * self.private_words

    def _thread_max_addr(self, thread_id: int) -> int:
        return self._private_base(thread_id) + self.private_words - 1

    def _thread_writes(self) -> int:
        # Positions 0, p, 2p, ... below refs_per_thread.
        return -(-self.refs_per_thread // self.write_period)

    def _thread_length(self) -> int:
        return self.refs_per_thread * (1 + self.gap_per_ref)

    # -- chunk generation ------------------------------------------------

    def chunk(self, thread_id: int, index: int) -> TraceChunk:
        """Regenerate one chunk: a pure function of (seed, thread, index)."""
        if not 0 <= thread_id < self.num_threads:
            raise ValueError(f"unknown thread {thread_id}")
        if not 0 <= index < self.num_chunks:
            raise ValueError(
                f"chunk {index} out of range for thread {thread_id} "
                f"(thread has {self.num_chunks} chunks)"
            )
        lo = index * self.chunk_refs
        k = min(self.chunk_refs, self.refs_per_thread - lo)
        rng = RngStreams(self.seed).get(_STREAM_NAME, thread_id, index)
        base = self._private_base(thread_id)
        addrs = base + rng.integers(0, self.private_words, k)
        shared = rng.random(k) < self.shared_fraction
        count = int(np.count_nonzero(shared))
        addrs[shared] = rng.integers(0, self.shared_words, count)
        if lo == 0:
            # The max_addr anchor: the thread's first reference touches
            # the top of its private region.
            addrs[0] = self._thread_max_addr(thread_id)
        writes = (lo + np.arange(k, dtype=np.int64)) % self.write_period == 0
        gaps = distribute_gaps(rng, k, self.gap_per_ref * k)
        return TraceChunk(thread_id, lo, gaps, addrs, writes)

    def _thread_source(self, thread_id: int):
        def source() -> Iterator[TraceChunk]:
            for index in range(self.num_chunks):
                yield self.chunk(thread_id, index)
        return source

    def build(self, name: str = "stream-scenario") -> StreamingTraceSet:
        """The scenario as a regenerating streaming set: every pass over a
        thread re-derives its chunks from the seed, O(chunk) resident."""
        threads = [
            StreamingThreadTrace(
                tid, self._thread_source(tid),
                num_refs=self.refs_per_thread,
                length=self._thread_length(),
                num_writes=self._thread_writes(),
                max_addr=self._thread_max_addr(tid),
            )
            for tid in range(self.num_threads)
        ]
        return StreamingTraceSet(name, threads)

    def round_robin_placement(self, num_processors: int):
        """Thread ``t`` on processor ``t mod p`` — the benchmark placement.

        Built directly rather than through a placement algorithm: the
        algorithms score the O(threads²) pairwise sharing matrix, which
        is not what a replay-memory benchmark should spend its budget on.
        """
        from repro.placement.base import PlacementMap

        check_positive("num_processors", num_processors)
        assignment = np.arange(self.num_threads, dtype=np.int64) \
            % num_processors
        return PlacementMap(assignment, num_processors)


def spill_streaming_set(stream_set: StreamingTraceSet,
                        directory) -> StreamingTraceSet:
    """Spill a streaming set to a verified chunk store, one chunk resident.

    The streaming counterpart of
    :func:`~repro.trace.streaming.spill_trace_set`: the source set's
    chunks are pulled, committed and dropped one at a time, so a
    regenerating scenario can be persisted without ever materializing a
    thread.  A failed commit (sick disk) raises — a spill that silently
    dropped chunks would corrupt replay, not degrade it.
    """
    store = ChunkStore(directory)
    metadata = []
    for trace in stream_set:
        count = 0
        max_addr = 0
        num_refs = 0
        num_writes = 0
        for index, chunk in enumerate(trace.chunks()):
            if not store.spill(chunk, index):
                raise OSError(
                    f"could not spill chunk {index} of thread "
                    f"{trace.thread_id} under {directory}"
                )
            count = index + 1
            num_refs += chunk.num_refs
            num_writes += int(np.count_nonzero(chunk.writes))
            if chunk.num_refs:
                max_addr = max(max_addr, int(chunk.addrs.max()))
        metadata.append({
            "num_chunks": count,
            "num_refs": num_refs,
            "length": trace.length,
            "num_writes": num_writes,
            "max_addr": max_addr,
        })
    return stream_from_store(stream_set.name, store, metadata)


def million_reference_scenario(*, seed: int = 0,
                               chunk_refs: int = 256) -> StreamScenario:
    """The CI stress case: 1024 threads × 977 references ≈ 1.0M references
    (1,000,448 exactly), three instructions per reference on average.

    Small chunks on purpose: 256 references × 1024 threads keeps peak
    resident reference data in the single-digit megabytes while the
    materialized equivalent needs every column at once — the contrast
    ``benchmarks/bench_streaming_memory.py`` measures and CI enforces.
    """
    return StreamScenario(
        num_threads=1024,
        refs_per_thread=977,
        seed=seed,
        chunk_refs=chunk_refs,
    )
