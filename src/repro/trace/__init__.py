"""Trace substrate.

The paper's inputs are per-thread memory-reference traces produced by
MPtrace.  This package provides the equivalent substrate for the
reproduction:

* :mod:`repro.trace.record` — the single-reference record model;
* :mod:`repro.trace.stream` — per-thread traces and whole-application
  trace sets (columnar, numpy-backed);
* :mod:`repro.trace.io` — text and binary serialization;
* :mod:`repro.trace.runs` — run-length compression of the block stream
  (the replay kernel's input form);
* :mod:`repro.trace.chunks` — bounded-size trace chunks and their
  verified on-disk spill format;
* :mod:`repro.trace.streaming` — chunked streaming traces/trace sets
  the replay kernel consumes with O(chunk) resident reference data
  (see ``docs/STREAMING.md``);
* :mod:`repro.trace.analysis` — the *static* per-thread analysis the
  paper's placement algorithms consume (address profiles, pairwise and
  N-way sharing, write-shared references, private address counts).
"""

from repro.trace.record import AccessType, TraceRecord
from repro.trace.runs import CompressedTrace, compress_trace, run_length_stats
from repro.trace.stream import ThreadTrace, TraceSet
from repro.trace.chunks import (
    ChunkStore,
    MissingChunkError,
    TraceChunk,
    chunk_arrays,
)
from repro.trace.streaming import (
    StreamingThreadTrace,
    StreamingTraceSet,
    as_streaming,
    spill_trace_set,
    stream_from_store,
)
from repro.trace.io import (
    load_trace_set,
    load_trace_set_text,
    save_trace_set,
    save_trace_set_text,
    trace_set_from_text,
    trace_set_to_text,
)
from repro.trace.temporal import TemporalSharingReport, analyze_temporal_sharing
from repro.trace.transform import select_threads
from repro.trace.analysis import (
    ThreadProfile,
    TraceSetAnalysis,
    group_shared_references,
    pairwise_matrix,
    shared_addresses,
    shared_references,
    write_shared_references,
)

__all__ = [
    "AccessType",
    "TraceRecord",
    "ThreadTrace",
    "TraceSet",
    "CompressedTrace",
    "compress_trace",
    "run_length_stats",
    "TraceChunk",
    "ChunkStore",
    "MissingChunkError",
    "chunk_arrays",
    "StreamingThreadTrace",
    "StreamingTraceSet",
    "as_streaming",
    "spill_trace_set",
    "stream_from_store",
    "save_trace_set",
    "load_trace_set",
    "save_trace_set_text",
    "load_trace_set_text",
    "trace_set_to_text",
    "trace_set_from_text",
    "ThreadProfile",
    "TraceSetAnalysis",
    "shared_references",
    "shared_addresses",
    "write_shared_references",
    "group_shared_references",
    "pairwise_matrix",
    "TemporalSharingReport",
    "analyze_temporal_sharing",
    "select_threads",
]
