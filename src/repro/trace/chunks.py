"""Bounded-size trace chunks and their verified on-disk spill format.

The streaming trace architecture (``docs/STREAMING.md``) replaces whole
per-thread reference columns with a sequence of :class:`TraceChunk`
slabs: each holds at most ``chunk_refs`` references of one thread, as
the same three parallel arrays a :class:`~repro.trace.stream.ThreadTrace`
carries, plus the chunk's global offset.  Everything downstream — run
compression, the replay kernels, the static analysis — operates on one
chunk at a time, so resident reference data is O(chunk × threads)
instead of O(total references).

:class:`ChunkStore` spills chunks to disk through the shared
:class:`~repro.util.verified_store.VerifiedDirectory` discipline (atomic
tmp→fsync→rename commits, a sha256 trailer in every entry verified on
every load), so a million-reference scenario can be generated once,
dropped from memory, and replayed from disk chunk by chunk.  Damage is
handled like every other verified store in the pipeline: a chunk whose
bytes no longer match its trailer is evicted and reported as missing —
the spill is a cache of generated data, never the only copy of ground
truth, so the caller regenerates.
"""

from __future__ import annotations

import io
import zipfile
from pathlib import Path
from typing import Iterator

import numpy as np

from repro.util.validate import check_positive
from repro.util.verified_store import VerifiedDirectory

__all__ = ["TraceChunk", "ChunkStore", "chunk_arrays", "DEFAULT_CHUNK_REFS"]

#: Default chunk size in references.  Small enough that 1024 resident
#: chunks (one per thread of the largest scenario) stay a few megabytes;
#: large enough that per-chunk numpy overhead is amortized.
DEFAULT_CHUNK_REFS = 4096

#: Spill format version, embedded in every chunk entry.
FORMAT_VERSION = 1


class TraceChunk:
    """One bounded slab of a thread's trace.

    Attributes:
        thread_id: Owning thread (dense application index).
        start: Global index of this chunk's first reference.
        gaps: int64 array; non-memory instructions before each reference.
        addrs: int64 array; word address of each reference.
        writes: bool array; True where the reference is a write.
    """

    __slots__ = ("thread_id", "start", "gaps", "addrs", "writes")

    def __init__(self, thread_id: int, start: int, gaps: np.ndarray,
                 addrs: np.ndarray, writes: np.ndarray) -> None:
        self.thread_id = int(thread_id)
        self.start = int(start)
        self.gaps = np.ascontiguousarray(gaps, dtype=np.int64)
        self.addrs = np.ascontiguousarray(addrs, dtype=np.int64)
        self.writes = np.ascontiguousarray(writes, dtype=bool)

    @property
    def num_refs(self) -> int:
        return int(self.addrs.size)

    @property
    def end(self) -> int:
        """Global index one past this chunk's last reference."""
        return self.start + self.num_refs

    def __repr__(self) -> str:
        return (
            f"TraceChunk(thread={self.thread_id}, "
            f"[{self.start}:{self.end}))"
        )


def chunk_arrays(
    thread_id: int,
    gaps: np.ndarray,
    addrs: np.ndarray,
    writes: np.ndarray,
    chunk_refs: int,
    *,
    start: int = 0,
) -> Iterator[TraceChunk]:
    """Slice parallel reference arrays into bounded chunks (views, no
    copies).  ``start`` offsets the produced chunks' global indices, so a
    generator that already works incrementally can chunk each batch it
    produces without materializing the whole thread."""
    check_positive("chunk_refs", chunk_refs)
    n = int(addrs.size)
    for lo in range(0, n, chunk_refs):
        hi = min(lo + chunk_refs, n)
        yield TraceChunk(thread_id, start + lo, gaps[lo:hi],
                         addrs[lo:hi], writes[lo:hi])


def _encode_chunk(chunk: TraceChunk) -> bytes:
    buffer = io.BytesIO()
    np.savez_compressed(
        buffer,
        scalars=np.array(
            [FORMAT_VERSION, chunk.thread_id, chunk.start, chunk.num_refs],
            dtype=np.int64,
        ),
        gaps=chunk.gaps,
        addrs=chunk.addrs,
        writes=chunk.writes,
    )
    return buffer.getvalue()


def _decode_chunk(data: bytes) -> TraceChunk:
    with np.load(io.BytesIO(data)) as payload:
        scalars = payload["scalars"]
        if scalars.shape != (4,):
            raise ValueError(f"malformed chunk header {scalars!r}")
        version, thread_id, start, num_refs = (int(v) for v in scalars)
        if version != FORMAT_VERSION:
            raise ValueError(f"unsupported chunk format version {version}")
        gaps = payload["gaps"]
        addrs = payload["addrs"]
        writes = payload["writes"]
    if not (gaps.shape == addrs.shape == writes.shape == (num_refs,)):
        raise ValueError(
            f"chunk arrays disagree with header: {gaps.shape}, "
            f"{addrs.shape}, {writes.shape} vs {num_refs} refs"
        )
    return TraceChunk(thread_id, start, gaps, addrs, writes)


class ChunkStore:
    """Spilled chunks of one trace set, one verified entry per chunk.

    Entries are named ``t<thread>-c<index>.npz``; the store is a plain
    :class:`VerifiedDirectory`, so commits are atomic, every load is
    verified against the entry's sha256 trailer, and the chaos harness
    can strike the write path at fault site ``chunks``.
    """

    #: Decoder failures treated as damage (evict + MissingChunkError).
    _LOAD_ERRORS = (ValueError, KeyError, OSError, EOFError,
                    zipfile.BadZipFile)

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        self._store = VerifiedDirectory(
            self.directory, fault_site="chunks")

    @staticmethod
    def entry_name(thread_id: int, index: int) -> str:
        return f"t{thread_id:05d}-c{index:06d}.npz"

    def spill(self, chunk: TraceChunk, index: int) -> bool:
        """Persist one chunk; True if committed (False on a sick disk)."""
        return self._store.commit(
            self.entry_name(chunk.thread_id, index), _encode_chunk(chunk))

    def load(self, thread_id: int, index: int) -> TraceChunk:
        """Load one verified chunk; raises :class:`MissingChunkError` on a
        missing or damaged entry (the caller regenerates the scenario)."""
        got = self._store.load(
            self.entry_name(thread_id, index), _decode_chunk,
            errors=self._LOAD_ERRORS, describe="trace chunk",
        )
        if got is None:
            raise MissingChunkError(
                f"chunk {index} of thread {thread_id} is missing or damaged "
                f"in {self.directory}; regenerate the scenario spill"
            )
        return got

    def iter_thread(self, thread_id: int, num_chunks: int
                    ) -> Iterator[TraceChunk]:
        """Load a thread's chunks in order, one resident at a time."""
        for index in range(num_chunks):
            yield self.load(thread_id, index)


class MissingChunkError(RuntimeError):
    """A spilled chunk could not be loaded (missing or damaged)."""


__all__.append("MissingChunkError")
