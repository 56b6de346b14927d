"""Per-thread traces and application trace sets.

Traces are stored columnar (three parallel numpy arrays) rather than as
lists of :class:`~repro.trace.record.TraceRecord` objects: the simulator
replays hundreds of thousands of references per run, and the placement
algorithms' static analysis reduces whole columns at once.  Records remain
the interchange unit at the edges (construction from generators, text I/O,
iteration in tests).
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.trace.record import AccessType, TraceRecord
from repro.util.validate import check_non_empty

__all__ = ["ThreadTrace", "TraceSet"]


class ThreadTrace:
    """The complete data-reference trace of one thread.

    Attributes:
        thread_id: Dense thread index within the application (0-based).
        gaps: int64 array; non-memory instructions before each reference.
        addrs: int64 array; word address of each reference.
        writes: bool array; True where the reference is a write.
    """

    __slots__ = ("thread_id", "gaps", "addrs", "writes", "_replay_cache")

    def __init__(
        self,
        thread_id: int,
        gaps: np.ndarray,
        addrs: np.ndarray,
        writes: np.ndarray,
    ) -> None:
        if thread_id < 0:
            raise ValueError(f"thread_id must be >= 0, got {thread_id}")
        gaps = np.ascontiguousarray(gaps, dtype=np.int64)
        addrs = np.ascontiguousarray(addrs, dtype=np.int64)
        writes = np.ascontiguousarray(writes, dtype=bool)
        if not (gaps.shape == addrs.shape == writes.shape) or gaps.ndim != 1:
            raise ValueError(
                "gaps, addrs and writes must be 1-D arrays of equal length, got "
                f"{gaps.shape}, {addrs.shape}, {writes.shape}"
            )
        if gaps.size and int(gaps.min()) < 0:
            raise ValueError("gaps must be >= 0")
        if addrs.size and int(addrs.min()) < 0:
            raise ValueError("addrs must be >= 0")
        self.thread_id = int(thread_id)
        self.gaps = gaps
        self.addrs = addrs
        self.writes = writes
        # Small derived-data memos (the max block per block_bits); never
        # per-reference arrays, never serialized or compared.
        self._replay_cache: dict | None = None

    @classmethod
    def from_records(cls, thread_id: int, records: Iterable[TraceRecord]) -> "ThreadTrace":
        """Build a columnar trace from an iterable of records."""
        records = list(records)
        gaps = np.fromiter((r.gap for r in records), dtype=np.int64, count=len(records))
        addrs = np.fromiter((r.addr for r in records), dtype=np.int64, count=len(records))
        writes = np.fromiter((r.is_write for r in records), dtype=bool, count=len(records))
        return cls(thread_id, gaps, addrs, writes)

    @property
    def num_refs(self) -> int:
        """Number of data references in the trace."""
        return int(self.addrs.size)

    @property
    def length(self) -> int:
        """Thread length in instructions: every gap plus one per reference.

        This is the paper's "thread length" — the quantity LOAD-BAL
        balances.
        """
        return int(self.gaps.sum()) + self.num_refs

    @property
    def num_writes(self) -> int:
        return int(self.writes.sum())

    @property
    def num_reads(self) -> int:
        return self.num_refs - self.num_writes

    def records(self) -> Iterator[TraceRecord]:
        """Iterate the trace as records (edge/interop use only)."""
        for gap, addr, is_write in zip(self.gaps, self.addrs, self.writes):
            yield TraceRecord(int(gap), int(addr), AccessType.from_flag(bool(is_write)))

    def __len__(self) -> int:
        return self.num_refs

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ThreadTrace):
            return NotImplemented
        return (
            self.thread_id == other.thread_id
            and np.array_equal(self.gaps, other.gaps)
            and np.array_equal(self.addrs, other.addrs)
            and np.array_equal(self.writes, other.writes)
        )

    def __repr__(self) -> str:
        return (
            f"ThreadTrace(thread_id={self.thread_id}, refs={self.num_refs}, "
            f"length={self.length})"
        )


class TraceSet:
    """All threads of one traced application.

    Thread ids are dense: ``traces[i].thread_id == i``.  This invariant lets
    placement maps and the simulator index threads by position.
    """

    __slots__ = ("name", "threads")

    def __init__(self, name: str, threads: Sequence[ThreadTrace]) -> None:
        check_non_empty("threads", threads)
        for index, trace in enumerate(threads):
            if trace.thread_id != index:
                raise ValueError(
                    f"thread ids must be dense 0..n-1: position {index} holds "
                    f"thread_id {trace.thread_id}"
                )
        self.name = str(name)
        self.threads = list(threads)

    @property
    def num_threads(self) -> int:
        return len(self.threads)

    @property
    def thread_lengths(self) -> np.ndarray:
        """Per-thread instruction lengths (the LOAD-BAL input)."""
        return np.array([t.length for t in self.threads], dtype=np.int64)

    @property
    def total_length(self) -> int:
        return int(self.thread_lengths.sum())

    @property
    def total_refs(self) -> int:
        return sum(t.num_refs for t in self.threads)

    def __iter__(self) -> Iterator[ThreadTrace]:
        return iter(self.threads)

    def __len__(self) -> int:
        return self.num_threads

    def __getitem__(self, thread_id: int) -> ThreadTrace:
        return self.threads[thread_id]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TraceSet):
            return NotImplemented
        return self.name == other.name and self.threads == other.threads

    def __repr__(self) -> str:
        return (
            f"TraceSet(name={self.name!r}, threads={self.num_threads}, "
            f"refs={self.total_refs})"
        )
