"""Thread selection: a trace set restricted to a subset of its threads.

Exhaustive searches work on a slice of an application: the
optimal-placement tests enumerate every placement of a 12-thread slice
of Water.  The selection is pure: it returns a new trace set and never
mutates its input.
"""

from __future__ import annotations

from typing import Sequence

from repro.trace.stream import ThreadTrace, TraceSet
from repro.util.validate import check_non_empty

__all__ = ["select_threads"]


def select_threads(trace_set: TraceSet, thread_ids: Sequence[int]) -> TraceSet:
    """A trace set containing only the chosen threads, re-numbered densely.

    The selection order defines the new ids: ``thread_ids[i]`` becomes
    thread ``i``.

    Raises:
        ValueError: On unknown or duplicate thread ids.
    """
    check_non_empty("thread_ids", thread_ids)
    if len(set(thread_ids)) != len(thread_ids):
        raise ValueError("thread_ids must be distinct")
    threads = []
    for new_id, old_id in enumerate(thread_ids):
        if not 0 <= old_id < trace_set.num_threads:
            raise ValueError(
                f"unknown thread {old_id} (trace set has "
                f"{trace_set.num_threads})"
            )
        old = trace_set[old_id]
        threads.append(
            ThreadTrace(new_id, old.gaps.copy(), old.addrs.copy(),
                        old.writes.copy())
        )
    return TraceSet(trace_set.name, threads)
