"""Tests for thread selection."""

import numpy as np
import pytest

from repro.trace.stream import ThreadTrace, TraceSet
from repro.trace.transform import select_threads


def make_set(name="app", lengths=(5, 3)):
    threads = []
    for tid, n in enumerate(lengths):
        threads.append(
            ThreadTrace(
                tid,
                np.arange(n, dtype=np.int64),
                np.arange(n, dtype=np.int64) * 4 + tid * 100,
                np.zeros(n, bool),
            )
        )
    return TraceSet(name, threads)


class TestSelectThreads:
    def test_renumbering(self):
        ts = select_threads(make_set(lengths=(5, 3, 4)), [2, 0])
        assert ts.num_threads == 2
        assert ts[0].num_refs == 4  # was thread 2
        assert ts[1].num_refs == 5  # was thread 0
        assert [t.thread_id for t in ts] == [0, 1]

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            select_threads(make_set(), [0, 0])

    def test_unknown_rejected(self):
        with pytest.raises(ValueError, match="unknown thread"):
            select_threads(make_set(), [5])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            select_threads(make_set(), [])

