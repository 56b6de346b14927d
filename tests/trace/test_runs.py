"""Tests for run-length compression (the fast kernel's trace prep)."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.trace.runs import compress_trace, run_length_stats
from repro.trace.stream import ThreadTrace, TraceSet


def make_trace(thread_id=0, gaps=(0, 2, 1), addrs=(8, 16, 8),
               writes=(False, True, False)):
    return ThreadTrace(
        thread_id,
        np.array(gaps, dtype=np.int64),
        np.array(addrs, dtype=np.int64),
        np.array(writes, dtype=bool),
    )


@st.composite
def traces(draw):
    n = draw(st.integers(0, 120))
    return make_trace(
        gaps=draw(st.lists(st.integers(0, 5), min_size=n, max_size=n)),
        addrs=draw(st.lists(st.integers(0, 63), min_size=n, max_size=n)),
        writes=draw(st.lists(st.booleans(), min_size=n, max_size=n)),
    )


class TestCompress:
    def test_columns_mirror_the_trace(self):
        c = compress_trace(make_trace(), block_bits=2)
        assert list(c.blocks) == [2, 4, 2]
        assert list(c.gaps) == [0, 2, 1]
        assert list(c.writes) == [False, True, False]
        assert c.num_refs == 3

    def test_run_end_marks_maximal_runs(self):
        # blocks (bits=2): 1 1 1 2 2 1
        c = compress_trace(make_trace(gaps=[0] * 6,
                                      addrs=[4, 5, 6, 8, 9, 7],
                                      writes=[False] * 6), block_bits=2)
        assert list(c.blocks) == [1, 1, 1, 2, 2, 1]
        assert list(c.run_end) == [3, 3, 3, 5, 5, 6]

    def test_next_write_is_first_write_at_or_after(self):
        c = compress_trace(make_trace(gaps=[0] * 5, addrs=[0] * 5,
                                      writes=[False, True, False, False, True]),
                           block_bits=2)
        assert list(c.next_write) == [1, 1, 4, 4, 4]

    def test_next_write_saturates_at_num_refs(self):
        c = compress_trace(make_trace(gaps=[0] * 3, addrs=[0] * 3,
                                      writes=[False] * 3), block_bits=2)
        assert list(c.next_write) == [3, 3, 3]

    def test_prefix_gaps(self):
        c = compress_trace(make_trace(gaps=[0, 2, 1], addrs=[0] * 3,
                                      writes=[False] * 3), block_bits=2)
        assert list(c.prefix_gaps) == [0, 0, 2, 3]

    def test_empty_trace(self):
        c = compress_trace(make_trace(gaps=(), addrs=(), writes=()),
                           block_bits=2)
        assert c.num_refs == 0
        assert list(c.prefix_gaps) == [0]

    def test_not_memoized_on_the_trace(self):
        """Columns live only as long as their caller keeps them."""
        trace = make_trace()
        first = compress_trace(trace, 2)
        assert compress_trace(trace, 2) is not first
        assert not trace._replay_cache

    @settings(max_examples=60, deadline=None)
    @given(trace=traces())
    def test_structure_is_consistent(self, trace):
        """run_end partitions the trace into maximal same-block runs;
        next_write finds exactly the first write at or after each
        position; prefix sums telescope."""
        c = compress_trace(trace, block_bits=2)
        n = c.num_refs
        for i in range(n):
            end = c.run_end[i]
            assert i < end <= n
            assert all(c.blocks[j] == c.blocks[i] for j in range(i, end))
            assert end == n or c.blocks[end] != c.blocks[i]
            if i > 0 and c.blocks[i - 1] == c.blocks[i]:
                assert c.run_end[i - 1] == end  # same maximal run
            expected_next = next(
                (j for j in range(i, n) if c.writes[j]), n
            )
            assert c.next_write[i] == expected_next
            assert c.prefix_gaps[i + 1] - c.prefix_gaps[i] == c.gaps[i]


class TestChargePrefix:
    def test_closed_form(self):
        c = compress_trace(make_trace(gaps=[0, 2, 1], addrs=[0, 0, 0],
                                      writes=[False] * 3), block_bits=2)
        charge = c.charge_prefix(hit_cycles=1)
        assert list(charge) == [0, 1, 4, 6]
        # A span [i, j) costs its gaps plus one hit per reference.
        assert charge[3] - charge[1] == (2 + 1) + 2 * 1

    def test_memoized(self):
        c = compress_trace(make_trace(), block_bits=2)
        assert c.charge_prefix(1) is c.charge_prefix(1)
        assert c.charge_prefix(1) is not c.charge_prefix(2)


class TestRunLengthStats:
    def test_counts_runs_across_threads(self):
        ts = TraceSet("t", [
            make_trace(0, gaps=[0] * 4, addrs=[4, 5, 8, 9],
                       writes=[False] * 4),   # runs: [1 1] [2 2]
            make_trace(1, gaps=(), addrs=(), writes=()),
        ])
        stats = run_length_stats(ts, block_bits=2)
        assert stats["total_refs"] == 4
        assert stats["total_runs"] == 2
        assert stats["mean_run_length"] == 2.0

    def test_empty_set(self):
        ts = TraceSet("t", [make_trace(gaps=(), addrs=(), writes=())])
        assert run_length_stats(ts)["mean_run_length"] == 0.0
