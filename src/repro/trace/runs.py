"""Run-length compression of thread traces for the fast replay kernel.

The paper's own result (§4.2) is that sharing is *sequential*: a thread
makes long runs of references to the same cache block between coherence
events.  A replay loop that touches the cache once per *reference* wastes
almost all of its work re-confirming hits inside those runs; a loop that
touches it once per *block run* does the same simulation in a fraction of
the time.

:func:`compress_traces` precomputes, for a batch of threads in one numpy
pass (:func:`compress_trace` for one), everything the kernel in
:mod:`repro.arch.kernel` needs to replay a run in O(1):

* ``blocks`` — the per-reference block numbers (``addrs >> block_bits``);
* ``run_end[i]`` — the exclusive end of the maximal same-block run
  containing reference ``i``;
* ``next_write[i]`` — the first reference at or after ``i`` that is a
  write (``num_refs`` when none remains), so the kernel can find the one
  write per run segment that needs a real directory upgrade;
* ``prefix_gaps[i]`` — the sum of instruction gaps before reference
  ``i``, so the cycles of any hit span ``[i, j)`` are the closed form
  ``prefix_gaps[j] - prefix_gaps[i] + (j - i) * hit_cycles``.

The compression is *exact*, not approximate: a repeated same-block hit
mutates no classification state in the direct-mapped cache and leaves the
block at MRU in a set-associative one, so replaying a hit span as one
arithmetic step is bit-for-bit equivalent to stepping it (the argument is
spelled out in ``docs/PERFORMANCE.md`` and enforced by the differential
suite in ``tests/oracle/``).

Columns are ``memoryview``s over contiguous numpy arrays (int32
positions, int64 blocks and cycle prefixes; ``gaps``/``writes`` view the
trace's own arrays).  The kernel indexes them elementwise, where a
memoryview is as fast as a list, yet they box no per-element objects and
the garbage collector never walks them.  Nothing is memoized across
calls: each ``simulate`` builds its columns (O(n) numpy) and they die
with it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.trace.stream import ThreadTrace, TraceSet

__all__ = ["CompressedTrace", "compress_trace", "compress_traces",
           "run_length_stats"]


@dataclass
class CompressedTrace:
    """One thread's trace plus its precomputed run structure.

    All columns are 1-D memoryviews; ``blocks``, ``gaps`` and ``writes``
    are parallel to the original references, ``prefix_gaps`` has
    ``num_refs + 1`` entries (``prefix_gaps[j] - prefix_gaps[i]`` is the
    gap sum over ``[i, j)``; see :func:`compress_traces` for its base).
    """

    thread_id: int
    gaps: memoryview
    blocks: memoryview
    writes: memoryview
    run_end: memoryview
    next_write: memoryview
    prefix_gaps: memoryview
    num_refs: int
    _charge_cache: dict = field(default_factory=dict, repr=False, compare=False)

    def charge_prefix(self, hit_cycles: int) -> memoryview:
        """``C[i] = prefix_gaps[i] + i * hit_cycles``, memoized (up to a
        constant when :func:`compress_traces` precomputed it).

        Folds the per-reference hit cost into the gap prefix sum, so the
        kernel charges any hit span ``[i, j)`` as the two-lookup form
        ``C[j] - C[i]`` with no multiply.
        """
        got = self._charge_cache.get(hit_cycles)
        if got is None:
            charge = np.arange(self.num_refs + 1, dtype=np.int64)
            charge *= hit_cycles
            charge += self.prefix_gaps
            got = self._charge_cache[hit_cycles] = memoryview(charge)
        return got


def compress_trace(trace: ThreadTrace, block_bits: int) -> CompressedTrace:
    """Precompute the run structure of one thread's trace.

    Pure numpy sweeps — O(n) total, no per-reference Python work.  Not
    memoized: the result holds O(n) arrays, so it lives only as long as
    the caller keeps it.
    """
    return compress_traces([trace], block_bits)[0]


def compress_traces(traces, block_bits: int, *,
                    hit_cycles: int | None = None) -> list[CompressedTrace]:
    """Run-compress several thread traces in one numpy pass.

    The traces are laid end to end and every column is computed once over
    the whole, then handed out as per-trace slices in trace-local
    coordinates: a run never crosses a trace edge, ``run_end`` and
    ``next_write`` saturate at the trace's own end.  So the per-trace
    cost is a few slices, not a dozen numpy calls — which matters for
    apps with a hundred-plus short threads.

    The prefix columns of a trace other than the first start at the
    running total of the traces before it, not at 0; every use takes a
    difference (``prefix_gaps[j] - prefix_gaps[i]`` is the gap sum over
    ``[i, j)``), so the offset cancels.  ``hit_cycles`` precomputes
    :meth:`CompressedTrace.charge_prefix` in the same pass.
    """
    if not traces:
        return []
    lengths = np.fromiter((t.addrs.size for t in traces), np.int64,
                          len(traces))
    bounds = np.zeros(len(traces) + 1, dtype=np.int64)
    np.cumsum(lengths, out=bounds[1:])
    n = int(bounds[-1])
    blocks = np.concatenate([t.addrs for t in traces], dtype=np.int64)
    blocks >>= block_bits
    prefix = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.concatenate([t.gaps for t in traces]), out=prefix[1:])

    # Positions fit int32 on any realistic machine.
    pos_type = np.int32 if n < 1 << 31 else np.int64

    # Maximal same-block runs, also cut at every trace's first reference.
    # (Temporaries are deleted as soon as they are spent: this pass sets
    # the replay's peak memory.)
    new_run = np.ones(n, dtype=bool)
    np.not_equal(blocks[1:], blocks[:-1], out=new_run[1:])
    new_run[bounds[:-1][lengths > 0]] = True
    run_bounds = np.append(np.flatnonzero(new_run), n).astype(pos_type)
    del new_run
    run_end = np.repeat(run_bounds[1:], np.diff(run_bounds))
    del run_bounds

    # First write at or after each position, else the trace's end.  The
    # backward running minimum cannot leak across traces: every later
    # position holds a value >= this trace's end.
    next_write = np.repeat(bounds[1:].astype(pos_type), lengths)
    write_idx = np.flatnonzero(np.concatenate([t.writes for t in traces]))
    next_write[write_idx] = write_idx
    backwards = next_write[::-1]
    np.minimum.accumulate(backwards, out=backwards)

    # Trace-local positions.
    offset = np.repeat(bounds[:-1].astype(pos_type), lengths)
    run_end -= offset
    next_write -= offset
    del offset

    charge = None
    if hit_cycles is not None:
        charge = np.arange(n + 1, dtype=np.int64)
        charge *= hit_cycles
        charge += prefix
        charge = memoryview(charge)

    blocks_mv, prefix = memoryview(blocks), memoryview(prefix)
    run_end, next_write = memoryview(run_end), memoryview(next_write)
    out = []
    starts = bounds.tolist()
    for k, trace in enumerate(traces):
        a, b = starts[k], starts[k + 1]
        compressed = CompressedTrace(
            thread_id=trace.thread_id,
            gaps=memoryview(trace.gaps),
            blocks=blocks_mv[a:b],
            writes=memoryview(trace.writes),
            run_end=run_end[a:b],
            next_write=next_write[a:b],
            prefix_gaps=prefix[a:b + 1],
            num_refs=b - a,
        )
        if charge is not None:
            compressed._charge_cache[hit_cycles] = charge[a:b + 1]
        out.append(compressed)
    return out


def run_length_stats(trace_set: TraceSet, block_bits: int = 2) -> dict:
    """Compression diagnostics for a whole application.

    Returns total references, total block runs, and the mean run length
    (references per run) — the factor bounding the kernel's advantage.
    """
    refs = 0
    runs = 0
    for trace in trace_set:
        n = trace.num_refs
        refs += n
        if not n:
            continue
        blocks = trace.addrs >> block_bits
        runs += 1 + int(np.count_nonzero(np.diff(blocks)))
    return {
        "total_refs": refs,
        "total_runs": runs,
        "mean_run_length": refs / runs if runs else 0.0,
    }
