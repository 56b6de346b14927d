"""Assembly of per-thread traces from access recipes.

A :class:`ThreadRecipe` fully describes one synthetic thread: its length,
how many of its instructions are data references, how those split between
shared channels and the thread's private segment, and the run structure of
each.  :func:`generate_thread` turns a recipe into a
:class:`~repro.trace.stream.ThreadTrace`; :func:`generate_trace_set` builds
a whole application.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.trace.stream import ThreadTrace, TraceSet
from repro.workload.address_space import Region
from repro.workload.channels import PoolChannel, draw_runs, run_positions, run_starts
from repro.workload.shaping import distribute_gaps
from repro.util.stats import Summary, summarize
from repro.util.validate import check_positive, check_range

__all__ = [
    "ThreadRecipe",
    "ThreadProbe",
    "probe_thread",
    "finish_thread",
    "probe_statistics",
    "generate_thread",
    "generate_trace_set",
]

# A single run never exceeds this many references; keeps pathological
# geometric draws from serializing a whole thread into one run.
_MAX_RUN = 8192


@dataclass
class ThreadRecipe:
    """Everything needed to synthesize one thread's trace.

    Attributes:
        thread_id: Dense thread index.
        length: Thread length in instructions (gaps + references).
        data_ref_fraction: Fraction of instructions that are data references.
        shared_fraction: Fraction of data references aimed at shared data
            (the Table 2 "Shared Refs" percentage, as a fraction).
        channels: Weighted shared channels (must be non-empty when
            ``shared_fraction > 0``).
        private_region: This thread's private segment.
        private_reuse: Mean references per distinct private address; sizes
            the private working set.
        private_mean_run: Mean sequential-run length over private data.
        private_write_prob: Write probability of private references.
        phases: Barrier-phase count.  With more than one phase the
            reference stream is organized into that many rounds, each of
            which issues its read-only run segments first and its
            write-containing segments at the end — the paper's barrier
            structure ("different threads operate on the same piece of
            data within a phase", updates at phase end).  Order-only: the
            static per-thread characteristics are unchanged.
        private_window: Granularity (words) of the working-set scatter —
            normally the cache-block size, so the working set is a random
            set of whole blocks spread across the private region rather
            than one dense prefix.  Dense prefixes would make the cache
            sets two co-scheduled threads collide on a deterministic
            function of their thread ids — a placement lottery real
            programs' scattered heaps do not play.
    """

    thread_id: int
    length: int
    data_ref_fraction: float = 0.3
    shared_fraction: float = 0.6
    channels: list[PoolChannel] = field(default_factory=list)
    private_region: Region | None = None
    private_reuse: float = 24.0
    private_mean_run: float = 8.0
    private_write_prob: float = 0.3
    private_window: int = 4
    phases: int = 1

    def __post_init__(self) -> None:
        check_positive("length", self.length)
        check_range("data_ref_fraction", self.data_ref_fraction, 0.0, 1.0)
        check_range("shared_fraction", self.shared_fraction, 0.0, 1.0)
        check_positive("private_reuse", self.private_reuse)
        check_positive("private_mean_run", self.private_mean_run)
        check_range("private_write_prob", self.private_write_prob, 0.0, 1.0)
        check_positive("phases", self.phases)


def _channel_quotas(channels: list[PoolChannel], total: int) -> np.ndarray:
    """Split ``total`` references across channels proportionally to weight.

    Largest-remainder apportionment: exact totals, and every channel gets
    its deterministic share.  Deterministic shares (rather than a random
    channel per run) matter for fidelity: they remove Poisson noise from
    per-channel volumes, keeping inter-thread sharing as uniform as the
    pattern's weights say it is — the paper's "uniform data sharing".
    """
    weights = np.array([c.weight for c in channels], dtype=float)
    raw = total * weights / weights.sum()
    quotas = np.floor(raw).astype(np.int64)
    remainder = total - int(quotas.sum())
    if remainder > 0:
        order = np.argsort(-(raw - quotas))
        quotas[order[:remainder]] += 1
    return quotas


def _empty_runs() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    return np.zeros(0, np.int64), np.zeros(0, bool), np.zeros(0, np.int64)


def _shared_runs(
    rng: np.random.Generator, channels: list[PoolChannel], total: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Draw shared runs totalling exactly ``total`` references.

    Returns the (addresses, writes, run lengths) columns, channel by
    channel in recipe order.
    """
    if total == 0:
        return _empty_runs()
    if not channels:
        raise ValueError("shared references requested but no channels supplied")
    drawn = [
        channel.sample_runs(rng, int(quota), _MAX_RUN)
        for channel, quota in zip(channels, _channel_quotas(channels, total))
    ]
    return tuple(np.concatenate(column) for column in zip(*drawn))


def _private_working_set(
    rng: np.random.Generator, recipe: "ThreadRecipe", total: int
) -> np.ndarray:
    """Choose the thread's private working set: scattered whole windows.

    The working set (sized by ``private_reuse``) is a random selection of
    block-granular windows across the private region, concatenated into a
    virtual index space the runs cycle over.  Scattering decorrelates the
    cache-set mapping of co-scheduled threads' private data.
    """
    region = recipe.private_region
    window = max(1, min(recipe.private_window, region.size))
    ws_words = int(min(region.size, max(window, round(total / recipe.private_reuse))))
    n_windows = max(1, -(-ws_words // window))
    available = region.size // window
    chosen = rng.choice(available, size=min(n_windows, available), replace=False)
    offsets = (np.sort(chosen)[:, None] * window + np.arange(window)).ravel()
    return region.addrs(offsets[offsets < region.size])


def _private_runs(
    rng: np.random.Generator, recipe: "ThreadRecipe", total: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Draw private runs totalling exactly ``total`` references.

    The private stream is a scattered working set scanned in short
    sequential runs starting at random offsets; reuse (and therefore the
    private cache footprint) is set by ``private_reuse``.
    """
    if total == 0:
        return _empty_runs()
    if recipe.private_region is None:
        raise ValueError("private references requested but no private region supplied")
    working_set = _private_working_set(rng, recipe, total)
    ws = int(working_set.size)
    lengths, bases, writes = draw_runs(
        rng, total,
        p=1.0 / max(recipe.private_mean_run, 1.0),
        cap=_MAX_RUN,
        high=ws,
        write_prob=recipe.private_write_prob,
        run_level_writes=False,
    )
    offsets = (np.repeat(bases, lengths) + run_positions(lengths, total)) % ws
    return working_set[offsets], writes, lengths


def _run_order(
    rng: np.random.Generator, lengths: np.ndarray, writes: np.ndarray, phases: int
) -> np.ndarray:
    """The order the thread's runs appear in its final trace.

    One phase: a uniformly random shuffle (run boundaries preserved).
    Several phases: runs are dealt randomly across phases (the shuffled
    position modulo ``phases``); within a phase, read-only runs come first
    and write-containing runs last, each group in shuffled order — the
    barrier structure of phase-parallel programs.  That is a stable sort
    of the shuffle by (phase, has-write).
    """
    order = rng.permutation(lengths.size)
    if phases <= 1:
        return order
    has_write = np.logical_or.reduceat(writes, run_starts(lengths))
    phase = np.arange(order.size) % phases
    return order[np.lexsort((has_write[order], phase))]


@dataclass(frozen=True)
class ThreadProbe:
    """A thread's shared runs, drawn ahead of the rest of its trace.

    Shared runs are the first draws of a thread's stream, so a probe is
    exactly the prefix :func:`generate_thread` draws, and
    :func:`finish_thread` continues the same generator to produce the
    whole trace.  Probes carry everything the calibration loop measures
    (see :func:`probe_statistics`) without drawing private runs, the
    shuffle or the gaps.

    Attributes:
        recipe: The thread's recipe.
        rng: The thread's generator, positioned just after the shared runs.
        n_refs: References of the finished trace.
        n_private: Private references still to draw.
        addrs: Shared-run addresses, runs in channel order.
        writes: Write flag of each shared reference.
        lengths: Shared run lengths.
    """

    recipe: ThreadRecipe
    rng: np.random.Generator
    n_refs: int
    n_private: int
    addrs: np.ndarray
    writes: np.ndarray
    lengths: np.ndarray


def probe_thread(recipe: ThreadRecipe, rng: np.random.Generator) -> ThreadProbe:
    """Split the thread's references and draw its shared runs."""
    n_refs = int(round(recipe.length * recipe.data_ref_fraction))
    n_refs = max(1, min(n_refs, recipe.length))
    n_shared = int(round(n_refs * recipe.shared_fraction))
    if not recipe.channels:
        n_shared = 0
    n_private = n_refs - n_shared
    if recipe.private_region is None:
        n_shared, n_private = n_refs, 0
    addrs, writes, lengths = _shared_runs(rng, recipe.channels, n_shared)
    return ThreadProbe(recipe, rng, n_refs, n_private, addrs, writes, lengths)


def finish_thread(probe: ThreadProbe) -> ThreadTrace:
    """Draw the rest of a probed thread and assemble its trace.

    Private runs follow the shared ones; the runs are ordered (see
    :func:`_run_order`) and gathered into the thread's columns with one
    fancy index, and the non-memory instruction budget is spread across
    the references as gaps.
    """
    recipe, rng = probe.recipe, probe.rng
    private = _private_runs(rng, recipe, probe.n_private)
    addrs, writes, lengths = (
        np.concatenate(pair) for pair in zip(
            (probe.addrs, probe.writes, probe.lengths), private)
    )
    order = _run_order(rng, lengths, writes, recipe.phases)
    ordered = lengths[order]
    source = np.repeat(run_starts(lengths)[order] - run_starts(ordered), ordered)
    source += np.arange(probe.n_refs)
    gaps = distribute_gaps(rng, probe.n_refs, recipe.length - probe.n_refs)
    return ThreadTrace(recipe.thread_id, gaps, addrs[source], writes[source])


def generate_thread(recipe: ThreadRecipe, rng: np.random.Generator) -> ThreadTrace:
    """Synthesize one thread trace from its recipe.

    The reference stream interleaves shared and private run segments in a
    random order (run boundaries preserved — interleaving happens *between*
    runs, never inside one, which is what keeps sharing sequential); the
    non-memory instruction budget is spread across references as gaps so
    the trace's total length equals ``recipe.length`` exactly.
    """
    return finish_thread(probe_thread(recipe, rng))


def probe_statistics(probes: list[ThreadProbe]) -> tuple[Summary, Summary]:
    """Table 2's shared-reference percentage and references per shared address.

    Equal, float for float, to ``percent_shared_refs`` and
    ``refs_per_shared_address`` of the
    :class:`~repro.trace.analysis.TraceSetAnalysis` of the finished
    threads.  An address is shared when two threads reference it; a
    private region is its thread's alone (checked here), so no private
    reference can touch a shared address and the shared runs plus each
    thread's reference count determine both columns.
    """
    _check_private_regions([probe.recipe for probe in probes])
    profiles = [np.unique(probe.addrs, return_counts=True) for probe in probes]
    touched_by = np.unique(np.concatenate([addrs for addrs, _ in profiles]),
                           return_counts=True)
    shared = touched_by[0][touched_by[1] >= 2]
    refs, touched = [], []
    for addrs, counts in profiles:
        mask = np.isin(addrs, shared)
        refs.append(int(counts[mask].sum()))
        touched.append(int(mask.sum()))
    shared_refs = np.array(refs, dtype=np.int64)
    totals = np.array([probe.n_refs for probe in probes], dtype=float)
    return (
        summarize(100.0 * shared_refs / totals),
        summarize([r / t if t else 0.0 for r, t in zip(shared_refs, touched)]),
    )


def _check_private_regions(recipes: list[ThreadRecipe]) -> None:
    """Every private region must overlap no other private or shared region."""
    private = sorted((r.private_region.start, r.private_region.end)
                     for r in recipes if r.private_region is not None)
    starts = np.array([start for start, _ in private], dtype=np.int64)
    ends = np.array([end for _, end in private], dtype=np.int64)
    overlapping = bool(np.any(starts[1:] < ends[:-1]))
    for region in {c.region for r in recipes for c in r.channels}:
        first = int(np.searchsorted(ends, region.start, side="right"))
        overlapping |= first < starts.size and starts[first] < region.end
    if overlapping:
        raise ValueError("private regions must be disjoint from each other and "
                         "from every shared channel region")


def generate_trace_set(
    name: str,
    recipes: list[ThreadRecipe],
    rng_for_thread,
) -> TraceSet:
    """Generate a whole application from per-thread recipes.

    ``rng_for_thread(thread_id)`` must return an independent generator per
    thread, so threads are reproducible individually and in any order.
    """
    threads = [
        generate_thread(recipe, rng_for_thread(recipe.thread_id)) for recipe in recipes
    ]
    return TraceSet(name, threads)
