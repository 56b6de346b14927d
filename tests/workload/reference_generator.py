"""Reference implementation of per-thread trace generation.

This is the original run-at-a-time generator: every run is drawn as its
own small pair of arrays (``sample_run`` for shared channels, the loop in
``_sample_private_segments`` for private data), the runs are shuffled and
phase-ordered as a Python list of segments, and the thread's columns are
concatenated from that list.  :mod:`repro.workload.generator` draws the
same runs in batches and assembles each thread with one gather; the
differential tests assert both produce the same bytes for the same
recipe and generator.
"""

from __future__ import annotations

import numpy as np

from repro.trace.stream import ThreadTrace
from repro.workload.channels import PoolChannel
from repro.workload.generator import ThreadRecipe, _channel_quotas
from repro.workload.shaping import distribute_gaps

_MAX_RUN = 8192


def sample_run(
    channel: PoolChannel, rng: np.random.Generator, max_len: int
) -> tuple[np.ndarray, np.ndarray]:
    """Draw one sequential run of at most ``max_len`` references."""
    length = min(int(rng.geometric(1.0 / max(channel.mean_run, 1.0))), max_len,
                 4 * int(channel.mean_run) + 8)
    base = int(rng.integers(0, channel.region.size - channel.span + 1))
    offsets = base + (np.arange(length) % channel.span)
    addrs = channel.region.addrs(offsets)
    if channel.run_level_writes:
        is_write_run = rng.random() < channel.write_prob
        writes = np.full(length, is_write_run, dtype=bool)
    else:
        writes = rng.random(length) < channel.write_prob
    return addrs, writes


def _sample_shared_segments(
    rng: np.random.Generator, channels: list[PoolChannel], total: int
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Draw shared-run segments totalling exactly ``total`` references."""
    if total == 0:
        return []
    if not channels:
        raise ValueError("shared references requested but no channels supplied")
    segments = []
    for channel, quota in zip(channels, _channel_quotas(channels, total)):
        remaining = int(quota)
        while remaining > 0:
            addrs, writes = sample_run(channel, rng, min(remaining, _MAX_RUN))
            segments.append((addrs, writes))
            remaining -= addrs.size
    return segments


def _private_working_set(
    rng: np.random.Generator, recipe: ThreadRecipe, total: int
) -> np.ndarray:
    """Choose the thread's private working set: scattered whole windows."""
    region = recipe.private_region
    window = max(1, min(recipe.private_window, region.size))
    ws_words = int(min(region.size, max(window, round(total / recipe.private_reuse))))
    n_windows = max(1, -(-ws_words // window))
    available = region.size // window
    chosen = rng.choice(available, size=min(n_windows, available), replace=False)
    offsets = []
    for start in np.sort(chosen):
        offsets.extend(range(start * window, min((start + 1) * window, region.size)))
    return region.addrs(np.array(offsets, dtype=np.int64))


def _sample_private_segments(
    rng: np.random.Generator, recipe: ThreadRecipe, total: int
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Draw private-run segments totalling exactly ``total`` references."""
    if total == 0:
        return []
    if recipe.private_region is None:
        raise ValueError("private references requested but no private region supplied")
    working_set = _private_working_set(rng, recipe, total)
    ws = int(working_set.size)
    p = 1.0 / max(recipe.private_mean_run, 1.0)
    segments = []
    remaining = total
    while remaining > 0:
        run = min(int(rng.geometric(p)), remaining, _MAX_RUN)
        base = int(rng.integers(0, ws))
        offsets = (base + np.arange(run)) % ws
        addrs = working_set[offsets]
        writes = rng.random(run) < recipe.private_write_prob
        segments.append((addrs, writes))
        remaining -= run
    return segments


def _order_segments(
    rng: np.random.Generator,
    segments: list[tuple[np.ndarray, np.ndarray]],
    phases: int,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Arrange run segments into the thread's final order."""
    if not segments:
        return []
    order = rng.permutation(len(segments))
    if phases <= 1:
        return [segments[i] for i in order]
    buckets: list[tuple[list, list]] = [([], []) for _ in range(phases)]
    for position, index in enumerate(order):
        segment = segments[index]
        reads, writes = buckets[position % phases]
        (writes if bool(segment[1].any()) else reads).append(segment)
    ordered: list[tuple[np.ndarray, np.ndarray]] = []
    for reads, writes in buckets:
        ordered.extend(reads)
        ordered.extend(writes)
    return ordered


def generate_thread(recipe: ThreadRecipe, rng: np.random.Generator) -> ThreadTrace:
    """Synthesize one thread trace from its recipe, one run at a time."""
    n_refs = int(round(recipe.length * recipe.data_ref_fraction))
    n_refs = max(1, min(n_refs, recipe.length))
    n_shared = int(round(n_refs * recipe.shared_fraction))
    if not recipe.channels:
        n_shared = 0
    n_private = n_refs - n_shared
    if recipe.private_region is None:
        n_shared, n_private = n_refs, 0

    segments = _sample_shared_segments(rng, recipe.channels, n_shared)
    segments += _sample_private_segments(rng, recipe, n_private)
    ordered = _order_segments(rng, segments, recipe.phases)
    addrs = (np.concatenate([s[0] for s in ordered])
             if ordered else np.zeros(0, np.int64))
    writes = (np.concatenate([s[1] for s in ordered])
              if ordered else np.zeros(0, bool))

    gaps = distribute_gaps(rng, addrs.size, recipe.length - addrs.size)
    return ThreadTrace(recipe.thread_id, gaps, addrs.astype(np.int64), writes)
