"""Distribution-shaping helpers for the workload generators.

Two jobs:

* draw per-thread lengths whose population mean and coefficient of
  variation match the paper's Table 2 targets (:func:`shaped_lengths`);
* split a thread's non-memory instruction budget into per-reference gaps
  (:func:`distribute_gaps`).
"""

from __future__ import annotations

import numpy as np

from repro.util.validate import check_positive

__all__ = ["shaped_lengths", "distribute_gaps"]


def shaped_lengths(
    rng: np.random.Generator,
    count: int,
    mean: float,
    cv: float,
    *,
    floor: int = 16,
) -> np.ndarray:
    """Draw ``count`` integer lengths with population mean ``mean`` and
    coefficient of variation ``cv``.

    Raw values come from a lognormal (the natural model for task-length
    skew: FFT's 187.6% deviation means a few very long threads among many
    short ones); the sample is then affinely corrected so the *population*
    statistics match the targets exactly, and floored at ``floor`` so that
    no thread degenerates to an empty trace.  The flooring perturbs the
    moments only when ``cv`` is extreme relative to ``mean``.

    ``cv == 0`` returns perfectly uniform lengths (Cholesky, Topopt).
    """
    check_positive("count", count)
    check_positive("mean", mean)
    if cv < 0:
        raise ValueError(f"cv must be >= 0, got {cv}")
    if cv == 0.0 or count == 1:
        return np.full(count, max(int(round(mean)), floor), dtype=np.int64)

    sigma = float(np.sqrt(np.log1p(cv * cv)))
    raw = rng.lognormal(mean=0.0, sigma=sigma, size=count)
    sample_mean = raw.mean()
    sample_std = raw.std(ddof=0)
    if sample_std == 0.0:  # pragma: no cover - astronomically unlikely
        return np.full(count, max(int(round(mean)), floor), dtype=np.int64)
    # Affine correction: exact population mean and std.
    corrected = mean + (raw - sample_mean) * (cv * mean / sample_std)
    lengths = np.maximum(np.round(corrected), floor).astype(np.int64)
    return lengths


def distribute_gaps(
    rng: np.random.Generator, num_refs: int, total_gap: int
) -> np.ndarray:
    """Split ``total_gap`` non-memory instructions across ``num_refs`` gaps.

    Gaps are non-negative integers summing exactly to ``total_gap``; the
    split is a multinomial over references, i.e. each non-memory
    instruction lands before a uniformly random reference.  This keeps the
    instantaneous data-reference rate statistically uniform along the
    thread, which is what makes thread *length* (not reference phasing)
    the load-balance quantity, as in the paper.
    """
    if num_refs < 0 or total_gap < 0:
        raise ValueError("num_refs and total_gap must be >= 0")
    if num_refs == 0:
        if total_gap != 0:
            raise ValueError("cannot place a non-zero gap budget with zero refs")
        return np.zeros(0, dtype=np.int64)
    return rng.multinomial(total_gap, np.full(num_refs, 1.0 / num_refs)).astype(np.int64)
