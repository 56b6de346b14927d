"""Shared-data access channels.

A *channel* is one stream of accesses a thread makes into a shared region:
"my partition", "everyone's particle array", "the mailbox I write to thread
7", and so on.  Every access pattern in :mod:`repro.workload.patterns` is a
weighted composition of channels; the generator draws *runs* (not single
references) from channels, which is what gives the synthetic traces the
paper's sequential-sharing property — a thread references a shared datum
many times before another thread contends for it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.workload.address_space import Region
from repro.util.validate import check_positive, check_range

__all__ = ["PoolChannel", "draw_runs", "run_starts", "run_positions"]

#: Float64 words of per-reference write draws staged before each
#: comparison against ``write_prob`` (128 KiB, or one run cap if larger).
_DRAW_BUFFER = 1 << 14


@dataclass(frozen=True)
class PoolChannel:
    """A weighted stream of sequential runs into one shared region.

    Attributes:
        region: Shared region the channel accesses.
        weight: Relative share of the thread's shared references this
            channel receives (normalized against sibling channels).
        write_prob: Probability a reference (or, with ``run_level_writes``,
            a whole run) writes.
        mean_run: Mean sequential-run length (geometric).  This is the
            dominant control of the measured "references per shared
            address": a run of length *r* over a window of ``span``
            addresses yields roughly ``r / span`` references per address.
        span: Number of consecutive addresses a run cycles over.  ``span=1``
            is a pure single-datum run; larger spans model small records
            (a molecule, a matrix row slice).
        run_level_writes: If True, a run is entirely writes or entirely
            reads (decided once per run with ``write_prob``) — the paper's
            migratory "write runs".  If False, each reference writes
            independently with ``write_prob``.
    """

    region: Region
    weight: float
    write_prob: float
    mean_run: float
    span: int = 1
    run_level_writes: bool = False

    def __post_init__(self) -> None:
        check_positive("weight", self.weight)
        check_range("write_prob", self.write_prob, 0.0, 1.0)
        check_positive("mean_run", self.mean_run)
        check_positive("span", self.span)
        if self.span > self.region.size:
            raise ValueError(
                f"span {self.span} exceeds region size {self.region.size}"
            )

    def sample_runs(
        self, rng: np.random.Generator, total: int, max_run: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Draw sequential runs totalling exactly ``total`` references.

        Returns parallel (addresses, writes) arrays plus the run lengths.
        Each run starts at a uniformly random span-aligned window of the
        region and cycles over ``span`` consecutive addresses; it is at
        most ``max_run`` long, and at most ``4 * mean_run + 8`` so a
        pathological geometric draw cannot swallow the channel's quota.
        """
        check_positive("max_run", max_run)
        lengths, bases, writes = draw_runs(
            rng, total,
            p=1.0 / max(self.mean_run, 1.0),
            cap=min(max_run, 4 * int(self.mean_run) + 8),
            high=self.region.size - self.span + 1,
            write_prob=self.write_prob,
            run_level_writes=self.run_level_writes,
        )
        offsets = np.repeat(bases, lengths)
        if self.span > 1:
            offsets += run_positions(lengths, total) % self.span
        return self.region.addrs(offsets), writes, lengths


def draw_runs(
    rng: np.random.Generator,
    total: int,
    *,
    p: float,
    cap: int,
    high: int,
    write_prob: float,
    run_level_writes: bool,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Draw run lengths, bases and write flags totalling ``total`` references.

    Each run makes its draws in this order: its length (geometric with
    success probability ``p``, truncated at ``cap`` and at the references
    still owed), its base (uniform in ``[0, high)``), then its writes —
    one draw for the whole run with ``run_level_writes``, else one per
    reference.  Per-reference draws are staged through a bounded float64
    buffer with ``rng.random(out=...)``, which consumes the generator
    exactly as ``rng.random(length)`` does, so the batch is the same
    stream as drawing the runs one array at a time.

    Returns (lengths, bases, writes): int64 per run, int64 per run, and
    one bool per reference in run order.
    """
    geometric, integers, random = rng.geometric, rng.integers, rng.random
    runs: list[int] = []
    bases: list[int] = []
    flags: list[bool] = []
    writes = np.empty(0 if run_level_writes else total, dtype=bool)
    staged = np.empty(0 if run_level_writes else min(total, max(cap, _DRAW_BUFFER)))
    flushed = fill = 0
    remaining = total
    while remaining > 0:
        run = min(int(geometric(p)), remaining, cap)
        runs.append(run)
        bases.append(int(integers(0, high)))
        if run_level_writes:
            flags.append(random() < write_prob)
        else:
            if fill + run > staged.size:
                np.less(staged[:fill], write_prob, out=writes[flushed:flushed + fill])
                flushed += fill
                fill = 0
            random(out=staged[fill:fill + run])
            fill += run
        remaining -= run
    lengths = np.array(runs, dtype=np.int64)
    if run_level_writes:
        writes = np.repeat(np.array(flags, dtype=bool), lengths)
    else:
        np.less(staged[:fill], write_prob, out=writes[flushed:])
    return lengths, np.array(bases, dtype=np.int64), writes


def run_starts(lengths: np.ndarray) -> np.ndarray:
    """Index of each run's first reference when the runs are laid end to end."""
    return np.cumsum(lengths) - lengths


def run_positions(lengths: np.ndarray, total: int) -> np.ndarray:
    """Position of every reference within its run (0 at each run start)."""
    return np.arange(total) - np.repeat(run_starts(lengths), lengths)
