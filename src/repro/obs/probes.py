"""Simulator probes: cheap, default-off counters inside the replay engines.

A :class:`SimProbe` is a bag of plain integer slots the simulator bumps
at four *event* sites — scheduling-quantum boundaries, cache-miss
classifications, directory upgrades that actually send invalidations,
and context switches.  The contract with the hot path:

* every site is gated by a single ``if <probe> is not None`` test on an
  attribute that defaults to None, so the disabled path pays one
  attribute load and branch *per event* (never per reference — the hit
  loops are untouched; see ``benchmarks/bench_obs_overhead.py`` for the
  measured bound);
* probes observe, never steer: a probed simulation is bit-for-bit
  identical to an unprobed one (pinned by
  ``tests/obs/test_probes.py``), and the counters themselves are
  engine-invariant — classic and fast replay report the same numbers,
  because upgrades are counted only when invalidations are actually
  sent (the one site the fast kernel provably skips no-ops at).

Probe counters cross process boundaries as flat dicts: the engine
worker stashes :meth:`SimProbe.snapshot` via :func:`stash_pending`, the
coordinator pops it with :func:`take_pending` from the job's result
payload and merges it into the run's metrics registry.
"""

from __future__ import annotations

from repro.arch.stats import MissKind

__all__ = ["SimProbe", "stash_pending", "take_pending"]

#: Flat counter names for the four miss classes (stable metric names).
_MISS_NAMES = {
    MissKind.COMPULSORY: "sim_miss_compulsory",
    MissKind.INTRA_THREAD_CONFLICT: "sim_miss_intra_conflict",
    MissKind.INTER_THREAD_CONFLICT: "sim_miss_inter_conflict",
    MissKind.INVALIDATION: "sim_miss_invalidation",
}


class SimProbe:
    """Event counters one simulation run fills in (single-threaded)."""

    __slots__ = ("quanta", "switches", "upgrades", "misses", "cells",
                 "spec_attempts", "spec_hits")

    def __init__(self) -> None:
        self.quanta = 0      #: scheduling quanta executed
        self.switches = 0    #: context switches paid
        self.upgrades = 0    #: directory upgrades that sent invalidations
        self.misses = {kind: 0 for kind in MissKind}
        self.cells = 0       #: simulations observed (bumped by simulate())
        # Result-memo outcomes (bumped by the experiment suite, not the
        # replay loop): memo consultations, and cells answered by a copy
        # of an identical-placement result instead of a replay.  With the
        # memo the sim_* event counters above cover only the work
        # actually replayed — the gap to a memo-off run is what hits saved.
        self.spec_attempts = 0
        self.spec_hits = 0

    def snapshot(self) -> dict[str, int]:
        """Flat ``{metric_name: count}`` view (ships between processes)."""
        out = {
            "sim_cells": self.cells,
            "sim_quanta": self.quanta,
            "sim_context_switches": self.switches,
            "sim_directory_upgrades": self.upgrades,
        }
        for kind, name in _MISS_NAMES.items():
            out[name] = self.misses[kind]
        out["sim_misses_total"] = sum(self.misses.values())
        out["sim_spec_attempts"] = self.spec_attempts
        out["sim_spec_hits"] = self.spec_hits
        return out

    def merge(self, other: "SimProbe") -> None:
        """Accumulate another probe's counts into this one."""
        self.quanta += other.quanta
        self.switches += other.switches
        self.upgrades += other.upgrades
        self.cells += other.cells
        self.spec_attempts += other.spec_attempts
        self.spec_hits += other.spec_hits
        for kind in MissKind:
            self.misses[kind] += other.misses[kind]

    def __repr__(self) -> str:
        return (
            f"SimProbe(cells={self.cells}, quanta={self.quanta}, "
            f"switches={self.switches}, upgrades={self.upgrades}, "
            f"misses={sum(self.misses.values())})"
        )


# ----------------------------------------------------------------------
# Worker -> coordinator hand-off
# ----------------------------------------------------------------------

#: Snapshot the current job's runner left for the invoke harness to ship.
_PENDING: dict | None = None


def stash_pending(snapshot: dict) -> None:
    """Deposit a probe snapshot for the engine's invoke harness to pick
    up and attach to the job's result payload (worker side)."""
    global _PENDING
    _PENDING = snapshot


def take_pending() -> dict | None:
    """Pop the snapshot the job runner stashed, if any (invoke harness)."""
    global _PENDING
    snapshot, _PENDING = _PENDING, None
    return snapshot
