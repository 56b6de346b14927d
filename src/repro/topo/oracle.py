"""Reference interpreter for migrating simulations.

:func:`reference_migrate` is to :func:`repro.topo.migration.simulate_migrating`
what :func:`repro.oracle.reference.reference_simulate` is to
:func:`repro.arch.simulator.simulate`: a deliberately naive re-derivation
over the reference machine model (history caches, dict directory,
one-reference-at-a-time replay) that the differential tier pins
bit-for-bit against the production kernel — execution time, every
counter, the pairwise matrix, *and* the migration journal.

The migration policy's rules (documented in
:mod:`repro.topo.migration`) are re-implemented here from their prose
specification with plain loops — never by calling the production
chooser — so a bookkeeping bug in either implementation shows up as a
differential mismatch rather than being shared.
"""

from __future__ import annotations

import numpy as np

from repro.arch.config import ArchConfig
from repro.arch.stats import SimulationResult
from repro.oracle.reference import (
    _Context,
    _HistoryCache,
    _HistoryDirectory,
    _RefProcessor,
)
from repro.placement.base import PlacementMap
from repro.topo.migration import MigrationEvent, MigrationPolicy, MigrationRun
from repro.trace.stream import TraceSet
from repro.util.validate import check_positive

__all__ = ["reference_migrate"]


class _DoneSlot:
    """A vacated context slot: permanently done, never scheduled."""

    def __init__(self, thread_id: int) -> None:
        self.thread_id = thread_id
        self.pos = 0
        self.length = 0
        self.ready_time = 0
        self.done = True


def _live(proc: _RefProcessor) -> list[int]:
    return [i for i, c in enumerate(proc.contexts) if not c.done]


def _naive_choice(
    processors: list[_RefProcessor],
    delta: np.ndarray,
    group_size: int,
    capacity: int,
) -> tuple[int, int, int, int] | None:
    """The policy's pair/thread/destination rules, re-derived naively."""
    p = len(processors)
    # Hottest cross-group pair; strict > keeps the lowest pair on ties.
    best_pair = None
    best_traffic = 0
    for i in range(p):
        for j in range(i + 1, p):
            if i // group_size == j // group_size:
                continue
            t = int(delta[i, j]) + int(delta[j, i])
            if t > best_traffic:
                best_traffic = t
                best_pair = (i, j)
    if best_pair is None:
        return None
    i, j = best_pair

    def migrant_of(pid: int) -> int | None:
        proc = processors[pid]
        best_slot = None
        best_key = None
        for slot in _live(proc):
            if slot == proc.current:
                continue
            c = proc.contexts[slot]
            key = (-(c.length - c.pos), c.thread_id)
            if best_key is None or key < best_key:
                best_key = key
                best_slot = slot
        return best_slot

    def dest_near(pid: int) -> int | None:
        if len(_live(processors[pid])) < capacity:
            return pid
        group = pid // group_size
        chosen = None
        for cand in range(group * group_size, (group + 1) * group_size):
            live = len(_live(processors[cand]))
            if live < capacity and (chosen is None or live < chosen[0]):
                chosen = (live, cand)
        return chosen[1] if chosen is not None else None

    # Source = the endpoint with more live threads (tie: higher pid);
    # fall back to the reverse direction if that side cannot move.
    a_live = len(_live(processors[i]))
    b_live = len(_live(processors[j]))
    if (a_live, i) > (b_live, j):
        order = [(i, j), (j, i)]
    else:
        order = [(j, i), (i, j)]
    for source, toward in order:
        slot = migrant_of(source)
        if slot is None:
            continue
        dest = dest_near(toward)
        if dest is None or dest == source:
            continue
        return source, slot, dest, best_traffic
    return None


def reference_migrate(
    trace_set: TraceSet,
    placement: PlacementMap,
    config: ArchConfig,
    *,
    policy: MigrationPolicy | None = None,
    quantum_refs: int = 256,
) -> MigrationRun:
    """Replay a migrating simulation on the reference machine model.

    Same contract as :func:`repro.topo.migration.simulate_migrating`;
    the differential tier asserts the two agree exactly, journal
    included.
    """
    if policy is None:
        policy = MigrationPolicy()
    check_positive("quantum_refs", quantum_refs)
    if placement.num_threads != trace_set.num_threads:
        raise ValueError(
            f"placement covers {placement.num_threads} threads, trace set "
            f"has {trace_set.num_threads}"
        )
    if placement.num_processors != config.num_processors:
        raise ValueError(
            f"placement targets {placement.num_processors} processors, "
            f"config has {config.num_processors}"
        )

    p = config.num_processors
    topology = config.topology
    groups = topology.groups if topology is not None else 1
    group_size = p // groups
    pairwise = np.zeros((p, p), dtype=np.int64)
    caches = [
        _HistoryCache(config.num_sets, config.associativity) for _ in range(p)
    ]
    directory = _HistoryDirectory(caches, pairwise, config)
    processors: list[_RefProcessor] = []
    for pid in range(p):
        contexts = []
        for tid in placement.threads_on(pid):
            trace = trace_set[tid]
            refs = [
                (int(gap), int(addr) >> config.block_bits, bool(write))
                for gap, addr, write in zip(
                    trace.gaps, trace.addrs, trace.writes)
            ]
            contexts.append(_Context(tid, refs))
        if len(contexts) > config.contexts_per_processor:
            raise ValueError(
                f"processor {pid} was assigned {len(contexts)} threads but "
                f"has only {config.contexts_per_processor} hardware contexts"
            )
        processors.append(
            _RefProcessor(pid, config, caches[pid], directory, contexts)
        )

    active = {proc.pid: proc for proc in processors if not proc.finished}
    quanta = 0
    remaining = policy.max_migrations
    window_base = pairwise.copy()
    events: list[MigrationEvent] = []
    while active:
        proc = min(
            active.values(), key=lambda cand: (cand.time, cand.pid)
        )
        if not proc.run_quantum(quantum_refs):
            del active[proc.pid]
        quanta += 1
        if (groups > 1 and remaining > 0
                and quanta % policy.interval_quanta == 0):
            choice = _naive_choice(
                processors, pairwise - window_base, group_size,
                config.contexts_per_processor,
            )
            if choice is not None:
                source, slot, dest, traffic = choice
                src, dst = processors[source], processors[dest]
                context = src.contexts[slot]
                src.contexts[slot] = _DoneSlot(context.thread_id)
                dst.contexts.append(context)
                context.ready_time = (
                    max(context.ready_time, src.time, dst.time)
                    + policy.flush_penalty_cycles
                )
                if dst.finished:
                    dst.finished = False
                    active[dst.pid] = dst
                events.append(MigrationEvent(
                    quantum=quanta, thread_id=context.thread_id,
                    source=source, dest=dest, traffic=traffic,
                ))
                remaining -= 1
            window_base = pairwise.copy()

    result = SimulationResult(
        execution_time=max(proc.stats.completion_time for proc in processors),
        processors=[proc.stats for proc in processors],
        caches=[cache.stats for cache in caches],
        interconnect=directory.stats,
        pairwise_coherence=pairwise,
        total_refs=trace_set.total_refs,
    )
    return MigrationRun(result=result, events=tuple(events))
