"""Dynamic placement: migration of threads toward their sharing partners.

The paper's placements are static; on a tiered machine a bad static
split keeps paying the remote tier for the whole run.  This module adds
the natural dynamic policy: every ``interval_quanta`` scheduling quanta,
find the cross-group processor pair that exchanged the most coherence
traffic since the last check and migrate one thread across so the pair
shares a group, charging the migrant a cache-flush penalty.

**Policy** (all rules deterministic; journaled per migration):

* *When*: after every ``interval_quanta``-th global scheduling quantum,
  until ``max_migrations`` have been performed.
* *Which pair*: the cross-group processor pair with the largest pairwise
  coherence-traffic delta (both directions summed) over the window; ties
  fall to the lowest processor-id pair.  Zero delta → no migration.
* *Which thread*: from the pair's endpoint with more live threads (tie:
  the higher pid), the live thread with the most references remaining
  (tie: lowest thread id).  The endpoint's *currently scheduled* context
  never migrates — it may be mid-quantum in the scheduler's view.
* *Where to*: the other endpoint itself when it has a free hardware
  context, else the least-loaded processor of its group with one (tie:
  lowest pid); when the whole group is full the reverse direction is
  tried, and when both fail the window produces no migration.
* *Cost*: the migrant becomes ready at
  ``max(its ready time, both endpoints' clocks) + flush_penalty_cycles``
  — the pipeline-drain plus cold-cache surrogate.  Its cache blocks stay
  behind and flow to the new processor through ordinary coherence
  misses, so the cold-start cost is modeled by the machine itself.

**Mechanics.**  The vacated hardware-context slot is replaced by a done
placeholder, so every other context keeps its slot index and the
round-robin order is untouched; the migrant is appended to the
destination's context list (a fresh, highest-numbered slot).  A
destination that had already finished is re-activated and re-enters the
scheduler.  The processor schedules over "live slots in ascending
order" (its ``_alive`` list, which the move keeps in step), and
:func:`repro.topo.oracle.reference_migrate` re-derives the whole thing
over the naive reference interpreter (pinned by ``tests/topo/``).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from repro.arch.config import ArchConfig
from repro.arch.simulator import _build_machine, _collect_result, _run_quanta
from repro.arch.stats import SimulationResult
from repro.placement.base import PlacementMap
from repro.trace.stream import TraceSet
from repro.util.validate import check_positive

__all__ = [
    "MigrationEvent",
    "MigrationPolicy",
    "MigrationRun",
    "simulate_migrating",
]


@dataclass(frozen=True)
class MigrationPolicy:
    """When, how often, and at what cost threads may migrate.

    Attributes:
        interval_quanta: Global scheduling quanta between migration
            checks.
        flush_penalty_cycles: Cycles the migrant stalls to model the
            pipeline drain and cache flush of a migration.
        max_migrations: Hard cap on migrations per run (0 disables).
    """

    interval_quanta: int = 64
    flush_penalty_cycles: int = 200
    max_migrations: int = 32

    def __post_init__(self) -> None:
        check_positive("interval_quanta", self.interval_quanta)
        if self.flush_penalty_cycles < 0:
            raise ValueError("flush_penalty_cycles must be >= 0")
        if self.max_migrations < 0:
            raise ValueError("max_migrations must be >= 0")


@dataclass(frozen=True)
class MigrationEvent:
    """One journaled migration: who moved, where, and why."""

    quantum: int      #: global quantum count at the decision point
    thread_id: int    #: the migrant
    source: int       #: processor vacated
    dest: int         #: processor joined
    traffic: int      #: the triggering pair's window traffic delta


@dataclass(frozen=True)
class MigrationRun:
    """A migrating simulation's result plus its migration journal."""

    result: SimulationResult
    events: tuple[MigrationEvent, ...]


class _GhostContext:
    """Placeholder for a vacated context slot: permanently done.

    Keeps every remaining context's slot index (and therefore the
    round-robin order) exactly as it was; the scheduler skips done
    contexts, so a ghost is never run.
    """

    __slots__ = ("thread_id", "pos", "length", "ready_time", "done")

    def __init__(self, thread_id: int) -> None:
        self.thread_id = thread_id
        self.pos = 0
        self.length = 0
        self.ready_time = 0
        self.done = True


def _live_slots(proc) -> list[int]:
    return [i for i, c in enumerate(proc.contexts) if not c.done]


def _pick_migrant(proc) -> int | None:
    """The live non-current slot with the most references remaining
    (tie: lowest thread id), or None."""
    best: tuple[int, int] | None = None
    best_slot = None
    for slot in _live_slots(proc):
        if slot == proc.current:
            continue
        context = proc.contexts[slot]
        key = (-(context.length - context.pos), context.thread_id)
        if best is None or key < best:
            best = key
            best_slot = slot
    return best_slot


def _pick_dest(processors, endpoint: int, group_size: int,
               capacity: int) -> int | None:
    """The endpoint itself if it has a free context, else the
    least-loaded processor of its group with one (tie: lowest pid)."""
    if len(_live_slots(processors[endpoint])) < capacity:
        return endpoint
    group = endpoint // group_size
    best = None
    for pid in range(group * group_size, (group + 1) * group_size):
        live = len(_live_slots(processors[pid]))
        if live < capacity and (best is None or live < best[0]):
            best = (live, pid)
    return best[1] if best is not None else None


def choose_migration(
    processors, delta: np.ndarray, *, group_size: int, capacity: int,
) -> tuple[int, int, int, int] | None:
    """Apply the policy's pair/thread/destination rules to one window.

    Returns ``(source_pid, slot, dest_pid, traffic)`` or None when the
    window warrants no migration.  Pure decision — the caller performs
    the move; the oracle mirror re-derives the same rules independently
    (see :mod:`repro.topo.oracle`).
    """
    p = delta.shape[0]
    traffic = delta + delta.T
    best_pair = None
    best_traffic = 0
    for i in range(p):
        for j in range(i + 1, p):
            if i // group_size == j // group_size:
                continue
            t = int(traffic[i, j])
            if t > best_traffic:
                best_traffic = t
                best_pair = (i, j)
    if best_pair is None:
        return None
    i, j = best_pair
    # Source = the endpoint with more live threads (tie: higher pid).
    a_live = len(_live_slots(processors[i]))
    b_live = len(_live_slots(processors[j]))
    order = [(i, j), (j, i)] if (a_live, i) > (b_live, j) else [(j, i), (i, j)]
    for source, toward in order:
        slot = _pick_migrant(processors[source])
        if slot is None:
            continue
        dest = _pick_dest(processors, toward, group_size, capacity)
        if dest is None or dest == source:
            continue
        return source, slot, dest, best_traffic
    return None


def apply_migration(processors, heap, source: int, slot: int, dest: int,
                    flush_penalty: int) -> int:
    """Move one context between processors (ghost-slot mechanics).

    Returns the migrant's thread id.  ``heap`` is the driver's scheduling
    heap; a finished destination is re-activated onto it.
    """
    src = processors[source]
    dst = processors[dest]
    context = src.contexts[slot]
    src.contexts[slot] = _GhostContext(context.thread_id)
    src._alive.remove(slot)
    dst.contexts.append(context)
    dst._alive.append(len(dst.contexts) - 1)
    context.ready_time = (
        max(context.ready_time, src.time, dst.time) + flush_penalty
    )
    if dst.finished:
        dst.finished = False
        heapq.heappush(heap, (dst.time, dst.pid))
    return context.thread_id


def simulate_migrating(
    trace_set: TraceSet,
    placement: PlacementMap,
    config: ArchConfig,
    *,
    policy: MigrationPolicy | None = None,
    quantum_refs: int = 256,
    probe=None,
) -> MigrationRun:
    """Simulate with the dynamic migration policy enabled.

    Same validation and machine as :func:`repro.arch.simulator.simulate`;
    the returned :class:`MigrationRun` carries the ordinary result plus
    the ordered migration journal.  On a flat machine
    (``config.topology`` absent or single-group) no pair is ever
    cross-group, so no migration fires and the result is bit-identical to
    the static simulation.
    """
    if policy is None:
        policy = MigrationPolicy()
    check_positive("quantum_refs", quantum_refs)
    processors, caches, directory = _build_machine(
        trace_set, placement, config, probe)

    p = config.num_processors
    topology = config.topology
    groups = topology.groups if topology is not None else 1
    group_size = p // groups
    pairwise = directory.pairwise

    quanta = 0
    remaining = policy.max_migrations
    window_base = pairwise.copy()
    events: list[MigrationEvent] = []

    def after_quantum(heap, pid):
        nonlocal quanta, remaining, window_base
        quanta += 1
        if (groups > 1 and remaining > 0
                and quanta % policy.interval_quanta == 0):
            choice = choose_migration(
                processors, pairwise - window_base,
                group_size=group_size,
                capacity=config.contexts_per_processor,
            )
            if choice is not None:
                source, slot, dest, traffic = choice
                tid = apply_migration(
                    processors, heap, source, slot, dest,
                    policy.flush_penalty_cycles,
                )
                events.append(MigrationEvent(
                    quantum=quanta, thread_id=tid,
                    source=source, dest=dest, traffic=traffic,
                ))
                remaining -= 1
            window_base = pairwise.copy()

    _run_quanta(processors, quantum_refs, probe, after_quantum)

    result = _collect_result(trace_set, processors, caches, directory)
    return MigrationRun(result=result, events=tuple(events))
