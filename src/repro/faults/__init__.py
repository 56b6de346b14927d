"""Deterministic fault injection for the experiment pipeline.

The chaos harness's contract: the production code carries a handful of
*injection points* — explicit, named call sites in the exec engine, the
result store, the journal and the artifact writers — and this package
decides, from a seeded :class:`~repro.faults.plan.FaultPlan`, whether a
planned fault is due at each one.  No monkeypatching: the same binary
that serves a clean run serves a chaos run, so the chaos tests exercise
the real recovery paths.

The active plan travels through two environment variables —
``REPRO_FAULTS`` (the spec string) and ``REPRO_FAULT_LEDGER`` (the shared
firing ledger) — so spawned worker processes inherit it without any
engine plumbing.  With ``REPRO_FAULTS`` unset every injection point is a
single dict lookup.

Injection points:

* :func:`fire` — process-level faults: ``crash`` / ``error`` / ``hang``
  at site ``worker``; ``disk-full`` at ``store`` / ``artifact``.
* :func:`mangle` — data faults: ``corrupt`` / ``truncate`` a committed
  artifact (simulating bit rot or a torn legacy write the checksums must
  catch).
* :func:`tear` — the ``torn`` fault: write half a journal line, fsync
  it, and die like a SIGKILLed coordinator.
* :func:`fire_node` — node-level faults at site ``node``:
  ``node-crash`` kills the whole worker-node process; ``node-hang``
  wedges its batch executor so the coordinator's liveness watchdog must
  declare it dead.
* :func:`partitioned` — the ``partition`` fault at site ``link``: the
  coordinator's node client treats True as a refused connection, so a
  ``times=N`` schedule models a partition that heals after N requests.
* :func:`split` — the ``split-journal`` fault at site ``journal``: the
  writer tears a line mid-append (half the bytes, flushed, visible to
  any live tailer) and then heals the file in place and keeps going —
  the exact mid-line-truncation-under-follow scenario the cross-node
  journal merge must survive.

See ``docs/ROBUSTNESS.md`` for the failure model and the convergence
property the chaos suite enforces; ``docs/DISTRIBUTION.md`` covers the
node-level kinds.
"""

from __future__ import annotations

import errno
import os
import time
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Iterator

from repro.faults.plan import (
    CRASH_EXIT_CODE,
    NODE_CRASH_EXIT_CODE,
    TORN_EXIT_CODE,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    parse_fault_spec,
    random_fault_spec,
)

__all__ = [
    "CRASH_EXIT_CODE",
    "NODE_CRASH_EXIT_CODE",
    "TORN_EXIT_CODE",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "active_plan",
    "fire",
    "fire_node",
    "installed",
    "mangle",
    "parse_fault_spec",
    "partitioned",
    "random_fault_spec",
    "split",
    "tear",
]

SPEC_VAR = "REPRO_FAULTS"
LEDGER_VAR = "REPRO_FAULT_LEDGER"

#: Deterministic garbage written by ``corrupt`` faults.
_GARBAGE = b"\xde\xad\xbe\xef" * 4

# Cache: (spec, ledger) -> FaultPlan, so counters persist across calls
# within a process while env changes (tests) rebuild the plan.
_cached_key: tuple[str, str] | None = None
_cached_plan: FaultPlan | None = None


def active_plan() -> FaultPlan | None:
    """The plan configured in the environment, or None (the fast path)."""
    global _cached_key, _cached_plan
    spec = os.environ.get(SPEC_VAR)
    if not spec:
        _cached_key = _cached_plan = None
        return None
    ledger = os.environ.get(LEDGER_VAR, "")
    key = (spec, ledger)
    if key != _cached_key:
        _cached_plan = FaultPlan.from_spec(spec, ledger or None)
        _cached_key = key
    return _cached_plan


@contextmanager
def installed(spec: str, ledger: str | Path | None = None) -> Iterator[FaultPlan]:
    """Activate a fault plan for the duration of a ``with`` block.

    Sets the environment variables (so spawned workers inherit the plan)
    and resets the per-process cache on exit.  Test-suite sugar; the CLI
    sets the variables directly.
    """
    global _cached_key, _cached_plan
    previous = {var: os.environ.get(var) for var in (SPEC_VAR, LEDGER_VAR)}
    os.environ[SPEC_VAR] = spec
    if ledger is not None:
        os.environ[LEDGER_VAR] = str(ledger)
    else:
        os.environ.pop(LEDGER_VAR, None)
    _cached_key = _cached_plan = None
    try:
        plan = active_plan()
        assert plan is not None
        yield plan
    finally:
        for var, value in previous.items():
            if value is None:
                os.environ.pop(var, None)
            else:
                os.environ[var] = value
        _cached_key = _cached_plan = None


def fire(site: str, context: str | None = None) -> None:
    """Trigger any process-level fault due at this site invocation.

    ``crash`` calls ``os._exit``; ``error`` raises
    :class:`InjectedFault`; ``hang`` sleeps; ``disk-full`` raises
    ``OSError(ENOSPC)``.  No-op (one dict lookup) without an active plan.
    """
    plan = active_plan()
    if plan is None:
        return
    fault = plan.pending(
        site, context,
        kinds=frozenset({"crash", "error", "hang", "disk-full"}),
    )
    if fault is None:
        return
    if fault.kind == "crash":
        os._exit(CRASH_EXIT_CODE)
    if fault.kind == "error":
        raise InjectedFault(
            f"injected fault {fault.fault_id} at {context or site}"
        )
    if fault.kind == "hang":
        time.sleep(fault.secs)
        return
    if fault.kind == "disk-full":
        raise OSError(
            errno.ENOSPC,
            f"No space left on device (injected {fault.fault_id})",
        )


def mangle(site: str, path: str | Path, context: str | None = None) -> bool:
    """Corrupt or truncate a committed artifact if a data fault is due.

    Returns True if the file was damaged.  This simulates what the
    hardened loaders must survive: bit rot, or a partial write left by an
    unhardened writer — the store entry's sha256 trailer catches either.
    """
    plan = active_plan()
    if plan is None:
        return False
    path = Path(path)
    fault = plan.pending(
        site, context if context is not None else path.name,
        kinds=frozenset({"corrupt", "truncate"}), counter=f"{site}#data",
    )
    if fault is None:
        return False
    size = path.stat().st_size
    if fault.kind == "truncate":
        os.truncate(path, size // 2)
        return True
    with open(path, "r+b") as stream:
        stream.seek(max(0, size // 3))
        stream.write(_GARBAGE)
    return True


def fire_node(context: str | None = None) -> None:
    """Trigger any node-level fault due at this batch execution.

    Consulted by the worker-node server (site ``node``; ``context`` is
    the node name) once per accepted batch.  ``node-crash`` calls
    ``os._exit`` — the whole node process dies, exactly like a machine
    loss, and the coordinator's liveness watchdog must notice and
    re-route the batch.  ``node-hang`` sleeps ``secs`` in the batch
    executor thread, wedging the node without killing it.  No-op (one
    dict lookup) without an active plan.
    """
    plan = active_plan()
    if plan is None:
        return
    fault = plan.pending(
        "node", context, kinds=frozenset({"node-crash", "node-hang"}),
    )
    if fault is None:
        return
    if fault.kind == "node-crash":
        os._exit(NODE_CRASH_EXIT_CODE)
    time.sleep(fault.secs)


def partitioned(context: str | None = None) -> bool:
    """Whether an injected ``partition`` fault severs this request.

    The coordinator's node client consults this (site ``link``;
    ``context`` is ``"node-name METHOD /path"``) before every request
    and treats True exactly like a refused connection.  A ``times=N``
    schedule therefore models a partition that heals after N requests —
    the retry/re-route layers must ride it out.  No-op without a plan.
    """
    plan = active_plan()
    if plan is None:
        return False
    return plan.pending(
        "link", context, kinds=frozenset({"partition"}),
        counter="link#partition",
    ) is not None


def split(site: str, line: str, stream: IO[str]) -> bool:
    """Tear a journal line mid-append, leaving the writer alive.

    When a ``split-journal`` fault is due, writes the first half of
    ``line`` with no newline and flushes it — so a concurrent tailer
    really observes the torn tail — then returns True.  The caller
    (:meth:`repro.exec.journal.RunJournal.record`) heals the file back
    to a line boundary and appends the full line, modelling a journal
    segment torn by a dying writer whose successor recovers it in
    place.  Returns False (one dict lookup) when nothing fires.
    """
    plan = active_plan()
    if plan is None:
        return False
    fault = plan.pending(site, line, kinds=frozenset({"split-journal"}),
                         counter=f"{site}#split")
    if fault is None:
        return False
    stream.write(line[: max(1, len(line) // 2)])
    stream.flush()
    try:
        os.fsync(stream.fileno())
    except OSError:
        pass
    return True


def tear(site: str, line: str, stream: IO[str]) -> None:
    """Die mid-line if a ``torn`` fault is due (torn-journal injection).

    Writes the first half of ``line`` to ``stream`` with no newline,
    flushes and fsyncs it so the torn tail really reaches the file, then
    ``os._exit`` — byte-for-byte what a coordinator killed mid-append
    leaves behind.
    """
    plan = active_plan()
    if plan is None:
        return
    fault = plan.pending(site, line, kinds=frozenset({"torn"}))
    if fault is None:
        return
    stream.write(line[: max(1, len(line) // 2)])
    stream.flush()
    try:
        os.fsync(stream.fileno())
    except OSError:
        pass
    os._exit(TORN_EXIT_CODE)
