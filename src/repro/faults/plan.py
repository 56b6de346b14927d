"""Deterministic fault plans: what to break, where, and how many times.

A :class:`FaultPlan` is a parsed schedule of :class:`FaultSpec`\\ s.  Each
spec names a *kind* of failure, the injection *site* it strikes, and
selectors narrowing when it fires:

========== ==================== =========================================
kind       valid sites          effect
========== ==================== =========================================
crash      worker               ``os._exit(13)`` — a hard worker death
error      worker               raise :class:`InjectedFault` in the job
hang       worker               sleep ``secs`` (default 3600) mid-job
disk-full  store, artifact      raise ``OSError(ENOSPC)`` before writing
corrupt    store                overwrite bytes of the committed entry
truncate   store                cut the committed entry in half
torn       journal              write half a journal line, then
                                ``os._exit(17)`` — a killed coordinator
node-crash node                 ``os._exit(23)`` — a whole worker *node*
                                dying mid-batch (distributed runs)
node-hang  node                 sleep ``secs`` in the node's batch
                                executor — a wedged node the liveness
                                watchdog must declare dead
partition  link                 raise ``ConnectionError`` on the next
                                coordinator→node request(s) — a network
                                partition that heals after ``times``
split-journal journal           write half a journal line, flush it, then
                                heal in place and continue — a journal
                                torn mid-append under a live tailer
========== ==================== =========================================

Selectors:

* ``job=SUBSTR`` — fire only when the site's context string (job label,
  job id, or artifact filename) contains ``SUBSTR``.  Scheduling-
  independent: the same cell is struck no matter which worker runs it.
* ``nth=K`` — fire on the K-th invocation of the site *within one
  process* (counters are per-process; deterministic for coordinator-only
  sites like ``journal``, or for single-worker runs).
* ``times=N`` — fire at most N times in total (default 1), counted
  across processes and runs through the ledger.
* ``secs=X`` — hang duration (hang faults only).

**The ledger** makes chaos runs convergent: every firing appends the
fault's id to a shared ledger file *before* the damage is done (O_APPEND
+ fsync, so even ``os._exit`` faults are recorded).  A fault whose ledger
count has reached ``times`` never fires again — so rerunning the same
command with ``--resume`` strictly drains the schedule and terminates.

Spec grammar (the ``--inject-faults`` argument)::

    SPEC   := FAULT (';' FAULT)*
    FAULT  := KIND ':' SITE (':' PARAM (',' PARAM)*)?
    PARAM  := KEY '=' VALUE

or ``random:seed=S[,count=N]`` for a seeded schedule drawn from the whole
fault vocabulary.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field
from pathlib import Path

__all__ = [
    "CRASH_EXIT_CODE",
    "NODE_CRASH_EXIT_CODE",
    "TORN_EXIT_CODE",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "parse_fault_spec",
    "random_fault_spec",
]

#: Exit code of an injected worker crash (``crash`` faults).
CRASH_EXIT_CODE = 13
#: Exit code of an injected coordinator death mid-journal-line (``torn``).
TORN_EXIT_CODE = 17
#: Exit code of an injected worker-node death (``node-crash`` faults).
NODE_CRASH_EXIT_CODE = 23

#: kind -> sites it may strike.
_VALID_SITES: dict[str, frozenset[str]] = {
    "crash": frozenset({"worker"}),
    "error": frozenset({"worker"}),
    "hang": frozenset({"worker"}),
    "disk-full": frozenset({"store", "artifact"}),
    "corrupt": frozenset({"store"}),
    "truncate": frozenset({"store"}),
    "torn": frozenset({"journal"}),
    "node-crash": frozenset({"node"}),
    "node-hang": frozenset({"node"}),
    "partition": frozenset({"link"}),
    "split-journal": frozenset({"journal"}),
}

_PARAM_KEYS = frozenset({"job", "nth", "times", "secs"})


class InjectedFault(RuntimeError):
    """The exception an ``error`` fault raises inside a job."""


@dataclass(frozen=True)
class FaultSpec:
    """One planned fault (see the module docstring for semantics)."""

    kind: str
    site: str
    job: str | None = None      #: substring match against the context
    nth: int | None = None      #: fire on the K-th site invocation
    times: int = 1              #: total firings allowed (via the ledger)
    secs: float = 3600.0        #: hang duration

    def __post_init__(self) -> None:
        sites = _VALID_SITES.get(self.kind)
        if sites is None:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; "
                f"expected one of {sorted(_VALID_SITES)}"
            )
        if self.site not in sites:
            raise ValueError(
                f"fault kind {self.kind!r} cannot strike site "
                f"{self.site!r}; valid sites: {sorted(sites)}"
            )
        if self.nth is not None and self.nth < 1:
            raise ValueError(f"nth must be >= 1, got {self.nth}")
        if self.times < 1:
            raise ValueError(f"times must be >= 1, got {self.times}")
        if self.secs <= 0:
            raise ValueError(f"secs must be > 0, got {self.secs}")

    @property
    def fault_id(self) -> str:
        """Canonical id: the re-serialized spec (the ledger's unit)."""
        params = []
        if self.job is not None:
            params.append(f"job={self.job}")
        if self.nth is not None:
            params.append(f"nth={self.nth}")
        if self.times != 1:
            params.append(f"times={self.times}")
        if self.kind in ("hang", "node-hang") and self.secs != 3600.0:
            params.append(f"secs={self.secs:g}")
        suffix = f":{','.join(params)}" if params else ""
        return f"{self.kind}:{self.site}{suffix}"

    def matches(self, context: str | None, invocation: int) -> bool:
        """Whether the selectors accept this site invocation."""
        if self.job is not None and self.job not in (context or ""):
            return False
        if self.nth is not None and invocation != self.nth:
            return False
        return True


def _parse_fault(text: str) -> FaultSpec:
    pieces = text.split(":", 2)
    if len(pieces) < 2:
        raise ValueError(
            f"malformed fault {text!r}: expected KIND:SITE[:PARAMS]"
        )
    kind, site = pieces[0].strip(), pieces[1].strip()
    params: dict[str, object] = {}
    if len(pieces) == 3 and pieces[2].strip():
        for pair in pieces[2].split(","):
            if "=" not in pair:
                raise ValueError(
                    f"malformed fault parameter {pair!r} in {text!r}: "
                    "expected KEY=VALUE"
                )
            key, value = pair.split("=", 1)
            key = key.strip()
            if key not in _PARAM_KEYS:
                raise ValueError(
                    f"unknown fault parameter {key!r} in {text!r}; "
                    f"expected one of {sorted(_PARAM_KEYS)}"
                )
            if key in ("nth", "times"):
                params[key] = int(value)
            elif key == "secs":
                params[key] = float(value)
            else:
                params[key] = value
    return FaultSpec(kind=kind, site=site, **params)


def random_fault_spec(seed: int, count: int = 4) -> str:
    """A seeded schedule drawn from the whole fault vocabulary.

    Deterministic in ``seed``: the CI chaos job and a local repro of a
    red build parse to the identical plan.
    """
    rng = random.Random(seed)
    faults = []
    for _ in range(max(1, count)):
        template = rng.choice([
            lambda: f"crash:worker:nth={rng.randint(1, 8)}",
            lambda: (f"error:worker:nth={rng.randint(1, 8)},"
                     f"times={rng.randint(1, 3)}"),
            lambda: f"hang:worker:nth={rng.randint(1, 4)},secs=120",
            lambda: f"corrupt:store:nth={rng.randint(1, 10)}",
            lambda: f"truncate:store:nth={rng.randint(1, 10)}",
            lambda: f"disk-full:store:nth={rng.randint(1, 10)}",
            lambda: f"torn:journal:nth={rng.randint(5, 40)}",
        ])
        faults.append(template())
    return ";".join(faults)


def parse_fault_spec(spec: str) -> list[FaultSpec]:
    """Parse a ``--inject-faults`` argument into fault specs.

    Raises:
        ValueError: On any malformed fault, unknown kind/site/parameter,
            or out-of-range value — with a one-line message suitable for
            a CLI error.
    """
    spec = spec.strip()
    if not spec:
        raise ValueError("empty fault spec")
    if spec.startswith("random:"):
        params = dict(
            pair.split("=", 1) for pair in spec[len("random:"):].split(",")
            if "=" in pair
        )
        if "seed" not in params:
            raise ValueError(
                f"malformed random fault spec {spec!r}: expected "
                "random:seed=S[,count=N]"
            )
        spec = random_fault_spec(int(params["seed"]),
                                 int(params.get("count", 4)))
    return [_parse_fault(part) for part in spec.split(";") if part.strip()]


class FaultPlan:
    """A parsed fault schedule plus its firing ledger.

    The plan is consulted at every injection point (see
    :mod:`repro.faults`); with no matching fault the check is a dict
    lookup and an integer increment.  Invocation counters are
    per-process; the ledger file is shared across processes and runs.
    """

    def __init__(self, faults: list[FaultSpec],
                 ledger: str | Path | None = None) -> None:
        self.faults = list(faults)
        self.ledger = Path(ledger) if ledger is not None else None
        self._by_site: dict[str, list[FaultSpec]] = {}
        for fault in self.faults:
            self._by_site.setdefault(fault.site, []).append(fault)
        self._invocations: dict[str, int] = {}

    @classmethod
    def from_spec(cls, spec: str,
                  ledger: str | Path | None = None) -> "FaultPlan":
        return cls(parse_fault_spec(spec), ledger)

    # -- ledger ---------------------------------------------------------

    def _ledger_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        if self.ledger is None or not self.ledger.exists():
            return counts
        for line in self.ledger.read_text(encoding="utf-8").splitlines():
            line = line.strip()
            if line:
                counts[line] = counts.get(line, 0) + 1
        return counts

    def _record_firing(self, fault: FaultSpec) -> None:
        """Append the firing *durably* before the damage is done.

        O_APPEND keeps concurrent writers (coordinator + workers) from
        interleaving within a line; the fsync makes the record survive
        the ``os._exit`` that may follow immediately.
        """
        if self.ledger is None:
            # In-memory fallback: track in the invocation map so
            # ledgerless plans still honor ``times`` within a process.
            key = f"fired::{fault.fault_id}"
            self._invocations[key] = self._invocations.get(key, 0) + 1
            return
        self.ledger.parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(self.ledger, os.O_WRONLY | os.O_APPEND | os.O_CREAT,
                     0o644)
        try:
            os.write(fd, (fault.fault_id + "\n").encode("utf-8"))
            os.fsync(fd)
        finally:
            os.close(fd)

    def _spent(self, fault: FaultSpec, counts: dict[str, int]) -> bool:
        if self.ledger is None:
            fired = self._invocations.get(f"fired::{fault.fault_id}", 0)
        else:
            fired = counts.get(fault.fault_id, 0)
        return fired >= fault.times

    # -- selection ------------------------------------------------------

    def pending(
        self,
        site: str,
        context: str | None = None,
        *,
        kinds: frozenset[str] | None = None,
        counter: str | None = None,
    ) -> FaultSpec | None:
        """The first fault due at this site invocation, recorded as fired.

        Advances the injection point's per-process invocation counter,
        checks every fault planned for the site (restricted to ``kinds``,
        the kinds this injection point can act on) against its selectors
        and remaining ``times`` budget, and — when one is due — appends
        it to the ledger and returns it.  Returns None when nothing
        fires.

        ``counter`` separates injection points sharing a site (the store
        counts its pre-write and post-commit hooks independently), so a
        ``nth=K`` selector means "the K-th invocation of *that* hook".
        """
        key = counter or site
        invocation = self._invocations.get(key, 0) + 1
        self._invocations[key] = invocation
        due = self._by_site.get(site)
        if not due:
            return None
        counts = self._ledger_counts()
        for fault in due:
            if kinds is not None and fault.kind not in kinds:
                continue
            if not fault.matches(context, invocation):
                continue
            if self._spent(fault, counts):
                continue
            self._record_firing(fault)
            return fault
        return None

    def remaining(self) -> list[FaultSpec]:
        """Faults with firings left in their ``times`` budget."""
        counts = self._ledger_counts()
        return [f for f in self.faults if not self._spent(f, counts)]

    def describe(self) -> str:
        return "; ".join(f.fault_id for f in self.faults)
