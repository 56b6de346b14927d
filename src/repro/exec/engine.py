"""The job execution engine: fan-out, hardening, journaling, resume.

:class:`ExecutionEngine` takes a planned list of
:class:`~repro.exec.jobs.JobSpec`s and completes each one exactly once:

* **Cache first.**  A cell already in the persistent
  :class:`~repro.experiments.cache.ResultStore` is a ``cache-hit``; with
  ``resume=True``, cells a previous run's journal confirms complete are
  ``resumed`` without even decoding them eagerly.
* **Fan-out.**  Remaining jobs run on a ``ProcessPoolExecutor`` with a
  configurable worker count (``workers=1`` executes inline, same code
  path, no pool).  Workers rebuild their own
  :class:`~repro.experiments.runner.ExperimentSuite` from the job's
  (scale, seed, quantum) parameters — results are deterministic by named
  RNG-stream derivation, so parallel and sequential runs are identical.
* **Hardening.**  Each attempt is bounded by a per-job timeout (SIGALRM
  inside the worker, so a runaway job cannot wedge the pool), failed
  attempts are retried with exponential backoff, and a job that exhausts
  its retries degrades to a reported gap — one bad cell never aborts the
  sweep.  A worker process dying outright (``BrokenProcessPool``) causes
  the pool to be rebuilt and in-flight innocents resubmitted.  With
  ``hang_timeout`` set, a coordinator-side **watchdog** additionally
  patrols worker heartbeats and SIGKILLs a worker whose current job has
  outlived the budget — catching hangs SIGALRM cannot (a wedged
  extension, a sleep with the alarm unavailable) — after which the
  normal crash recovery requeues the work.
* **Clean shutdown.**  SIGINT/SIGTERM interrupt the run cooperatively:
  in-flight jobs are journaled as ``interrupted``, the journal is
  flushed and closed (so ``--resume`` retries exactly those cells), and
  ``KeyboardInterrupt`` propagates to the caller.
* **Observability.**  Every transition is recorded in the
  :class:`~repro.exec.journal.RunJournal` and folded into a
  :class:`~repro.exec.summary.RunSummary`.

The worker's job execution, the store's writes and the journal's appends
carry :mod:`repro.faults` injection points, so the chaos suite can strike
any of them deterministically and assert the recovery paths above.

The default per-process suite cache is keyed by (scale, seed, quantum), so
a worker serving many jobs builds each application's traces once — but
never inherits a parent process's memoized ``TraceSet``s: the default
``spawn`` start method gives workers a fresh interpreter.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing as mp
import os
import shutil
import signal
import tempfile
import threading
import time
import traceback
from collections import OrderedDict, deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

from repro import faults
from repro.exec.jobs import JobSpec
from repro.exec.journal import RunJournal
from repro.exec.summary import RunSummary
from repro.experiments.cache import ResultStore, result_from_arrays, result_to_arrays
from repro.util.validate import check_positive

__all__ = ["ExecutionEngine", "JobFailure", "RunReport", "JobTimeout",
           "simulate_cell"]


class JobTimeout(Exception):
    """Raised inside a worker when a job exceeds its time budget."""


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------

#: Per-process suite cache: (scale, seed, quantum_refs, ...) ->
#: ExperimentSuite, least recently used first.  Lives in the worker
#: process; each worker rebuilds traces from the spec once and reuses them
#: across the jobs it serves.  Bounded, because a long-lived service
#: executor or cluster node sees an open-ended stream of distinct
#: (scale, seed) requests and each suite pins its traces, placements and
#: results.
_SUITES: OrderedDict[tuple, object] = OrderedDict()

#: Suites kept per process (the least recently used one is dropped).
_MAX_SUITES = 4


def _suite_for(scale: float, seed: int, quantum_refs: int,
               topology: str | None = None):
    from repro.experiments.runner import ExperimentSuite

    key = (scale, seed, quantum_refs, topology)
    if key in _SUITES:
        _SUITES.move_to_end(key)
    else:
        _SUITES[key] = ExperimentSuite(scale=scale, seed=seed,
                                       quantum_refs=quantum_refs,
                                       topology=topology)
        while len(_SUITES) > _MAX_SUITES:
            _SUITES.popitem(last=False)
    return _SUITES[key]


def simulate_cell(payload: dict) -> dict:
    """The default job runner: simulate one cell, return flattened arrays.

    Returns :func:`~repro.experiments.cache.result_to_arrays` output (plain
    numpy arrays) rather than a rich object, matching the store's explicit
    no-pickle serialization discipline.

    When the payload asks for a probe (a metrics-collecting run), the
    cell simulates under a fresh :class:`~repro.obs.probes.SimProbe`
    whose counters are stashed for :func:`_invoke` to ship back on the
    result channel — the probe observes only; results are bit-for-bit
    identical either way.
    """
    spec = JobSpec.from_payload(payload["spec"])
    suite = _suite_for(spec.scale, spec.seed, spec.quantum_refs,
                       spec.topology)
    probe = None
    if payload.get("probe"):
        from repro.obs.probes import SimProbe, stash_pending

        probe = SimProbe()
    suite.probe = probe
    try:
        result = suite.run(
            spec.app, spec.algorithm, spec.processors,
            infinite=spec.infinite, associativity=spec.associativity,
            cache_words=spec.cache_words, replicate=spec.replicate,
        )
    finally:
        suite.probe = None
    if probe is not None:
        stash_pending(probe.snapshot())
    return result_to_arrays(result)


def _alarm_supported() -> bool:
    return (hasattr(signal, "SIGALRM")
            and threading.current_thread() is threading.main_thread())


def _write_heartbeat(payload: dict) -> Path | None:
    """Announce the job this process is starting (for the watchdog).

    One file per worker pid: ``{"job", "pid", "started"}``.  The watchdog
    compares ``started`` against its hang budget; the file is removed when
    the attempt ends, so a missing file means the worker is idle.
    """
    directory = payload.get("heartbeat_dir")
    if not directory:
        return None
    beat = Path(directory) / f"hb-{os.getpid()}.json"
    try:
        beat.write_text(json.dumps({
            "job": payload["job"],
            "pid": os.getpid(),
            "started": time.time(),
        }), encoding="ascii")
    except OSError:  # heartbeat is best-effort; the job still runs
        return None
    return beat


def _invoke(runner: Callable[[dict], object], payload: dict) -> dict:
    """Run one attempt under the crash/timeout harness (in the worker).

    Never raises: any outcome — success, timeout, exception — comes back
    as a structured dict, so only a hard interpreter death can break the
    pool.
    """
    delay = payload.get("delay") or 0.0
    if delay:
        time.sleep(delay)
    timeout = payload.get("timeout")
    use_alarm = bool(timeout) and _alarm_supported()
    out = {
        "job": payload["job"],
        "worker": os.getpid(),
        "attempt": payload["attempt"],
        "t_start": round(time.time(), 6),
    }
    heartbeat = _write_heartbeat(payload)
    start = time.perf_counter()
    cpu_start = time.process_time()
    previous = None
    try:
        if use_alarm:
            def _on_alarm(signum, frame):
                raise JobTimeout(f"job exceeded {timeout:g}s")

            previous = signal.signal(signal.SIGALRM, _on_alarm)
            signal.setitimer(signal.ITIMER_REAL, timeout)
        try:
            faults.fire("worker",
                        context=payload.get("label") or payload["job"])
            value = runner(payload)
        finally:
            if use_alarm:
                signal.setitimer(signal.ITIMER_REAL, 0.0)
                signal.signal(signal.SIGALRM, previous)
        out.update(ok=True, value=value)
        if payload.get("probe"):
            # Probe counters the runner stashed (simulate_cell) ride the
            # existing result channel back to the coordinator's registry.
            from repro.obs.probes import take_pending

            sim_metrics = take_pending()
            if sim_metrics:
                out["sim_metrics"] = sim_metrics
    except JobTimeout as exc:
        out.update(ok=False, kind="timeout", error=str(exc))
    except Exception as exc:
        out.update(
            ok=False,
            kind="error",
            error=f"{type(exc).__name__}: {exc}",
            traceback=traceback.format_exc(limit=20),
        )
    finally:
        # An injected crash (os._exit) skips this; the stale heartbeat is
        # then cleaned up by the watchdog's liveness check.
        if heartbeat is not None:
            try:
                heartbeat.unlink()
            except OSError:
                pass
    out["duration"] = round(time.perf_counter() - start, 6)
    out["cpu"] = round(time.process_time() - cpu_start, 6)
    return out


# ----------------------------------------------------------------------
# Coordinator side
# ----------------------------------------------------------------------


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except OSError:  # e.g. EPERM: exists but owned by someone else
        return True
    return True


class _Watchdog:
    """Coordinator thread that SIGKILLs workers whose job outlived the
    hang budget.

    SIGALRM catches most runaway jobs from inside the worker, but not a
    worker wedged where Python signal delivery cannot run (a blocking C
    call, a platform without SIGALRM).  This watchdog needs no
    cooperation from the victim: each worker writes a heartbeat file when
    it picks up a job; the watchdog patrols those files and kills any pid
    whose current job is older than ``patience`` seconds.  The kill
    surfaces as ``BrokenProcessPool`` and flows through the engine's
    normal crash recovery — rebuild the pool, resubmit the innocents,
    retry (or fail) the victim, which :meth:`ExecutionEngine._run_pool`
    attributes as kind ``hang`` via :attr:`killed`.
    """

    def __init__(self, directory: Path, patience: float,
                 journal: RunJournal) -> None:
        self.directory = Path(directory)
        self.patience = float(patience)
        self.journal = journal
        self.killed: set[str] = set()
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._patrol, name="repro-watchdog", daemon=True)

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)

    def _patrol(self) -> None:
        poll = max(0.05, min(self.patience / 4.0, 1.0))
        while not self._stop.wait(poll):
            self.sweep()

    def sweep(self) -> None:
        """One patrol pass (separated from the loop for direct testing)."""
        now = time.time()
        for beat in sorted(self.directory.glob("hb-*.json")):
            try:
                info = json.loads(beat.read_text(encoding="ascii"))
                pid = int(info["pid"])
                job = str(info["job"])
                started = float(info["started"])
            except (OSError, ValueError, KeyError, TypeError):
                continue  # torn or foreign file; re-examined next pass
            if now - started <= self.patience:
                continue
            if not _pid_alive(pid):
                # The worker died on its own (e.g. an injected crash)
                # without unlinking its heartbeat; just clean up.
                try:
                    beat.unlink()
                except OSError:
                    pass
                continue
            self.killed.add(job)
            self.journal.record("watchdog-kill", job, pid=pid,
                                age=round(now - started, 3))
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:  # pragma: no cover - raced with worker exit
                pass
            try:
                beat.unlink()
            except OSError:
                pass


@dataclass(frozen=True)
class JobFailure:
    """One job that exhausted its retries — a gap in the sweep."""

    job_id: str
    label: str
    error: str
    kind: str
    attempts: int

    def __str__(self) -> str:
        return (f"{self.label} failed after {self.attempts} attempt(s) "
                f"[{self.kind}]: {self.error}")


@dataclass
class RunReport:
    """Everything one engine run produced."""

    results: dict[str, object]          #: job id -> materialized result
    failures: list[JobFailure] = field(default_factory=list)
    summary: RunSummary | None = None
    events: list[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def result_for(self, spec: JobSpec):
        """The result of one planned job, or None if it failed."""
        return self.results.get(spec.job_id)


class ExecutionEngine:
    """Plan-in, results-out parallel executor for simulation cells.

    Args:
        workers: Worker processes; 1 executes inline (no pool).
        timeout: Per-job attempt budget in seconds (None = unbounded).
        max_retries: Re-submissions allowed after a failed attempt.
        backoff: Base delay before retry ``n`` (``backoff * 2**(n-1)`` s,
            capped at ``max_backoff`` and jittered ±25%; see
            :meth:`_retry_delay`).
        max_backoff: Hard ceiling on any single retry delay in seconds —
            without it the exponential grows unboundedly with
            ``max_retries``.
        hang_timeout: Seconds a worker's current job may run before the
            coordinator-side watchdog SIGKILLs the worker (None, the
            default, disables the watchdog).  Unlike ``timeout`` — which
            relies on signal delivery *inside* the worker — this catches
            a worker wedged beyond cooperation.  Pool mode only (inline
            execution has no worker to kill) and requires ``SIGKILL``
            (POSIX).
        store: Persistent :class:`ResultStore`; enables cache-hits,
            resume, and persisting every computed cell.  Requires the
            default runner (it writes ``SimulationResult``s).
        journal_path: JSONL journal file (None = in-memory events only).
        resume: Skip jobs a previous journal at ``journal_path`` confirms
            complete *and* whose result is still in the store.
        job_runner: Override the work done per job (tests, other sweeps).
            Receives the payload dict, returns any picklable value.
        mp_context: Multiprocessing start method.  The default ``spawn``
            guarantees workers share nothing with the parent by fork —
            they rebuild all state from the job spec.
        observer: Optional :class:`~repro.obs.run.RunObserver`.  It is
            attached as the journal's listener (progress + event
            counters), told about every finished job (latency histogram,
            worker probe counters, one workers x cells trace span) and
            handed the final summary.  Observation never changes job
            results, scheduling or the journal's contents — beyond the
            retry events' ``duration`` field, which is recorded
            unconditionally.  The caller finalizes the observer (the
            engine may be run several times under one observer).
    """

    def __init__(
        self,
        *,
        workers: int = 1,
        timeout: float | None = None,
        hang_timeout: float | None = None,
        max_retries: int = 2,
        backoff: float = 0.5,
        max_backoff: float = 30.0,
        store: ResultStore | None = None,
        journal_path=None,
        resume: bool = False,
        job_runner: Callable[[dict], object] | None = None,
        mp_context: str = "spawn",
        observer=None,
    ) -> None:
        check_positive("workers", workers)
        if timeout is not None:
            check_positive("timeout", timeout)
        if hang_timeout is not None:
            check_positive("hang_timeout", hang_timeout)
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        if backoff < 0:
            raise ValueError(f"backoff must be >= 0, got {backoff}")
        if max_backoff < 0:
            raise ValueError(f"max_backoff must be >= 0, got {max_backoff}")
        if job_runner is not None and store is not None:
            raise ValueError(
                "a persistent store requires the default simulation runner"
            )
        self.workers = int(workers)
        self.timeout = timeout
        self.hang_timeout = hang_timeout
        self.max_retries = int(max_retries)
        self.backoff = float(backoff)
        self.max_backoff = float(max_backoff)
        self.store = store
        self.journal_path = journal_path
        self.resume = bool(resume)
        if job_runner is None:
            self.job_runner: Callable[[dict], object] = simulate_cell
            self._materialize: Callable = result_from_arrays
        else:
            self.job_runner = job_runner
            self._materialize = lambda value: value
        self.mp_context = mp_context
        self.observer = observer

    # -- planning phase -------------------------------------------------

    def run(self, specs: Sequence[JobSpec]) -> RunReport:
        """Complete every job exactly once; never raises per-job errors."""
        start = time.perf_counter()
        if self.observer is not None:
            self.observer.begin(len({spec.job_id for spec in specs}))
        journal = RunJournal(
            self.journal_path,
            listener=(self.observer.on_event
                      if self.observer is not None else None),
        )
        journal.record(
            "run-start",
            jobs=len(specs),
            workers=self.workers,
            timeout=self.timeout,
            resume=self.resume or None,
        )
        prior = (
            RunJournal.completed_jobs(self.journal_path)
            if self.resume and self.journal_path is not None
            else set()
        )
        results: dict[str, object] = {}
        failures: list[JobFailure] = []
        pending: list[JobSpec] = []
        seen: set[str] = set()
        for spec in specs:
            job_id = spec.job_id
            if job_id in seen:
                continue  # planner dedups; guard against caller duplicates
            seen.add(job_id)
            described = dict(app=spec.app, algorithm=spec.algorithm,
                             processors=spec.processors)
            if self.store is not None and job_id in prior:
                stored = self.store.load(spec.store_key)
                if stored is not None:
                    results[job_id] = stored
                    journal.record("resumed", job_id, **described)
                    continue
                # Journal said complete but the store entry is gone or
                # corrupt (and now evicted): fall through and recompute.
            if self.store is not None:
                stored = self.store.load(spec.store_key)
                if stored is not None:
                    results[job_id] = stored
                    journal.record("cache-hit", job_id, **described)
                    continue
            journal.record("queued", job_id, **described)
            pending.append(spec)

        if pending:
            restore = self._install_signal_handlers()
            try:
                if self.workers == 1:
                    self._run_inline(pending, journal, results, failures)
                else:
                    self._run_pool(pending, journal, results, failures)
            except KeyboardInterrupt:
                # _run_inline/_run_pool already journaled the in-flight
                # jobs as "interrupted"; seal the journal so --resume
                # sees a clean, complete prefix, then let the caller
                # (e.g. the CLI's exit-130 path) see the interrupt.
                journal.record("run-interrupted",
                               completed=len(results),
                               failed=len(failures))
                journal.close()
                raise
            finally:
                restore()

        wall = time.perf_counter() - start
        summary = RunSummary.from_events(
            journal.events, total_jobs=len(results) + len(failures),
            workers=self.workers, wall_seconds=wall,
        )
        journal.record(
            "run-end",
            executed=summary.executed,
            failed=summary.failed,
            cache_hits=summary.cache_hits,
            resumed=summary.resumed,
            wall_seconds=round(wall, 3),
        )
        journal.close()
        if self.observer is not None:
            self.observer.run_ended(summary)
        return RunReport(results=results, failures=failures, summary=summary,
                         events=journal.events)

    # -- execution phase ------------------------------------------------

    @staticmethod
    def _install_signal_handlers() -> Callable[[], None]:
        """Route SIGINT/SIGTERM into ``KeyboardInterrupt`` for the run.

        SIGINT already raises it; SIGTERM (the polite kill sent by
        schedulers and ``timeout(1)``) would otherwise die without
        flushing the journal.  Returns a restorer for the previous
        handlers; a no-op off the main thread (where handlers cannot be
        installed — the run is then only as interruptible as its host).
        """
        if threading.current_thread() is not threading.main_thread():
            return lambda: None

        def _on_signal(signum, frame):
            raise KeyboardInterrupt(f"received signal {signum}")

        installed: list[tuple[int, object]] = []
        for name in ("SIGINT", "SIGTERM"):
            signum = getattr(signal, name, None)
            if signum is None:
                continue
            try:
                installed.append((signum, signal.signal(signum, _on_signal)))
            except (ValueError, OSError):  # pragma: no cover - exotic host
                pass

        def restore() -> None:
            for signum, previous in installed:
                try:
                    signal.signal(signum, previous)
                except (ValueError, OSError):  # pragma: no cover
                    pass

        return restore

    def _payload(self, spec: JobSpec, attempt: int, delay: float = 0.0) -> dict:
        payload = {
            "job": spec.job_id,
            "spec": spec.to_payload(),
            "label": spec.describe(),
            "timeout": self.timeout,
            "attempt": attempt,
            "delay": delay,
        }
        if self.observer is not None and self.observer.want_sim_probe:
            payload["probe"] = True
        return payload

    def _retry_delay(self, job_id: str, attempt: int) -> float:
        """Delay before re-submitting ``job_id`` after failed ``attempt``.

        Exponential in the attempt number, hard-capped at ``max_backoff``,
        then jittered to 75–125% of the capped value.  The jitter is
        deterministic — keyed by (job, attempt) — so retry schedules are
        reproducible run to run, while a cohort of jobs failing together
        (a wedged worker, a full disk) still de-synchronizes instead of
        hammering the pool again in lockstep.
        """
        delay = self.backoff * (2 ** (attempt - 1))
        if delay > self.max_backoff:
            delay = self.max_backoff
        if delay <= 0:
            return 0.0
        digest = hashlib.sha256(f"{job_id}:{attempt}".encode()).digest()
        fraction = int.from_bytes(digest[:8], "big") / 2**64
        return delay * (0.75 + 0.5 * fraction)

    def _handle(self, out, payload, journal, results, failures, retry_queue):
        """Fold one attempt's outcome into results/failures/retries."""
        job_id = payload["job"]
        attempt = payload["attempt"]
        if out.get("ok"):
            value = self._materialize(out["value"])
            if self.store is not None:
                spec = JobSpec.from_payload(payload["spec"])
                if not self.store.store(spec.store_key, value):
                    # Disk trouble: the in-memory result still counts;
                    # the journal records that this cell is NOT durable
                    # (resume recomputes it when the store entry is gone).
                    journal.record("store-failed", job_id, attempt=attempt)
            results[job_id] = value
            journal.record(
                "finished", job_id,
                worker=out.get("worker"), attempt=attempt,
                duration=out.get("duration"),
            )
            if self.observer is not None:
                self.observer.job_finished(payload, out)
        elif attempt <= self.max_retries:
            delay = self._retry_delay(job_id, attempt)
            journal.record(
                "retrying", job_id,
                attempt=attempt, kind=out.get("kind"),
                error=out.get("error"), delay=round(delay, 3),
                duration=out.get("duration"),
            )
            retry_queue.append(
                {**payload, "attempt": attempt + 1, "delay": delay}
            )
        else:
            journal.record(
                "failed", job_id,
                attempt=attempt, kind=out.get("kind"),
                error=out.get("error"), duration=out.get("duration"),
            )
            failures.append(JobFailure(
                job_id=job_id, label=payload["label"],
                error=out.get("error", "unknown error"),
                kind=out.get("kind", "error"), attempts=attempt,
            ))

    def _run_inline(self, pending, journal, results, failures) -> None:
        """workers=1: same lifecycle, executed in-process."""
        queue = deque(self._payload(spec, 1) for spec in pending)
        payload = None
        try:
            while queue:
                payload = queue.popleft()
                journal.record("started", payload["job"],
                               attempt=payload["attempt"])
                out = _invoke(self.job_runner, payload)
                self._handle(out, payload, journal, results, failures, queue)
                payload = None
        except KeyboardInterrupt:
            if payload is not None:
                journal.record("interrupted", payload["job"],
                               attempt=payload["attempt"])
            for waiting in queue:
                journal.record("interrupted", waiting["job"],
                               attempt=waiting["attempt"])
            raise

    def _run_pool(self, pending, journal, results, failures) -> None:
        context = mp.get_context(self.mp_context)
        max_workers = min(self.workers, len(pending))

        def make_executor() -> ProcessPoolExecutor:
            return ProcessPoolExecutor(max_workers=max_workers,
                                       mp_context=context)

        heartbeat_dir: Path | None = None
        watchdog: _Watchdog | None = None
        if self.hang_timeout is not None and hasattr(signal, "SIGKILL"):
            heartbeat_dir = Path(tempfile.mkdtemp(prefix="repro-heartbeat-"))
            watchdog = _Watchdog(heartbeat_dir, self.hang_timeout, journal)
            watchdog.start()

        executor = make_executor()
        inflight: dict = {}

        def submit(payload: dict) -> None:
            nonlocal executor
            if heartbeat_dir is not None:
                payload["heartbeat_dir"] = str(heartbeat_dir)
            journal.record("started", payload["job"],
                           attempt=payload["attempt"])
            while True:
                try:
                    future = executor.submit(_invoke, self.job_runner,
                                             payload)
                    break
                except BrokenProcessPool:
                    # A worker died while this submission was in flight.
                    # The broken pool has already poisoned every
                    # outstanding future, so the crash path in the main
                    # loop still collects and resubmits the innocents;
                    # rebuild here only to get *this* payload in.
                    executor.shutdown(wait=False, cancel_futures=True)
                    executor = make_executor()
            inflight[future] = payload

        try:
            for spec in pending:
                submit(self._payload(spec, 1))
            while inflight:
                done, _ = wait(set(inflight), return_when=FIRST_COMPLETED)
                retry_queue: deque = deque()
                crashed = False
                for future in done:
                    payload = inflight.pop(future)
                    try:
                        out = future.result()
                    except BrokenProcessPool:
                        crashed = True
                        job_id = payload["job"]
                        if watchdog is not None and job_id in watchdog.killed:
                            kind = "hang"
                            error = ("hung worker killed by the watchdog "
                                     f"after exceeding {self.hang_timeout:g}s")
                        else:
                            kind = "crash"
                            error = "worker process died unexpectedly"
                        out = {
                            "job": job_id, "ok": False,
                            "kind": kind, "attempt": payload["attempt"],
                            "error": error,
                            "duration": 0.0,
                        }
                    except Exception as exc:  # pragma: no cover - defensive
                        out = {
                            "job": payload["job"], "ok": False,
                            "kind": "error", "attempt": payload["attempt"],
                            "error": f"{type(exc).__name__}: {exc}",
                            "duration": 0.0,
                        }
                    self._handle(out, payload, journal, results, failures,
                                 retry_queue)
                if crashed:
                    # The pool is unusable: rebuild it, then resubmit the
                    # in-flight innocents without burning one of their
                    # attempts.
                    victims = list(inflight.values())
                    inflight.clear()
                    executor.shutdown(wait=False, cancel_futures=True)
                    executor = make_executor()
                    for payload in victims:
                        submit(payload)
                for payload in retry_queue:
                    submit(payload)
        except KeyboardInterrupt:
            for payload in inflight.values():
                journal.record("interrupted", payload["job"],
                               attempt=payload["attempt"])
            raise
        finally:
            executor.shutdown(wait=False, cancel_futures=True)
            if watchdog is not None:
                watchdog.stop()
            if heartbeat_dir is not None:
                shutil.rmtree(heartbeat_dir, ignore_errors=True)
