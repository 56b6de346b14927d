"""The coordinator: routing, journal merging, liveness, rebalancing.

One :class:`DistributedCoordinator` drives one distributed grid run:

1. **Route.**  Planned cells are grouped by owning node — the cell's
   content address hashes to a shard (:func:`repro.dist.ring.shard_of`),
   the partition directory says who owns the shard — and dispatched as
   one batch per node (``POST /v1/cells``).
2. **Merge.**  A merger thread per node follows that node's journal
   stream (``GET /v1/journal/events`` with the ``seq`` cursor) and
   re-records every *job-level* event into the coordinator's own merged
   run journal, tagged ``node=<name>``.  The stream is **scoped to this
   run**: before dispatching anything the coordinator POSTs a run
   marker (``/v1/run-marker``) that the node appends to its journal,
   and the merger skips everything before the marker — a long-lived
   node's journal carries history from previous runs (including stale
   ``failed`` events) that must never leak into this one.  Node-level
   bookkeeping events (each batch's ``run-start``/``run-end``) stay on
   the node; duplicate completions (a re-routed cell both nodes
   finished) are dropped at merge time, and a ``failed`` whose result
   already exists in the shared store converges to a completion.  The
   merged journal is therefore one convergent, ordinary run journal:
   ``repro-stats`` reads it, the progress meter follows it, and
   :meth:`~repro.exec.journal.RunJournal.completed_jobs` over it is
   what lets a later run in the same directory resume across the whole
   cluster.
3. **Watch.**  A liveness watchdog polls every node's ``/healthz``
   through a dedicated non-retrying client, so ``liveness_failures``
   *consecutive* failures (refused, reset, timed out, or an injected
   ``partition:link``) declare the node dead at heartbeat granularity
   — a hung node cannot hide behind the transport retry budget.
4. **Recover.**  A dead node triggers a directory rebalance (version
   bump, atomic rewrite) and re-dispatch of its unfinished cells to the
   new owners, each journaled as ``retrying`` with
   ``kind="node-crash"`` — the node-loss analogue of the engine's
   worker-crash retries.  Cells the dead node *did* finish are already
   in the shared store, so the new owner answers them as cache-hits:
   re-routing is idempotent by construction.  A ``batch-failed`` event
   (a node's engine run blew up without journaling its cells) re-routes
   the batch's still-pending cells through the same budgeted path, with
   ``kind="batch-failed"`` — the node stays alive, but its work does
   not wait on it.  Only when a cell's re-route budget is exhausted (or
   no nodes survive) does it degrade to MISSING, exactly like a cell
   the single-machine engine gave up on.

Because nodes write results straight into the shared content-addressed
store and every report is rendered *from the store*, none of this
machinery can change the report's bytes — the distributed path ends at
the same :func:`~repro.experiments.report.write_report` call over the
same results as the sequential baseline.  Nodes are ``repro-serve``
processes spoken to through :class:`~repro.service.client.ServiceClient`,
and a cluster front door is a ``repro-serve --nodes …`` whose jobs run
through :func:`run_distributed`.  ``docs/DISTRIBUTION.md`` walks the
full argument.
"""

from __future__ import annotations

import io
import threading
import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

from repro.dist.directory import PartitionDirectory
from repro.dist.ring import DEFAULT_NUM_SHARDS, shard_of
from repro.exec.jobs import JobSpec
from repro.exec.journal import COMPLETED_EVENTS, RunJournal
from repro.experiments.cache import ResultStore
from repro.service.client import ServiceClient, ServiceError

if TYPE_CHECKING:
    from repro.experiments.api import SuiteRequest, SuiteResult

__all__ = ["DistributedCoordinator", "ClusterResult", "run_distributed"]

#: Node journal events the merger forwards into the merged run journal.
#: Everything job-level plus node-level failures; a node's own batch
#: ``run-start``/``run-end`` bookkeeping stays on the node.
_MERGED_EVENTS = frozenset({
    "queued", "started", "finished", "failed", "retrying", "cache-hit",
    "resumed", "interrupted", "watchdog-kill", "store-failed",
    "batch-failed",
})


@dataclass
class ClusterResult:
    """Everything one distributed run produced."""

    specs: list[JobSpec]
    results: dict = field(default_factory=dict)   #: job_id -> SimulationResult
    missing: list[JobSpec] = field(default_factory=list)
    failed: dict = field(default_factory=dict)    #: job_id -> reason
    resumed: int = 0
    reroutes: int = 0
    deaths: list[str] = field(default_factory=list)
    directory_version: int = 0
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        """True when every planned cell has a result (zero MISSING)."""
        return not self.missing


class DistributedCoordinator:
    """Runs one cell grid across a cluster of worker nodes.

    Args:
        nodes: Worker addresses (``host:port``); the initial membership.
        data_dir: Coordinator state — the merged journal
            (``journal.jsonl``) and the partition directory
            (``shards.json``) land here.
        store_dir: The shared result store every node mounts.
        num_shards: Partition count (see :mod:`repro.dist.ring`).
        heartbeat: Seconds between liveness probes per node.
        liveness_failures: Consecutive probe failures before a node is
            declared dead.
        reroute_budget: Times one cell may be re-routed after node
            deaths before degrading to MISSING.
        client_timeout: Per-request socket timeout toward nodes (short:
            a hung node must become a timely liveness failure).
        stream_timeout: Lifetime of one journal stream before the
            merger reconnects with its cursor.

    A run always resumes: cells the merged journal in ``data_dir``
    confirms complete *and* whose result is still in the store are
    journaled ``resumed`` and not dispatched again.
    """

    def __init__(
        self,
        nodes: list[str],
        data_dir: str | Path,
        store_dir: str | Path,
        *,
        num_shards: int = DEFAULT_NUM_SHARDS,
        heartbeat: float = 0.25,
        liveness_failures: int = 3,
        reroute_budget: int = 3,
        client_timeout: float = 10.0,
        stream_timeout: float = 5.0,
    ) -> None:
        if not nodes:
            raise ValueError("a cluster needs at least one node")
        self.data_dir = Path(data_dir)
        self.data_dir.mkdir(parents=True, exist_ok=True)
        self.store = ResultStore(store_dir)
        self.journal_path = self.data_dir / "journal.jsonl"
        self.heartbeat = heartbeat
        self.liveness_failures = int(liveness_failures)
        self.reroute_budget = int(reroute_budget)
        self.client_timeout = client_timeout
        self.stream_timeout = stream_timeout
        #: This run's identity; the node-journal marker the mergers sync
        #: on (events before it are a previous run's history).
        self.run_id = uuid.uuid4().hex[:12]
        # The watchdog's probe timeout: short enough that a hung node
        # becomes a strike within a few heartbeats, floored so a busy
        # but healthy node is not struck out spuriously.
        self._probe_timeout = min(client_timeout, max(2 * heartbeat, 0.5))
        self.directory = PartitionDirectory(
            self.data_dir / "shards.json", num_shards=num_shards)
        self.directory.rebalance(nodes)
        self._clients: dict[str, ServiceClient] = {}
        self._probes: dict[str, ServiceClient] = {}
        for address in self.directory.nodes:
            self._add_client(address)
        self._lock = threading.Condition()
        self._alive: set[str] = set(self.directory.nodes)
        self._dead: set[str] = set()
        self._strikes: dict[str, int] = {}
        self._pending: dict[str, JobSpec] = {}     # job_id -> spec
        self._universe: set[str] = set()           # this run's job_ids
        self._assigned: dict[str, str] = {}        # job_id -> node
        self._completed: set[str] = set()
        self._failed: dict[str, str] = {}          # job_id -> reason
        self._reroutes: dict[str, int] = {}
        self._reroute_total = 0
        self._stop = threading.Event()
        self._threads: list[threading.Thread] = []
        self._journal: RunJournal | None = None

    def _add_client(self, address: str) -> None:
        self._clients[address] = ServiceClient(
            address, timeout=self.client_timeout, retries=3,
            retry_backoff=0.05)
        # The watchdog gets its own non-retrying client: a liveness
        # strike must mean one actual failed probe at heartbeat
        # granularity, not retries x timeout of absorbed backoff —
        # otherwise a hung node takes minutes to be declared dead.
        self._probes[address] = ServiceClient(
            address, timeout=self._probe_timeout, retries=1)

    # ------------------------------------------------------------------
    # The run
    # ------------------------------------------------------------------

    def run(self, specs: list[JobSpec],
            timeout: float | None = None) -> ClusterResult:
        """Complete every cell across the cluster; never raises per-cell.

        Blocks until every cell is completed or degraded to MISSING (or
        ``timeout`` elapses, which degrades whatever is still pending).
        Safe to call once per coordinator instance.
        """
        start = time.perf_counter()
        unique = list({spec.job_id: spec for spec in specs}.values())
        result = ClusterResult(specs=unique)
        confirmed = RunJournal.completed_jobs(self.journal_path)
        already = {
            spec.job_id for spec in unique
            if spec.job_id in confirmed
            and self.store.contains(spec.store_key)
        }
        self._journal = RunJournal(self.journal_path)
        try:
            self._journal.record(
                "run-start", jobs=len(unique), cluster=len(self._alive),
                directory_version=self.directory.version,
                resumed=len(already))
            with self._lock:
                for spec in unique:
                    self._universe.add(spec.job_id)
                    if spec.job_id in already:
                        self._completed.add(spec.job_id)
                        self._journal.record("resumed", spec.job_id,
                                             describe=spec.describe())
                        result.resumed += 1
                    else:
                        self._pending[spec.job_id] = spec
                # Assign owners before the first node contact: a node
                # that dies during marking re-routes its cells through
                # the ordinary _on_node_death path instead of silently
                # having had nothing assigned yet.
                batches: dict[str, list[JobSpec]] = {}
                for job_id, spec in self._pending.items():
                    owner = self.directory.owner_of(job_id)
                    self._assigned[job_id] = owner
                    batches.setdefault(owner, []).append(spec)
            self._start_threads()
            self._mark_alive_nodes()
            for node, batch in sorted(batches.items()):
                self._dispatch(node, batch)
            self._wait(timeout)
        finally:
            self._stop.set()
            # Mergers may sit blocked inside a journal-stream read for
            # up to stream_timeout; don't serve that sentence here.
            # They are daemon threads whose journal access is guarded by
            # the stop flag under the lock, so closing the journal now
            # (under the same lock) is safe — a late event is dropped,
            # never recorded into a closed journal.  Every *completion*
            # has already been merged: _wait only returns once pending
            # is empty (or the run timed out, degrading the rest).
            for thread in self._threads:
                thread.join(timeout=0.2)
            with self._lock:
                # Anything still pending at shutdown (overall timeout)
                # degrades like an exhausted cell.
                for job_id, spec in list(self._pending.items()):
                    self._failed.setdefault(job_id, "run timed out")
                    self._journal.record(
                        "failed", job_id, error="run timed out",
                        describe=spec.describe())
                    del self._pending[job_id]
                result.failed = dict(self._failed)
                result.reroutes = self._reroute_total
                result.deaths = sorted(self._dead)
                result.directory_version = self.directory.version
                self._journal.record(
                    "run-end", completed=len(self._completed),
                    failed=len(result.failed), reroutes=result.reroutes,
                    node_deaths=len(result.deaths))
                self._journal.close()
        for spec in unique:
            if spec.job_id in self._failed:
                result.missing.append(spec)
                continue
            loaded = self.store.load(spec.store_key)
            if loaded is None:
                result.missing.append(spec)
                result.failed[spec.job_id] = "result missing from store"
            else:
                result.results[spec.job_id] = loaded
        result.elapsed = time.perf_counter() - start
        return result

    # ------------------------------------------------------------------
    # Dispatch and re-dispatch
    # ------------------------------------------------------------------

    def _mark_alive_nodes(self) -> None:
        """Scope every node's journal stream to this run.

        The marker each node appends is what the mergers sync on:
        events before it — a previous run's history in a long-lived
        node journal — are never merged, so a stale ``failed`` cannot
        poison this run and the merged journal stops re-recording
        replayed history on every resume.  A node that cannot be marked
        is unreachable *now*: it is retired immediately, re-routing its
        already-assigned cells.
        """
        for node in sorted(self._alive):
            try:
                self._clients[node].mark_run(self.run_id)
            except (ServiceError, OSError):
                self._on_node_death(node)

    def _dispatch(self, node: str, batch: list[JobSpec]) -> None:
        """Send one batch; a dispatch failure is an immediate strike-out
        (the node is unreachable *now*, no point drip-probing it)."""
        if not batch:
            return
        client = self._clients.get(node)
        if client is None or node in self._dead:
            self._on_node_death(node)
            return
        try:
            client.submit_cells(
                [spec.to_payload() for spec in batch],
                directory_version=self.directory.version)
        except (ServiceError, OSError):
            self._on_node_death(node)

    # ------------------------------------------------------------------
    # Background threads: mergers + watchdog
    # ------------------------------------------------------------------

    def _start_threads(self) -> None:
        for node in sorted(self._alive):
            self._start_merger(node)
        watchdog = threading.Thread(target=self._watch, daemon=True,
                                    name="repro-coord-watchdog")
        watchdog.start()
        self._threads.append(watchdog)

    def _start_merger(self, node: str) -> None:
        thread = threading.Thread(target=self._merge_events, args=(node,),
                                  daemon=True,
                                  name=f"repro-coord-merge-{node}")
        thread.start()
        self._threads.append(thread)

    def _merge_events(self, node: str) -> None:
        """Follow one node's journal, re-recording job-level events.

        The ``seq`` cursor makes the loop loss-free across stream
        timeouts, connection drops and node restarts; a dead node just
        makes every reconnect fail until the watchdog retires it.
        Nothing is merged until this run's marker flows past: a
        long-lived node's journal opens with previous runs' history,
        which is not ours to account.
        """
        client = self._clients[node]
        cursor = -1
        synced = False
        while not self._stop.is_set():
            if node in self._dead:
                return
            try:
                for seq, entry in client.journal_events(
                        after=cursor, timeout=self.stream_timeout):
                    cursor = max(cursor, seq)
                    if not synced:
                        synced = (entry.get("event") == "coordinator-run"
                                  and entry.get("run") == self.run_id)
                    else:
                        self._merge_one(node, entry)
                    if self._stop.is_set():
                        return
            except (ServiceError, OSError):
                if self._stop.is_set() or node in self._dead:
                    return
                time.sleep(self.heartbeat)

    def _merge_one(self, node: str, entry: dict) -> None:
        event = entry.get("event")
        if event not in _MERGED_EVENTS:
            return
        job_id = entry.get("job")
        batches: dict[str, list[JobSpec]] = {}
        with self._lock:
            if self._stop.is_set():
                return  # shutdown already closed the merged journal
            if job_id is not None and job_id not in self._universe:
                # A long-lived node's executor may still be draining a
                # previous coordinator's batch past our run marker; its
                # cells are not ours to account.
                return
            if job_id is not None and job_id in self._completed and (
                    event in COMPLETED_EVENTS):
                # A re-routed cell both the dead node and its successor
                # finished: drop the duplicate so the merged journal
                # stays convergent (one completion per cell).
                return
            if event == "failed":
                spec = self._pending.get(job_id)
                if spec is not None and self.store.contains(
                        spec.store_key):
                    # The node's engine gave up on the cell, but its
                    # result already exists (another node, or a replica
                    # path, produced it): the store wins — converge on
                    # completion, never a spurious MISSING.
                    self._journal.record("cache-hit", job_id, node=node,
                                         source="store-after-failed")
                    self._completed.add(job_id)
                    del self._pending[job_id]
                    self._lock.notify_all()
                    return
            fields = {k: v for k, v in entry.items()
                      if k not in ("event", "job", "time", "node")}
            self._journal.record(event, job_id, node=node, **fields)
            if event == "batch-failed":
                # The node's engine run blew up before journaling its
                # cells (the node itself is still alive).  Its
                # still-pending cells must not wait on it: re-route
                # them through the budgeted path so the run always
                # terminates — transient blow-ups heal on re-dispatch,
                # deterministic ones exhaust the budget and degrade.
                batches = self._reroute_locked(
                    node, kind="batch-failed",
                    reason=f"batch failed on {node}")
            elif job_id is None:
                pass
            elif event in COMPLETED_EVENTS:
                self._completed.add(job_id)
                self._pending.pop(job_id, None)
                self._lock.notify_all()
            elif event == "failed" and job_id in self._pending:
                # The node's engine exhausted its *cell* retries — a
                # deterministic failure re-routing cannot fix.
                self._failed[job_id] = entry.get("error", "cell failed")
                del self._pending[job_id]
                self._lock.notify_all()
        for target, batch in sorted(batches.items()):
            self._dispatch(target, batch)

    def _watch(self) -> None:
        """The liveness watchdog: consecutive-failure death detection.

        Probes go through the dedicated non-retrying clients
        (``_probes``): each strike is one actual failed probe at
        heartbeat granularity, not ``retries`` attempts of absorbed
        backoff, so a hung node strikes out in roughly
        ``liveness_failures`` heartbeats.
        """
        while not self._stop.is_set():
            for node in sorted(self._alive - self._dead):
                if self._stop.is_set():
                    return
                client = self._probes[node]
                try:
                    ok = client.health().get("status") == "ok"
                except (ServiceError, OSError, ValueError):
                    ok = False
                if ok:
                    self._strikes[node] = 0
                    continue
                self._strikes[node] = self._strikes.get(node, 0) + 1
                if self._strikes[node] >= self.liveness_failures:
                    self._on_node_death(node)
            self._stop.wait(self.heartbeat)

    # ------------------------------------------------------------------
    # Death and rebalancing
    # ------------------------------------------------------------------

    def _reroute_locked(self, node: str, *, kind: str,
                        reason: str) -> dict[str, list[JobSpec]]:
        """Re-route every still-pending cell assigned to ``node``.

        The shared budgeted path under node deaths and batch failures:
        each cell either moves to its current directory owner
        (journaled as ``retrying`` with ``kind``) or, once its
        re-route budget is exhausted — or no nodes remain — degrades
        to a journaled failure.  The caller holds the lock and must
        dispatch the returned batches after releasing it.
        """
        batches: dict[str, list[JobSpec]] = {}
        orphans = {
            job_id: spec for job_id, spec in self._pending.items()
            if self._assigned.get(job_id) == node
        }
        for job_id, spec in orphans.items():
            count = self._reroutes.get(job_id, 0) + 1
            if not self._alive or count > self.reroute_budget:
                why = ("no surviving nodes" if not self._alive else
                       f"re-route budget exhausted ({count - 1})")
                self._failed[job_id] = f"{reason}: {why}"
                self._journal.record("failed", job_id,
                                     error=self._failed[job_id],
                                     describe=spec.describe())
                del self._pending[job_id]
                continue
            self._reroutes[job_id] = count
            self._reroute_total += 1
            new_owner = self.directory.owner_of(job_id)
            self._assigned[job_id] = new_owner
            self._journal.record(
                "retrying", job_id, kind=kind, attempt=count,
                node=node, rerouted_to=new_owner,
                describe=spec.describe())
            batches.setdefault(new_owner, []).append(spec)
        self._lock.notify_all()
        return batches

    def _on_node_death(self, node: str) -> None:
        """Retire a dead node: journal it, rebalance, re-route its cells."""
        with self._lock:
            if node in self._dead or self._stop.is_set():
                return
            self._dead.add(node)
            self._alive.discard(node)
            survivors = sorted(self._alive)
            unfinished = sum(
                1 for job_id in self._pending
                if self._assigned.get(job_id) == node)
            self._journal.record("node-dead", node=node,
                                 unfinished=unfinished,
                                 survivors=len(survivors))
            if survivors:
                moved = self.directory.rebalance(survivors)
                self._journal.record(
                    "rebalance", directory_version=self.directory.version,
                    moved_shards=len(moved), nodes=len(survivors),
                    reason="node-dead", node=node)
            batches = self._reroute_locked(
                node, kind="node-crash", reason=f"node {node} died")
        for target, batch in sorted(batches.items()):
            self._dispatch(target, batch)

    def rebalance(self, nodes: list[str]) -> dict[int, str]:
        """Planned membership change (join/leave): migrate moved shards.

        Recomputes the directory for ``nodes`` and re-dispatches every
        still-pending cell whose shard changed hands to its new owner.
        In-flight cells on the old owner drain through the journal: if
        the old owner completes one first, the merger records it and the
        new owner's duplicate becomes a store cache-hit — either way the
        merged journal converges on exactly one completion.  Returns the
        moved shards (shard → new owner).
        """
        joined: list[str] = []
        with self._lock:
            for address in nodes:
                if address not in self._clients:
                    self._add_client(address)
                if address not in self._alive and address not in self._dead:
                    self._alive.add(address)
                    if self._journal is not None:
                        # Mid-run join: the new node needs a run marker
                        # (posted below, outside the lock) before any
                        # cells, so its merger can sync.  Pre-run joins
                        # are marked by run() itself.
                        joined.append(address)
                        self._start_merger(address)
            moved = self.directory.rebalance(sorted(set(nodes)))
            departed = self._alive - set(nodes)
            self._alive = set(nodes)
            if self._journal is not None:
                self._journal.record(
                    "rebalance", directory_version=self.directory.version,
                    moved_shards=len(moved), nodes=len(nodes),
                    reason="membership")
            moved_shards = set(moved)
            batches: dict[str, list[JobSpec]] = {}
            for job_id, spec in self._pending.items():
                shard = shard_of(job_id, self.directory.num_shards)
                old = self._assigned.get(job_id)
                if shard in moved_shards or old in departed:
                    new_owner = self.directory.owner_of(job_id)
                    if new_owner != old:
                        self._assigned[job_id] = new_owner
                        batches.setdefault(new_owner, []).append(spec)
        for address in joined:
            try:
                self._clients[address].mark_run(self.run_id)
            except (ServiceError, OSError):
                self._on_node_death(address)
        for target, batch in sorted(batches.items()):
            self._dispatch(target, batch)
        return moved

    # ------------------------------------------------------------------
    # Completion
    # ------------------------------------------------------------------

    def _wait(self, timeout: float | None) -> None:
        deadline = (None if timeout is None
                    else time.monotonic() + timeout)
        with self._lock:
            while self._pending:
                remaining = 1.0
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return
                self._lock.wait(min(remaining, 1.0))


def run_distributed(
    request: SuiteRequest,
    nodes: list[str],
    data_dir: str | Path,
    store_dir: str | Path,
    *,
    timeout: float | None = None,
    coordinator_options: dict | None = None,
) -> tuple[SuiteResult, ClusterResult]:
    """Run one :class:`~repro.experiments.api.SuiteRequest` on a cluster.

    The distributed analogue of :func:`repro.experiments.api.run_suite`:
    plans the same cells, completes them across ``nodes``, then renders
    the report *from the shared store* through the same
    :class:`~repro.experiments.runner.ExperimentSuite` /
    :func:`~repro.experiments.report.write_report` path as every other
    entry point — which is the byte-identity argument in one sentence.
    Cells the cluster could not complete degrade to MISSING exactly as
    the single-machine engine's failures do.

    Returns ``(suite_result, cluster_result)``: a
    :class:`~repro.experiments.api.SuiteResult` holding the rendered
    suite and its ``report_text``, and the :class:`ClusterResult`.
    """
    from repro.experiments.api import SuiteResult

    coordinator = DistributedCoordinator(
        nodes, data_dir, store_dir, **(coordinator_options or {}))
    cluster = coordinator.run(request.plan(), timeout=timeout)
    suite = request.suite(str(store_dir))
    by_job = {spec.job_id: spec for spec in cluster.specs}
    for job_id, result in cluster.results.items():
        spec = by_job[job_id]
        suite._results[spec.cell] = result
        suite.missing.discard(spec.cell)
    for spec in cluster.missing:
        suite.missing.add(spec.cell)
    buffer = io.StringIO()
    request.render(suite, buffer)
    return (SuiteResult(request=request, suite=suite,
                        report_text=buffer.getvalue()), cluster)
