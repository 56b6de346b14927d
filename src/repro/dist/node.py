"""The worker node: one host's share of a distributed grid run.

A :class:`NodeServer` is deliberately dumb.  It owns no shard map, no
membership view and no opinion about placement — it executes whatever
content-addressed cell batches the coordinator posts at it, through the
ordinary single-machine :class:`~repro.exec.engine.ExecutionEngine`
against the shared :class:`~repro.experiments.cache.ResultStore`, and
journals every transition to its own JSONL file.  All the distributed
smarts (routing, liveness, rebalancing, merging) live in the
coordinator; keeping nodes stateless is what makes killing one safe —
nothing is lost that the store and the journals cannot reconstruct.

HTTP surface (same minimal stack as the service —
:mod:`repro.service.http`):

========  ========================  ==================================
Method    Path                      Meaning
========  ========================  ==================================
GET       ``/healthz``              liveness; ``?deep=1`` adds queue
                                    depth, batch counters and a store
                                    writability probe (ok/degraded)
POST      ``/v1/cells``             a batch of cell payloads; 202 once
                                    enqueued for the executor thread
POST      ``/v1/run-marker``        append a coordinator run marker to
                                    the journal; the coordinator's
                                    merger only merges events after it
                                    (journals persist across runs)
GET       ``/v1/journal/events``    NDJSON of this node's journal with
                                    a monotone ``seq`` per event;
                                    ``?after=SEQ`` resumes a cursor,
                                    ``?timeout=S`` bounds the stream
POST      ``/v1/shutdown``          graceful stop after current batch
========  ========================  ==================================

The event stream's ``seq`` is simply the event's ordinal in the node's
journal.  Because the journal is append-only (torn tails are healed at
the line boundary before anything new lands), the ordinal is stable
across reconnects: a coordinator that lost its stream reconnects with
``?after=<last seq it merged>`` and misses nothing, duplicates nothing.

Fault injection: every request handled and every batch executed passes
a :func:`repro.faults.fire_node` checkpoint, so a seeded plan can crash
the node process (``node-crash:node`` → exit 23, indistinguishable from
SIGKILL as far as the cluster is concerned) or wedge it
(``node-hang:node``) at a deterministic point.  Chaos tests therefore
run nodes as subprocesses (:mod:`repro.tools.dist_cli`), not threads.
"""

from __future__ import annotations

import asyncio
import json
import queue
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from repro import __version__, faults
from repro.exec.engine import ExecutionEngine
from repro.exec.jobs import JobSpec
from repro.exec.journal import JournalTail, RunJournal
from repro.experiments.cache import ResultStore
from repro.service.http import (
    HttpError,
    Request,
    json_bytes,
    read_request,
    render_response,
)
from repro.service.manager import probe_writable

__all__ = ["NodeServer", "NodeHandle", "start_node_in_background"]

#: Seconds between polls while the journal stream is idle.
_STREAM_POLL = 0.05

#: Default bound on one journal stream's lifetime (the coordinator
#: reconnects with its cursor, so short streams cost nothing).
_DEFAULT_STREAM_TIMEOUT = 30.0


class NodeServer:
    """One worker node: batch executor + journal streamer.

    Args:
        data_dir: This node's scratch directory (its journal lands at
            ``<data_dir>/journal.jsonl``).
        store_dir: The *shared* result store all nodes and the
            coordinator mount — the data plane.
        host/port: Bind address (0 picks a free port).
        name: The node's advertised identity; defaults to ``host:port``
            once bound.  The coordinator addresses and attributes work
            by this name, and fault sites match against it.
        workers: Worker processes per engine run on this node.
        retries: Per-cell retry budget (the engine's, local to the node).
        timeout: Per-cell attempt timeout in seconds.
    """

    def __init__(
        self,
        data_dir: str | Path,
        store_dir: str | Path,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        name: str | None = None,
        workers: int = 1,
        retries: int = 2,
        timeout: float | None = None,
    ) -> None:
        self.data_dir = Path(data_dir)
        self.data_dir.mkdir(parents=True, exist_ok=True)
        self.store_dir = Path(store_dir)
        self.store_dir.mkdir(parents=True, exist_ok=True)
        self.host = host
        self.port = port
        self._name = name
        self.workers = int(workers)
        self.retries = int(retries)
        self.timeout = timeout
        self.journal_path = self.data_dir / "journal.jsonl"
        self._batches: queue.Queue = queue.Queue()
        self._lock = threading.Lock()
        self._executing = False
        self._batches_done = 0
        self._cells_done = 0
        self._stopping = threading.Event()
        self._server: asyncio.AbstractServer | None = None
        self._executor = threading.Thread(
            target=self._execute_batches, name="repro-node-exec", daemon=True)
        self._executor.start()

    @property
    def name(self) -> str:
        return self._name or f"{self.host}:{self.port}"

    # -- batch execution -------------------------------------------------

    def _execute_batches(self) -> None:
        """The executor thread: drain batches serially through the engine.

        Serial per node by design — parallelism lives inside each engine
        run (``workers``) and across nodes, so one node never has two
        engine runs racing on its journal stream.
        """
        while True:
            try:
                specs = self._batches.get(timeout=0.1)
            except queue.Empty:
                if self._stopping.is_set():
                    return
                continue
            with self._lock:
                self._executing = True
            try:
                faults.fire_node(self.name)
                engine = ExecutionEngine(
                    workers=self.workers,
                    timeout=self.timeout if self.workers > 1 else None,
                    max_retries=self.retries,
                    store=ResultStore(self.store_dir),
                    journal_path=self.journal_path,
                )
                report = engine.run(specs)
                with self._lock:
                    self._cells_done += len(report.results)
            except Exception as exc:
                # An engine blow-up must not kill the executor thread:
                # journal it (the coordinator sees batch-failed and can
                # re-route) and keep serving.
                with RunJournal(self.journal_path) as journal:
                    journal.record("batch-failed", node=self.name,
                                   error=f"{type(exc).__name__}: {exc}")
            finally:
                with self._lock:
                    self._executing = False
                    self._batches_done += 1

    def enqueue(self, specs: list[JobSpec]) -> int:
        """Queue one batch for the executor; returns the queue depth."""
        self._batches.put(specs)
        return self._batches.qsize()

    # -- health ----------------------------------------------------------

    def health(self, deep: bool = False) -> dict:
        """The ``/healthz`` body (the coordinator's liveness probe)."""
        body = {"status": "ok", "node": self.name}
        if not deep:
            return body
        with self._lock:
            executing = self._executing
            batches_done = self._batches_done
            cells_done = self._cells_done
        store_writable = probe_writable(self.store_dir)
        body.update(
            status="ok" if store_writable else "degraded",
            queue_depth=self._batches.qsize(),
            executing=executing,
            batches_done=batches_done,
            cells_done=cells_done,
            store_writable=store_writable,
        )
        return body

    # -- HTTP ------------------------------------------------------------

    async def start(self) -> asyncio.AbstractServer:
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        return self._server

    async def serve_forever(self) -> None:
        """Run until shut down (the ``repro-node`` CLI's main loop)."""
        server = await self.start()
        async with server:
            while not self._stopping.is_set():
                await asyncio.sleep(0.1)
        # Let the executor drain its current batch before exiting.
        self._executor.join(timeout=60)

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        try:
            try:
                request = await read_request(reader)
                if request is None:
                    return
                await self._dispatch(request, writer)
            except HttpError as exc:
                writer.write(render_response(
                    exc.status, json_bytes({"error": exc.message}),
                    headers=exc.headers))
            except (ConnectionError, asyncio.CancelledError):
                raise
            except Exception as exc:
                writer.write(render_response(500, json_bytes(
                    {"error": f"{type(exc).__name__}: {exc}"})))
            await writer.drain()
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _dispatch(self, request: Request,
                        writer: asyncio.StreamWriter) -> None:
        # The per-request fault checkpoint: a node-crash plan exits the
        # process here (the cluster sees connections drop — exactly what
        # a kill -9 looks like); a node-hang plan wedges the response
        # past the client's socket timeout.
        faults.fire_node(self.name)
        path, method = request.path, request.method
        if path in ("/healthz", "/v1/healthz"):
            if method != "GET":
                raise HttpError(405, "use GET")
            deep = request.query.get("deep") not in (None, "", "0")
            body = dict(self.health(deep=deep), version=__version__)
            writer.write(render_response(200, json_bytes(body)))
            return
        if path == "/v1/cells":
            if method != "POST":
                raise HttpError(405, "use POST")
            self._accept_cells(request, writer)
            return
        if path == "/v1/run-marker":
            if method != "POST":
                raise HttpError(405, "use POST")
            self._mark_run(request, writer)
            return
        if path == "/v1/journal/events":
            if method != "GET":
                raise HttpError(405, "use GET")
            await self._stream_journal(request, writer)
            return
        if path == "/v1/shutdown":
            if method != "POST":
                raise HttpError(405, "use POST")
            self._stopping.set()
            writer.write(render_response(200, json_bytes(
                {"status": "stopping", "node": self.name})))
            return
        raise HttpError(404, f"no route for {method} {path}")

    def _accept_cells(self, request: Request,
                      writer: asyncio.StreamWriter) -> None:
        """POST /v1/cells — parse payloads, enqueue one batch, 202.

        Accepting a batch twice is harmless: cells are content-addressed
        and the engine answers already-stored cells as cache-hits, so a
        coordinator that re-routes work this node already (or partially)
        did costs a store lookup per cell, not a recomputation.
        """
        document = request.json()
        cells = document.get("cells")
        if not isinstance(cells, list) or not cells:
            raise HttpError(400, "expected a non-empty 'cells' list")
        try:
            specs = [JobSpec.from_payload(payload) for payload in cells]
        except (TypeError, ValueError) as exc:
            raise HttpError(400, f"bad cell payload: {exc}")
        depth = self.enqueue(specs)
        body = {
            "accepted": len(specs),
            "node": self.name,
            "queue_depth": depth,
            "directory_version": document.get("directory_version"),
        }
        writer.write(render_response(202, json_bytes(body)))

    def _mark_run(self, request: Request,
                  writer: asyncio.StreamWriter) -> None:
        """POST /v1/run-marker — journal a coordinator run boundary.

        Node journals persist across coordinator runs (a long-lived
        node serves many).  The marker gives the coordinator's merger a
        sync point: events before it are a previous run's history and
        are never merged, so a stale ``failed`` from last week cannot
        poison today's run.  Appending is safe against a concurrent
        executor: both writers flush whole lines under ``O_APPEND``.
        """
        document = request.json()
        run = document.get("run")
        if not isinstance(run, str) or not run:
            raise HttpError(400, "expected a non-empty 'run' id")
        with RunJournal(self.journal_path) as journal:
            journal.record("coordinator-run", run=run, node=self.name)
        writer.write(render_response(200, json_bytes(
            {"status": "marked", "run": run, "node": self.name})))

    async def _stream_journal(self, request: Request,
                              writer: asyncio.StreamWriter) -> None:
        """GET /v1/journal/events — NDJSON with per-event ``seq``.

        The cursor protocol that makes coordinator merging loss-free:
        ``seq`` is the event's ordinal in this node's append-only
        journal, so it survives reconnects; the server replays from the
        top of the file (cheap — node journals are one run's events) and
        skips everything at or below ``after``.  Torn tails are never
        counted: :class:`JournalTail` only advances past complete lines,
        and the split-journal heal truncates *below* any counted line.
        """
        try:
            after = int(request.query.get("after", -1))
            timeout = float(request.query.get(
                "timeout", _DEFAULT_STREAM_TIMEOUT))
        except ValueError:
            raise HttpError(400, "after/timeout must be numbers")
        writer.write(render_response(
            200, content_type="application/x-ndjson", head_only=True))
        await writer.drain()
        tailer = JournalTail(self.journal_path)
        seq = -1
        deadline = time.monotonic() + timeout
        while True:
            events = tailer.poll()
            wrote = False
            for entry in events:
                seq += 1
                if seq <= after:
                    continue
                line = json.dumps(dict(entry, seq=seq), sort_keys=True)
                writer.write((line + "\n").encode("utf-8"))
                wrote = True
            if wrote:
                await writer.drain()
            if time.monotonic() >= deadline or self._stopping.is_set():
                return
            if not events:
                await asyncio.sleep(_STREAM_POLL)


@dataclass
class NodeHandle:
    """A node running on a daemon thread: its address and stop switch."""

    address: str
    node: NodeServer
    stop: Callable[[], None]
    thread: threading.Thread


def start_node_in_background(
    data_dir: str | Path,
    store_dir: str | Path,
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    name: str | None = None,
    workers: int = 1,
    retries: int = 2,
    timeout: float | None = None,
) -> NodeHandle:
    """Run a :class:`NodeServer` on a daemon thread (tests, benchmarks).

    Note in-process nodes share the test's fault plan *process*, so
    ``node-crash`` plans (which exit the process) belong to subprocess
    nodes only — see ``tests/dist/test_cluster.py``.
    """
    node = NodeServer(data_dir, store_dir, host=host, port=port, name=name,
                      workers=workers, retries=retries, timeout=timeout)
    started = threading.Event()
    holder: dict = {}

    def runner() -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)

        async def main() -> None:
            try:
                bound = await node.start()
            except OSError as exc:
                holder["error"] = exc
                started.set()
                return
            holder["loop"] = asyncio.get_running_loop()
            stop_event = holder["stop_event"] = asyncio.Event()
            started.set()
            await stop_event.wait()
            bound.close()
            await bound.wait_closed()
            # Cancel connection handlers still streaming (a merger may
            # hold its journal stream open across our shutdown).
            others = [task for task in asyncio.all_tasks()
                      if task is not asyncio.current_task()]
            for task in others:
                task.cancel()
            await asyncio.gather(*others, return_exceptions=True)

        loop.run_until_complete(main())
        loop.close()

    thread = threading.Thread(target=runner, daemon=True, name="repro-node")
    thread.start()
    if not started.wait(10):
        raise RuntimeError("node did not start within 10s")
    if "error" in holder:
        raise RuntimeError(f"node failed to bind: {holder['error']}")

    def stop() -> None:
        node._stopping.set()
        loop = holder.get("loop")
        if loop is not None:
            loop.call_soon_threadsafe(holder["stop_event"].set)
        thread.join(10)

    return NodeHandle(address=f"{host}:{node.port}", node=node, stop=stop,
                      thread=thread)
