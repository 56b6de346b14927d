"""The HTTP face of the service: routes, streams and request metrics.

:class:`ServiceServer` binds a :class:`~repro.service.manager.JobManager`
to an asyncio socket server speaking the minimal HTTP of
:mod:`repro.service.http`.  The API surface (all under ``/v1``):

========  ===========================  =======================================
Method    Path                         Meaning
========  ===========================  =======================================
GET       ``/healthz``                 liveness and this server's
                                       ``node`` address (also
                                       ``/v1/healthz``); ``?deep=1`` adds
                                       queue depth, executor liveness,
                                       batch counters and a store
                                       writability probe (ok/degraded)
GET       ``/v1/metrics``              Prometheus text exposition
GET       ``/v1/stats``                queue/job summary (JSON)
POST      ``/v1/jobs``                 submit a suite request; 202 created,
                                       200 coalesced, 429 + Retry-After busy
GET       ``/v1/jobs``                 list known jobs
GET       ``/v1/jobs/{id}``            one job's status
GET       ``/v1/jobs/{id}/events``     live journal stream — NDJSON by
                                       default, SSE with ``Accept:
                                       text/event-stream`` or ``?format=sse``
GET       ``/v1/jobs/{id}/report``     the rendered text report (byte-equal
                                       to the same suite run offline)
GET       ``/v1/jobs/{id}/report.json``  the JSON export
POST      ``/v1/cells``                worker: a coordinator's batch of
                                       cell payloads; 202 once queued
POST      ``/v1/run-marker``           worker: journal a coordinator run
                                       boundary
GET       ``/v1/journal/events``       worker: NDJSON of the worker
                                       journal (``?timeout=``, default
                                       30 s)
========  ===========================  =======================================

Both event streams come from one loop over
:class:`~repro.exec.journal.JournalTail` — the same torn-tail-safe
reader behind the progress meter.  Each event carries ``seq``, its
ordinal in the append-only journal, so the ordinal survives reconnects:
a client that lost its stream reconnects with ``?after=<last seq>`` and
misses nothing, duplicates nothing.  A job stream ends with one
synthetic ``job-end`` event carrying the final state, so clients need
no out-of-band poll to learn how the run ended.

Fault injection: every request passes a
:func:`repro.faults.fire_node` checkpoint (context: the bound
``host:port``), as does every executed batch, so a seeded plan can
crash the process (``node-crash:node`` → exit 23, indistinguishable
from SIGKILL to a cluster) or wedge it (``node-hang:node``) at a
deterministic contact.

Every request lands in the manager's metrics registry (count by
route/method/status, latency histogram); an optional background task
exports the registry to a Prometheus textfile on an interval.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable
from urllib.parse import urlsplit

from repro import __version__, faults
from repro.exec.jobs import JobSpec
from repro.exec.journal import JournalTail
from repro.experiments.api import SuiteRequest
from repro.service.http import (
    HttpError,
    Request,
    json_bytes,
    read_request,
    render_response,
)
from repro.service.manager import Busy, Job, JobManager
from repro.util.atomicio import atomic_write_text

__all__ = ["ServiceServer", "ServerHandle", "start_in_background",
           "API_PREFIX"]

#: Version prefix of every API route.
API_PREFIX = "/v1"

#: Seconds between polls while an event stream is idle.
_STREAM_POLL = 0.05

#: Default lifetime of one worker-journal stream (a coordinator
#: reconnects with its cursor, so short streams cost nothing).
_JOURNAL_STREAM_TIMEOUT = 30.0


class ServiceServer:
    """Asyncio HTTP server over one :class:`JobManager`.

    Args:
        manager: The job engine to expose.
        host: Bind address (default loopback; the service has no auth
            beyond tenant self-identification, so keep it local unless
            fronted by something that does).
        port: Bind port; 0 picks a free one (tests).
        metrics_interval: Seconds between Prometheus textfile exports to
            ``<data_dir>/metrics.prom``; ``None`` disables the task.
    """

    def __init__(
        self,
        manager: JobManager,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        metrics_interval: float | None = None,
    ) -> None:
        self.manager = manager
        self.host = host
        self.port = port
        self.metrics_interval = metrics_interval
        #: The bound ``host:port`` (known once :meth:`start` returns).
        self.address: str | None = None
        self._server: asyncio.AbstractServer | None = None

    # -- lifecycle -------------------------------------------------------

    async def start(self) -> asyncio.AbstractServer:
        """Bind the socket; returns the asyncio server (for its port)."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port)
        sock = self._server.sockets[0]
        self.port = sock.getsockname()[1]
        self.address = self.manager.address = f"{self.host}:{self.port}"
        return self._server

    async def serve_forever(self) -> None:
        """Run until cancelled (the CLI's main loop); binds first unless
        :meth:`start` already did."""
        server = self._server or await self.start()
        exporter = None
        if self.metrics_interval:
            exporter = asyncio.ensure_future(self._export_metrics_loop())
        try:
            async with server:
                await server.serve_forever()
        finally:
            if exporter is not None:
                exporter.cancel()

    async def _export_metrics_loop(self) -> None:
        path = self.manager.data_dir / "metrics.prom"
        while True:
            await asyncio.sleep(self.metrics_interval)
            try:
                atomic_write_text(path, self.manager.registry.to_prometheus(),
                                  encoding="utf-8")
            except OSError:
                pass

    # -- connection handling ---------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        start = time.monotonic()
        route, method, status = "unmatched", "-", 0
        try:
            try:
                request = await read_request(reader)
                if request is None:
                    return
                method = request.method
                route, status = await self._dispatch(request, writer)
            except HttpError as exc:
                status = exc.status
                writer.write(render_response(
                    exc.status, json_bytes({"error": exc.message}),
                    headers=exc.headers))
            except (ConnectionError, asyncio.CancelledError):
                raise
            except Exception as exc:
                status = 500
                writer.write(render_response(500, json_bytes(
                    {"error": f"{type(exc).__name__}: {exc}"})))
            await writer.drain()
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            registry = self.manager.registry
            registry.counter("service_http_requests", route=route,
                             method=method, status=str(status)).inc()
            registry.histogram("service_http_seconds", route=route).observe(
                time.monotonic() - start)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                # A stop cancelling this handler ends it here, as a
                # finished task: a cancelled one makes asyncio's stream
                # callback log a spurious error on Python 3.11.
                pass

    async def _dispatch(self, request: Request,
                        writer: asyncio.StreamWriter) -> tuple[str, int]:
        """Route one request; returns ``(route_label, status)`` for the
        request metrics.  Non-streaming handlers write one complete
        response; the events handlers stream and close."""
        # The per-request fault checkpoint: a node-crash plan exits the
        # process here (a cluster sees connections drop — exactly what a
        # kill -9 looks like); a node-hang plan wedges the response past
        # the client's socket timeout.
        faults.fire_node(self.address)
        path, method = request.path, request.method
        if path in ("/healthz", f"{API_PREFIX}/healthz"):
            self._require(method, "GET")
            deep = request.query.get("deep") not in (None, "", "0")
            body = dict(self.manager.health(deep=deep), node=self.address,
                        version=__version__)
            writer.write(render_response(200, json_bytes(body)))
            return "/healthz", 200
        if path == f"{API_PREFIX}/metrics":
            self._require(method, "GET")
            writer.write(render_response(
                200, self.manager.registry.to_prometheus().encode("utf-8"),
                content_type="text/plain; version=0.0.4"))
            return "/v1/metrics", 200
        if path == f"{API_PREFIX}/stats":
            self._require(method, "GET")
            writer.write(render_response(200,
                                         json_bytes(self.manager.stats())))
            return "/v1/stats", 200
        if path == f"{API_PREFIX}/jobs":
            if method == "POST":
                return "/v1/jobs", self._submit(request, writer)
            self._require(method, "GET")
            writer.write(render_response(200, json_bytes(
                {"jobs": [job.to_dict()
                          for job in self.manager.list_jobs()]})))
            return "/v1/jobs", 200
        if path.startswith(f"{API_PREFIX}/jobs/"):
            rest = path[len(f"{API_PREFIX}/jobs/"):]
            job_id, _, leaf = rest.partition("/")
            job = self.manager.get(job_id)
            if job is None:
                raise HttpError(404, f"no job {job_id!r}")
            if not leaf:
                self._require(method, "GET")
                writer.write(render_response(200, json_bytes(job.to_dict())))
                return "/v1/jobs/{id}", 200
            if leaf == "events":
                self._require(method, "GET")
                await self._stream_journal(request, writer,
                                           job.journal_path, job=job)
                return "/v1/jobs/{id}/events", 200
            if leaf == "report":
                self._require(method, "GET")
                return "/v1/jobs/{id}/report", self._send_artifact(
                    writer, job, job.report_path,
                    "text/plain; charset=utf-8")
            if leaf == "report.json":
                self._require(method, "GET")
                return "/v1/jobs/{id}/report.json", self._send_artifact(
                    writer, job, job.report_json_path, "application/json")
        if path == f"{API_PREFIX}/cells":
            self._require(method, "POST")
            self._accept_cells(request, writer)
            return "/v1/cells", 202
        if path == f"{API_PREFIX}/run-marker":
            self._require(method, "POST")
            self._mark_run(request, writer)
            return "/v1/run-marker", 200
        if path == f"{API_PREFIX}/journal/events":
            self._require(method, "GET")
            await self._stream_journal(request, writer,
                                       self.manager.journal_path)
            return "/v1/journal/events", 200
        raise HttpError(404, f"no route for {method} {path}")

    @staticmethod
    def _require(method: str, expected: str) -> None:
        if method != expected:
            raise HttpError(405, f"use {expected}")

    # -- handlers --------------------------------------------------------

    def _submit(self, request: Request,
                writer: asyncio.StreamWriter) -> int:
        """POST /v1/jobs — parse, admit, coalesce."""
        payload = request.json()
        try:
            suite_request = SuiteRequest.from_dict(payload)
        except (ValueError, TypeError) as exc:
            raise HttpError(400, str(exc))
        try:
            job, created = self.manager.submit(suite_request, request.tenant)
        except Busy as exc:
            raise HttpError(429, str(exc),
                            headers={"Retry-After": str(exc.retry_after)})
        status = 202 if created else 200
        body = dict(job.to_dict(), created=created)
        writer.write(render_response(status, json_bytes(body)))
        return status

    def _send_artifact(self, writer: asyncio.StreamWriter, job: Job,
                       path, content_type: str) -> int:
        """Serve a finished job's on-disk artifact byte-for-byte."""
        if job.state == "failed":
            raise HttpError(409, f"job {job.id} failed: {job.error}")
        if not job.terminal or not path.exists():
            raise HttpError(409, f"job {job.id} is {job.state}; "
                            "artifacts exist once it is done")
        writer.write(render_response(200, path.read_bytes(),
                                     content_type=content_type))
        return 200

    def _accept_cells(self, request: Request,
                      writer: asyncio.StreamWriter) -> None:
        """POST /v1/cells — parse payloads, queue one batch, 202."""
        document = request.json()
        cells = document.get("cells")
        if not isinstance(cells, list) or not cells:
            raise HttpError(400, "expected a non-empty 'cells' list")
        try:
            specs = [JobSpec.from_payload(payload) for payload in cells]
        except (TypeError, ValueError) as exc:
            raise HttpError(400, f"bad cell payload: {exc}")
        depth = self.manager.submit_cells(specs)
        body = {
            "accepted": len(specs),
            "node": self.address,
            "queue_depth": depth,
            "directory_version": document.get("directory_version"),
        }
        writer.write(render_response(202, json_bytes(body)))

    def _mark_run(self, request: Request,
                  writer: asyncio.StreamWriter) -> None:
        """POST /v1/run-marker — journal a coordinator run boundary."""
        run = request.json().get("run")
        if not isinstance(run, str) or not run:
            raise HttpError(400, "expected a non-empty 'run' id")
        self.manager.mark_run(run)
        writer.write(render_response(200, json_bytes(
            {"status": "marked", "run": run, "node": self.address})))

    async def _stream_journal(self, request: Request,
                              writer: asyncio.StreamWriter, path: Path,
                              job: Job | None = None) -> None:
        """Follow a journal live: every event once, tagged with ``seq``.

        ``seq`` is the event's ordinal in the append-only journal, so it
        is stable across reconnects; events at or below ``?after=`` are
        skipped.  Torn tails are never counted: :class:`JournalTail`
        only advances past complete lines.  ``?timeout=SECONDS`` bounds
        the stream (the worker journal defaults to 30 s).  A job stream
        also ends once the job is terminal and the file drained, with a
        synthetic ``job-end`` event carrying the final state.
        """
        try:
            after = int(request.query.get("after", -1))
            timeout = request.query.get("timeout")
            if timeout is None and job is None:
                timeout = _JOURNAL_STREAM_TIMEOUT
            deadline = (None if timeout is None
                        else time.monotonic() + float(timeout))
        except ValueError:
            raise HttpError(400, "after/timeout must be numbers")
        sse = request.wants_sse()
        content_type = ("text/event-stream" if sse
                        else "application/x-ndjson")
        writer.write(render_response(200, content_type=content_type,
                                     head_only=True))
        await writer.drain()

        def encode(entry: dict) -> bytes:
            line = json.dumps(entry, sort_keys=True)
            return (f"data: {line}\n\n" if sse else line + "\n").encode(
                "utf-8")

        tailer = JournalTail(path)
        seq = -1
        while True:
            # Checked before the drain, so no tail is lost.
            final = job is not None and job.terminal
            events = tailer.poll()
            wrote = False
            for entry in events:
                seq += 1
                if seq > after:
                    writer.write(encode(dict(entry, seq=seq)))
                    wrote = True
            if wrote:
                await writer.drain()
            if final or (deadline is not None
                         and time.monotonic() >= deadline):
                break
            if not events:
                await asyncio.sleep(_STREAM_POLL)
        if job is not None:
            end = {"event": "job-end", "job": job.id, "state": job.state}
            if job.error:
                end["error"] = job.error
            writer.write(encode(end))
            await writer.drain()


@dataclass
class ServerHandle:
    """A running background server: its URL and how to stop it."""

    url: str
    stop: Callable[[], None]
    thread: threading.Thread

    @property
    def address(self) -> str:
        """``host:port`` — the server's identity as a cluster node."""
        return urlsplit(self.url).netloc


def start_in_background(
    manager: JobManager,
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    metrics_interval: float | None = None,
) -> ServerHandle:
    """Run a :class:`ServiceServer` on a daemon thread (tests, benchmarks).

    Blocks until the socket is bound; the returned handle carries the
    resolved URL (useful with ``port=0``) and a ``stop()`` that shuts
    the event loop down and joins the thread.  The manager is *not*
    shut down — that stays the caller's job.

    In-process servers share the caller's fault plan, so ``node-crash``
    plans (which exit the process) belong to ``repro-serve``
    subprocesses only.
    """
    server = ServiceServer(manager, host=host, port=port,
                           metrics_interval=metrics_interval)
    started = threading.Event()
    holder: dict = {}

    def runner() -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)

        async def main() -> None:
            try:
                await server.start()
            except OSError as exc:
                holder["error"] = exc
                started.set()
                return
            holder["loop"] = asyncio.get_running_loop()
            stop_event = holder["stop_event"] = asyncio.Event()
            asyncio.ensure_future(server.serve_forever())
            started.set()
            await stop_event.wait()
            # Cancel the serve loop (closing the socket) and handlers
            # still streaming (a coordinator may hold a journal stream
            # open across stop).
            others = [task for task in asyncio.all_tasks()
                      if task is not asyncio.current_task()]
            for task in others:
                task.cancel()
            await asyncio.gather(*others, return_exceptions=True)

        loop.run_until_complete(main())
        loop.close()

    thread = threading.Thread(target=runner, daemon=True, name="repro-serve")
    thread.start()
    if not started.wait(10):
        raise RuntimeError("service did not start within 10s")
    if "error" in holder:
        raise RuntimeError(f"service failed to bind: {holder['error']}")

    def stop() -> None:
        loop = holder.get("loop")
        if loop is not None and not loop.is_closed():
            loop.call_soon_threadsafe(holder["stop_event"].set)
        thread.join(10)

    return ServerHandle(url=f"http://{host}:{server.port}", stop=stop,
                        thread=thread)
