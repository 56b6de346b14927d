"""Stdlib client for the repro service (plus ``python -m repro.service.client``).

:class:`ServiceClient` speaks the ``/v1`` API over ``http.client`` —
one connection per request, matching the server's ``Connection: close``
discipline — so tests, examples and CI need nothing beyond the standard
library.  The one long-lived call is :meth:`events`, which holds its
connection open and yields journal events as the server streams them;
:meth:`watch` pipes that stream into the shared
:func:`~repro.obs.progress.drive_meter`, so a remote run paints the
same progress line a local ``repro-experiments --progress`` does.  The
same class is the cluster coordinator's client for worker nodes
(:meth:`~ServiceClient.submit_cells`, :meth:`~ServiceClient.mark_run`,
:meth:`~ServiceClient.journal_events`): every ``repro-serve`` process
is both a front door and a worker.

The module doubles as a tiny CLI::

    python -m repro.service.client --url http://127.0.0.1:8077 \\
        submit --sections table1 --scale 0.001 --watch --report-out out.txt

which is exactly how the CI service job exercises the server.
"""

from __future__ import annotations

import argparse
import hashlib
import http.client
import json
import math
import sys
import time
from datetime import datetime, timezone
from email.utils import parsedate_to_datetime
from typing import Callable, Iterator, TypeVar
from urllib.parse import urlencode, urlsplit

from repro import faults

__all__ = ["ServiceClient", "ServiceError", "ServiceUnreachable", "main",
           "retry_idempotent"]

_T = TypeVar("_T")

#: Transient transport failures worth retrying on an idempotent request:
#: ``ConnectionError`` covers refused/reset/aborted/broken-pipe (and
#: ``http.client.RemoteDisconnected``), plus :class:`ServiceUnreachable`,
#: the one type every transport failure of :class:`ServiceClient` takes.
_RETRYABLE_ERRORS = (ConnectionError,)


def retry_idempotent(
    request: Callable[[], _T],
    *,
    key: str,
    attempts: int = 4,
    backoff: float = 0.1,
    max_backoff: float = 2.0,
    sleep: Callable[[float], None] = time.sleep,
) -> _T:
    """Run an **idempotent** request with bounded, jittered backoff.

    Retries only transient transport failures — connection refused or
    reset, the signatures of a restarting server or a healing network
    partition — up to ``attempts`` total tries.  The delay grows
    exponentially from ``backoff``, is hard-capped at ``max_backoff``
    and jittered to 75–125% by a deterministic hash of ``(key,
    attempt)`` (the engine's retry-jitter scheme), so schedules are
    reproducible while a cohort of callers de-synchronizes.

    This helper must only wrap requests that are safe to repeat: GETs,
    or submissions whose deduplication the server guarantees.  A plain
    POST with side effects does **not** qualify — see
    :meth:`ServiceClient.submit`, which deliberately never retries.
    """
    if attempts < 1:
        raise ValueError(f"attempts must be >= 1, got {attempts}")
    attempt = 0
    while True:
        attempt += 1
        try:
            return request()
        except _RETRYABLE_ERRORS:
            if attempt >= attempts:
                raise
        delay = min(backoff * (2 ** (attempt - 1)), max_backoff)
        if delay > 0:
            digest = hashlib.sha256(f"{key}:{attempt}".encode()).digest()
            fraction = int.from_bytes(digest[:8], "big") / 2**64
            sleep(delay * (0.75 + 0.5 * fraction))


class ServiceError(Exception):
    """A non-2xx API response.

    Carries the HTTP ``status`` and, for 429s, the server's
    ``retry_after`` hint in seconds (else ``None``).  The hint is a
    float: RFC 9110 allows both delta-seconds and an HTTP-date, and
    real servers send fractional delays.
    """

    def __init__(self, status: int, message: str,
                 retry_after: float | None = None) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.message = message
        self.retry_after = retry_after


class ServiceUnreachable(ConnectionError):
    """The service could not be reached: refused, reset, timed out, or
    an injected ``partition:link`` fault.  Every transport failure
    surfaces as this one type; it subclasses ``ConnectionError`` so the
    retry helper treats it as transient."""

    def __init__(self, address: str, reason: str) -> None:
        super().__init__(f"{address} unreachable: {reason}")
        self.address = address
        self.reason = reason


class ServiceClient:
    """Client for one service endpoint (a front door or a worker node).

    Idempotent requests (GETs and :meth:`mark_run`) transparently retry
    transient transport failures with bounded jittered backoff
    (:func:`retry_idempotent`) — a restarting server or a healing
    partition costs a delay, not an exception.  :meth:`submit` and
    :meth:`submit_cells` never retry on their own: a POST that died
    mid-flight *may* have been accepted, and a dispatch failure must
    reach the coordinator at once so it can count the failure against
    the node's liveness and re-route.  (Against this server a repeat is
    harmless — jobs coalesce by digest and stored cells are answered as
    cache-hits — so callers wanting at-least-once submission simply
    call again themselves.)

    Every request first consults :func:`repro.faults.partitioned` (site
    ``link``, context ``"<host:port> <METHOD> <path>"``): a seeded
    ``partition:link`` plan makes the request fail exactly like a
    refused connection.

    Args:
        base_url: e.g. ``http://127.0.0.1:8077`` or ``127.0.0.1:8077``.
        tenant: Sent as ``X-Tenant`` on every request; the server's
            quota accounting keys on it.
        timeout: Per-request socket timeout in seconds.
        retries: Total attempts for idempotent requests (1 disables
            retry).
        retry_backoff: Base backoff in seconds between those attempts.
    """

    def __init__(self, base_url: str, *, tenant: str = "default",
                 timeout: float = 30.0, retries: int = 4,
                 retry_backoff: float = 0.1) -> None:
        if "//" not in base_url:
            base_url = "http://" + base_url
        split = urlsplit(base_url)
        if split.scheme != "http":
            raise ValueError(f"only http:// is supported, got {base_url!r}")
        self.host = split.hostname or "127.0.0.1"
        self.port = split.port or 80
        #: ``host:port`` — a node's identity in rings, journals and
        #: fault contexts.
        self.address = f"{self.host}:{self.port}"
        self.tenant = tenant
        self.timeout = timeout
        self.retries = int(retries)
        self.retry_backoff = float(retry_backoff)

    # -- transport -------------------------------------------------------

    def _sever(self, method: str, path: str) -> None:
        if faults.partitioned(f"{self.address} {method} {path}"):
            raise ServiceUnreachable(self.address, "injected partition")

    def _open(self, method: str, path: str, body: dict | None,
              timeout: float) -> tuple[http.client.HTTPConnection,
                                       http.client.HTTPResponse]:
        """Send one request; returns the open connection and response."""
        connection = http.client.HTTPConnection(self.host, self.port,
                                                timeout=timeout)
        headers = {"X-Tenant": self.tenant}
        payload = None
        if body is not None:
            payload = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        try:
            connection.request(method, path, body=payload, headers=headers)
            return connection, connection.getresponse()
        except OSError as exc:
            connection.close()
            raise ServiceUnreachable(self.address, str(exc)) from exc
        except BaseException:
            connection.close()
            raise

    def _request(self, method: str, path: str,
                 body: dict | None = None) -> tuple[int, dict, bytes]:
        """One request/response cycle; returns (status, headers, body)."""
        self._sever(method, path)
        connection, response = self._open(method, path, body, self.timeout)
        try:
            try:
                data = response.read()
            except OSError as exc:
                raise ServiceUnreachable(self.address, str(exc)) from exc
            lowered = {k.lower(): v for k, v in response.getheaders()}
            return response.status, lowered, data
        finally:
            connection.close()

    def _retrying(self, request: Callable[[], _T], key: str) -> _T:
        """Apply this client's idempotent-request retry policy."""
        return retry_idempotent(request, key=f"{self.address}{key}",
                                attempts=self.retries,
                                backoff=self.retry_backoff)

    def _json(self, method: str, path: str,
              body: dict | None = None) -> dict:
        status, headers, data = self._request(method, path, body)
        if status >= 400:
            raise self._error(status, headers, data)
        try:
            return json.loads(data.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ServiceError(status, f"unparseable response body: {exc}")

    def _get_json(self, path: str) -> dict:
        """An idempotent JSON GET, with transient-failure retries."""
        return self._retrying(lambda: self._json("GET", path), key=path)

    def _get_bytes(self, path: str) -> bytes:
        """An idempotent raw GET, with transient-failure retries."""
        def fetch() -> bytes:
            status, headers, data = self._request("GET", path)
            if status >= 400:
                raise self._error(status, headers, data)
            return data

        return self._retrying(fetch, key=path)

    def _stream(self, path: str, timeout: float | None) -> Iterator[dict]:
        """Follow one NDJSON event stream, yielding each event dict.

        ``timeout`` is the server-side bound on the stream's lifetime
        (the socket timeout is stretched to match).  Establishing the
        stream is retried (nothing is consumed yet); a transport failure
        once events flow ends the iterator quietly, as does a torn last
        line — a caller holding a ``seq`` cursor reconnects with
        ``after=`` and misses nothing.
        """
        self._sever("GET", path)
        socket_timeout = self.timeout + (timeout or 0.0)
        connection, response = self._retrying(
            lambda: self._open("GET", path, None, socket_timeout), key=path)
        try:
            if response.status >= 400:
                lowered = {k.lower(): v for k, v in response.getheaders()}
                raise self._error(response.status, lowered, response.read())
            buffer = b""
            while True:
                try:
                    # read1, not read: a plain read(n) on the buffered
                    # response blocks until n bytes or EOF, holding live
                    # events hostage until the server closes the stream.
                    chunk = response.read1(4096)
                except OSError:
                    return
                if not chunk:
                    return
                buffer += chunk
                while b"\n" in buffer:
                    line, _, buffer = buffer.partition(b"\n")
                    try:
                        entry = json.loads(line.decode("utf-8"))
                    except (UnicodeDecodeError, json.JSONDecodeError):
                        continue
                    if isinstance(entry, dict):
                        yield entry
        finally:
            connection.close()

    @staticmethod
    def _error(status: int, headers: dict, data: bytes) -> ServiceError:
        try:
            message = json.loads(data.decode("utf-8")).get("error", "")
        except (UnicodeDecodeError, json.JSONDecodeError):
            message = data.decode("utf-8", errors="replace").strip()
        retry_after = None
        if "retry-after" in headers:
            retry_after = ServiceClient._parse_retry_after(
                headers["retry-after"])
        return ServiceError(status, message or "request failed", retry_after)

    @staticmethod
    def _parse_retry_after(value: str) -> float | None:
        """Parse a ``Retry-After`` header value into seconds-from-now.

        RFC 9110 §10.2.3 allows two forms: delta-seconds (including
        the fractional delays real rate limiters emit) and an absolute
        HTTP-date.  A date is converted to a delay against the current
        UTC clock (tz-naive dates are RFC-required to be GMT, so they
        get UTC attached).  Past dates clamp to 0.0 — "retry now", not
        a negative sleep.  Anything unparseable (or a non-finite
        number) yields None rather than a wrong hint.
        """
        value = value.strip()
        try:
            delay = float(value)
        except ValueError:
            try:
                when = parsedate_to_datetime(value)
            except (TypeError, ValueError):
                return None
            if when is None:  # pre-3.10 parsedate returns None on junk
                return None
            if when.tzinfo is None:
                when = when.replace(tzinfo=timezone.utc)
            delay = (when - datetime.now(timezone.utc)).total_seconds()
        if not math.isfinite(delay):
            return None
        return max(0.0, delay)

    # -- front-door API --------------------------------------------------

    def health(self, *, deep: bool = False) -> dict:
        """GET /healthz (``deep=True`` adds queue depth, executor
        liveness, batch counters and the store writability probe — ok
        vs degraded)."""
        return self._get_json("/healthz?deep=1" if deep else "/healthz")

    def wait_ready(self, *, timeout: float = 10.0,
                   poll: float = 0.05) -> bool:
        """Poll /healthz (one attempt per poll) until the server
        answers ok; False if it never does within ``timeout``."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            try:
                if self._json("GET", "/healthz").get("status") == "ok":
                    return True
            except (ServiceError, OSError, ValueError):
                pass
            time.sleep(poll)
        return False

    def stats(self) -> dict:
        """GET /v1/stats."""
        return self._get_json("/v1/stats")

    def metrics(self) -> str:
        """GET /v1/metrics (Prometheus text)."""
        return self._get_bytes("/v1/metrics").decode("utf-8")

    def submit(self, request: dict) -> dict:
        """POST /v1/jobs; returns the job document (with ``created``).

        ``request`` is a plain :class:`~repro.experiments.api.SuiteRequest`
        dict, e.g. ``{"sections": ["table1"], "scale": 0.001}``.  Raises
        :class:`ServiceError` with ``retry_after`` set on a 429.  Never
        retried (see the class docstring).
        """
        return self._json("POST", "/v1/jobs", body=request)

    def job(self, job_id: str) -> dict:
        """GET /v1/jobs/{id}."""
        return self._get_json(f"/v1/jobs/{job_id}")

    def jobs(self) -> list[dict]:
        """GET /v1/jobs."""
        return self._get_json("/v1/jobs")["jobs"]

    def wait(self, job_id: str, *, timeout: float = 600.0,
             poll_interval: float = 0.2) -> dict:
        """Poll until the job is ``done``/``failed``; returns its record."""
        deadline = time.monotonic() + timeout
        while True:
            record = self.job(job_id)
            if record["state"] in ("done", "failed"):
                return record
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"job {job_id} still {record['state']} after {timeout}s")
            time.sleep(poll_interval)

    def events(self, job_id: str, *, after: int = -1,
               timeout: float | None = None) -> Iterator[dict]:
        """Stream the job's journal events (NDJSON), ending after the
        server's synthetic ``job-end`` event.

        Each journal event carries its ``seq`` (ordinal in the job's
        journal); ``after`` resumes past a seen ``seq``.  ``timeout``
        bounds the whole stream via the server-side ``?timeout=``.
        """
        query = {"after": after} if after >= 0 else {}
        if timeout is not None:
            query["timeout"] = f"{timeout:g}"
        path = f"/v1/jobs/{job_id}/events"
        if query:
            path += "?" + urlencode(query)
        return self._stream(path, timeout)

    def watch(self, job_id: str, *, stream=None,
              timeout: float | None = None):
        """Follow a job with a live progress meter (remote ``--progress``).

        Feeds :meth:`events` through the shared
        :func:`~repro.obs.progress.drive_meter`; returns the closed
        meter and, as a side effect, blocks until the job ends.
        """
        from repro.obs.progress import drive_meter

        return drive_meter(self.events(job_id, timeout=timeout),
                           stream=stream if stream is not None
                           else sys.stderr)

    def report(self, job_id: str) -> bytes:
        """GET /v1/jobs/{id}/report — the report's exact bytes."""
        return self._get_bytes(f"/v1/jobs/{job_id}/report")

    def report_json(self, job_id: str) -> dict:
        """GET /v1/jobs/{id}/report.json, parsed."""
        return self._get_json(f"/v1/jobs/{job_id}/report.json")

    # -- worker-node API (the cluster coordinator's side) ----------------

    def submit_cells(self, payloads: list[dict],
                     directory_version: int | None = None) -> dict:
        """POST /v1/cells — dispatch one batch of cell payloads (202).
        Never retried: see the class docstring."""
        body: dict = {"cells": payloads}
        if directory_version is not None:
            body["directory_version"] = directory_version
        return self._json("POST", "/v1/cells", body)

    def mark_run(self, run_id: str) -> dict:
        """POST /v1/run-marker — append a coordinator run marker to the
        node's journal.  Retried: a duplicate marker is inert (the
        coordinator's merger syncs on the first match)."""
        return self._retrying(
            lambda: self._json("POST", "/v1/run-marker", {"run": run_id}),
            key="/v1/run-marker")

    def journal_events(self, *, after: int = -1,
                       timeout: float = 10.0
                       ) -> Iterator[tuple[int, dict]]:
        """Stream the node's journal as ``(seq, event)`` pairs.

        One bounded stream: the server closes it after ``timeout``
        seconds and the caller reconnects with ``after=<last seq>`` to
        continue (the coordinator's merger loop does exactly that).
        """
        path = f"/v1/journal/events?after={after}&timeout={timeout:g}"
        for entry in self._stream(path, timeout):
            if "seq" in entry:
                yield int(entry.pop("seq")), entry


# ----------------------------------------------------------------------
# Module CLI
# ----------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service.client",
        description="Talk to a running repro service.")
    parser.add_argument("--url", default="http://127.0.0.1:8077",
                        help="service base URL (default %(default)s)")
    parser.add_argument("--tenant", default="default",
                        help="tenant name sent as X-Tenant")
    parser.add_argument("--timeout", type=float, default=30.0,
                        help="per-request socket timeout (seconds)")
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("health", help="liveness check")
    commands.add_parser("stats", help="queue/job summary")
    commands.add_parser("jobs", help="list known jobs")

    submit = commands.add_parser("submit", help="submit a suite run")
    submit.add_argument("--sections", nargs="+", default=None,
                        help="report sections (default: all)")
    submit.add_argument("--scale", type=float, default=None,
                        help="workload scale")
    submit.add_argument("--seed", type=int, default=None, help="base seed")
    submit.add_argument("--quantum-refs", type=int, default=None,
                        help="references per scheduling quantum")
    submit.add_argument("--charts", action="store_true",
                        help="include ASCII charts in the report")
    submit.add_argument("--wait", action="store_true",
                        help="block until the job finishes")
    submit.add_argument("--watch", action="store_true",
                        help="stream events with a progress meter "
                             "(implies --wait)")
    submit.add_argument("--wait-timeout", type=float, default=600.0,
                        help="seconds to wait with --wait/--watch")
    submit.add_argument("--report-out", default=None, metavar="PATH",
                        help="after the job finishes, write the report "
                             "bytes here (implies --wait)")

    for name, text in (("status", "one job's state"),
                       ("wait", "block until a job finishes"),
                       ("events", "stream a job's journal (NDJSON)"),
                       ("report", "print a finished job's report")):
        sub = commands.add_parser(name, help=text)
        sub.add_argument("job_id", help="job id (the request digest)")
        if name == "wait":
            sub.add_argument("--wait-timeout", type=float, default=600.0,
                             help="seconds before giving up")
    return parser


def _submit_payload(args: argparse.Namespace) -> dict:
    payload: dict = {}
    if args.sections is not None:
        payload["sections"] = args.sections
    for name in ("scale", "seed", "quantum_refs"):
        value = getattr(args, name)
        if value is not None:
            payload[name] = value
    if args.charts:
        payload["charts"] = True
    return payload


def main(argv: list[str] | None = None) -> int:
    """Entry point for ``python -m repro.service.client``."""
    args = _build_parser().parse_args(argv)
    client = ServiceClient(args.url, tenant=args.tenant,
                           timeout=args.timeout)
    try:
        if args.command == "health":
            print(json.dumps(client.health(), indent=2, sort_keys=True))
        elif args.command == "stats":
            print(json.dumps(client.stats(), indent=2, sort_keys=True))
        elif args.command == "jobs":
            for record in client.jobs():
                print(f"{record['id']}  {record['state']:>7}  "
                      f"{record['describe']}")
        elif args.command == "submit":
            record = client.submit(_submit_payload(args))
            verb = "created" if record.get("created") else "coalesced"
            print(f"{record['id']}  {verb}", file=sys.stderr)
            wait = args.wait or args.watch or args.report_out
            if args.watch:
                client.watch(record["id"], timeout=args.wait_timeout)
                record = client.job(record["id"])
            elif wait:
                record = client.wait(record["id"],
                                     timeout=args.wait_timeout)
            if wait:
                print(f"{record['id']}  {record['state']}", file=sys.stderr)
                if record["state"] == "failed":
                    print(f"error: {record['error']}", file=sys.stderr)
                    return 1
                if args.report_out:
                    data = client.report(record["id"])
                    if args.report_out == "-":
                        sys.stdout.buffer.write(data)
                    else:
                        with open(args.report_out, "wb") as out:
                            out.write(data)
            else:
                print(record["id"])
        elif args.command == "status":
            print(json.dumps(client.job(args.job_id), indent=2,
                             sort_keys=True))
        elif args.command == "wait":
            record = client.wait(args.job_id, timeout=args.wait_timeout)
            print(f"{record['id']}  {record['state']}")
            if record["state"] == "failed":
                return 1
        elif args.command == "events":
            for entry in client.events(args.job_id):
                print(json.dumps(entry, sort_keys=True))
        elif args.command == "report":
            sys.stdout.buffer.write(client.report(args.job_id))
        return 0
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if exc.retry_after is not None:
            print(f"retry after {exc.retry_after:g}s", file=sys.stderr)
        return 1
    except (ConnectionError, OSError) as exc:
        print(f"error: cannot reach {args.url}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
