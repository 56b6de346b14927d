"""End-to-end tests over a live socket: server + stdlib client.

Each test boots a real :class:`ServiceServer` on a loopback port and
talks to it with :class:`ServiceClient` — the same pair the CI service
job and the throughput benchmark use — so the wire format, the streams
and the byte-identity bar are all exercised for real.
"""

import json
import threading

import pytest

from repro.experiments.api import SuiteRequest, run_suite
from repro.obs.metrics import MetricsRegistry
from repro.service.client import ServiceClient, ServiceError
from repro.service.manager import JobManager
from repro.service.server import route_label, start_in_background

#: Zero simulated cells: the report renders in about a second.
CHEAP = {"sections": ["table1"], "scale": 0.001}
#: A small simulated section, for tests that need real journal traffic.
SIMULATED = {"sections": ["table5"], "scale": 0.0005}


@pytest.fixture
def service(tmp_path):
    """(client, manager) over a running background server."""
    manager = JobManager(tmp_path / "svc", executors=2,
                         registry=MetricsRegistry())
    handle = start_in_background(manager)
    try:
        yield ServiceClient(handle.url, tenant="test"), manager
    finally:
        handle.stop()
        manager.shutdown()


class TestBasics:
    def test_health_and_stats(self, service):
        client, _ = service
        assert client.health()["status"] == "ok"
        stats = client.stats()
        assert stats["queue_depth"] == 0
        assert stats["executors"] == 2

    def test_unknown_routes_are_404(self, service):
        client, _ = service
        for path in ("/v1/nope", "/v1/jobs/deadbeef"):
            status, _, _ = client._request("GET", path)
            assert status == 404, path

    def test_bad_submissions_are_400(self, service):
        client, _ = service
        with pytest.raises(ServiceError) as excinfo:
            client.submit({"sections": ["tableX"]})
        assert excinfo.value.status == 400
        with pytest.raises(ServiceError) as excinfo:
            client.submit({"sections": ["table1"], "jobs": 4})
        assert excinfo.value.status == 400
        status, _, _ = client._request("POST", "/v1/jobs")
        assert status == 400  # no body

    def test_mistyped_fields_are_400(self, service):
        """Strings for switches and fractional seeds are refused, not
        coerced into an audited, charted run of another seed."""
        client, manager = service
        with pytest.raises(ServiceError) as excinfo:
            client.submit(dict(CHEAP, charts="false", check_invariants="0",
                               seed=1.9))
        assert excinfo.value.status == 400
        assert "must be a boolean" in str(excinfo.value)
        assert manager.list_jobs() == []

    def test_wrong_method_is_405(self, service):
        client, _ = service
        status, _, _ = client._request("POST", "/v1/stats")
        assert status == 405


class TestJobLifecycle:
    def test_submit_wait_fetch_byte_identical_report(self, service):
        client, _ = service
        record = client.submit(CHEAP)
        assert record["created"] is True
        finished = client.wait(record["id"], timeout=120)
        assert finished["state"] == "done"
        served = client.report(record["id"])
        offline = run_suite(
            SuiteRequest.from_dict(CHEAP)).report_text
        assert served.decode("utf-8") == offline

    def test_report_json_round_trips(self, service):
        client, _ = service
        record = client.submit(CHEAP)
        client.wait(record["id"], timeout=120)
        document = client.report_json(record["id"])
        assert "table1" in document["sections"]

    def test_artifacts_conflict_before_done(self, tmp_path):
        manager = JobManager(tmp_path / "svc")
        gate = threading.Event()
        original = manager._execute
        manager._execute = lambda job: (gate.wait(30), original(job))
        handle = start_in_background(manager)
        client = ServiceClient(handle.url)
        try:
            record = client.submit(CHEAP)
            with pytest.raises(ServiceError) as excinfo:
                client.report(record["id"])
            assert excinfo.value.status == 409
        finally:
            gate.set()
            handle.stop()
            manager.shutdown()

    def test_coalesced_submission_returns_200(self, service):
        client, _ = service
        first = client.submit(CHEAP)
        second = client.submit(CHEAP)
        assert first["created"] and not second["created"]
        assert first["id"] == second["id"]
        listed = client.jobs()
        assert [j["id"] for j in listed] == [first["id"]]

    def test_legacy_stream_chunk_refs_is_accepted_and_coalesces(self,
                                                                service):
        """A client still sending the retired ``stream_chunk_refs`` names
        the same job as one that omits it; a value the option never
        accepted is still a 400."""
        client, _ = service
        first = client.submit(CHEAP)
        legacy = client.submit(dict(CHEAP, stream_chunk_refs=512))
        assert not legacy["created"]
        assert legacy["id"] == first["id"]
        with pytest.raises(ServiceError) as excinfo:
            client.submit(dict(CHEAP, stream_chunk_refs=0))
        assert excinfo.value.status == 400

    def test_legacy_random_replicates_other_than_3_is_400(self, service,
                                                         monkeypatch):
        """The retired field is accepted only with the one count every
        request runs; any other value is refused before any planning."""
        import repro.exec.jobs

        planned = []
        real = repro.exec.jobs.plan_sections
        monkeypatch.setattr(
            repro.exec.jobs, "plan_sections",
            lambda *a, **kw: planned.append(kw) or real(*a, **kw))
        client, manager = service
        with pytest.raises(ServiceError) as excinfo:
            client.submit({"random_replicates": 3000})
        assert excinfo.value.status == 400
        assert "random_replicates" in str(excinfo.value)
        assert planned == []
        assert manager.list_jobs() == []
        first = client.submit(CHEAP)
        legacy = client.submit(dict(CHEAP, random_replicates=3))
        assert legacy["id"] == first["id"]

    def test_racing_http_submitters_share_one_job(self, service):
        client, _ = service
        results = [None] * 6
        barrier = threading.Barrier(6)

        def submitter(slot):
            barrier.wait()
            worker = ServiceClient(f"{client.host}:{client.port}",
                                   tenant=f"t{slot}")
            results[slot] = worker.submit(CHEAP)

        threads = [threading.Thread(target=submitter, args=(slot,))
                   for slot in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len({r["id"] for r in results}) == 1
        assert sum(1 for r in results if r["created"]) == 1


class TestClientCli:
    def test_submit_sends_every_request_flag(self, service, capsys):
        """``submit`` takes the report CLI's request flags, including the
        topology and the audit switch."""
        from repro.service.client import main

        client, _ = service
        code = main(["--url", f"http://{client.host}:{client.port}",
                     "submit", "--sections", "table1", "--scale", "0.001",
                     "--topology", "numa:2:50:150", "--check-invariants"])
        assert code == 0
        job_id = capsys.readouterr().out.strip()
        request = client.job(job_id)["request"]
        assert request["topology"] == "numa:2:50:150"
        assert request["check_invariants"] is True
        assert job_id == SuiteRequest(
            sections=("table1",), scale=0.001, topology="numa:2:50:150",
            check_invariants=True).digest
        assert client.wait(job_id, timeout=120)["state"] == "done"


class TestAdmission429:
    def test_busy_service_answers_429_with_retry_after(self, tmp_path):
        manager = JobManager(tmp_path / "svc", executors=1, tenant_quota=1,
                             max_queue=1)
        gate = threading.Event()
        original = manager._execute
        manager._execute = lambda job: (gate.wait(30), original(job))
        handle = start_in_background(manager)
        client = ServiceClient(handle.url, tenant="greedy")
        try:
            client.submit(dict(CHEAP, seed=0))
            with pytest.raises(ServiceError) as excinfo:
                client.submit(dict(CHEAP, seed=1))
            assert excinfo.value.status == 429
            assert excinfo.value.retry_after >= 1
        finally:
            gate.set()
            handle.stop()
            manager.shutdown()


class TestRetryAfterParsing:
    """Regression for the 429 backoff header: RFC 9110 allows both
    delta-seconds *and* an HTTP-date, and real proxies send both forms.
    The old bare ``int()`` parse crashed the client on ``"1.5"`` and on
    every HTTP-date."""

    parse = staticmethod(ServiceClient._parse_retry_after)

    def test_integer_delta_seconds(self):
        assert self.parse("120") == pytest.approx(120.0)

    def test_fractional_delta_seconds(self):
        assert self.parse("1.5") == pytest.approx(1.5)
        assert self.parse(" 0.25 ") == pytest.approx(0.25)

    def test_http_date_in_the_future(self):
        from datetime import datetime, timedelta, timezone
        from email.utils import format_datetime

        when = datetime.now(timezone.utc) + timedelta(seconds=90)
        got = self.parse(format_datetime(when, usegmt=True))
        assert got is not None and 80.0 <= got <= 91.0

    def test_http_date_in_the_past_clamps_to_zero(self):
        assert self.parse("Mon, 01 Jan 2001 00:00:00 GMT") == 0.0

    def test_negative_delta_clamps_to_zero(self):
        assert self.parse("-3") == 0.0

    def test_junk_and_non_finite_return_none(self):
        assert self.parse("soon") is None
        assert self.parse("") is None
        assert self.parse("nan") is None
        assert self.parse("inf") is None


class TestEventStream:
    def test_ndjson_stream_replays_journal_and_ends(self, service):
        client, _ = service
        record = client.submit(SIMULATED)
        events = list(client.events(record["id"], timeout=180))
        kinds = [e["event"] for e in events]
        assert kinds[0] == "run-start"
        assert "finished" in kinds
        assert kinds[-1] == "job-end"
        assert events[-1]["state"] == "done"
        # The stream is the journal, verbatim and in order.
        journal_kinds = [k for k in kinds if k != "job-end"]
        assert journal_kinds.index("run-start") == 0
        assert journal_kinds[-1] == "run-end"

    def test_after_cursor_resumes_past_seen_events(self, service):
        client, _ = service
        record = client.submit(CHEAP)
        client.wait(record["id"], timeout=120)
        events = list(client.events(record["id"], timeout=60))
        seqs = [e["seq"] for e in events[:-1]]
        assert seqs == list(range(len(seqs)))
        resumed = list(client.events(record["id"], after=seqs[0],
                                     timeout=60))
        assert [e.get("seq") for e in resumed[:-1]] == seqs[1:]
        assert resumed[-1]["event"] == "job-end"

    def test_sse_format(self, service):
        client, _ = service
        record = client.submit(CHEAP)
        client.wait(record["id"], timeout=120)
        import http.client

        connection = http.client.HTTPConnection(client.host, client.port,
                                                timeout=60)
        try:
            connection.request(
                "GET", f"/v1/jobs/{record['id']}/events?format=sse")
            response = connection.getresponse()
            assert response.getheader("Content-Type") == "text/event-stream"
            body = response.read().decode("utf-8")
        finally:
            connection.close()
        frames = [f for f in body.split("\n\n") if f.strip()]
        assert all(f.startswith("data: ") for f in frames)
        last = json.loads(frames[-1][len("data: "):])
        assert last["event"] == "job-end"

    def test_watch_drives_a_progress_meter(self, service):
        client, _ = service
        record = client.submit(SIMULATED)
        meter = client.watch(record["id"], timeout=180)
        assert meter.closed
        assert meter.total > 0
        assert meter.done == meter.total


class TestMetricsEndpoint:
    def test_route_labels_follow_the_path(self):
        assert route_label("/v1/healthz") == "/healthz"
        assert route_label("/v1/cells") == "/v1/cells"
        assert route_label("/v1/jobs/abc") == "/v1/jobs/{id}"
        assert route_label("/v1/jobs/abc/report.json") == \
            "/v1/jobs/{id}/report.json"
        for path in ("/v1/nope", "/v1/jobs/", "/v1/jobs/abc/nope"):
            assert route_label(path) == "unmatched", path

    def test_errors_count_under_their_route(self, service):
        client, _ = service
        with pytest.raises(ServiceError):
            client.submit({"sections": ["tableX"]})
        client._request("GET", "/v1/jobs/deadbeef")
        client._request("GET", "/v1/nope")
        text = client.metrics()
        for series in (
                'method="POST",route="/v1/jobs",status="400"',
                'method="GET",route="/v1/jobs/{id}",status="404"',
                'method="GET",route="unmatched",status="404"'):
            assert f"service_http_requests{{{series}}}" in text, series

    def test_prometheus_exposition_covers_service_series(self, service):
        client, _ = service
        record = client.submit(CHEAP)
        client.wait(record["id"], timeout=120)
        text = client.metrics()
        assert "service_jobs_submitted" in text
        assert "service_http_requests" in text
        assert "service_http_seconds" in text
