"""Worker-node routes of the service: health, batches, journal streaming,
run markers and link faults — driven through :class:`ServiceClient`
against a live background server, exactly as a cluster coordinator
drives a ``repro-serve`` worker."""

import time

import pytest

from repro import faults
from repro.exec.jobs import plan_sections
from repro.exec.journal import COMPLETED_EVENTS
from repro.service.client import (
    ServiceClient,
    ServiceError,
    ServiceUnreachable,
)
from repro.service.manager import JobManager
from repro.service.server import start_in_background


@pytest.fixture()
def node(tmp_path):
    manager = JobManager(tmp_path / "node", store_dir=tmp_path / "store")
    handle = start_in_background(manager)
    yield handle
    handle.stop()
    manager.shutdown()


def _specs(count=1):
    return plan_sections(["figure2"], scale=0.001)[:count]


def _drain_until(client, predicate, *, timeout=60.0):
    """Stream journal events (reconnecting on the cursor) until the
    predicate over all seen events is satisfied."""
    seen: list[dict] = []
    cursor = -1
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        for seq, entry in client.journal_events(after=cursor, timeout=1.0):
            cursor = max(cursor, seq)
            seen.append(entry)
            if predicate(seen):
                return seen, cursor
        if predicate(seen):
            return seen, cursor
    raise AssertionError(f"predicate never satisfied; saw {len(seen)} events")


class TestWorkerRoutes:
    def test_health_shallow_and_deep(self, node):
        client = ServiceClient(node.address)
        shallow = client.health()
        assert shallow["status"] == "ok"
        assert shallow["node"] == node.address
        deep = client.health(deep=True)
        assert deep["status"] == "ok"
        assert deep["store_writable"] is True
        assert "batches_queued" in deep and "batches_done" in deep

    def test_rejects_malformed_batches(self, node):
        client = ServiceClient(node.address)
        with pytest.raises(ServiceError) as excinfo:
            client.submit_cells([{"app": "nope", "bogus": 1}])
        assert excinfo.value.status == 400
        with pytest.raises(ServiceError) as excinfo:
            client._json("POST", "/v1/cells", {"cells": []})
        assert excinfo.value.status == 400

    def test_executes_batch_and_streams_journal(self, node):
        client = ServiceClient(node.address)
        specs = _specs(2)
        accepted = client.submit_cells(
            [spec.to_payload() for spec in specs], directory_version=1)
        assert accepted["accepted"] == 2

        wanted = {spec.job_id for spec in specs}

        def all_done(seen):
            done = {e.get("job") for e in seen
                    if e.get("event") in COMPLETED_EVENTS}
            return wanted <= done

        seen, cursor = _drain_until(client, all_done)
        # Cursor reconnect yields nothing already merged, and events
        # carry no seq leak into the payload.
        again = list(client.journal_events(after=cursor, timeout=0.5))
        assert [e for _, e in again if e.get("job") in wanted
                and e["event"] in COMPLETED_EVENTS] == []
        assert all("seq" not in e for e in seen)
        assert client.health(deep=True)["batches_done"] == 1

    def test_duplicate_batch_answers_from_store(self, node):
        client = ServiceClient(node.address)
        spec = _specs(1)[0]
        client.submit_cells([spec.to_payload()])
        _drain_until(client, lambda seen: any(
            e.get("job") == spec.job_id and e["event"] in COMPLETED_EVENTS
            for e in seen))
        # Re-dispatching a completed content-addressed cell is answered
        # as a cache-hit — the idempotence re-routing relies on.
        client.submit_cells([spec.to_payload()])
        seen, _ = _drain_until(client, lambda seen: any(
            e.get("job") == spec.job_id and e["event"] == "cache-hit"
            for e in seen))
        hits = [e for e in seen if e.get("event") == "cache-hit"]
        assert hits

    def test_run_marker_journals_a_boundary(self, node):
        client = ServiceClient(node.address)
        marked = client.mark_run("run-abc")
        assert marked == {"status": "marked", "run": "run-abc",
                          "node": node.address}
        _drain_until(client, lambda seen: any(
            e.get("event") == "coordinator-run" and e.get("run") == "run-abc"
            for e in seen))
        # A marker without a run id is a client error, not a journal entry.
        with pytest.raises(ServiceError) as excinfo:
            client._json("POST", "/v1/run-marker", {})
        assert excinfo.value.status == 400

    def test_metrics_list_the_worker_routes(self, node):
        client = ServiceClient(node.address)
        client.mark_run("run-m")
        client.submit_cells([_specs(1)[0].to_payload()])
        list(client.journal_events(timeout=0.1))
        text = client.metrics()
        for route in ("/v1/cells", "/v1/run-marker", "/v1/journal/events"):
            assert f'route="{route}"' in text

    def test_malformed_batch_counts_under_its_route(self, node):
        client = ServiceClient(node.address)
        with pytest.raises(ServiceError):
            client._json("POST", "/v1/cells", {"cells": []})
        assert ('service_http_requests{method="POST",route="/v1/cells",'
                'status="400"}') in client.metrics()

    def test_partition_fault_severs_then_heals(self, node, tmp_path):
        ledger = tmp_path / "ledger"
        client = ServiceClient(node.address, retries=1)
        spec = f"partition:link:job={node.address},times=2"
        with faults.installed(spec, ledger):
            with pytest.raises(ServiceUnreachable):
                client.health()
            with pytest.raises(ServiceUnreachable):
                client.health()
            # The times budget is spent: the link heals.
            assert client.health()["status"] == "ok"
        assert ledger.read_text().count("partition:link") == 2

    def test_partition_ridden_out_by_get_retries(self, node, tmp_path):
        # With the retry budget above the partition's times budget, an
        # idempotent GET rides the healing partition out transparently.
        client = ServiceClient(node.address, retries=3, retry_backoff=0.01)
        spec = f"partition:link:job={node.address},times=2"
        with faults.installed(spec, tmp_path / "ledger"):
            assert client.health()["status"] == "ok"

    def test_refused_connection_is_unreachable(self):
        client = ServiceClient("127.0.0.1:9", retries=1, timeout=2.0)
        with pytest.raises(ServiceUnreachable):
            client.health()
        assert client.wait_ready(timeout=0.2) is False


class TestNodeFaultHelpers:
    def test_node_hang_sleeps_for_secs(self, tmp_path):
        with faults.installed("node-hang:node:secs=0.05",
                              tmp_path / "ledger"):
            start = time.monotonic()
            faults.fire_node("any-node")
            assert time.monotonic() - start >= 0.05
            # times budget spent: second call is a no-op.
            start = time.monotonic()
            faults.fire_node("any-node")
            assert time.monotonic() - start < 0.05
