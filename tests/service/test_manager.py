"""Unit tests for the JobManager: queue, quotas, coalescing, persistence."""

import json
import threading
import time

import pytest

from repro import faults
from repro.experiments.api import SuiteRequest
from repro.obs.metrics import MetricsRegistry
from repro.service.manager import JobManager, QueueFull, QuotaExceeded

#: A request that plans zero simulated cells, so jobs finish in ~a second.
CHEAP = {"sections": ("table1",), "scale": 0.001}


def request(**overrides) -> SuiteRequest:
    merged = dict(CHEAP, **overrides)
    return SuiteRequest(**merged)


@pytest.fixture
def manager(tmp_path):
    with JobManager(tmp_path / "svc", registry=MetricsRegistry()) as mgr:
        yield mgr


class TestSubmission:
    def test_submit_runs_to_done(self, manager):
        job, created = manager.submit(request(), "alice")
        assert created
        assert job.id == request().digest
        finished = manager.wait(job.id, timeout=120)
        assert finished.state == "done"
        assert finished.report_path.exists()
        assert finished.report_json_path.exists()
        assert finished.journal_path.exists()

    def test_identical_requests_coalesce(self, manager):
        first, created_first = manager.submit(request(), "alice")
        second, created_second = manager.submit(request(), "bob")
        assert created_first and not created_second
        assert first is second
        assert second.coalesced == 1
        assert second.tenants == {"alice", "bob"}

    def test_distinct_requests_get_distinct_jobs(self, manager):
        first, _ = manager.submit(request(seed=0), "alice")
        second, _ = manager.submit(request(seed=1), "alice")
        assert first.id != second.id

    def test_report_bytes_match_offline_run(self, manager):
        from repro.experiments.api import run_suite

        job, _ = manager.submit(request(), "alice")
        manager.wait(job.id, timeout=120)
        offline = run_suite(request()).report_text
        assert job.report_path.read_text(encoding="utf-8") == offline


class TestAdmissionControl:
    def test_tenant_quota_rejects_with_retry_after(self, tmp_path):
        mgr = JobManager(tmp_path / "svc", executors=1, tenant_quota=1,
                         max_queue=16)
        # Stall the single worker so submissions stay active.
        gate = threading.Event()
        original = mgr._execute
        mgr._execute = lambda job: (gate.wait(30), original(job))
        try:
            mgr.submit(request(seed=0), "alice")
            with pytest.raises(QuotaExceeded) as excinfo:
                mgr.submit(request(seed=1), "alice")
            assert excinfo.value.retry_after >= 1
            # Another tenant still has room.
            job, created = mgr.submit(request(seed=1), "bob")
            assert created and job.state in ("queued", "running")
        finally:
            gate.set()
            mgr.shutdown()

    def test_queue_depth_rejects_with_retry_after(self, tmp_path):
        mgr = JobManager(tmp_path / "svc", executors=1, tenant_quota=50,
                         max_queue=1)
        gate = threading.Event()
        original = mgr._execute
        mgr._execute = lambda job: (gate.wait(30), original(job))
        try:
            first, _ = mgr.submit(request(seed=0), "alice")
            deadline = time.monotonic() + 10
            while first.state != "running":        # worker dequeues it
                assert time.monotonic() < deadline
                time.sleep(0.01)
            mgr.submit(request(seed=1), "alice")   # fills the queue
            with pytest.raises(QueueFull) as excinfo:
                mgr.submit(request(seed=2), "alice")
            assert excinfo.value.retry_after >= 1
        finally:
            gate.set()
            mgr.shutdown()

    def test_coalescing_bypasses_admission(self, tmp_path):
        # A duplicate of an active job attaches even when the queue and
        # the tenant are both saturated — it adds no work.
        mgr = JobManager(tmp_path / "svc", executors=1, tenant_quota=1,
                         max_queue=1)
        gate = threading.Event()
        original = mgr._execute
        mgr._execute = lambda job: (gate.wait(30), original(job))
        try:
            first, _ = mgr.submit(request(seed=0), "alice")
            again, created = mgr.submit(request(seed=0), "alice")
            assert again is first and not created
        finally:
            gate.set()
            mgr.shutdown()


class TestConcurrentSubmitters:
    def test_racing_identical_submissions_share_one_job(self, manager):
        results = [None] * 8
        barrier = threading.Barrier(8)

        def submitter(slot):
            barrier.wait()
            results[slot] = manager.submit(request(), f"tenant-{slot}")

        threads = [threading.Thread(target=submitter, args=(slot,))
                   for slot in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        jobs = {job.id for job, _ in results}
        created = [created for _, created in results]
        assert len(jobs) == 1
        assert created.count(True) == 1, "exactly one submission creates"
        job = manager.wait(jobs.pop(), timeout=120)
        assert job.state == "done"
        assert job.coalesced == 7


class TestPersistence:
    def test_finished_job_reloads_across_managers(self, tmp_path):
        registry = MetricsRegistry()
        with JobManager(tmp_path / "svc", registry=registry) as first:
            job, _ = first.submit(request(), "alice")
            first.wait(job.id, timeout=120)
            report = job.report_path.read_bytes()
        with JobManager(tmp_path / "svc") as second:
            reloaded, created = second.submit(request(), "carol")
            assert not created
            assert reloaded.state == "done"
            assert reloaded.report_path.read_bytes() == report
            # get() also reloads by id alone (no request needed).
            assert second.get(job.id) is reloaded

    @pytest.mark.parametrize("legacy_engine", ["classic", "fast"])
    def test_job_persisted_with_engine_key_reloads(self, manager,
                                                   legacy_engine):
        """A finished job written before the replay-engine option was
        removed records ``"engine"`` in its request; it must still reload
        (not 404) by id."""
        digest = request().digest
        directory = manager.jobs_dir / digest
        directory.mkdir(parents=True)
        (directory / "report.txt").write_text("report\n", encoding="utf-8")
        record = {
            "state": "done",
            "request": dict(request().to_dict(), engine=legacy_engine),
            "tenants": ["alice"],
            "created": 1.0,
            "started": 2.0,
            "finished": 3.0,
            "error": None,
        }
        (directory / "state.json").write_text(json.dumps(record),
                                              encoding="utf-8")
        job = manager.get(digest)
        assert job is not None
        assert job.state == "done"
        assert job.request == request()
        assert "engine" not in job.to_dict()["request"]
        assert job.report_path.read_text(encoding="utf-8") == "report\n"

    def test_job_persisted_with_stream_chunk_refs_reloads(self, manager):
        """Every job finished before the streaming option left the report
        path records ``"stream_chunk_refs": null`` in its request (the
        request's ``to_dict`` always wrote it), and every job finished
        before ``random_replicates`` left the request records it as 3;
        it must still reload as done, by the same id, rather than 404."""
        digest = request().digest
        directory = manager.jobs_dir / digest
        directory.mkdir(parents=True)
        (directory / "report.txt").write_text("report\n", encoding="utf-8")
        record = {
            "state": "done",
            "request": {
                "sections": ["table1"], "scale": 0.001, "seed": 0,
                "quantum_refs": 256, "random_replicates": 3,
                "charts": False, "check_invariants": False,
                "stream_chunk_refs": None, "topology": None,
            },
            "tenants": ["alice"],
            "created": 1.0,
            "started": 2.0,
            "finished": 3.0,
            "error": None,
        }
        (directory / "state.json").write_text(
            json.dumps(record, sort_keys=True, indent=2) + "\n",
            encoding="utf-8")
        job = manager.get(digest)
        assert job is not None
        assert job.state == "done"
        assert job.id == digest
        assert job.request == request()
        assert "stream_chunk_refs" not in job.to_dict()["request"]
        assert "random_replicates" not in job.to_dict()["request"]

    def test_failed_job_is_retried_on_resubmit(self, tmp_path):
        mgr = JobManager(tmp_path / "svc")
        boom = {"on": True}
        original = mgr._execute

        def flaky(job):
            if boom["on"]:
                job.directory.mkdir(parents=True, exist_ok=True)
                job.error = "injected"
                job.finished = job.started or 0.0
                job.state = "failed"
                with mgr._cond:
                    mgr._cond.notify_all()
                return
            original(job)

        mgr._execute = flaky
        try:
            job, _ = mgr.submit(request(), "alice")
            assert mgr.wait(job.id, timeout=30).state == "failed"
            boom["on"] = False
            retried, created = mgr.submit(request(), "alice")
            assert created and retried is job
            assert mgr.wait(job.id, timeout=120).state == "done"
        finally:
            mgr.shutdown()

    def test_degraded_run_fails_then_resubmission_completes(self, tmp_path):
        """A run with a MISSING cell ends ``failed`` (never served or
        reloaded as done); after a restart, resubmitting retries it and
        the report matches the offline run byte for byte."""
        from repro.exec.jobs import plan_sections
        from repro.experiments.api import run_suite

        simulated = request(sections=("figure2",))
        victim = plan_sections(["figure2"], scale=simulated.scale)[0]
        # Every attempt of one cell fails (1 try + 2 retries).
        spec = f"error:worker:job={victim.describe()},times=3"
        with faults.installed(spec, tmp_path / "ledger"):
            with JobManager(tmp_path / "svc") as first:
                job, _ = first.submit(simulated, "alice")
                failed = first.wait(job.id, timeout=120)
                assert failed.state == "failed"
                assert "1 MISSING" in failed.error
        with JobManager(tmp_path / "svc") as second:
            retried, created = second.submit(simulated, "alice")
            assert created
            assert second.wait(retried.id, timeout=120).state == "done"
            served = retried.report_path.read_text(encoding="utf-8")
        assert served == run_suite(simulated).report_text


class TestObservability:
    def test_metrics_flow_through_registry(self, manager):
        job, _ = manager.submit(request(), "alice")
        manager.submit(request(), "bob")
        manager.wait(job.id, timeout=120)
        snapshot = manager.registry.snapshot()
        assert snapshot["counters"]["service_jobs_submitted"] == 1
        assert snapshot["counters"]["service_jobs_coalesced"] == 1
        assert any(k.startswith("service_jobs_finished")
                   for k in snapshot["counters"])
        assert any(k.startswith("service_job_seconds")
                   for k in snapshot["histograms"])

    def test_stats_summary(self, manager):
        job, _ = manager.submit(request(), "alice")
        manager.wait(job.id, timeout=120)
        stats = manager.stats()
        assert stats["jobs"]["done"] == 1
        assert stats["queue_depth"] == 0
        assert stats["avg_job_seconds"] is not None
