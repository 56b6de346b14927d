"""End-to-end cluster tests: the distributed byte-identity invariant.

The acceptance bar for the whole :mod:`repro.dist` layer: a distributed
run — chaos-faulted, node-killed mid-run, rebalanced, resumed — renders
a report byte-identical to the sequential single-machine baseline, with
zero MISSING cells.  Nodes are ``repro-serve`` worker services;
node-crash faults ``os._exit`` the node process, so those scenarios run
real ``repro.tools.serve_cli`` subprocesses (in-process background
services would take the test down with them).
"""

import os
import re
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro.service.manager as manager_mod
from repro.dist.coordinator import DistributedCoordinator, run_distributed
from repro.exec.jobs import plan_sections
from repro.exec.journal import RunJournal
from repro.experiments.api import RunOptions, SuiteRequest, run_suite
from repro.faults import NODE_CRASH_EXIT_CODE
from repro.service.client import ServiceClient
from repro.service.manager import JobManager
from repro.service.server import start_in_background
from repro.tools import stats_cli

_REQUEST = SuiteRequest(sections=("figure2",), scale=0.001)

#: Coordinator knobs tuned for test latency: fast heartbeats, prompt
#: death declaration, short per-request timeouts.
_FAST = {"heartbeat": 0.1, "liveness_failures": 2, "client_timeout": 5.0,
         "stream_timeout": 2.0}


@pytest.fixture(scope="module")
def baseline() -> str:
    """The sequential single-machine report every scenario compares to."""
    return run_suite(_REQUEST, RunOptions(), render=True).report_text


@pytest.fixture
def start_node(tmp_path):
    """Factory for in-process worker services sharing ``tmp_path/store``;
    every one is stopped at teardown."""
    started = []

    def start(name: str):
        manager = JobManager(tmp_path / name, store_dir=tmp_path / "store")
        handle = start_in_background(manager)
        started.append((handle, manager))
        return handle

    yield start
    for handle, manager in started:
        handle.stop()
        manager.shutdown()


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _spawn_node(tmp_path: Path, name: str, port: int,
                fault_env: dict | None = None) -> subprocess.Popen:
    env = dict(os.environ)
    env.pop("REPRO_FAULTS", None)
    env.pop("REPRO_FAULT_LEDGER", None)
    if fault_env:
        env.update(fault_env)
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.tools.serve_cli",
         "--data-dir", str(tmp_path / name),
         "--store-dir", str(tmp_path / "store"),
         "--port", str(port)],
        env=env, stderr=subprocess.DEVNULL)
    address = f"127.0.0.1:{port}"
    assert ServiceClient(address).wait_ready(timeout=15), \
        f"node {name} never came up"
    return process


class TestClusterByteIdentity:
    def test_plain_two_node_run_matches_sequential(self, tmp_path, baseline,
                                                   start_node):
        nodes = [start_node(f"n{i}") for i in range(2)]
        result, cluster = run_distributed(
            _REQUEST, [n.address for n in nodes],
            tmp_path / "coord", tmp_path / "store",
            timeout=240, coordinator_options=_FAST)
        assert cluster.ok and not cluster.missing
        assert not result.degraded
        assert result.report_text == baseline

    def test_join_mid_run_rebalances_and_stays_identical(self, tmp_path,
                                                         baseline,
                                                         start_node):
        nodes = [start_node(f"n{i}") for i in range(3)]
        specs = plan_sections(["figure2"], scale=_REQUEST.scale)
        coordinator = DistributedCoordinator(
            [nodes[0].address, nodes[1].address],
            tmp_path / "coord", tmp_path / "store", **_FAST)
        joiner = threading.Timer(0.5, coordinator.rebalance, args=(
            [n.address for n in nodes],))
        joiner.start()
        try:
            cluster = coordinator.run(specs, timeout=240)
        finally:
            joiner.cancel()
        assert cluster.ok
        assert cluster.directory_version >= 2  # initial + join
        for handle in nodes[1:]:
            handle.stop()
        result, resumed = run_distributed(
            _REQUEST, [nodes[0].address], tmp_path / "coord",
            tmp_path / "store", timeout=60, coordinator_options=_FAST)
        assert resumed.resumed == len(resumed.specs)
        assert result.report_text == baseline


class TestBatchFailureRecovery:
    def test_batch_failure_reroutes_and_completes(self, tmp_path, baseline,
                                                  monkeypatch, start_node):
        """A transient engine blow-up journals ``batch-failed``; the
        coordinator must re-route the batch's cells (kind=batch-failed)
        and still render the baseline's exact bytes."""
        real_engine = manager_mod.ExecutionEngine
        calls: list[int] = []

        class FlakyEngine:
            def __init__(self, *args, **kwargs):
                calls.append(1)
                if len(calls) == 1:
                    raise RuntimeError("injected engine blow-up")
                self._engine = real_engine(*args, **kwargs)

            def run(self, specs):
                return self._engine.run(specs)

        monkeypatch.setattr(manager_mod, "ExecutionEngine", FlakyEngine)
        node = start_node("n0")
        result, cluster = run_distributed(
            _REQUEST, [node.address], tmp_path / "coord",
            tmp_path / "store", timeout=240, coordinator_options=_FAST)
        assert cluster.ok and not cluster.missing
        assert cluster.reroutes > 0
        assert result.report_text == baseline
        merged = RunJournal.read(tmp_path / "coord" / "journal.jsonl")
        assert any(e["event"] == "retrying"
                   and e.get("kind") == "batch-failed" for e in merged)

    def test_deterministic_batch_failure_degrades_without_timeout(
            self, tmp_path, monkeypatch, start_node):
        """run()'s contract under a permanently exploding engine: with
        ``timeout=None`` it must still terminate — the batch's cells
        degrade to MISSING once the re-route budget is exhausted, never
        blocking forever on work no node will complete."""

        class ExplodingEngine:
            def __init__(self, *args, **kwargs):
                raise RuntimeError("always boom")

        monkeypatch.setattr(manager_mod, "ExecutionEngine", ExplodingEngine)
        node = start_node("n0")
        specs = plan_sections(["figure2"], scale=_REQUEST.scale)
        coordinator = DistributedCoordinator(
            [node.address], tmp_path / "coord", tmp_path / "store",
            reroute_budget=2, **_FAST)
        box: dict = {}
        runner = threading.Thread(
            target=lambda: box.update(
                cluster=coordinator.run(specs, timeout=None)),
            daemon=True)
        runner.start()
        runner.join(timeout=120)
        assert not runner.is_alive(), "run(timeout=None) hung on a failed batch"
        cluster = box["cluster"]
        assert not cluster.ok
        assert len(cluster.missing) == len(specs)
        assert all("batch failed" in reason
                   for reason in cluster.failed.values())

    def test_stale_node_journal_history_is_not_merged(self, tmp_path,
                                                      baseline, start_node):
        """Node journals persist across coordinator runs; a previous
        run's ``failed`` events must never leak into a new run (the run
        marker scopes the merge to events after it)."""
        node = start_node("n0")
        _, first = run_distributed(
            _REQUEST, [node.address], tmp_path / "c1",
            tmp_path / "store", timeout=240, coordinator_options=_FAST)
        assert first.ok
        # Forge a previous run's failures into the node's journal.
        specs = plan_sections(["figure2"], scale=_REQUEST.scale)
        with RunJournal(tmp_path / "n0" / "journal.jsonl") as journal:
            for spec in specs:
                journal.record("failed", spec.job_id, error="stale history")
        result, second = run_distributed(
            _REQUEST, [node.address], tmp_path / "c2",
            tmp_path / "store", timeout=240, coordinator_options=_FAST)
        assert second.ok and not second.missing
        assert result.report_text == baseline
        merged = RunJournal.read(tmp_path / "c2" / "journal.jsonl")
        # The stale events were skipped outright — neither honored as
        # failures nor even reached the store-verification fallback.
        assert not any(e.get("error") == "stale history" for e in merged)
        assert not any(e.get("source") == "store-after-failed"
                       for e in merged)

    def test_watchdog_probe_is_non_retrying(self, tmp_path):
        coordinator = DistributedCoordinator(
            ["127.0.0.1:9"], tmp_path / "coord", tmp_path / "store")
        probe = coordinator._probes["127.0.0.1:9"]
        assert probe.retries == 1
        assert probe.timeout <= coordinator.client_timeout


class TestClusterChaos:
    def test_node_crash_rebalance_resume_byte_identical(self, tmp_path,
                                                        baseline):
        """The tentpole invariant, end to end.

        Three subprocess nodes; one carries a seeded ``node-crash:node``
        plan and exits (code 23) on its second contact — after the
        coordinator has routed work at it.  The liveness watchdog must
        declare it dead, rebalance the directory, re-route its cells
        (journaled as ``retrying`` with ``kind="node-crash"``), and the
        run must still complete every cell and render the baseline's
        exact bytes.  A resumed run over the merged journal then redoes
        nothing.
        """
        ledger = tmp_path / "crash-ledger"
        ports = [_free_port() for _ in range(3)]
        procs = [
            _spawn_node(tmp_path, "n0", ports[0]),
            _spawn_node(tmp_path, "n1", ports[1]),
            _spawn_node(tmp_path, "n2", ports[2], fault_env={
                "REPRO_FAULTS": "node-crash:node:nth=2",
                "REPRO_FAULT_LEDGER": str(ledger),
            }),
        ]
        addresses = [f"127.0.0.1:{port}" for port in ports]
        try:
            result, cluster = run_distributed(
                _REQUEST, addresses, tmp_path / "coord",
                tmp_path / "store", timeout=240,
                coordinator_options=_FAST)
        finally:
            for process in procs[:2]:
                process.terminate()
        assert procs[2].wait(timeout=30) == NODE_CRASH_EXIT_CODE
        assert "node-crash:node" in ledger.read_text()
        assert cluster.deaths == [addresses[2]]
        assert cluster.reroutes > 0
        assert cluster.directory_version >= 2
        assert cluster.ok and not cluster.missing
        assert result.report_text == baseline
        # Cluster-wide resume: the merged journal confirms everything.
        result2, resumed = run_distributed(
            _REQUEST, addresses[:2], tmp_path / "coord",
            tmp_path / "store", timeout=60, coordinator_options=_FAST)
        for process in procs[:2]:
            process.wait(timeout=10)
        assert resumed.resumed == len(resumed.specs)
        assert resumed.reroutes == 0
        assert result2.report_text == baseline

    def test_interrupted_run_resumes_to_identical_report(
            self, tmp_path, baseline, monkeypatch, start_node):
        """A coordinator that dies mid-run (here: overall timeout) leaves
        a merged journal a later run completes from.

        The first run's engine is held until the coordinator's timeout
        has degraded the run, so the interruption happens however fast
        the grid computes."""
        real_engine = manager_mod.ExecutionEngine
        release = threading.Event()

        class GatedEngine:
            def __init__(self, *args, **kwargs):
                self._engine = real_engine(*args, **kwargs)

            def run(self, specs):
                release.wait(60)
                return self._engine.run(specs)

        monkeypatch.setattr(manager_mod, "ExecutionEngine", GatedEngine)
        node = start_node("n0")
        try:
            _, first = run_distributed(
                _REQUEST, [node.address], tmp_path / "coord",
                tmp_path / "store", timeout=1.0,
                coordinator_options=_FAST)
        finally:
            release.set()
        # The interrupted run degraded; the resume run must not.
        assert first.missing
        deadline = time.monotonic() + 120
        while time.monotonic() < deadline:
            result, second = run_distributed(
                _REQUEST, [node.address], tmp_path / "coord2",
                tmp_path / "store", timeout=240,
                coordinator_options=_FAST)
            if second.ok:
                break
        assert second.ok and not second.missing
        assert result.report_text == baseline
        # Work the first run *did* finish was reused, not redone:
        # those cells arrive as cache-hits or resumed, and the store
        # already held them.
        assert len(second.results) == len(second.specs)


class TestServiceFrontDoor:
    """A clustered run is an ordinary service job on a front door."""

    def _front(self, tmp_path, nodes):
        manager = JobManager(tmp_path / "front", store_dir=tmp_path / "store",
                             nodes=[n.address for n in nodes])
        return manager, start_in_background(manager)

    def test_clustered_job_is_byte_identical_and_inspectable(
            self, tmp_path, baseline, start_node, capsys):
        nodes = [start_node(f"n{i}") for i in range(2)]
        manager, handle = self._front(tmp_path, nodes)
        try:
            client = ServiceClient(handle.url)
            record = client.submit(_REQUEST.to_dict())
            events = list(client.events(record["id"], timeout=240))
            assert events[-1]["event"] == "job-end"
            assert events[-1]["state"] == "done"
            assert [e["seq"] for e in events[:-1]] == list(
                range(len(events) - 1))
            assert client.report(record["id"]).decode("utf-8") == baseline
        finally:
            handle.stop()
            manager.shutdown()
        job_dir = tmp_path / "front" / "jobs" / record["id"]
        assert (job_dir / "shards.json").is_file()
        assert stats_cli.main([str(job_dir)]) == 0
        out = capsys.readouterr().out
        planned = len(plan_sections(["figure2"], scale=_REQUEST.scale))
        # The merged-journal summary and the shard line, both read from
        # the job's own directory.
        assert re.search(rf"jobs planned\s+{planned}\n", out)
        assert re.search(r"cluster\s+2 node\(s\), 0 death\(s\)", out)
        assert "shards on 2 node(s))" in out

    def test_degraded_job_fails_then_resubmission_completes(
            self, tmp_path, baseline, monkeypatch, start_node):
        real_engine = manager_mod.ExecutionEngine
        broken = threading.Event()
        broken.set()

        class SwitchableEngine:
            def __init__(self, *args, **kwargs):
                if broken.is_set():
                    raise RuntimeError("engine down")
                self._engine = real_engine(*args, **kwargs)

            def run(self, specs):
                return self._engine.run(specs)

        monkeypatch.setattr(manager_mod, "ExecutionEngine",
                            SwitchableEngine)
        nodes = [start_node("n0")]
        manager, handle = self._front(tmp_path, nodes)
        try:
            client = ServiceClient(handle.url)
            first = client.submit(_REQUEST.to_dict())
            failed = client.wait(first["id"], timeout=240)
            assert failed["state"] == "failed"
            assert "MISSING" in failed["error"]
            broken.clear()
            again = client.submit(_REQUEST.to_dict())
            assert again["created"] and again["id"] == first["id"]
            assert client.wait(first["id"], timeout=240)["state"] == "done"
            assert client.report(first["id"]).decode("utf-8") == baseline
        finally:
            handle.stop()
            manager.shutdown()
