"""Tests for the RunObserver: engine hooks, artifact materialization,
and an end-to-end engine run under observation."""

import io
import json

import pytest

from repro.exec import engine as engine_module
from repro.exec.engine import ExecutionEngine
from repro.exec.jobs import JobSpec
from repro.exec.summary import RunSummary
from repro.obs.run import (
    METRICS_JSON,
    METRICS_PROM,
    TRACE_CHROME,
    TRACE_JSONL,
    RunObserver,
)
from repro.obs.spans import get_tracer, set_tracer


@pytest.fixture(autouse=True)
def _clean_tracer():
    set_tracer(None)
    yield
    set_tracer(None)


def specs(n=3):
    return [
        JobSpec(app="Water", algorithm="LOAD-BAL", processors=2,
                scale=0.001, seed=0, quantum_refs=256, replicate=i)
        for i in range(n)
    ]


class TestHooks:
    def test_on_event_counts_by_kind(self, tmp_path):
        obs = RunObserver(tmp_path, progress=False)
        obs.on_event({"event": "queued", "job": "a"})
        obs.on_event({"event": "finished", "job": "a"})
        obs.on_event({"event": "retrying", "job": "b", "kind": "timeout"})
        snap = obs.registry.snapshot()
        assert snap["counters"]['engine_events{event="queued"}'] == 1
        assert snap["counters"]['engine_events{event="finished"}'] == 1
        assert snap["counters"][
            'engine_attempt_failures{kind="timeout"}'] == 1

    def test_job_finished_records_latency_probe_and_span(self, tmp_path):
        obs = RunObserver(tmp_path)
        obs.begin(total_jobs=1)
        obs.job_finished(
            {"job": "a", "label": "Water/LOAD-BAL/2p"},
            {"duration": 0.25, "cpu": 0.2, "t_start": 100.0, "worker": 7,
             "attempt": 1, "sim_metrics": {"sim_cells": 1,
                                           "sim_misses_total": 42}},
        )
        artifacts = obs.finalize()
        snap = json.loads(
            artifacts["metrics_json"].read_text(encoding="utf-8"))
        assert snap["counters"]["sim_cells"] == 1
        assert snap["counters"]["sim_misses_total"] == 42
        assert snap["histograms"]["job_seconds"]["count"] == 1
        chrome = json.loads(
            artifacts["trace_chrome"].read_text(encoding="utf-8"))
        (event,) = chrome["traceEvents"]
        assert event["name"] == "simulate_cell"
        assert event["pid"] == 7
        assert event["args"]["label"] == "Water/LOAD-BAL/2p"

    def test_run_ended_sets_gauges(self, tmp_path):
        obs = RunObserver(tmp_path, trace=False)
        summary = RunSummary(
            total_jobs=4, executed=3, failed=1, cache_hits=0, resumed=0,
            retries=2, workers=2, wall_seconds=1.5, p50_seconds=0.2,
            p95_seconds=0.4,
        )
        obs.run_ended(summary)
        gauges = obs.registry.snapshot()["gauges"]
        assert gauges["run_jobs_executed"] == 3
        assert gauges["run_jobs_failed"] == 1
        assert gauges["run_retries"] == 2
        assert gauges["run_wall_seconds"] == 1.5
        assert gauges["run_throughput_jobs_per_s"] == pytest.approx(3 / 1.5)

    def test_want_sim_probe_follows_metrics(self, tmp_path):
        assert RunObserver(tmp_path).want_sim_probe
        assert not RunObserver(tmp_path, metrics=False).want_sim_probe

    def test_begin_installs_tracer_respecting_existing(self, tmp_path):
        first = RunObserver(tmp_path / "a")
        first.begin(1)
        assert get_tracer() is first.tracer
        second = RunObserver(tmp_path / "b")
        second.begin(1)
        assert get_tracer() is first.tracer  # not stolen
        second.finalize()
        assert get_tracer() is first.tracer  # not unset by the bystander
        first.finalize()
        assert get_tracer() is None

    def test_hooks_tolerate_disabled_parts(self, tmp_path):
        obs = RunObserver(tmp_path, metrics=False, trace=False)
        obs.begin(2)
        obs.on_event({"event": "finished", "job": "a"})
        obs.job_finished({"job": "a"}, {"duration": 0.1, "t_start": 1.0})
        obs.run_ended(None)
        assert obs.finalize() == {}


class TestFinalize:
    def test_artifacts_written(self, tmp_path):
        obs = RunObserver(tmp_path)
        obs.begin(1)
        obs.on_event({"event": "finished", "job": "a"})
        obs.job_finished({"job": "a", "label": "x"},
                         {"duration": 0.1, "t_start": 1.0, "worker": 1,
                          "attempt": 1})
        artifacts = obs.finalize()
        assert (tmp_path / METRICS_JSON).exists()
        assert (tmp_path / METRICS_PROM).exists()
        assert (tmp_path / TRACE_JSONL).exists()
        assert (tmp_path / TRACE_CHROME).exists()
        assert set(artifacts) == {"metrics_json", "metrics_prom",
                                  "trace_jsonl", "trace_chrome"}
        prom = (tmp_path / METRICS_PROM).read_text(encoding="utf-8")
        assert "# TYPE engine_events counter" in prom
        # metrics.json is newline-terminated, deterministic JSON.
        text = (tmp_path / METRICS_JSON).read_text(encoding="utf-8")
        assert text.endswith("\n")
        json.loads(text)

    def test_context_manager_finalizes(self, tmp_path):
        with RunObserver(tmp_path) as obs:
            obs.on_event({"event": "finished", "job": "a"})
        assert (tmp_path / METRICS_JSON).exists()


class TestEngineIntegration:
    def test_observed_engine_run(self, tmp_path, monkeypatch):
        """A real (inline) engine run under a full observer: artifacts
        land, metrics include the probe counters shipped from the job
        runner, and the results are identical to an unobserved run."""
        stream = io.StringIO()
        obs = RunObserver(tmp_path / "obs", progress=True,
                          stream=stream, progress_enabled=True)
        jobs = specs(2)
        # A fresh worker suite cache, so no earlier test's memoized cell
        # hides this run's work from the probe.
        monkeypatch.setattr(engine_module, "_SUITES",
                            engine_module._SUITES.__class__())
        observed = ExecutionEngine(
            workers=1, journal_path=tmp_path / "obs" / "journal.jsonl",
            observer=obs,
        ).run(jobs)
        artifacts = obs.finalize()
        plain = ExecutionEngine(workers=1).run(jobs)
        assert observed.ok and plain.ok
        for spec in jobs:
            assert observed.result_for(spec).execution_time \
                == plain.result_for(spec).execution_time
        snap = json.loads(
            artifacts["metrics_json"].read_text(encoding="utf-8"))
        # Both replicates share one placement: every cell is either
        # replayed or answered by the result memo.
        assert snap["counters"]["sim_memo_lookups"] == 2
        assert snap["counters"]["sim_cells"] \
            + snap["counters"]["sim_memo_hits"] == 2
        assert snap["counters"]['engine_events{event="finished"}'] == 2
        assert snap["counters"]["sim_misses_total"] > 0
        assert snap["histograms"]["job_seconds"]["count"] == 2
        assert snap["gauges"]["run_jobs_executed"] == 2
        chrome = json.loads(
            artifacts["trace_chrome"].read_text(encoding="utf-8"))
        cell_events = [e for e in chrome["traceEvents"]
                       if e["name"] == "simulate_cell"]
        assert len(cell_events) == 2
        assert "2/2 cells" in stream.getvalue()
