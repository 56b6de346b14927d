"""Tests for the execution engine: hardening, caching, resume, determinism.

Custom job runners are module-level functions so they pickle by reference
into worker processes.  Mechanical lifecycle tests run inline (workers=1)
or on a small fork pool to stay fast; the determinism test exercises the
real spawn path end to end.
"""

import time

import pytest

from repro.exec import ExecutionEngine, JobSpec, RunJournal
from repro.exec.engine import simulate_cell
from repro.experiments.cache import ResultStore
from repro.experiments.runner import ExperimentSuite


def _specs(n=1, **overrides):
    """n distinct (by replicate) valid cell specs for mechanical tests."""
    params = dict(app="Water", algorithm="LOAD-BAL", processors=2,
                  scale=0.001)
    params.update(overrides)
    return [JobSpec(replicate=r, **params) for r in range(n)]


# -- module-level runners (picklable) ----------------------------------

def _echo_runner(payload):
    return payload["spec"]["replicate"]


def _always_fail_runner(payload):
    raise RuntimeError("boom")


def _succeed_on_third_runner(payload):
    if payload["attempt"] < 3:
        raise RuntimeError(f"transient failure {payload['attempt']}")
    return "ok"


def _sleepy_runner(payload):
    time.sleep(30)
    return "never"


class TestValidation:
    def test_workers_positive(self):
        with pytest.raises(ValueError):
            ExecutionEngine(workers=0)

    def test_timeout_positive(self):
        with pytest.raises(ValueError):
            ExecutionEngine(timeout=0)

    def test_retries_non_negative(self):
        with pytest.raises(ValueError):
            ExecutionEngine(max_retries=-1)

    def test_store_requires_default_runner(self, tmp_path):
        with pytest.raises(ValueError, match="default simulation runner"):
            ExecutionEngine(store=ResultStore(tmp_path),
                            job_runner=_echo_runner)

    def test_backoff_non_negative(self):
        with pytest.raises(ValueError):
            ExecutionEngine(backoff=-0.1)

    def test_max_backoff_non_negative(self):
        with pytest.raises(ValueError):
            ExecutionEngine(max_backoff=-1)


class TestRetryDelay:
    """The retry schedule: exponential, hard-capped, deterministic jitter."""

    def test_exponential_below_the_cap(self):
        engine = ExecutionEngine(backoff=1.0, max_backoff=1000.0)
        delays = [engine._retry_delay("job", n) for n in (1, 2, 3, 4)]
        # Jitter is a factor in [0.75, 1.25), so the exponential base
        # shows through the ratio of consecutive *same-job* attempts
        # only approximately — pin the envelope instead.
        for attempt, delay in zip((1, 2, 3, 4), delays):
            base = 1.0 * 2 ** (attempt - 1)
            assert 0.75 * base <= delay < 1.25 * base

    def test_cap_applies_before_jitter(self):
        """The ceiling bounds the *base*, so a jittered delay can exceed
        ``max_backoff`` by at most the +25% jitter factor — never by the
        uncapped exponential."""
        engine = ExecutionEngine(backoff=1.0, max_backoff=4.0)
        for attempt in (10, 20, 40):
            delay = engine._retry_delay("job", attempt)
            assert 0.75 * 4.0 <= delay < 1.25 * 4.0

    def test_deterministic_per_job_and_attempt(self):
        engine = ExecutionEngine(backoff=0.5, max_backoff=30.0)
        assert engine._retry_delay("a", 2) == engine._retry_delay("a", 2)
        # Distinct jobs (and distinct attempts) de-synchronize: equal
        # delays would mean retry thundering herds.
        assert engine._retry_delay("a", 2) != engine._retry_delay("b", 2)
        assert engine._retry_delay("a", 2) != engine._retry_delay("a", 3)

    def test_zero_backoff_means_no_delay(self):
        engine = ExecutionEngine(backoff=0.0)
        assert engine._retry_delay("job", 1) == 0.0
        assert engine._retry_delay("job", 7) == 0.0


class TestInlineLifecycle:
    def test_success_and_events(self):
        spec, = _specs()
        report = ExecutionEngine(job_runner=_echo_runner).run([spec])
        assert report.ok
        assert report.result_for(spec) == 0
        kinds = [e["event"] for e in report.events]
        assert kinds[0] == "run-start" and kinds[-1] == "run-end"
        assert kinds[1:4] == ["queued", "started", "finished"]

    def test_duplicate_specs_run_once(self):
        spec, = _specs()
        report = ExecutionEngine(job_runner=_echo_runner).run([spec, spec])
        assert report.summary.executed == 1

    def test_retry_then_succeed(self):
        spec, = _specs()
        engine = ExecutionEngine(job_runner=_succeed_on_third_runner,
                                 max_retries=2, backoff=0.0)
        report = engine.run([spec])
        assert report.ok
        assert report.result_for(spec) == "ok"
        assert report.summary.retries == 2
        finished, = [e for e in report.events if e["event"] == "finished"]
        assert finished["attempt"] == 3

    def test_exhausted_retries_degrade_to_gap(self):
        specs = _specs(2)
        engine = ExecutionEngine(job_runner=_always_fail_runner,
                                 max_retries=1, backoff=0.0)
        report = engine.run(specs)  # must not raise
        assert not report.ok
        assert len(report.failures) == 2
        failure = report.failures[0]
        assert failure.attempts == 2
        assert "boom" in failure.error
        assert report.results == {}
        assert report.summary.failed == 2
        assert report.summary.retries == 2

    def test_timeout_surfaces_as_failed_job(self):
        spec, = _specs()
        engine = ExecutionEngine(job_runner=_sleepy_runner, timeout=0.2,
                                 max_retries=0)
        start = time.perf_counter()
        report = engine.run([spec])
        assert time.perf_counter() - start < 10
        assert not report.ok
        assert report.failures[0].kind == "timeout"
        failed, = [e for e in report.events if e["event"] == "failed"]
        assert "0.2" in failed["error"]


class TestPoolLifecycle:
    def test_pool_runs_custom_runner(self):
        specs = _specs(4)
        engine = ExecutionEngine(workers=2, job_runner=_echo_runner,
                                 mp_context="fork")
        report = engine.run(specs)
        assert report.ok
        assert sorted(report.results.values()) == [0, 1, 2, 3]

    def test_pool_timeout_does_not_wedge_the_pool(self):
        specs = _specs(3)
        engine = ExecutionEngine(workers=2, job_runner=_sleepy_runner,
                                 timeout=0.2, max_retries=0,
                                 mp_context="fork")
        report = engine.run(specs)
        assert len(report.failures) == 3
        assert {f.kind for f in report.failures} == {"timeout"}

    def test_pool_retry_accounting(self):
        spec, = _specs()
        engine = ExecutionEngine(workers=2, job_runner=_succeed_on_third_runner,
                                 max_retries=2, backoff=0.0,
                                 mp_context="fork")
        report = engine.run([spec])
        assert report.ok
        assert report.summary.retries == 2


class TestCacheAndResume:
    def test_cache_hits_skip_execution(self, tmp_path):
        suite = ExperimentSuite(scale=0.001, seed=0, cache_dir=str(tmp_path))
        suite.run("Water", "LOAD-BAL", 2)
        spec, = _specs()
        engine = ExecutionEngine(store=ResultStore(tmp_path))
        report = engine.run([spec])
        assert report.summary.cache_hits == 1
        assert report.summary.executed == 0
        assert report.result_for(spec).execution_time == \
            suite.run("Water", "LOAD-BAL", 2).execution_time

    def test_resume_skips_journal_confirmed_cells(self, tmp_path):
        journal = tmp_path / "run.jsonl"
        store_dir = tmp_path / "store"
        specs = _specs(2)
        first = ExecutionEngine(store=ResultStore(store_dir),
                                journal_path=journal).run(specs)
        assert first.summary.executed == 2
        second = ExecutionEngine(store=ResultStore(store_dir),
                                 journal_path=journal, resume=True).run(specs)
        assert second.summary.resumed == 2
        assert second.summary.executed == 0
        assert second.result_for(specs[0]).execution_time == \
            first.result_for(specs[0]).execution_time

    def test_resume_recomputes_evicted_store_entries(self, tmp_path):
        """A journal-confirmed cell whose .npz vanished must re-run."""
        journal = tmp_path / "run.jsonl"
        store_dir = tmp_path / "store"
        specs = _specs(2)
        ExecutionEngine(store=ResultStore(store_dir),
                        journal_path=journal).run(specs)
        (store_dir / f"{specs[0].job_id}.npz").unlink()
        report = ExecutionEngine(store=ResultStore(store_dir),
                                 journal_path=journal, resume=True).run(specs)
        assert report.summary.resumed == 1
        assert report.summary.executed == 1
        assert report.ok

    def test_without_resume_journal_is_ignored(self, tmp_path):
        journal = tmp_path / "run.jsonl"
        specs = _specs()
        ExecutionEngine(journal_path=journal, job_runner=_echo_runner).run(specs)
        report = ExecutionEngine(journal_path=journal,
                                 job_runner=_echo_runner).run(specs)
        assert report.summary.executed == 1
        assert report.summary.resumed == 0
        # Both runs appended to the same journal file.
        assert len(RunJournal.completed_jobs(journal)) == 1


class TestDeterminism:
    def test_parallel_results_match_sequential(self):
        """Same seeds -> identical SimulationResults, across real spawn
        workers that rebuild every trace from the spec."""
        specs = [
            JobSpec(app="Water", algorithm="LOAD-BAL", processors=2,
                    scale=0.001),
            JobSpec(app="Water", algorithm="SHARE-REFS", processors=2,
                    scale=0.001),
            JobSpec(app="Water", algorithm="RANDOM", processors=2,
                    replicate=1, scale=0.001),
        ]
        report = ExecutionEngine(workers=2, mp_context="spawn").run(specs)
        assert report.ok
        suite = ExperimentSuite(scale=0.001, seed=0)
        for spec in specs:
            sequential = suite.run(spec.app, spec.algorithm, spec.processors,
                                   replicate=spec.replicate)
            parallel = report.result_for(spec)
            assert parallel.execution_time == sequential.execution_time
            assert parallel.miss_breakdown() == sequential.miss_breakdown()
            assert parallel.total_refs == sequential.total_refs

    def test_inline_default_runner_matches_sequential(self):
        spec, = _specs()
        report = ExecutionEngine().run([spec])
        suite = ExperimentSuite(scale=0.001, seed=0)
        assert report.result_for(spec).execution_time == \
            suite.run("Water", "LOAD-BAL", 2).execution_time


class TestSimulateCell:
    def test_worker_suite_is_cached_per_params(self):
        from repro.exec import engine as engine_module

        engine_module._SUITES.clear()
        spec, = _specs()
        simulate_cell({"spec": spec.to_payload()})
        simulate_cell({"spec": spec.to_payload()})
        assert len(engine_module._SUITES) == 1

    def test_quantum_refs_reaches_worker_suite(self):
        from repro.exec import engine as engine_module

        engine_module._SUITES.clear()
        spec, = _specs(quantum_refs=64)
        simulate_cell({"spec": spec.to_payload()})
        (suite,) = engine_module._SUITES.values()
        assert suite.quantum_refs == 64

    def test_worker_suite_cache_is_bounded_lru(self):
        """A long-lived worker serving many distinct requests keeps only
        the most recently used suites."""
        from repro.exec import engine as engine_module

        engine_module._SUITES.clear()
        for seed in range(6):
            spec, = _specs(seed=seed)
            simulate_cell({"spec": spec.to_payload()})
            assert len(engine_module._SUITES) <= engine_module._MAX_SUITES
        assert engine_module._MAX_SUITES == 4
        assert [key[1] for key in engine_module._SUITES] == [2, 3, 4, 5]
        newest = list(engine_module._SUITES.values())[-1]
        spec, = _specs(seed=5)
        simulate_cell({"spec": spec.to_payload()})
        assert list(engine_module._SUITES.values())[-1] is newest
        # A hit refreshes recency: seed 2 survives the next insertion.
        spec, = _specs(seed=2)
        simulate_cell({"spec": spec.to_payload()})
        spec, = _specs(seed=6)
        simulate_cell({"spec": spec.to_payload()})
        assert [key[1] for key in engine_module._SUITES] == [4, 5, 2, 6]
