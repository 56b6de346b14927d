"""Suite- and engine-level result-memo equivalence.

The user-visible contract: running the real experiment pipeline with the
memo on produces *exactly* the results (and therefore reports) the
audited from-scratch path (``check_invariants=True``: memo off,
reference clustering loop) produces — while actually reusing results
(>0 hits, counted by the probe).
"""

import json

import numpy as np
import pytest

from repro.exec import ExecutionEngine, plan_sections
from repro.exec import engine as engine_module
from repro.experiments.cache import ResultStore
from repro.experiments.runner import ExperimentSuite
from repro.obs.probes import SimProbe
from repro.obs.run import METRICS_JSON, RunObserver
from repro.oracle import diff_results

#: A small real grid slice with guaranteed duplicate placements (the
#: load-balanced variants agree at small thread counts), so the memo
#: must hit.
APP = "Water"
ALGOS = ("LOAD-BAL", "SHARE-REFS", "SHARE-REFS+LB", "MIN-SHARE",
         "MIN-PRIV", "MIN-PRIV+LB", "RANDOM")
PROCESSORS = 4


def _grid(suite):
    return {algo: suite.run(APP, algo, PROCESSORS) for algo in ALGOS}


class TestSuiteEquivalence:
    def test_speculative_suite_is_bit_identical_and_hits(self):
        spec = ExperimentSuite(scale=0.001, seed=0)
        spec.probe = SimProbe()
        speculated = _grid(spec)
        plain = ExperimentSuite(scale=0.001, seed=0,
                                check_invariants=True)
        expected = _grid(plain)
        for algo in ALGOS:
            diffs = diff_results(speculated[algo], expected[algo],
                                 actual_name="speculative",
                                 expected_name="plain")
            assert diffs == [], f"{algo}: " + "; ".join(diffs[:4])
        assert spec.probe.memo_lookups > 0
        assert spec.probe.memo_hits > 0
        # One memo lookup per cell; every cell is a hit or a replay.
        assert spec.probe.memo_lookups == len(ALGOS)
        assert spec.probe.memo_hits + spec.probe.cells == len(ALGOS)

    def test_check_invariants_disables_speculation(self):
        suite = ExperimentSuite(scale=0.001, seed=0,
                                check_invariants=True)
        suite.probe = SimProbe()
        suite.run(APP, "LOAD-BAL", PROCESSORS)
        suite.run(APP, "SHARE-REFS+LB", PROCESSORS)
        assert suite.probe.memo_lookups == 0

    def test_random_replicates_speculate_exactly(self):
        """RANDOM draws differ per replicate; whether or not the memo
        hits, the replicate average must be unchanged."""
        spec = ExperimentSuite(scale=0.001, seed=0)
        plain = ExperimentSuite(scale=0.001, seed=0,
                                check_invariants=True)
        for r in range(3):
            diffs = diff_results(
                spec.run(APP, "RANDOM", PROCESSORS, replicate=r),
                plain.run(APP, "RANDOM", PROCESSORS, replicate=r),
                actual_name="speculative", expected_name="plain")
            assert diffs == [], f"replicate {r}: " + "; ".join(diffs[:4])


class TestEngineIntegration:
    def test_engine_run_speculates_and_journals(self, tmp_path,
                                                monkeypatch):
        specs = [s for s in plan_sections(["figure5"], scale=0.001, seed=0)
                 if s.processors == 4 and s.replicate == 0]
        monkeypatch.setattr(engine_module, "_SUITES",
                            engine_module._SUITES.__class__())
        observer = RunObserver(tmp_path / "obs", progress=False)
        engine = ExecutionEngine(workers=1,
                                 store=ResultStore(tmp_path / "store"),
                                 journal_path=str(tmp_path / "journal.jsonl"),
                                 observer=observer)
        report = engine.run(specs)
        observer.finalize()
        assert report.ok
        counters = json.loads((tmp_path / "obs" / METRICS_JSON).read_text(
            encoding="utf-8"))["counters"]
        assert counters["sim_memo_hits"] > 0
        assert counters["sim_memo_lookups"] == len(specs)
        assert counters["sim_cells"] + counters["sim_memo_hits"] \
            == len(specs)

        reference = ExperimentSuite(scale=0.001, seed=0,
                                    check_invariants=True)
        for s in specs:
            diffs = diff_results(report.results[s.job_id],
                                 reference.run(s.app, s.algorithm,
                                               s.processors),
                                 actual_name="engine",
                                 expected_name="audited")
            assert diffs == [], f"{s.describe()}: " + "; ".join(diffs[:4])

    def test_store_roundtrip_preserves_speculated_results(self, tmp_path):
        """A speculated result written to the store must read back equal
        (dtype/layout quirks in composed results would surface here)."""
        specs = [s for s in plan_sections(["figure5"], scale=0.001, seed=0)
                 if s.processors == 2 and s.replicate == 0]
        store = ResultStore(tmp_path / "store")
        engine = ExecutionEngine(workers=1, store=store)
        report = engine.run(specs)
        assert report.ok
        for s in specs:
            loaded = store.load(s.store_key)
            assert loaded is not None
            assert not diff_results(loaded, report.results[s.job_id],
                                    actual_name="stored",
                                    expected_name="computed")
            pw = np.asarray(loaded.pairwise_coherence)
            assert pw.dtype == np.int64
