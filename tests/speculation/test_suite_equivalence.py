"""Suite- and engine-level result-memo equivalence.

The user-visible contract: running the real experiment pipeline with the
memo on produces *exactly* the results (and therefore reports) it
produces with the memo off — while actually reusing results (>0 hits)
and journaling each reuse.
"""

import numpy as np
import pytest

from repro.exec import ExecutionEngine, plan_sections
from repro.experiments.cache import ResultStore
from repro.experiments.runner import ExperimentSuite
from repro.obs.probes import SimProbe
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
        spec = ExperimentSuite(scale=0.001, seed=0, engine="fast")
        spec.probe = SimProbe()
        speculated = _grid(spec)
        plain = ExperimentSuite(scale=0.001, seed=0, engine="fast",
                                speculate=False)
        expected = _grid(plain)
        for algo in ALGOS:
            diffs = diff_results(speculated[algo], expected[algo],
                                 actual_name="speculative",
                                 expected_name="plain")
            assert diffs == [], f"{algo}: " + "; ".join(diffs[:4])
        assert spec.probe.spec_attempts > 0
        assert spec.probe.spec_hits > 0
        # One memo lookup per cell; every cell is a hit or a replay.
        assert spec.probe.spec_attempts == len(ALGOS)
        assert spec.probe.spec_hits + spec.probe.cells == len(ALGOS)

    def test_speculation_matches_classic_engine_too(self):
        spec = ExperimentSuite(scale=0.001, seed=0, engine="fast")
        classic = ExperimentSuite(scale=0.001, seed=0, engine="classic",
                                  speculate=False)
        for algo in ALGOS[:4]:
            diffs = diff_results(
                spec.run(APP, algo, PROCESSORS),
                classic.run(APP, algo, PROCESSORS),
                actual_name="speculative-fast", expected_name="classic")
            assert diffs == [], f"{algo}: " + "; ".join(diffs[:4])

    def test_check_invariants_disables_speculation(self):
        suite = ExperimentSuite(scale=0.001, seed=0, engine="fast",
                                check_invariants=True)
        suite.probe = SimProbe()
        suite.run(APP, "LOAD-BAL", PROCESSORS)
        suite.run(APP, "SHARE-REFS+LB", PROCESSORS)
        assert suite.probe.spec_attempts == 0

    def test_random_replicates_speculate_exactly(self):
        """RANDOM draws differ per replicate; whether or not the memo
        hits, the replicate average must be unchanged."""
        spec = ExperimentSuite(scale=0.001, seed=0, engine="fast")
        plain = ExperimentSuite(scale=0.001, seed=0, engine="fast",
                                speculate=False)
        for r in range(3):
            diffs = diff_results(
                spec.run(APP, "RANDOM", PROCESSORS, replicate=r),
                plain.run(APP, "RANDOM", PROCESSORS, replicate=r),
                actual_name="speculative", expected_name="plain")
            assert diffs == [], f"replicate {r}: " + "; ".join(diffs[:4])


class TestEngineIntegration:
    def test_planner_assigns_deterministic_hints(self):
        specs = plan_sections(["figure5"], scale=0.001, seed=0)
        again = plan_sections(["figure5"], scale=0.001, seed=0)
        assert [s.neighbors for s in specs] == [s.neighbors for s in again]
        hinted = [s for s in specs if s.neighbors]
        assert hinted, "later-planned cells must carry hints"
        for s in specs:
            assert len(s.neighbors) <= 8
            assert (s.algorithm, s.replicate) not in s.neighbors
            # Hints never leak into the content address.
            assert "neighbors" not in str(s.store_key)

    def test_hints_do_not_change_job_identity(self):
        specs = plan_sections(["figure5"], scale=0.001, seed=0)
        stripped = [s.__class__(**{**s.to_payload(), "neighbors": ()})
                    for s in specs]
        assert [s.job_id for s in specs] == [s.job_id for s in stripped]

    def test_engine_run_speculates_and_journals(self, tmp_path):
        specs = [s for s in plan_sections(["figure5"], scale=0.001, seed=0,
                                          engine="fast")
                 if s.processors == 4 and s.replicate == 0]
        journal = tmp_path / "journal.jsonl"
        engine = ExecutionEngine(workers=1,
                                 store=ResultStore(tmp_path / "store"),
                                 journal_path=str(journal))
        report = engine.run(specs)
        assert report.ok
        kinds = [e["event"] for e in report.events]
        assert "speculated" in kinds
        for event in report.events:
            if event["event"] == "speculated":
                assert event["mode"] == "clone"
                assert event["detail"]

        baseline = ExecutionEngine(workers=1,
                                   store=ResultStore(tmp_path / "plain"),
                                   speculate=False)
        expected = baseline.run(specs)
        assert expected.ok
        assert "speculated" not in [e["event"] for e in expected.events]
        for s in specs:
            diffs = diff_results(report.results[s.job_id],
                                 expected.results[s.job_id],
                                 actual_name="engine-speculative",
                                 expected_name="engine-plain")
            assert diffs == [], f"{s.describe()}: " + "; ".join(diffs[:4])

    def test_store_roundtrip_preserves_speculated_results(self, tmp_path):
        """A speculated result written to the store must read back equal
        (dtype/layout quirks in composed results would surface here)."""
        specs = [s for s in plan_sections(["figure5"], scale=0.001, seed=0,
                                          engine="fast")
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
