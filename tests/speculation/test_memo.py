"""Unit tests for the placement-keyed result memo.

Hand-built scenarios with known structure pin each mechanism on its own:
the deep copy, that a memo hit never aliases memo state, and that an
engine worker places and replays only its own cell.  The property suite
(test_differential.py) covers the generated universe.
"""

import numpy as np
import pytest

from repro.arch.config import ArchConfig
from repro.arch.simulator import simulate
from repro.exec import ExecutionEngine, plan_sections
from repro.exec import engine as engine_module
from repro.exec.engine import simulate_cell
from repro.experiments.cache import ResultStore, result_from_arrays
from repro.experiments.memo import clone_result
from repro.experiments.runner import ExperimentSuite
from repro.oracle import diff_results
from repro.placement.algorithms import all_algorithms
from repro.placement.base import PlacementMap
from repro.trace.stream import ThreadTrace, TraceSet

APP = "Water"
PROCESSORS = 4
SCALE = 0.001


def _thread(tid, rng):
    return ThreadTrace(
        tid,
        np.ones(30, dtype=np.int64),
        rng.integers(0, 64, 30).astype(np.int64),
        rng.random(30) < 0.4,
    )


@pytest.fixture(scope="module")
def scratch():
    """An audited, memo-off suite (the from-scratch answers) and the
    Water/4p placement classes: algorithms grouped by identical
    assignment."""
    suite = ExperimentSuite(scale=SCALE, seed=0,
                            check_invariants=True)
    classes: dict[bytes, list[str]] = {}
    for algo in all_algorithms():
        placement = suite.placement(APP, algo.name, PROCESSORS)
        classes.setdefault(placement.assignment.tobytes(), []).append(
            algo.name)
    return suite, sorted(classes.values(), key=len, reverse=True)


def _results_equal(actual, expected, what):
    diffs = diff_results(actual, expected, actual_name=what,
                         expected_name="scratch")
    assert diffs == [], "; ".join(diffs[:4])


class TestCloneResult:
    def test_deep_copy_shares_nothing(self):
        rng = np.random.default_rng(11)
        traces = TraceSet("t", [_thread(t, rng) for t in range(4)])
        config = ArchConfig(2, 2, cache_words=64)
        placement = PlacementMap([0, 1, 0, 1], 2)
        original = simulate(traces, placement, config)
        copy = clone_result(original)
        assert copy is not original
        _results_equal(copy, original, "clone")
        copy.processors[0].busy += 1
        copy.caches[0].hits += 1
        copy.pairwise_coherence[0, 1] += 1
        fresh = simulate(traces, placement, config)
        _results_equal(original, fresh, "original")


class TestMemoAliasing:
    def test_mutating_a_hit_leaves_the_memo_unchanged(self, scratch):
        reference, classes = scratch
        trio = classes[0]
        assert len(trio) >= 3, "Water/4p needs three identical placements"
        first, second, third = trio[:3]
        expected = reference.run(APP, first, PROCESSORS)
        suite = ExperimentSuite(scale=SCALE, seed=0)
        simulated = suite.run(APP, first, PROCESSORS)
        hit = suite.run(APP, second, PROCESSORS)
        assert hit is not simulated
        hit.processors[0].busy += 1
        hit.caches[0].hits += 1
        hit.pairwise_coherence[0, 1] += 1
        _results_equal(simulated, expected, "memo entry")
        _results_equal(suite.run(APP, third, PROCESSORS), expected,
                       "later hit")


class TestWorkerPlacement:
    def test_worker_places_only_its_own_cell(self, scratch, tmp_path,
                                             monkeypatch):
        """A worker with a populated store next to it searches the
        placement of its own cell and nothing else: an earlier-planned
        sibling in the store is neither placed nor loaded."""
        reference, _classes = scratch
        planned = [s for s in plan_sections(["figure5"], scale=SCALE, seed=0)
                   if s.app == APP and s.processors == PROCESSORS
                   and s.replicate == 0]
        job = planned[-1]
        own = reference.placement(APP, job.algorithm, PROCESSORS)
        sibling = next(
            s for s in planned[:-1]
            if reference.placement(APP, s.algorithm, PROCESSORS) != own)
        store = ResultStore(tmp_path / "store")
        store.store(sibling.store_key,
                    reference.run(APP, sibling.algorithm, PROCESSORS))
        loads = []
        real_load = ResultStore.load

        def counting_load(self, key):
            loads.append(key)
            return real_load(self, key)

        monkeypatch.setattr(ResultStore, "load", counting_load)
        monkeypatch.setattr(engine_module, "_SUITES",
                            engine_module._SUITES.__class__())
        payload = ExecutionEngine(store=store)._payload(job, 1)
        result = result_from_arrays(simulate_cell(payload))
        (suite,) = engine_module._SUITES.values()
        assert list(suite._placements) == [
            (APP, job.algorithm, PROCESSORS, 0)]
        assert loads == []
        _results_equal(result, reference.run(APP, job.algorithm, PROCESSORS),
                       "worker")
