"""Unit tests for the placement-keyed result memo and its store path.

Hand-built scenarios with known structure pin each mechanism on its own:
the deep copy, the event channel, that a memo hit never aliases memo
state, and the exact number of store loads an engine worker pays for a
hinted sibling.  The property suite (test_differential.py) covers the
generated universe.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.arch.config import ArchConfig
from repro.arch.simulator import simulate
from repro.exec import engine as engine_module
from repro.exec.engine import simulate_cell
from repro.exec.jobs import JobSpec
from repro.experiments.cache import ResultStore, result_from_arrays
from repro.experiments.memo import (
    clone_result,
    stash_speculation,
    take_speculation,
)
from repro.experiments.runner import ExperimentSuite
from repro.obs.probes import take_pending
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
    """A memo-off suite (the from-scratch answers) and the Water/4p
    placement classes: algorithms grouped by identical assignment."""
    suite = ExperimentSuite(scale=SCALE, seed=0, engine="fast",
                            speculate=False)
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
        original = simulate(traces, placement, config, engine="fast")
        copy = clone_result(original)
        assert copy is not original
        _results_equal(copy, original, "clone")
        copy.processors[0].busy += 1
        copy.caches[0].hits += 1
        copy.pairwise_coherence[0, 1] += 1
        fresh = simulate(traces, placement, config, engine="fast")
        _results_equal(original, fresh, "original")


class TestEventChannel:
    def test_stash_take_roundtrip_and_drain(self):
        take_speculation()  # drain anything a prior test left behind
        stash_speculation({"speculation": "clone", "detail": "x"})
        stash_speculation({"speculation": "clone", "detail": "y"})
        assert take_speculation() == [
            {"speculation": "clone", "detail": "x"},
            {"speculation": "clone", "detail": "y"},
        ]
        assert take_speculation() == []


class TestMemoAliasing:
    def test_mutating_a_hit_leaves_the_memo_unchanged(self, scratch):
        reference, classes = scratch
        trio = classes[0]
        assert len(trio) >= 3, "Water/4p needs three identical placements"
        first, second, third = trio[:3]
        expected = reference.run(APP, first, PROCESSORS)
        suite = ExperimentSuite(scale=SCALE, seed=0, engine="fast")
        simulated = suite.run(APP, first, PROCESSORS)
        hit = suite.run(APP, second, PROCESSORS)
        assert hit is not simulated
        hit.processors[0].busy += 1
        hit.caches[0].hits += 1
        hit.pairwise_coherence[0, 1] += 1
        _results_equal(simulated, expected, "memo entry")
        _results_equal(suite.run(APP, third, PROCESSORS), expected,
                       "later hit")


class TestWorkerStorePath:
    """An engine worker's hinted siblings: a stat each, at most one load."""

    @pytest.fixture()
    def worker(self, scratch, tmp_path, monkeypatch):
        reference, classes = scratch
        store = ResultStore(tmp_path / "store")
        donor = classes[0][0]
        spec = JobSpec(app=APP, algorithm=donor, processors=PROCESSORS,
                       scale=SCALE, seed=0, engine="fast")
        store.store(spec.store_key, reference.run(APP, donor, PROCESSORS))
        loads = []
        real_load = ResultStore.load

        def counting_load(self, key):
            loads.append(key)
            return real_load(self, key)

        monkeypatch.setattr(ResultStore, "load", counting_load)
        monkeypatch.setattr(engine_module, "_SUITES",
                            engine_module._SUITES.__class__())
        take_speculation()
        take_pending()

        def run(algorithm):
            cell = replace(spec, algorithm=algorithm,
                           neighbors=((donor, 0),))
            out = simulate_cell({"spec": cell.to_payload(), "probe": True,
                                 "store_dir": str(store.directory)})
            return result_from_arrays(out), take_pending()

        return reference, classes, donor, loads, run

    def test_identical_sibling_costs_one_load(self, worker):
        reference, classes, donor, loads, run = worker
        twin = classes[0][1]
        result, probe = run(twin)
        assert len(loads) == 1
        assert probe["sim_cells"] == 0 and probe["sim_spec_hits"] == 1
        assert take_speculation() == [
            {"speculation": "clone", "detail": f"store:{donor}/r0"}]
        _results_equal(result, reference.run(APP, twin, PROCESSORS),
                       "store clone")
        # The clone is now in the worker's memo: a third identical cell
        # is answered in process, without touching the store again.
        if len(classes[0]) > 2:
            third = classes[0][2]
            result, _ = run(third)
            assert len(loads) == 1
            _results_equal(result, reference.run(APP, third, PROCESSORS),
                           "memo hit")

    def test_different_sibling_costs_no_load(self, worker):
        reference, classes, _donor, loads, run = worker
        other = classes[1][0]
        result, probe = run(other)
        assert loads == []
        assert probe["sim_cells"] == 1 and probe["sim_spec_hits"] == 0
        assert take_speculation() == []
        _results_equal(result, reference.run(APP, other, PROCESSORS),
                       "replay")
