"""Streaming replay ≡ materialized replay, bit for bit.

The streaming-trace refactor's invariant: chunking is a *replay
mechanism*, never a semantic change.  The kernel must produce the
exact same :class:`SimulationResult` — execution time, per-processor
cycle accounting, the four-way miss decomposition, interconnect traffic
and the pairwise coherence matrix — whether a trace arrives as whole
columns or as bounded chunks, for every chunk size, including the
degenerate one-reference chunk (maximal seam count) and chunks far
larger than any thread (a single chunk, the materialized shape).

Three layers of evidence:

* a Hypothesis differential over the oracle's dense little worlds,
  randomizing the chunk size alongside the case;
* the golden-snapshot cases replayed under streaming — the paper
  pipeline's own traces, placements and machines, fed to the kernel as
  chunks, must reproduce the same JSON files
  ``tests/arch/test_golden_snapshots.py`` pins;
* a disk-backed spill replayed cold, so the verified chunk store is in
  the loop, not just in-memory views.
"""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.arch.simulator import simulate
from repro.experiments.runner import ExperimentSuite
from repro.oracle import diff_results, reference_simulate
from repro.trace.streaming import as_streaming, spill_trace_set

from tests.arch.test_golden_snapshots import CASES, DATA_DIR, SCALE, SEED, \
    snapshot_dict
from tests.oracle.strategies import simulation_cases

#: Chunk sizes spanning the interesting regimes: every reference its own
#: chunk, prime-sized seams, and a chunk larger than any generated trace.
CHUNK_SIZES = (1, 3, 17, 10_000)


class TestStreamingDifferential:
    @settings(max_examples=120, deadline=None)
    @given(case=simulation_cases(), chunk_refs=st.sampled_from(CHUNK_SIZES))
    def test_streaming_matches_materialized_exactly(self, case, chunk_refs):
        traces, placement, config, quantum = case
        materialized = simulate(traces, placement, config,
                                quantum_refs=quantum)
        streaming = simulate(as_streaming(traces, chunk_refs), placement,
                             config, quantum_refs=quantum)
        assert not diff_results(
            streaming, materialized,
            actual_name=f"streaming(c{chunk_refs})",
            expected_name="materialized",
        ), (f"c{chunk_refs}/{traces.num_threads}t/"
            f"q{quantum}: streaming replay diverged")

    @settings(max_examples=40, deadline=None)
    @given(case=simulation_cases(max_threads=4, max_refs=40),
           chunk_refs=st.sampled_from((1, 5, 13)))
    def test_streaming_matches_reference_materialized(self, case,
                                                      chunk_refs):
        """The cross product holds too: the kernel fed chunks equals the
        reference interpreter fed whole columns."""
        traces, placement, config, quantum = case
        expected = reference_simulate(traces, placement, config,
                                      quantum_refs=quantum)
        streamed = simulate(as_streaming(traces, chunk_refs), placement,
                            config, quantum_refs=quantum)
        assert not diff_results(streamed, expected,
                                actual_name="kernel+streaming",
                                expected_name="reference+materialized")


class TestStreamingGoldenSnapshots:
    @pytest.mark.parametrize("chunk_refs", [64, 4096])
    @pytest.mark.parametrize(
        "slug,app,algorithm,processors,infinite,topology",
        CASES, ids=[c[0] for c in CASES])
    def test_streaming_suite_matches_golden_snapshot(
            self, slug, app, algorithm, processors, infinite, topology,
            chunk_refs):
        """A paper cell — the suite's traces, placement and machine —
        replayed through the chunked view reproduces the *same* golden
        file the whole-column pipeline pins."""
        path = DATA_DIR / f"golden_{slug}.json"
        assert path.exists(), f"missing snapshot {path}"
        expected = json.loads(path.read_text())
        suite = ExperimentSuite(scale=SCALE, seed=SEED, topology=topology)
        traces = suite.traces(app)
        placement = suite.placement(app, algorithm, processors)
        config = suite._machine(app, placement, infinite=infinite,
                                associativity=1, cache_words=None)
        actual = snapshot_dict(simulate(
            as_streaming(traces, chunk_refs), placement, config,
            quantum_refs=suite.quantum_refs))
        assert actual == expected, (
            f"{slug} [c{chunk_refs}]: streaming replay "
            f"diverged from the golden snapshot"
        )


class TestSpilledReplay:
    def test_disk_backed_replay_is_identical(self, tmp_path):
        """A spill replayed cold from the verified store equals in-memory
        replay — the full generate → spill → drop → replay loop."""
        import numpy as np

        from repro.arch.config import ArchConfig
        from repro.placement.base import PlacementMap
        from repro.workload.applications import build_application

        traces = build_application("Water", scale=0.001, seed=5)
        placement = PlacementMap(
            np.arange(traces.num_threads, dtype=np.int64) % 2, 2)
        config = ArchConfig(num_processors=2, contexts_per_processor=max(
            1, int(placement.cluster_sizes().max())))
        expected = simulate(traces, placement, config)
        spilled = spill_trace_set(traces, tmp_path, chunk_refs=64)
        actual = simulate(spilled, placement, config)
        assert not diff_results(actual, expected, actual_name="spilled",
                                expected_name="materialized")


class TestStreamingGuards:
    def test_simulate_rejects_streaming_with_invariants(self):
        from tests.oracle.strategies import make_trace_set
        from repro.placement.base import PlacementMap
        from repro.arch.config import ArchConfig

        traces = make_trace_set([(((0,), (4,), (False,)))])
        stream = as_streaming(traces, 4)
        placement = PlacementMap([0], 1)
        config = ArchConfig(num_processors=1, contexts_per_processor=1)
        with pytest.raises(ValueError, match="streaming"):
            simulate(stream, placement, config, check_invariants=True)
