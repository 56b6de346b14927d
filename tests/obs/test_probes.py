"""Tests for simulator probes: observation must not perturb results,
counters must match the result, and snapshots must cross processes."""

import pytest

from repro.arch.config import ArchConfig
from repro.arch.simulator import simulate
from repro.arch.stats import MissKind
from repro.obs.probes import SimProbe, stash_pending, take_pending
from repro.oracle import diff_results
from repro.placement import LoadBal, PlacementInputs
from repro.trace.analysis import TraceSetAnalysis
from repro.workload import build_application, spec_for


@pytest.fixture(scope="module")
def cell():
    """A small real cell: Water, LOAD-BAL on 4 processors."""
    traces = build_application("Water", scale=0.001, seed=0)
    analysis = TraceSetAnalysis(traces)
    placement = LoadBal().place(PlacementInputs(analysis, 4))
    config = ArchConfig(
        num_processors=4,
        contexts_per_processor=int(placement.cluster_sizes().max()),
        cache_words=spec_for("Water").cache_words,
    )
    return traces, placement, config


class TestProbeObservesOnly:
    def test_probed_run_is_bit_identical(self, cell):
        traces, placement, config = cell
        plain = simulate(traces, placement, config)
        probed = simulate(traces, placement, config, probe=SimProbe())
        assert diff_results(probed, plain, actual_name="probed",
                            expected_name="plain") == []


class TestProbeCounts:
    def test_misses_match_result_breakdown(self, cell):
        traces, placement, config = cell
        probe = SimProbe()
        result = simulate(traces, placement, config, probe=probe)
        assert probe.misses == result.miss_breakdown()
        assert probe.cells == 1
        assert probe.quanta > 0
        switching_cycles = sum(p.switching for p in result.processors)
        assert probe.switches * config.context_switch_cycles \
            == switching_cycles

    def test_accumulates_across_cells(self, cell):
        traces, placement, config = cell
        probe = SimProbe()
        simulate(traces, placement, config, probe=probe)
        one_run = probe.snapshot()
        simulate(traces, placement, config, probe=probe)
        two_runs = probe.snapshot()
        assert two_runs == {k: 2 * v for k, v in one_run.items()}


class TestSnapshotMerge:
    def test_snapshot_names_are_flat_and_stable(self):
        snap = SimProbe().snapshot()
        assert set(snap) == {
            "sim_cells", "sim_quanta", "sim_context_switches",
            "sim_directory_upgrades", "sim_miss_compulsory",
            "sim_miss_intra_conflict", "sim_miss_inter_conflict",
            "sim_miss_invalidation", "sim_misses_total",
            "sim_memo_lookups", "sim_memo_hits",
            "sim_placement_searches", "sim_placement_relaxed",
            "sim_placement_backtracks",
        }
        assert all(v == 0 for v in snap.values())

    def test_merge_adds_speculation_counters(self):
        a, b = SimProbe(), SimProbe()
        a.memo_lookups, a.memo_hits = 4, 3
        b.memo_lookups, b.memo_hits = 2, 2
        a.merge(b)
        snap = a.snapshot()
        assert snap["sim_memo_lookups"] == 6
        assert snap["sim_memo_hits"] == 5

    def test_merge_adds_placement_counters(self):
        a, b = SimProbe(), SimProbe()
        a.placement_searches, a.placement_relaxed = 3, 1
        a.placement_backtracks = 2000
        b.placement_searches, b.placement_backtracks = 2, 40
        a.merge(b)
        snap = a.snapshot()
        assert snap["sim_placement_searches"] == 5
        assert snap["sim_placement_relaxed"] == 1
        assert snap["sim_placement_backtracks"] == 2040

    def test_merge_adds(self):
        a, b = SimProbe(), SimProbe()
        a.quanta, a.switches, a.upgrades, a.cells = 1, 2, 3, 1
        a.misses[MissKind.COMPULSORY] = 5
        b.quanta, b.cells = 10, 1
        b.misses[MissKind.INVALIDATION] = 7
        a.merge(b)
        snap = a.snapshot()
        assert snap["sim_quanta"] == 11
        assert snap["sim_cells"] == 2
        assert snap["sim_miss_compulsory"] == 5
        assert snap["sim_miss_invalidation"] == 7
        assert snap["sim_misses_total"] == 12

    def test_stash_take_pending(self):
        assert take_pending() is None
        stash_pending({"sim_cells": 1})
        assert take_pending() == {"sim_cells": 1}
        assert take_pending() is None


class TestPlacementSearchCounters:
    def test_grid_reports_the_known_relaxed_count(self):
        """Every clustering search of the seed-0 report grid at scale
        0.001 is counted once, with the 26 the fallback finished (all of
        them ``+LB`` runs) and their backtracks; LOAD-BAL and RANDOM are
        not searches."""
        from repro.exec import plan_sections
        from repro.experiments.runner import ExperimentSuite

        suite = ExperimentSuite(scale=0.001, seed=0)
        suite.probe = SimProbe()
        cells = {(spec.app, spec.algorithm, spec.processors, spec.replicate)
                 for spec in plan_sections(None, scale=0.001, seed=0)}
        relaxed = set()
        for app, algorithm, processors, replicate in sorted(cells):
            placement = suite.placement(app, algorithm, processors,
                                        replicate=replicate)
            if placement.relaxed:
                relaxed.add((app, algorithm, processors))
        snap = suite.probe.snapshot()
        assert snap["sim_placement_searches"] == 360
        assert snap["sim_placement_relaxed"] == len(relaxed) == 26
        assert all(algorithm.endswith("+LB") for _, algorithm, _ in relaxed)
        assert snap["sim_placement_backtracks"] == 41211
        # Memoized placements are not searched (or counted) twice.
        suite.placement(*sorted(relaxed)[0])
        assert suite.probe.snapshot() == snap
