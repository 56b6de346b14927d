"""Tests for the fourteen reconstructed applications and their calibration.

These are the substitution-fidelity tests: DESIGN.md claims the synthetic
suite reproduces the paper's Tables 1-2 characteristics; the tests hold the
generators to it.
"""

import numpy as np
import pytest

import repro.workload.applications as applications_module
from repro.trace.analysis import TraceSetAnalysis
from repro.util.rng import RngStreams
from repro.workload.address_space import Region
from repro.workload.channels import PoolChannel
from repro.workload.generator import (
    ThreadRecipe,
    generate_trace_set,
    probe_statistics,
    probe_thread,
)
from repro.workload.applications import (
    APPLICATIONS,
    DEFAULT_SCALE,
    application_names,
    build_application,
    build_suite,
    coarse_names,
    medium_names,
    spec_for,
)
from repro.workload.calibration import calibrate


class TestRegistry:
    def test_fourteen_specs(self):
        assert len(APPLICATIONS) == 14

    def test_names_cover_both_grains(self):
        assert len(coarse_names()) == 7
        assert len(medium_names()) == 7
        assert set(application_names()) == set(coarse_names()) | set(medium_names())

    def test_spec_lookup(self):
        assert spec_for("gauss").name == "Gauss"
        assert spec_for("Locus").name == "LocusRoute"

    def test_unknown_spec(self):
        with pytest.raises(KeyError):
            spec_for("doom")

    def test_cache_sizes_follow_paper_ratio(self):
        """32 KB for coarse + Health + FFT, 64 KB otherwise (§3.2)."""
        small = {name.lower() for name in coarse_names()} | {"health", "fft"}
        for spec in APPLICATIONS:
            if spec.name.lower() in small:
                assert spec.cache_words == 256
            else:
                assert spec.cache_words == 512


class TestBuildApplication:
    def test_deterministic(self):
        a = build_application("Water", scale=0.002, seed=3)
        b = build_application("Water", scale=0.002, seed=3)
        assert a == b

    def test_seed_changes_traces(self):
        a = build_application("Water", scale=0.002, seed=3)
        b = build_application("Water", scale=0.002, seed=4)
        assert a != b

    def test_scale_changes_length(self):
        small = build_application("Water", scale=0.001, seed=0)
        large = build_application("Water", scale=0.002, seed=0)
        assert large.total_length > 1.5 * small.total_length

    def test_invalid_scale(self):
        with pytest.raises(ValueError):
            build_application("Water", scale=0.0)

    def test_thread_count_matches_target(self):
        ts = build_application("Gauss", scale=0.001, seed=0)
        assert ts.num_threads == 127

    def test_build_suite_subset(self):
        suite = build_suite(scale=0.001, names=["FFT", "Water"])
        assert set(suite) == {"FFT", "Water"}


@pytest.mark.integration
class TestCalibrationFullSuite:
    """Every application must pass its calibration at the default scale."""

    @pytest.mark.parametrize("name", application_names())
    def test_calibrated(self, name):
        ts = build_application(name, scale=DEFAULT_SCALE, seed=0)
        report = calibrate(ts, spec_for(name).targets, DEFAULT_SCALE)
        assert report.passed, "\n" + str(report)

    def test_fft_extreme_imbalance_preserved(self):
        """FFT must keep the largest thread-length deviation of the suite."""
        devs = {}
        for name in ("FFT", "Water", "Gauss"):
            ts = build_application(name, scale=DEFAULT_SCALE, seed=0)
            devs[name] = TraceSetAnalysis(ts).thread_lengths.percent_dev
        assert devs["FFT"] > devs["Gauss"] > devs["Water"]

    def test_uniform_apps_have_uniform_pairwise_sharing(self):
        """The key driver of the paper's negative result."""
        water = build_application("Water", scale=DEFAULT_SCALE, seed=0)
        health = build_application("Health", scale=DEFAULT_SCALE, seed=0)
        dev_water = TraceSetAnalysis(water).pairwise_sharing.percent_dev
        dev_health = TraceSetAnalysis(health).pairwise_sharing.percent_dev
        assert dev_water < 30.0
        assert dev_health > 100.0


class TestProbeStatistics:
    """Calibration measures shared-run probes instead of finished traces;
    on every round of every application the two must agree exactly, so
    every round takes the decision the full analysis would."""

    @pytest.mark.parametrize("scale", [0.004, 0.03])
    @pytest.mark.parametrize("name", application_names())
    def test_probe_statistics_equal_full_analysis(self, monkeypatch, name, scale):
        rounds = []

        def recording(probes):
            measured = probe_statistics(probes)
            rounds.append(([probe.recipe for probe in probes], measured))
            return measured

        monkeypatch.setattr(applications_module, "probe_statistics", recording)
        build_application(name, scale=scale, seed=0)
        assert rounds
        streams = RngStreams(0).child("workload", name, f"scale={scale}")
        for recipes, (shared_pct, rpsa) in rounds:
            full = TraceSetAnalysis(generate_trace_set(
                name, recipes, lambda tid: streams.get("thread", tid)))
            assert shared_pct == full.percent_shared_refs
            assert rpsa == full.refs_per_shared_address

    @pytest.mark.parametrize("second_private,shared", [
        (Region(32, 64), Region(200, 8)),   # two threads' private regions overlap
        (Region(100, 64), Region(60, 8)),   # a shared region reaches into one
    ])
    def test_overlapping_private_regions_rejected(self, second_private, shared):
        channel = PoolChannel(region=shared, weight=1.0, write_prob=0.0, mean_run=4.0)
        probes = [
            probe_thread(ThreadRecipe(thread_id=tid, length=100, channels=[channel],
                                      private_region=private),
                         np.random.default_rng(tid))
            for tid, private in enumerate([Region(0, 64), second_private])
        ]
        with pytest.raises(ValueError, match="disjoint"):
            probe_statistics(probes)

    def test_disjoint_regions_accepted(self):
        channel = PoolChannel(region=Region(64, 8), weight=1.0, write_prob=0.0,
                              mean_run=4.0)
        probes = [
            probe_thread(ThreadRecipe(thread_id=tid, length=100, channels=[channel],
                                      private_region=private),
                         np.random.default_rng(tid))
            for tid, private in enumerate([Region(0, 64), Region(72, 64)])
        ]
        shared_pct, _ = probe_statistics(probes)
        assert shared_pct.count == 2
