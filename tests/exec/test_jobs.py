"""Tests for job specs and the sweep planners."""

import pytest

from repro.exec.jobs import (
    SIMULATED_SECTIONS,
    JobSpec,
    plan_full_grid,
    plan_sections,
)
from repro.experiments.cache import ResultStore, store_digest
from repro.experiments.runner import ExperimentSuite


class TestJobSpec:
    def test_names_canonicalized(self):
        spec = JobSpec(app="water", algorithm="load-bal", processors=2)
        assert spec.app == "Water"
        assert spec.algorithm == "LOAD-BAL"

    def test_table5_alias_canonicalized(self):
        assert JobSpec(app="Locus", algorithm="RANDOM", processors=2).app == \
            "LocusRoute"

    def test_unknown_app_rejected(self):
        with pytest.raises(KeyError, match="unknown application"):
            JobSpec(app="NotAnApp", algorithm="RANDOM", processors=2)

    def test_equal_cells_share_job_id(self):
        a = JobSpec(app="water", algorithm="load-bal", processors=4)
        b = JobSpec(app="Water", algorithm="LOAD-BAL", processors=4)
        assert a == b
        assert a.job_id == b.job_id

    def test_job_id_is_store_digest(self):
        spec = JobSpec(app="Water", algorithm="LOAD-BAL", processors=2)
        assert spec.job_id == store_digest(spec.store_key)

    def test_payload_round_trip(self):
        spec = JobSpec(app="FFT", algorithm="SHARE-REFS", processors=8,
                       infinite=True, replicate=2, scale=0.002, seed=3,
                       quantum_refs=128)
        assert JobSpec.from_payload(spec.to_payload()) == spec

    def test_quantum_refs_changes_job_id(self):
        a = JobSpec(app="Water", algorithm="LOAD-BAL", processors=2,
                    quantum_refs=256)
        b = JobSpec(app="Water", algorithm="LOAD-BAL", processors=2,
                    quantum_refs=128)
        assert a.job_id != b.job_id

    def test_describe_mentions_cell(self):
        spec = JobSpec(app="Water", algorithm="LOAD-BAL", processors=2,
                       infinite=True, replicate=1)
        text = spec.describe()
        assert "Water" in text and "LOAD-BAL" in text and "2p" in text
        assert "inf" in text and "r1" in text


class TestStoreKeyCompatibility:
    def test_spec_addresses_suite_store_entry(self, tmp_path):
        """A JobSpec and the sequential suite must address the same file."""
        suite = ExperimentSuite(scale=0.001, seed=0,
                                cache_dir=str(tmp_path))
        suite.run("Water", "LOAD-BAL", 2)
        spec = JobSpec(app="Water", algorithm="LOAD-BAL", processors=2,
                       scale=0.001, seed=0, quantum_refs=256)
        store = ResultStore(tmp_path)
        assert store.contains(spec.store_key)
        assert (tmp_path / f"{spec.job_id}.npz").exists()


class TestPlanSections:
    def test_figure_plan_covers_one_app(self):
        plan = plan_sections(["figure4"], scale=0.001)
        assert plan
        assert {spec.app for spec in plan} == {"Barnes-Hut"}
        assert not any(spec.infinite for spec in plan)

    def test_figure_plan_includes_random_replicates(self):
        plan = plan_sections(["figure2"], scale=0.001, random_replicates=3)
        replicates = {s.replicate for s in plan if s.algorithm == "RANDOM"}
        assert replicates == {0, 1, 2}
        assert all(s.replicate == 0 for s in plan if s.algorithm != "RANDOM")

    def test_table5_plan_is_infinite_cache(self):
        plan = plan_sections(["table5"], scale=0.001)
        assert plan
        assert all(spec.infinite for spec in plan)
        assert {"COHERENCE-TRAFFIC", "LOAD-BAL"} <= {s.algorithm for s in plan}

    def test_non_simulated_sections_plan_nothing(self):
        assert plan_sections(["calibration", "table1", "ablations"]) == []

    def test_default_covers_all_simulated_sections(self):
        everything = plan_sections(scale=0.001)
        for section in SIMULATED_SECTIONS:
            for spec in plan_sections([section], scale=0.001):
                assert spec in everything

    def test_job_ids_unique(self):
        plan = plan_sections(scale=0.001)
        ids = [spec.job_id for spec in plan]
        assert len(ids) == len(set(ids))

    def test_plan_is_deterministic(self):
        assert plan_sections(scale=0.001) == plan_sections(scale=0.001)

    def test_params_threaded_through(self):
        plan = plan_sections(["figure4"], scale=0.002, seed=7,
                             quantum_refs=64)
        assert all(
            (s.scale, s.seed, s.quantum_refs) == (0.002, 7, 64) for s in plan
        )


class TestPayload:
    def test_legacy_engine_key_rejected(self):
        """A payload from a coordinator that predates the removal of the
        replay-engine option still carries ``engine``; mixed-version
        clusters are unsupported, so it is rejected, not ignored."""
        payload = JobSpec(app="Water", algorithm="LOAD-BAL",
                          processors=2).to_payload()
        assert "engine" not in payload
        with pytest.raises(TypeError, match="engine"):
            JobSpec.from_payload(dict(payload, engine="fast"))


class TestPlanFullGrid:
    def test_grid_covers_every_application(self):
        from repro.workload.applications import application_names

        plan = plan_full_grid(scale=0.001)
        assert {spec.app for spec in plan} == set(application_names())
        # The paper-scale sweep: on the order of a thousand cells.
        assert len(plan) > 800
        ids = [spec.job_id for spec in plan]
        assert len(ids) == len(set(ids))

    def test_grid_contains_section_plans(self):
        grid = set(plan_full_grid(scale=0.001))
        assert set(plan_sections(scale=0.001)) <= grid
