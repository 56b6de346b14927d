"""Tests for the programmatic suite API (repro.experiments.api)."""

import io

import pytest

from repro.experiments.api import RunOptions, SuiteRequest, run_suite


class TestSuiteRequest:
    def test_sections_canonicalized_to_paper_order(self):
        request = SuiteRequest(sections=("table2", "table1", "table2"))
        assert request.sections == ("table1", "table2")

    def test_unknown_section_rejected(self):
        with pytest.raises(ValueError, match="unknown sections"):
            SuiteRequest(sections=("nope",))

    def test_empty_sections_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            SuiteRequest(sections=())

    def test_from_dict_round_trips(self):
        request = SuiteRequest(sections=("table1",), scale=0.001, seed=3,
                               charts=True)
        assert SuiteRequest.from_dict(request.to_dict()) == request

    def test_from_dict_rejects_unknown_keys(self):
        # An ``engine`` value outside the legacy carve-out is no exception.
        for payload in ({"sections": ["table1"], "jobs": 4},
                        {"sections": ["table1"], "engine": "warp"}):
            with pytest.raises(ValueError,
                               match="unknown suite request fields"):
                SuiteRequest.from_dict(payload)

    def test_from_dict_drops_legacy_stream_chunk_refs(self):
        # Requests persisted before the option was retired carry it;
        # every value it accepted names the same request.
        request = SuiteRequest(sections=("table1",), scale=0.001)
        for value in (None, 512, "64"):
            payload = dict(request.to_dict(), stream_chunk_refs=value)
            assert SuiteRequest.from_dict(payload) == request

    def test_from_dict_rejects_bad_stream_chunk_refs(self):
        for value in (0, -4, "x"):
            with pytest.raises(ValueError):
                SuiteRequest.from_dict(
                    {"sections": ["table1"], "stream_chunk_refs": value})

    def test_from_dict_coerces_types(self):
        request = SuiteRequest.from_dict(
            {"sections": "table1", "scale": "0.001", "seed": "7"})
        assert request.sections == ("table1",)
        assert request.scale == 0.001
        assert request.seed == 7


class TestDigest:
    def test_digest_is_stable_and_order_insensitive(self):
        a = SuiteRequest(sections=("table1", "table2"), scale=0.001)
        b = SuiteRequest(sections=("table2", "table1"), scale=0.001)
        assert a.digest == b.digest
        assert len(a.digest) == 32

    def test_digest_tracks_workload_identity(self):
        base = SuiteRequest(sections=("table5",), scale=0.001)
        assert base.digest != SuiteRequest(sections=("table5",),
                                           scale=0.002).digest
        assert base.digest != SuiteRequest(sections=("table5",), scale=0.001,
                                           seed=1).digest

    def test_non_simulated_section_plans_no_cells(self):
        assert SuiteRequest(sections=("table1",), scale=0.001).cell_ids() == []

    def test_simulated_section_cells_match_planner(self):
        from repro.exec.jobs import plan_sections

        request = SuiteRequest(sections=("table5",), scale=0.001)
        specs = plan_sections(["table5"], scale=0.001, seed=0,
                              quantum_refs=256, random_replicates=3)
        assert request.cell_ids() == [spec.job_id for spec in specs]


class TestRunOptions:
    def test_resume_requires_journal_and_cache(self):
        with pytest.raises(ValueError, match="resume requires"):
            RunOptions(resume=True)

    def test_wants_engine(self, tmp_path):
        assert not RunOptions().wants_engine
        assert RunOptions(jobs=2).wants_engine
        assert RunOptions(journal=str(tmp_path / "j.jsonl")).wants_engine


class TestRunSuite:
    def test_buffered_and_streamed_renders_match(self):
        request = SuiteRequest(sections=("table1",), scale=0.001)
        buffered = run_suite(request).report_text
        stream = io.StringIO()
        result = run_suite(request, out=stream)
        assert result.report_text is None
        assert stream.getvalue() == buffered
        assert "Table 1" in buffered

    def test_render_false_skips_report(self):
        result = run_suite(SuiteRequest(sections=("table1",), scale=0.001),
                           render=False)
        assert result.report_text is None
        assert result.run is None
        assert not result.degraded

    def test_engine_path_matches_sequential_bytes(self, tmp_path):
        request = SuiteRequest(sections=("table5",), scale=0.0005)
        sequential = run_suite(request).report_text
        engined = run_suite(
            request,
            RunOptions(journal=str(tmp_path / "journal.jsonl"),
                       cache_dir=str(tmp_path / "store")),
        )
        assert engined.run is not None
        assert engined.report_text == sequential

    def test_cli_is_a_thin_wrapper_over_the_api(self, tmp_path):
        # The repo-wide byte-identity bar: the CLI's report equals the
        # API's buffered render for the same request.
        from repro.experiments.cli import main

        request = SuiteRequest(sections=("table1",), scale=0.001)
        api_text = run_suite(request).report_text
        out = tmp_path / "report.txt"
        code = main(["--sections", "table1", "--scale", "0.001",
                     "--out", str(out)])
        assert code == 0
        assert out.read_text() == api_text
