"""Graceful degradation: missing cells render as MISSING, never crash.

A suite marks cells a parallel prefetch could not complete; every
renderer then shows ``MISSING`` for exactly those cells, the report
gains a completeness footer, and exports carry an explicit ``degraded``
marker — while a complete run stays byte-identical to what it always
produced.
"""

import json

import pytest

from repro.experiments.export import export_json, section_to_dict
from repro.experiments.figures import FigureResult, execution_time_figure
from repro.experiments.report import completeness_footer
from repro.experiments.runner import ExperimentSuite, MissingCellError

_MISSING_CELL = ("Water", "SHARE-REFS", 2, False, 1, None, 0)


def _degraded_suite():
    suite = ExperimentSuite(scale=0.001, seed=0)
    suite.missing.add(_MISSING_CELL)
    return suite


class TestSuiteDegradation:
    def test_missing_cell_raises_for_run(self):
        suite = _degraded_suite()
        with pytest.raises(MissingCellError, match="--resume"):
            suite.run("Water", "SHARE-REFS", 2)

    def test_execution_time_degrades_to_none(self):
        suite = _degraded_suite()
        assert suite.execution_time("Water", "SHARE-REFS", 2) is None
        assert suite.normalized_time("Water", "SHARE-REFS", 2) is None
        # Unaffected cells still compute normally.
        assert suite.execution_time("Water", "LOAD-BAL", 2) is not None

    def test_missing_labels_are_stable_and_readable(self):
        suite = _degraded_suite()
        assert suite.missing_labels() == ["Water/SHARE-REFS/2p"]


class TestRendering:
    def test_figure_renders_missing_cell(self):
        suite = _degraded_suite()
        figure = execution_time_figure(
            suite, "Water", algorithms=["LOAD-BAL", "SHARE-REFS"])
        two_p = next(i for i, m in enumerate(figure.machines)
                     if m.processors == 2)
        assert figure.series["SHARE-REFS"][two_p] is None
        assert figure.series["LOAD-BAL"][two_p] is not None
        assert "MISSING" in figure.render()
        chart = figure.render_chart()
        assert "MISSING: SHARE-REFS" in chart
        # best_algorithm ignores the gap instead of crowning it.
        assert figure.best_algorithm(two_p) == "LOAD-BAL"

    def test_fully_missing_machine_raises(self):
        figure = FigureResult(
            title="t", app="a", baseline="RANDOM",
            machines=["2p"], series={"LOAD-BAL": [None]},
        )
        with pytest.raises(MissingCellError):
            figure.best_algorithm(0)

    def test_footer_present_only_when_degraded(self):
        degraded = _degraded_suite()
        footer = completeness_footer(degraded)
        assert "DEGRADED REPORT: 1 cell(s)" in footer
        assert "Water/SHARE-REFS/2p" in footer
        assert "--resume" in footer

        clean = ExperimentSuite(scale=0.001, seed=0)
        assert completeness_footer(clean) == ""

    def test_footer_elides_a_long_tail(self):
        suite = ExperimentSuite(scale=0.001, seed=0)
        for p in (2, 4, 8, 16):
            for algorithm in ("RANDOM", "LOAD-BAL", "SHARE-REFS"):
                suite.missing.add(("Water", algorithm, p, False, 1, None, 0))
        footer = completeness_footer(suite)
        assert "12 cell(s)" in footer
        assert "(4 more)" in footer


class TestExports:
    def test_figure_dict_uses_null_for_missing(self):
        figure = FigureResult(
            title="t", app="a", baseline="RANDOM",
            machines=["2p", "4p"],
            series={"LOAD-BAL": [0.9, None]},
        )
        data = section_to_dict(figure)
        assert data["series"]["LOAD-BAL"] == [0.9, None]
        json.dumps(data)  # null is valid JSON; NaN would not be

    def test_export_json_marks_degraded_runs_only(self, tmp_path):
        degraded = _degraded_suite()
        document = export_json(degraded, tmp_path / "degraded.json",
                               sections=["calibration"])
        assert document["degraded"] == {
            "missing_cells": ["Water/SHARE-REFS/2p"]}
        on_disk = json.loads((tmp_path / "degraded.json").read_text())
        assert on_disk["degraded"]["missing_cells"] == ["Water/SHARE-REFS/2p"]

        clean = ExperimentSuite(scale=0.001, seed=0)
        document = export_json(clean, tmp_path / "clean.json",
                               sections=["calibration"])
        assert "degraded" not in document
