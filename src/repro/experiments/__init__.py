"""Regeneration of the paper's evaluation (Tables 1-5, Figures 2-5).

Typical use::

    from repro.experiments import ExperimentSuite, table5, figure2
    suite = ExperimentSuite(scale=0.004, seed=0)
    print(table5(suite).render())
    print(figure2(suite).render())

or from the command line: ``repro-experiments --sections table5``.
"""

from repro.experiments.ablations import (
    SweepResult,
    sweep_associativity,
    sweep_cache_size,
    sweep_context_switch,
    sweep_contexts,
    sweep_memory_latency,
    sweep_write_buffering,
)
from repro.experiments.cache import ResultStore
from repro.experiments.claims import (
    Claim,
    ClaimResult,
    PAPER_CLAIMS,
    verify_claims,
)
from repro.experiments.export import export_csv_dir, export_json, section_to_dict
from repro.experiments.html import render_html, write_html
from repro.experiments.figures import (
    FigureResult,
    MissComponentsResult,
    execution_time_figure,
    figure2,
    figure3,
    figure4,
    figure5,
)
from repro.experiments.report import REPORT_SECTIONS, full_report, write_report
from repro.experiments.runner import (
    ExperimentSuite,
    MachineSpec,
    PROCESSOR_COUNTS,
)
from repro.experiments.tables import (
    TABLE5_APPS,
    TableResult,
    best_static_sharing,
    table1,
    table2,
    table3,
    table4,
    table5,
)

__all__ = [
    "ExperimentSuite",
    "MachineSpec",
    "PROCESSOR_COUNTS",
    "TableResult",
    "table1",
    "table2",
    "table3",
    "table4",
    "table5",
    "TABLE5_APPS",
    "best_static_sharing",
    "FigureResult",
    "MissComponentsResult",
    "execution_time_figure",
    "figure2",
    "figure3",
    "figure4",
    "figure5",
    "REPORT_SECTIONS",
    "full_report",
    "write_report",
    "SweepResult",
    "sweep_context_switch",
    "sweep_memory_latency",
    "sweep_cache_size",
    "sweep_associativity",
    "sweep_contexts",
    "sweep_write_buffering",
    "ResultStore",
    "Claim",
    "ClaimResult",
    "PAPER_CLAIMS",
    "verify_claims",
    "export_json",
    "export_csv_dir",
    "section_to_dict",
    "render_html",
    "write_html",
]
