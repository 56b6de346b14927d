"""Regeneration of the paper's Tables 1-5.

Each ``tableN`` function computes the table from an
:class:`~repro.experiments.runner.ExperimentSuite` and returns a
:class:`TableResult` whose rows mirror the paper's columns; ``render()``
prints it.  Where the paper's table reports measured workload
characteristics (Tables 1, 2, 4) the functions also carry the paper's
published value next to the reproduction's, so the comparison EXPERIMENTS.md
records is generated, not hand-copied.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.arch.config import ArchConfig
from repro.experiments.runner import ExperimentSuite
from repro.placement.algorithms import static_sharing_algorithms
from repro.util.tables import format_table
from repro.workload.applications import application_names, spec_for

__all__ = [
    "TableResult",
    "table1",
    "table2",
    "table3",
    "table4",
    "table5",
    "TABLE5_APPS",
]

#: §4.3: "Three applications each were chosen from the coarse- and
#: medium-grain groups that had the least uniform sharing across threads".
TABLE5_APPS: tuple[str, ...] = ("Water", "Locus", "Pverify", "Grav", "FFT", "Health")


@dataclass(frozen=True)
class TableResult:
    """One regenerated table: title, headers, and printable rows."""

    title: str
    headers: list[str]
    rows: list[list[object]]
    note: str = ""

    def render(self, *, float_format: str = ".2f") -> str:
        """The table as aligned ASCII text (plus the footnote, if any)."""
        text = format_table(self.headers, self.rows, title=self.title,
                            float_format=float_format)
        if self.note:
            text += f"\n({self.note})"
        return text


def table1(suite: ExperimentSuite) -> TableResult:
    """Table 1: the application suite (grain, threads, lengths)."""
    rows = []
    for name in application_names():
        spec = spec_for(name)
        traces = suite.traces(name)
        lengths = traces.thread_lengths
        rows.append([
            name,
            spec.targets.grain.value,
            spec.targets.domain,
            traces.num_threads,
            float(lengths.mean()),
            int(lengths.sum()),
        ])
    return TableResult(
        title="Table 1: The application suite",
        headers=["application", "grain", "domain", "threads",
                 "avg thread length (instr)", "total instr"],
        rows=rows,
        note=f"thread lengths scaled by {suite.scale} relative to the paper's"
             " Table 2 values",
    )


def table2(suite: ExperimentSuite) -> TableResult:
    """Table 2: measured characteristics vs the paper's published values."""
    rows = []
    for name in application_names():
        targets = spec_for(name).targets
        analysis = suite.analysis(name)
        half = max(2, analysis.num_threads // 2)
        nway = analysis.n_way_sharing(half, samples=8, seed=suite.seed)
        rows.append([
            name,
            analysis.pairwise_sharing.mean,
            analysis.pairwise_sharing.percent_dev,
            targets.pairwise_sharing_dev_pct,
            nway.mean,
            nway.percent_dev,
            analysis.refs_per_shared_address.mean,
            float(targets.refs_per_shared_addr),
            analysis.percent_shared_refs.mean,
            targets.shared_refs_pct,
            analysis.thread_lengths.percent_dev,
            targets.thread_length_dev_pct,
        ])
    return TableResult(
        title="Table 2: Measured characteristics (measured vs paper)",
        headers=[
            "application",
            "pairwise mean", "pairwise dev%", "paper dev%",
            "N-way mean", "N-way dev%",
            "refs/shared addr", "paper",
            "shared refs %", "paper %",
            "length dev%", "paper dev%",
        ],
        rows=rows,
        note="pairwise/N-way means are in references at the current scale; "
             "deviations and percentages are scale-free and comparable to "
             "the paper",
    )


def table3(suite: ExperimentSuite) -> TableResult:
    """Table 3: architectural inputs to the simulator."""
    example = ArchConfig(num_processors=4, contexts_per_processor=4)
    rows: list[list[object]] = [
        ["Number of processors", "2, 4, 8, 16 (per application, p <= t)"],
        ["Hardware contexts per processor", "ceil(threads / processors)"],
        ["Cache size (words, scaled)",
         "256 (paper 32 KB apps) / 512 (paper 64 KB apps); 2^21 = 'infinite'"],
    ]
    for parameter, value in example.describe():
        if parameter in ("Number of processors", "Hardware contexts per processor",
                         "Cache size"):
            continue
        rows.append([parameter, value])
    return TableResult(
        title="Table 3: Architectural inputs to the simulator",
        headers=["parameter", "value"],
        rows=rows,
    )


def table4(suite: ExperimentSuite) -> TableResult:
    """Table 4: statically counted sharing vs measured coherence traffic.

    For each application: the mean pairwise *statically counted* shared
    references, the mean pairwise *dynamically measured* coherence traffic
    (one thread per processor, infinite cache — §4.2's configuration), the
    order-of-magnitude gap between them, and both expressed as percentages
    of total references.  The paper's result: gaps of 1-3 orders of
    magnitude, dynamic traffic 0.01-3.3% (coarse) / 0.01-0.4% (medium).
    """
    rows = []
    for name in application_names():
        analysis = suite.analysis(name)
        traces = suite.traces(name)
        coherence = suite.coherence_matrix(name)
        t = analysis.num_threads
        upper = np.triu_indices(t, k=1)

        static_pairwise = analysis.shared_refs_matrix[upper]
        dynamic_pairwise = coherence[upper]
        static_mean = float(static_pairwise.mean())
        dynamic_mean = float(dynamic_pairwise.mean())
        orders = (
            float(np.log10(static_mean / dynamic_mean))
            if dynamic_mean > 0 else float("inf")
        )

        refs = np.array([p.total_refs for p in analysis.profiles], dtype=float)
        pair_refs = refs[upper[0]] + refs[upper[1]]
        static_pct = float((static_pairwise / pair_refs).mean() * 100)
        dynamic_pct = float((dynamic_pairwise / pair_refs).mean() * 100)
        total_dynamic_pct = float(coherence.sum() / 2 / traces.total_refs * 100)

        rows.append([
            name,
            spec_for(name).targets.grain.value,
            static_mean,
            dynamic_mean,
            orders,
            static_pct,
            dynamic_pct,
            total_dynamic_pct,
        ])
    return TableResult(
        title="Table 4: Static shared references vs dynamic coherence traffic",
        headers=[
            "application", "grain",
            "static pairwise mean", "dynamic pairwise mean",
            "gap (orders of 10)",
            "static % of refs", "dynamic % of refs",
            "total dynamic traffic % of refs",
        ],
        rows=rows,
        note="dynamic = invalidations + invalidation misses + remote "
             "compulsory transfers, measured at one thread per processor "
             "with the infinite cache (the paper's §4.2 measurement)",
    )


def _static_sharing_names() -> list[str]:
    plain = [a.name for a in static_sharing_algorithms()]
    lb = [a.name for a in static_sharing_algorithms(load_balanced=True)]
    return plain + lb


def best_static_sharing(
    suite: ExperimentSuite, app: str, processors: int, *, infinite: bool = True
) -> tuple[str, float | None]:
    """Best (lowest execution time) static sharing algorithm for a cell,
    normalized to LOAD-BAL — the paper's Table 5 quantity.

    Cells missing from a degraded suite are skipped; if every
    candidate is missing the value is None (rendered ``MISSING``).
    """
    best_name, best_value = "", None
    for algorithm in _static_sharing_names():
        value = suite.normalized_time(
            app, algorithm, processors, baseline="LOAD-BAL", infinite=infinite
        )
        if value is None:
            continue
        if best_value is None or value < best_value:
            best_name, best_value = algorithm, value
    return best_name, best_value


def table5(suite: ExperimentSuite) -> TableResult:
    """Table 5: infinite-cache execution times normalized to LOAD-BAL.

    For the six least-uniform applications and 2-16 processors: the best
    static sharing-based algorithm and the dynamic coherence-traffic
    algorithm, both normalized to LOAD-BAL.  The paper's shape: everything
    near 1.0, sharing-based placement at most ~2% better, LOAD-BAL as good
    as or better than the coherence-traffic algorithm more often than not.
    """
    rows = []
    for name in TABLE5_APPS:
        row: list[object] = [spec_for(name).name]
        for processors in (2, 4, 8, 16):
            if processors > spec_for(name).num_threads:
                row.extend([float("nan"), float("nan")])
                continue
            _, best = best_static_sharing(suite, name, processors)
            dynamic = suite.normalized_time(
                name, "COHERENCE-TRAFFIC", processors,
                baseline="LOAD-BAL", infinite=True,
            )
            row.extend([best, dynamic])
        rows.append(row)
    return TableResult(
        title="Table 5: Execution times normalized to LOAD-BAL, 8 MB cache",
        headers=[
            "application",
            "2p best-static", "2p coherence",
            "4p best-static", "4p coherence",
            "8p best-static", "8p coherence",
            "16p best-static", "16p coherence",
        ],
        rows=rows,
        note="cache large enough to eliminate all capacity/conflict misses "
             "(the paper's 'effectively infinite' 8 MB cache)",
    )
