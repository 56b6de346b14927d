"""Regeneration of the paper's Figures 2-5.

Figures 2-4 plot, for one application, execution time under every placement
algorithm normalized to RANDOM, across (processors, hardware contexts)
machine configurations.  Figure 5 decomposes cache misses into the four
components across algorithms and configurations.

Each function returns a structured result with the exact series the paper
plots; ``render()`` prints them as aligned tables (the benchmark harness's
textual stand-in for the bar charts).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.stats import MissKind
from repro.experiments.runner import (
    ExperimentSuite,
    MachineSpec,
    MissingCellError,
)
from repro.placement.algorithms import all_algorithms
from repro.util.ascii_chart import horizontal_bars, stacked_bars
from repro.util.tables import format_table

__all__ = [
    "FigureResult",
    "MissComponentsResult",
    "execution_time_figure",
    "figure2",
    "figure3",
    "figure4",
    "figure5",
]


@dataclass(frozen=True)
class FigureResult:
    """A grouped-bar figure: one series per algorithm over machine configs.

    ``series[algorithm][i]`` is the execution time under ``algorithm`` on
    ``machines[i]``, normalized to the baseline algorithm — or None for a
    cell missing from a degraded suite, rendered ``MISSING``.
    """

    title: str
    app: str
    baseline: str
    machines: list[MachineSpec]
    series: dict[str, list[float | None]]

    def render(self) -> str:
        """The figure's series as an aligned ASCII table."""
        headers = ["algorithm"] + [str(m) for m in self.machines]
        rows = [
            [name] + values for name, values in self.series.items()
        ]
        return format_table(headers, rows, title=self.title, float_format=".3f")

    def best_algorithm(self, machine_index: int) -> str:
        """Algorithm with the lowest normalized time on one configuration
        (missing cells are ignored)."""
        present = [name for name in self.series
                   if self.series[name][machine_index] is not None]
        if not present:
            raise MissingCellError(
                f"every algorithm is missing on machine {machine_index}"
            )
        return min(present, key=lambda name: self.series[name][machine_index])

    def render_chart(self, *, width: int = 40) -> str:
        """ASCII grouped bars, one group per machine configuration.

        The vertical reference tick marks the baseline (1.0): bars ending
        left of it beat the baseline.
        """
        parts = [self.title, "=" * len(self.title)]
        for index, machine in enumerate(self.machines):
            parts.append(f"\n[{machine}]  (| marks {self.baseline} = 1.0)")
            values = {name: series[index]
                      for name, series in self.series.items()}
            present = {name: value for name, value in values.items()
                       if value is not None}
            if present:
                parts.append(
                    horizontal_bars(present, width=width, reference=1.0)
                )
            absent = [name for name, value in values.items() if value is None]
            if absent:
                parts.append("MISSING: " + ", ".join(absent))
        return "\n".join(parts)


def execution_time_figure(
    suite: ExperimentSuite,
    app: str,
    *,
    baseline: str = "RANDOM",
    title: str | None = None,
    algorithms: list[str] | None = None,
) -> FigureResult:
    """The Figures 2-4 computation for any application.

    Args:
        suite: The experiment suite.
        app: Application to plot.
        baseline: Normalization baseline (the paper uses RANDOM).
        title: Optional title override.
        algorithms: Algorithm names to include; defaults to all fourteen
            static algorithms (the paper's bar groups).
    """
    names = algorithms or [a.name for a in all_algorithms()]
    machines = suite.machine_specs(app)
    series: dict[str, list[float]] = {}
    for name in names:
        series[name] = [
            suite.normalized_time(app, name, machine.processors, baseline=baseline)
            for machine in machines
        ]
    return FigureResult(
        title=title or f"Execution time for {app} (normalized to {baseline})",
        app=app,
        baseline=baseline,
        machines=machines,
        series=series,
    )


def figure2(suite: ExperimentSuite) -> FigureResult:
    """Figure 2: LocusRoute — LOAD-BAL wins by 17-42% over RANDOM."""
    return execution_time_figure(
        suite, "LocusRoute",
        title="Figure 2: Execution time for LocusRoute (normalized to RANDOM)",
    )


def figure3(suite: ExperimentSuite) -> FigureResult:
    """Figure 3: FFT — the largest thread-length deviation; 13-56% wins."""
    return execution_time_figure(
        suite, "FFT",
        title="Figure 3: Execution time for FFT (normalized to RANDOM)",
    )


def figure4(suite: ExperimentSuite) -> FigureResult:
    """Figure 4: Barnes-Hut — low deviation; no algorithm wins appreciably."""
    return execution_time_figure(
        suite, "Barnes-Hut",
        title="Figure 4: Execution time for Barnes-Hut (normalized to RANDOM)",
    )


@dataclass(frozen=True)
class MissComponentsResult:
    """Figure 5: the four-way miss decomposition per algorithm and machine.

    ``rows``: (machine, algorithm, compulsory, intra-thread conflict,
    inter-thread conflict, invalidation, total misses); counts are
    machine-wide.  On a degraded suite a missing cell's
    counts are all None, rendered ``MISSING``.
    """

    title: str
    app: str
    rows: list[tuple]

    def render(self) -> str:
        """The decomposition as an aligned ASCII table."""
        headers = ["config", "algorithm", "compulsory", "intra-conflict",
                   "inter-conflict", "invalidation", "total"]
        return format_table(headers, [list(r) for r in self.rows],
                            title=self.title)

    def compulsory_plus_invalidation(self) -> dict[tuple[str, str], int]:
        """The paper's invariance quantity, per (machine, algorithm)."""
        return {
            (machine, algorithm): compulsory + invalidation
            for machine, algorithm, compulsory, _, _, invalidation, _ in self.rows
            if compulsory is not None and invalidation is not None
        }

    def render_chart(self, *, width: int = 40) -> str:
        """ASCII stacked bars of the four miss components per row."""
        parts = [self.title, "=" * len(self.title)]
        by_machine: dict[str, dict[str, list[float]]] = {}
        for machine, algorithm, comp, intra, inter, inv, _ in self.rows:
            if comp is None:
                continue  # missing cell: stays out of the chart
            by_machine.setdefault(machine, {})[algorithm] = [
                float(comp), float(intra), float(inter), float(inv)
            ]
        for machine, rows in by_machine.items():
            parts.append(f"\n[{machine}]")
            parts.append(
                stacked_bars(
                    rows,
                    ["compulsory", "intra-conflict", "inter-conflict",
                     "invalidation"],
                    width=width,
                )
            )
        return "\n".join(parts)


def figure5(
    suite: ExperimentSuite,
    app: str = "Water",
    *,
    algorithms: list[str] | None = None,
) -> MissComponentsResult:
    """Figure 5: cache-miss components for a representative application.

    The paper's observations to reproduce: conflict misses fall (and shift
    from inter- to intra-thread) as threads per processor fall, some
    conflict misses become invalidation misses, and the compulsory +
    invalidation component is invariant across placement algorithms.
    """
    names = algorithms or [a.name for a in all_algorithms()]
    rows = []
    for machine in suite.machine_specs(app):
        for name in names:
            try:
                result = suite.run(app, name, machine.processors)
            except MissingCellError:
                rows.append((str(machine), name,
                             None, None, None, None, None))
                continue
            totals = result.cache_totals
            rows.append((
                str(machine),
                name,
                totals.misses[MissKind.COMPULSORY],
                totals.misses[MissKind.INTRA_THREAD_CONFLICT],
                totals.misses[MissKind.INTER_THREAD_CONFLICT],
                totals.misses[MissKind.INVALIDATION],
                totals.total_misses,
            ))
    return MissComponentsResult(
        title=f"Figure 5: Cache miss components for {app}",
        app=app,
        rows=rows,
    )
