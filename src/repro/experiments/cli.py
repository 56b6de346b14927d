"""Command-line entry point: ``repro-experiments``.

Regenerates the paper's tables and figures::

    repro-experiments                       # everything, default scale
    repro-experiments --sections table4 figure2
    repro-experiments --scale 0.002 --seed 1 --out report.txt

The simulation sweep behind the figures/Table 5 can be fanned out over
worker processes — the rendered report is byte-identical to a sequential
run on the same seed/scale::

    repro-experiments --jobs 4                          # 4 workers
    repro-experiments --jobs 4 --journal run.jsonl      # + JSONL journal
    repro-experiments --jobs 4 --journal run.jsonl --resume   # skip done
    repro-experiments --jobs 4 --cache-dir .repro-cache # persist results

The sweep can be observed without changing its results (see
docs/OBSERVABILITY.md)::

    repro-experiments --jobs 4 --progress               # live meter
    repro-experiments --jobs 4 --metrics --trace        # artifacts in
                                                        # ./repro-obs/
    repro-stats repro-obs                               # inspect them
"""

from __future__ import annotations

import argparse
import io
import os
import sys

from repro import faults
from repro.arch.simulator import ENGINES
from repro.experiments.api import RunOptions, SuiteRequest, run_suite
from repro.experiments.report import REPORT_SECTIONS, write_report
from repro.obs.spans import trace_span
from repro.tools.errors import DEGRADED_EXIT_CODE, friendly_errors
from repro.util.atomicio import atomic_write_text
from repro.workload.applications import DEFAULT_SCALE

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The tool's argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description=(
            "Regenerate the evaluation of Thekkath & Eggers, 'Impact of "
            "Sharing-Based Thread Placement on Multithreaded Architectures' "
            "(ISCA 1994)."
        ),
    )
    parser.add_argument(
        "--sections",
        nargs="+",
        choices=sorted(REPORT_SECTIONS),
        default=None,
        help="which tables/figures to regenerate (default: all)",
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=DEFAULT_SCALE,
        help=f"workload scale relative to the paper (default {DEFAULT_SCALE})",
    )
    parser.add_argument("--seed", type=int, default=0, help="root seed")
    parser.add_argument(
        "--quantum-refs",
        type=int,
        default=256,
        metavar="N",
        help="simulator scheduling quantum in references (default 256)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="precompute the sections' simulation sweep on N worker "
             "processes before rendering (default 1: sequential)",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-job time budget; a cell exceeding it is retried, then "
             "reported as a gap",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=2,
        metavar="N",
        help="retry attempts per failed/timed-out job (default 2)",
    )
    parser.add_argument(
        "--hang-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="watchdog budget: a worker whose current job runs longer is "
             "SIGKILLed and the job retried (catches hangs --timeout's "
             "in-worker alarm cannot; needs --jobs > 1)",
    )
    parser.add_argument(
        "--inject-faults",
        metavar="SPEC",
        help="chaos testing: deterministic fault schedule, e.g. "
             "'crash:worker:nth=3;torn:journal' or 'random:seed=7,count=4' "
             "(see docs/ROBUSTNESS.md for the grammar)",
    )
    parser.add_argument(
        "--fault-ledger",
        metavar="PATH",
        help="durable ledger of fired faults, so a fault schedule is spent "
             "at most once across --resume reruns (requires --inject-faults)",
    )
    parser.add_argument(
        "--journal",
        metavar="PATH",
        help="append engine events (queued/started/finished/failed/"
             "cache-hit, JSONL) to this run journal",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="skip cells the --journal confirms complete and that are "
             "still in --cache-dir (requires both)",
    )
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        help="persistent result store; repeated runs reuse each other's "
             "simulations",
    )
    parser.add_argument(
        "--metrics",
        action="store_true",
        help="collect run and simulator metrics (counters, histograms) and "
             "write metrics.json + metrics.prom into --obs-dir",
    )
    parser.add_argument(
        "--trace",
        action="store_true",
        help="record per-cell and per-stage spans to trace.jsonl in "
             "--obs-dir, plus a Chrome trace-event export "
             "(trace-chrome.json, loadable in chrome://tracing)",
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help="live single-line progress meter on stderr while the sweep "
             "runs (auto-disabled when stderr is not a terminal)",
    )
    parser.add_argument(
        "--obs-dir",
        default="repro-obs",
        metavar="DIR",
        help="directory for observability artifacts (default: repro-obs); "
             "also the default --journal location when observing",
    )
    parser.add_argument(
        "--topology",
        metavar="SPEC",
        default=None,
        help="machine topology for every simulation: 'flat[:latency]' "
             "(the default machine) or 'numa:<groups>:<local>:<remote>' "
             "(tiered latencies; see docs/TOPOLOGY.md).  'flat:50' is "
             "byte-identical to omitting the flag",
    )
    parser.add_argument(
        "--engine",
        choices=ENGINES,
        default="classic",
        help="replay engine: 'fast' uses the run-length-compressed kernel "
             "(bit-for-bit identical results; see docs/PERFORMANCE.md)",
    )
    parser.add_argument(
        "--stream-chunk-refs",
        type=int,
        default=None,
        metavar="N",
        help="replay traces through the chunked streaming view, N "
             "references per chunk (bit-for-bit identical results with "
             "bounded resident replay state; see docs/STREAMING.md)",
    )
    parser.add_argument(
        "--no-speculate",
        action="store_true",
        help="disable the incremental machinery (the identical-placement "
             "result memo, the persistent analysis cache, and incremental "
             "placement-search state) and compute every "
             "cell from scratch; results are bit-for-bit identical either "
             "way — this only trades speed for the simpler reference "
             "computation (see docs/PERFORMANCE.md)",
    )
    parser.add_argument(
        "--check-invariants",
        action="store_true",
        help="audit every simulation with the oracle's runtime conservation "
             "laws (cycle accounting, miss bookkeeping, directory/cache "
             "sync); results are unchanged, violations abort the run",
    )
    parser.add_argument(
        "--charts",
        action="store_true",
        help="also render each figure as ASCII bar charts",
    )
    parser.add_argument(
        "--verify",
        action="store_true",
        help="check the paper's claims against the regenerated experiments "
             "and print PASS/FAIL per claim (exit code 1 on any FAIL)",
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        help="additionally export the sections as one JSON document",
    )
    parser.add_argument(
        "--csv-dir",
        metavar="DIR",
        help="additionally export one CSV per section into a directory",
    )
    parser.add_argument(
        "--html",
        metavar="PATH",
        help="additionally render the sections as a self-contained HTML "
             "report",
    )
    parser.add_argument(
        "--out",
        default="-",
        metavar="PATH",
        help="output file, written atomically ('-' = stdout, the default)",
    )
    return parser


def _write_out(path: str, text: str) -> None:
    """Write report text to ``path`` ('-' = stdout) atomically."""
    if path == "-":
        sys.stdout.write(text)
        sys.stdout.flush()
    else:
        atomic_write_text(path, text, encoding="utf-8")


@friendly_errors("repro-experiments")
def main(argv: list[str] | None = None) -> int:
    """Console entry point; returns the process exit code.

    A thin wrapper over :func:`repro.experiments.api.run_suite`: argv is
    mapped onto a :class:`~repro.experiments.api.SuiteRequest` (what to
    compute) and :class:`~repro.experiments.api.RunOptions` (how), so the
    library, the CLI and the service all execute the same code path.

    Exit codes: 0 = complete report; 1 = a --verify claim failed; 2 =
    usage error; 3 = the report rendered but is degraded (MISSING cells);
    130 = interrupted (the journal is sealed for --resume).
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    observing = args.metrics or args.trace or args.progress
    if observing and not args.journal:
        # Observability artifacts and the journal share a run directory,
        # so repro-stats can inspect the whole run from one path.
        args.journal = os.path.join(args.obs_dir, "journal.jsonl")
    if args.resume and not (args.journal and args.cache_dir):
        parser.error("--resume requires both --journal and --cache-dir")
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")
    if args.fault_ledger and not args.inject_faults:
        parser.error("--fault-ledger requires --inject-faults")
    if args.inject_faults:
        # Validate the grammar before any work; the plan itself activates
        # through the environment so spawned workers inherit it.
        faults.parse_fault_spec(args.inject_faults)
        os.environ[faults.SPEC_VAR] = args.inject_faults
        if args.fault_ledger:
            os.environ[faults.LEDGER_VAR] = args.fault_ledger
    request = SuiteRequest(
        sections=tuple(args.sections) if args.sections else None,
        scale=args.scale, seed=args.seed, quantum_refs=args.quantum_refs,
        engine=args.engine, charts=args.charts,
        check_invariants=args.check_invariants,
        stream_chunk_refs=args.stream_chunk_refs,
        topology=args.topology,
    )
    observer = None
    if observing:
        from repro.obs.run import RunObserver

        observer = RunObserver(
            args.obs_dir, metrics=args.metrics, trace=args.trace,
            progress=args.progress, stream=sys.stderr,
        )
        # Install the tracer now (not at engine start) so the CLI's own
        # stage spans — prefetch, render, exports — are captured too.
        observer.install_tracer()
    options = RunOptions(
        jobs=args.jobs, timeout=args.timeout, hang_timeout=args.hang_timeout,
        retries=args.retries, journal=args.journal, resume=args.resume,
        cache_dir=args.cache_dir, observer=observer,
        speculate=not args.no_speculate,
    )
    run_info = None
    try:
        result = run_suite(request, options, render=False, strict=False)
        suite = result.suite
        sections = (
            list(request.sections) if request.sections is not None else None
        )
        run = result.run
        if run is not None:
            sys.stderr.write(run.summary.render() + "\n")
            for failure in run.failures:
                sys.stderr.write(f"[gap] {failure}\n")
            sys.stderr.flush()
            if observer is not None and run.summary is not None:
                s = run.summary
                run_info = {
                    "executed": s.executed, "cache_hits": s.cache_hits,
                    "resumed": s.resumed, "failed": s.failed,
                    "retries": s.retries, "workers": s.workers,
                    "wall_seconds": round(s.wall_seconds, 3),
                    "throughput": round(s.throughput, 3),
                    "p50_seconds": s.p50_seconds,
                    "p95_seconds": s.p95_seconds,
                    "per_worker": s.per_worker,
                }
        if args.verify:
            from repro.experiments.claims import verify_claims

            with trace_span("verify", kind="stage"):
                results = verify_claims(suite)
            _write_out(args.out,
                       "".join(result.render() + "\n" for result in results))
            return 0 if all(r.passed for r in results) else 1
        if args.json:
            from repro.experiments.export import export_json

            with trace_span("export_json", kind="stage"):
                export_json(suite, args.json, sections=sections)
        if args.csv_dir:
            from repro.experiments.export import export_csv_dir

            with trace_span("export_csv", kind="stage"):
                export_csv_dir(suite, args.csv_dir, sections=sections)
        if args.html:
            from repro.experiments.html import write_html

            with trace_span("export_html", kind="stage"):
                write_html(suite, args.html, sections=sections,
                           run_info=run_info)
        if args.json or args.csv_dir or args.html:
            return DEGRADED_EXIT_CODE if suite.missing else 0
        with trace_span("render", kind="stage"):
            if args.out == "-":
                # Stream to the terminal so long runs show progress.
                write_report(suite, sys.stdout, sections=sections,
                             charts=args.charts)
            else:
                buffer = io.StringIO()
                write_report(suite, buffer, sections=sections,
                             charts=args.charts)
                _write_out(args.out, buffer.getvalue())
        return DEGRADED_EXIT_CODE if suite.missing else 0
    finally:
        if observer is not None:
            artifacts = observer.finalize()
            for name, path in sorted(artifacts.items()):
                sys.stderr.write(f"[obs] {name}: {path}\n")
            sys.stderr.flush()


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
