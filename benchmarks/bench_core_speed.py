"""Microbenchmarks of the core engines (throughput, not paper shapes).

These are the performance-regression guards: simulator replay throughput,
clustering-engine speed on the largest thread count (Gauss, 127 threads),
and whole-application workload generation.

Run as a script for the classic-vs-fast engine comparison over the whole
fourteen-application paper suite (interleaved, warmed, median-of-N; each
pair of runs is also diffed bit-for-bit)::

    PYTHONPATH=src python benchmarks/bench_core_speed.py --json speed.json
"""

import argparse
import statistics
import sys
import time

import numpy as np
import pytest

from _harness import Stopwatch, add_json_arg, bench_document, write_json

from repro.arch.config import ArchConfig
from repro.arch.simulator import simulate
from repro.placement import PlacementInputs, ShareRefs
from repro.trace.analysis import TraceSetAnalysis
from repro.workload import build_application, spec_for

from conftest import BENCH_SCALE


@pytest.fixture(scope="module")
def water():
    traces = build_application("Water", scale=BENCH_SCALE, seed=0)
    analysis = TraceSetAnalysis(traces)
    return traces, analysis


def test_simulator_throughput(benchmark, water):
    traces, analysis = water
    from repro.placement import LoadBal

    placement = LoadBal().place(PlacementInputs(analysis, 4))
    config = ArchConfig(
        num_processors=4,
        contexts_per_processor=int(placement.cluster_sizes().max()),
        cache_words=spec_for("Water").cache_words,
    )
    result = benchmark(lambda: simulate(traces, placement, config,
                                        engine="classic"))
    assert result.execution_time > 0


def test_clustering_gauss(benchmark):
    traces = build_application("Gauss", scale=BENCH_SCALE, seed=0)
    analysis = TraceSetAnalysis(traces)
    analysis.shared_refs_matrix  # pre-compute: measure clustering only
    inputs = PlacementInputs(analysis, 16)
    placement = benchmark(lambda: ShareRefs().place(inputs))
    assert placement.is_thread_balanced()


def test_workload_generation(benchmark):
    traces = benchmark(lambda: build_application("MP3D", scale=BENCH_SCALE, seed=0))
    assert traces.num_threads == 16


def test_static_analysis(benchmark, water):
    traces, _ = water

    def analyze():
        analysis = TraceSetAnalysis(traces)
        analysis.shared_refs_matrix
        analysis.write_shared_refs_matrix
        return analysis

    analysis = benchmark(analyze)
    assert analysis.num_threads == traces.num_threads


def test_fast_engine_throughput(benchmark, water):
    """The run-length-compressed kernel on the same cell as
    ``test_simulator_throughput`` — the two rows side by side are the
    per-app speedup."""
    traces, analysis = water
    from repro.placement import LoadBal

    placement = LoadBal().place(PlacementInputs(analysis, 4))
    config = ArchConfig(
        num_processors=4,
        contexts_per_processor=int(placement.cluster_sizes().max()),
        cache_words=spec_for("Water").cache_words,
    )
    simulate(traces, placement, config, engine="fast")  # warm-up
    result = benchmark(lambda: simulate(traces, placement, config,
                                        engine="fast"))
    assert result.execution_time > 0


# ---------------------------------------------------------------------
# Classic-vs-fast comparison over the paper suite (script entry point).

def _paper_cell(app: str, seed: int = 0):
    """The benchmark cell for one application: LOAD-BAL on 4 processors,
    the app's own scaled cache."""
    from repro.placement import algorithm_by_name

    traces = build_application(app, scale=BENCH_SCALE, seed=seed)
    analysis = TraceSetAnalysis(traces)
    placement = algorithm_by_name("LOAD-BAL").place(
        PlacementInputs(analysis, 4, rng=np.random.default_rng(seed))
    )
    config = ArchConfig(
        num_processors=4,
        contexts_per_processor=int(placement.cluster_sizes().max()),
        cache_words=spec_for(app).cache_words,
    )
    return traces, placement, config


def compare_engines(apps=None, reps: int = 7, seed: int = 0) -> dict:
    """Interleaved classic-vs-fast wall-clock comparison.

    Per app: warm both engines once (the warm-up pair is diffed
    bit-for-bit as a safety net), then alternate classic/fast ``reps``
    times and take medians — interleaving cancels slow drift in machine
    load.  Every fast call compresses its own traces (nothing is memoized
    across calls), so that cost is inside the measurement.
    """
    from repro.oracle import diff_results
    from repro.workload.applications import application_names

    rows = []
    for app in apps or application_names():
        traces, placement, config = _paper_cell(app, seed)
        classic_ref = simulate(traces, placement, config, engine="classic")
        fast_ref = simulate(traces, placement, config, engine="fast")
        mismatches = diff_results(fast_ref, classic_ref,
                                  actual_name="fast", expected_name="classic")
        if mismatches:
            raise AssertionError(f"{app}: engines diverged: {mismatches}")
        classic_times, fast_times = [], []
        for _ in range(reps):
            t0 = time.perf_counter()
            simulate(traces, placement, config, engine="classic")
            t1 = time.perf_counter()
            simulate(traces, placement, config, engine="fast")
            t2 = time.perf_counter()
            classic_times.append(t1 - t0)
            fast_times.append(t2 - t1)
        classic = statistics.median(classic_times)
        fast = statistics.median(fast_times)
        rows.append({
            "app": app,
            "total_refs": int(traces.total_refs),
            "classic_s": classic,
            "fast_s": fast,
            "speedup": classic / fast,
        })
    return {
        "scale": BENCH_SCALE,
        "seed": seed,
        "reps": reps,
        "apps": rows,
        "median_speedup": statistics.median(r["speedup"] for r in rows),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="classic-vs-fast engine comparison (paper suite)")
    add_json_arg(parser)
    parser.add_argument("--reps", type=int, default=7,
                        help="timing repetitions per app (default 7)")
    parser.add_argument("--apps", nargs="+", default=None,
                        help="subset of applications (default: all 14)")
    args = parser.parse_args(argv)
    with Stopwatch() as clock:
        report = compare_engines(apps=args.apps, reps=args.reps)
    for row in report["apps"]:
        print(f"{row['app']:14s} classic={row['classic_s'] * 1e3:8.2f}ms "
              f"fast={row['fast_s'] * 1e3:8.2f}ms  {row['speedup']:5.2f}x")
    print(f"median speedup: {report['median_speedup']:.2f}x "
          f"(scale={report['scale']}, reps={report['reps']})")
    if args.json:
        write_json(args.json, bench_document(
            "core_speed",
            params={"scale": report["scale"], "seed": report["seed"],
                    "reps": report["reps"],
                    "apps": [r["app"] for r in report["apps"]]},
            wall_s=clock.wall_s, cpu_s=clock.cpu_s,
            metrics={"median_speedup": report["median_speedup"],
                     "apps": report["apps"]},
        ))
    return 0


if __name__ == "__main__":
    sys.exit(main())
