"""Cost of crash-safety: checksums + atomic/fsynced writes vs raw writes.

The hardening added to :class:`~repro.experiments.cache.ResultStore`
(write-tmp → fsync → rename, a sha256 trailer verified on load) must be
cheap relative to the simulations it protects — the acceptance target is
**< 3% of the per-cell simulation time at the paper's full workload
scale**.  The store cost is scale-independent (a result is a fixed
handful of arrays regardless of trace length) while the simulation cost
grows linearly with scale, so the benchmark measures both at
``BENCH_SCALE`` and linearly extrapolates the simulation to scale 1.0
for the acceptance number; the raw at-bench-scale ratio is reported too.

Run as a script for the JSON artifact the CI uploads::

    PYTHONPATH=src python benchmarks/bench_fault_overhead.py --json fo.json
"""

import argparse
import io
import json
import statistics
import sys
import time

import numpy as np
import pytest

from repro.arch.config import ArchConfig
from repro.arch.simulator import simulate
from repro.experiments.cache import (
    ResultStore,
    result_from_arrays,
    result_to_arrays,
)
from repro.placement import PlacementInputs, algorithm_by_name
from repro.trace.analysis import TraceSetAnalysis
from repro.workload import build_application, spec_for

from conftest import BENCH_SCALE

#: Acceptance target: hardened persistence must stay under this fraction
#: of the protected simulation's own cost at the paper's workload scale.
OVERHEAD_TARGET_PCT = 3.0


def _paper_cell(app: str = "Water", seed: int = 0):
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


def _raw_round_trip(path, result):
    """The unhardened baseline: serialize, write, read back and decode one
    result — no checksum, no fsync, no rename."""
    buffer = io.BytesIO()
    np.savez_compressed(buffer, **result_to_arrays(result))
    path.write_bytes(buffer.getvalue())
    with np.load(io.BytesIO(path.read_bytes()), allow_pickle=False) as arrays:
        return result_from_arrays(arrays)


@pytest.fixture(scope="module")
def water_result():
    traces, placement, config = _paper_cell()
    return simulate(traces, placement, config)


def test_hardened_store_round_trip(benchmark, water_result, tmp_path):
    store = ResultStore(tmp_path)

    def cycle():
        store.store(("cell",), water_result)
        return store.load(("cell",))

    assert benchmark(cycle) is not None


def test_raw_store_round_trip(benchmark, water_result, tmp_path):
    """The unhardened baseline; the delta to the row above is the whole
    cost of crash-safety for one cell."""
    path = tmp_path / "cell.npz"
    assert benchmark(_raw_round_trip, path, water_result) is not None


# ---------------------------------------------------------------------
# Script entry point: overhead relative to simulation cost (JSON artifact).

def _median_seconds(fn, reps: int) -> float:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def measure_overhead(workdir, app: str = "Water", reps: int = 9,
                     seed: int = 0) -> dict:
    """Hardened vs raw store round-trips, normalized to the cell's
    simulation time (the quantity a sweep actually pays per cell)."""
    traces, placement, config = _paper_cell(app, seed)
    result = simulate(traces, placement, config)  # warm trace/compression
    sim_s = _median_seconds(
        lambda: simulate(traces, placement, config), reps)

    hardened = ResultStore(workdir / "hardened")
    raw = workdir / "raw.npz"

    def round_trip():
        hardened.store(("cell",), result)
        assert hardened.load(("cell",)) is not None

    round_trip()  # warm both paths
    _raw_round_trip(raw, result)
    hardened_s = _median_seconds(round_trip, reps)
    raw_s = _median_seconds(lambda: _raw_round_trip(raw, result), reps)

    delta_s = hardened_s - raw_s
    # The simulation cost at the paper's scale (1.0), extrapolated
    # linearly from the bench scale; the store delta does not scale.
    paper_sim_s = sim_s / BENCH_SCALE
    return {
        "app": app,
        "scale": BENCH_SCALE,
        "seed": seed,
        "reps": reps,
        "simulate_s": sim_s,
        "hardened_store_s": hardened_s,
        "raw_store_s": raw_s,
        "hardening_delta_s": delta_s,
        "overhead_pct_at_bench_scale": 100.0 * delta_s / sim_s,
        "overhead_pct_at_paper_scale": 100.0 * delta_s / paper_sim_s,
        "target_pct": OVERHEAD_TARGET_PCT,
        "within_target": 100.0 * delta_s / paper_sim_s < OVERHEAD_TARGET_PCT,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="checksums + atomic-write overhead vs simulation cost")
    parser.add_argument("--json", metavar="PATH",
                        help="also write the measurement as JSON")
    parser.add_argument("--app", default="Water",
                        help="application cell to measure (default Water)")
    parser.add_argument("--reps", type=int, default=9,
                        help="timing repetitions (default 9)")
    parser.add_argument("--workdir", default=".bench-fault-overhead",
                        help="scratch directory for the two stores")
    args = parser.parse_args(argv)

    import pathlib
    import shutil

    workdir = pathlib.Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        report = measure_overhead(workdir, app=args.app, reps=args.reps)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"{report['app']:10s} simulate={report['simulate_s'] * 1e3:8.2f}ms "
          f"hardened={report['hardened_store_s'] * 1e3:7.2f}ms "
          f"raw={report['raw_store_s'] * 1e3:7.2f}ms")
    print(f"hardening overhead: {report['hardening_delta_s'] * 1e3:.2f}ms "
          f"per cell = {report['overhead_pct_at_bench_scale']:.2f}% of a "
          f"scale-{report['scale']:g} simulation, "
          f"{report['overhead_pct_at_paper_scale']:.3f}% at paper scale "
          f"(target < {report['target_pct']:g}%)")
    verdict = "PASS" if report["within_target"] else "FAIL"
    print(f"[{verdict}] crash-safety overhead target")
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(report, handle, indent=2)
        print(f"wrote {args.json}")
    return 0 if report["within_target"] else 1


if __name__ == "__main__":
    sys.exit(main())
