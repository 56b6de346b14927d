"""Benchmark: the cost of simulator probes, on and off.

The observability probes (:class:`repro.obs.probes.SimProbe`) hang one
``_probe`` attribute on each processor and the directory; every event
site is a single ``is not None`` test when disabled and a counter bump
when enabled.  This benchmark pins both costs:

* **disabled** — a simulation run without a probe must pay under 2%
  overhead.  There is no probe-free build to diff against, so the cost
  is bounded analytically: (number of probe-site visits) x (measured
  cost of one attribute-test branch), as a fraction of the unprobed
  wall time.  The branch cost is measured with the loop overhead left
  in, so the bound is conservative.
* **enabled** — the same cell simulated under a probe must stay within
  15% of the unprobed wall time, measured directly (interleaved,
  median-of-N).

Pytest enforces both bounds; as a script it also emits the uniform
repro-bench/v1 JSON::

    PYTHONPATH=src python benchmarks/bench_obs_overhead.py --json obs.json
"""

import argparse
import statistics
import sys
import time

from _harness import Stopwatch, add_json_arg, bench_document, write_json
from conftest import BENCH_SCALE

from repro.arch.config import ArchConfig
from repro.arch.simulator import simulate
from repro.obs.probes import SimProbe
from repro.placement import LoadBal, PlacementInputs
from repro.trace.analysis import TraceSetAnalysis
from repro.workload import build_application, spec_for

#: The ISSUE's overhead budgets.
DISABLED_BUDGET = 0.02
ENABLED_BUDGET = 0.15


def _bench_cell(app: str = "Water", seed: int = 0):
    traces = build_application(app, scale=BENCH_SCALE, seed=seed)
    analysis = TraceSetAnalysis(traces)
    placement = LoadBal().place(PlacementInputs(analysis, 4))
    config = ArchConfig(
        num_processors=4,
        contexts_per_processor=int(placement.cluster_sizes().max()),
        cache_words=spec_for(app).cache_words,
    )
    return traces, placement, config


def _branch_cost_s(iterations: int = 200_000) -> float:
    """Per-visit cost of one disabled probe site (attribute test).

    Times ``self._probe is not None`` on a representative object in a
    tight loop; the loop overhead is deliberately not subtracted, so the
    estimate errs high and the disabled bound stays conservative.
    """

    class Site:
        __slots__ = ("_probe",)

        def __init__(self):
            self._probe = None

    site = Site()
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        for _ in range(iterations):
            if site._probe is not None:
                pass  # pragma: no cover - probe is None by construction
        best = min(best, time.perf_counter() - t0)
    return best / iterations


def measure_overhead(reps: int = 5) -> dict:
    """Both overheads on one representative cell (Water, LOAD-BAL, 4p)."""
    traces, placement, config = _bench_cell()
    # Warm both paths (trace decode, allocator) out of the measurement,
    # and check once that probing does not perturb results.
    baseline_result = simulate(traces, placement, config)
    probed_result = simulate(traces, placement, config, probe=SimProbe())
    assert baseline_result.execution_time == probed_result.execution_time, (
        "probe changed the simulation result"
    )
    plain_times, probed_times = [], []
    probe = SimProbe()
    for _ in range(reps):
        t0 = time.perf_counter()
        simulate(traces, placement, config)
        t1 = time.perf_counter()
        simulate(traces, placement, config, probe=probe)
        t2 = time.perf_counter()
        plain_times.append(t1 - t0)
        probed_times.append(t2 - t1)
    plain = statistics.median(plain_times)
    probed = statistics.median(probed_times)
    enabled_overhead = (probed - plain) / plain

    # Disabled bound: every probe site visited during one cell, costed
    # at one attribute-test branch each.  The visit count comes from the
    # accumulated probe itself (reps identical runs -> divide back).
    # Miss classes are read off the caches once per run, not per event.
    snapshot = probe.snapshot()
    visits_per_run = (
        snapshot["sim_context_switches"]
        + snapshot["sim_directory_upgrades"]
        + snapshot["sim_quanta"]
    ) / reps
    branch = _branch_cost_s()
    disabled_overhead = (visits_per_run * branch) / plain
    return {
        "plain_s": plain,
        "probed_s": probed,
        "enabled_overhead": enabled_overhead,
        "disabled_overhead": disabled_overhead,
        "branch_cost_ns": branch * 1e9,
        "site_visits_per_run": visits_per_run,
        "reps": reps,
    }


def test_probe_overhead():
    report = measure_overhead()
    print()
    print(f"plain {report['plain_s'] * 1e3:.2f} ms, "
          f"probed {report['probed_s'] * 1e3:.2f} ms; "
          f"enabled overhead {report['enabled_overhead'] * 100:.2f}% "
          f"(budget {ENABLED_BUDGET * 100:.0f}%), "
          f"disabled bound {report['disabled_overhead'] * 100:.3f}% "
          f"(budget {DISABLED_BUDGET * 100:.0f}%)")
    assert report["disabled_overhead"] < DISABLED_BUDGET, report
    assert report["enabled_overhead"] < ENABLED_BUDGET, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="simulator probe overhead, enabled and disabled")
    add_json_arg(parser)
    parser.add_argument("--reps", type=int, default=5,
                        help="timing repetitions (default 5)")
    args = parser.parse_args(argv)
    with Stopwatch() as clock:
        report = measure_overhead(reps=args.reps)
    print(f"enabled overhead  {report['enabled_overhead'] * 100:6.2f}% "
          f"(budget {ENABLED_BUDGET * 100:.0f}%)")
    print(f"disabled bound    {report['disabled_overhead'] * 100:6.3f}% "
          f"(budget {DISABLED_BUDGET * 100:.0f}%)")
    ok = (report["disabled_overhead"] < DISABLED_BUDGET
          and report["enabled_overhead"] < ENABLED_BUDGET)
    if args.json:
        write_json(args.json, bench_document(
            "obs_overhead",
            params={"scale": BENCH_SCALE, "seed": 0, "reps": report["reps"],
                    "disabled_budget": DISABLED_BUDGET,
                    "enabled_budget": ENABLED_BUDGET},
            wall_s=clock.wall_s, cpu_s=clock.cpu_s,
            metrics={**report, "within_budget": ok},
        ))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
