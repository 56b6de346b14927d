"""Benchmark: incremental placement search + result memo on the full grid.

Runs every cell of the report plan twice, cell by cell: once through a
default :class:`~repro.experiments.runner.ExperimentSuite` (result memo
and incremental placement search on) and once through the audited
reference suite (``check_invariants=True``: memo off, reference
clustering loop, every replay audited by the invariant checker).  It
reports both wall times, the memo hits (cells answered by a copy of an
identical-placement result) and a full bit-identity sweep.  The audited
wall time includes the invariant audit, so the ratio of the two is not
the memo's speed-up; it is what the ``--check-invariants`` path costs.

One timing of the audited half spread 35-48 s over five runs of the
same code on one host, so each half runs :data:`REPEATS` times on fresh
suites and the bench reports the median wall time with its range
(``*_min``/``*_max``).

Run with ``PYTHONPATH=src python -m pytest benchmarks/bench_speculation.py -s``,
or as a script emitting the uniform repro-bench/v1 JSON::

    PYTHONPATH=src python benchmarks/bench_speculation.py --json spec.json
"""

import argparse
import statistics
import sys
import time

from _harness import Stopwatch, add_json_arg, bench_document, write_json

from repro.exec import plan_sections
from repro.experiments.runner import ExperimentSuite
from repro.obs.probes import SimProbe
from repro.oracle import diff_results

#: The grid the acceptance criteria pin: the full report plan at the
#: reproduction's default evaluation scale.
GRID_SCALE = 0.001

#: Timed runs of each half; the quoted figure is their median.
REPEATS = 5


def run_grid(specs, suite):
    """Every planned cell through ``suite``; returns (results, wall_s)."""
    start = time.perf_counter()
    results = {
        spec.job_id: suite.run(
            spec.app, spec.algorithm, spec.processors,
            infinite=spec.infinite, associativity=spec.associativity,
            cache_words=spec.cache_words, replicate=spec.replicate)
        for spec in specs
    }
    return results, time.perf_counter() - start


def _wall_stats(name, walls):
    """``name``'s median wall time and its range, rounded for the JSON."""
    return {f"{name}_wall_s": round(statistics.median(walls), 3),
            f"{name}_wall_s_min": round(min(walls), 3),
            f"{name}_wall_s_max": round(max(walls), 3)}


def measure_speculation(sections=None):
    """Default vs audited full grid, :data:`REPEATS` times each, with a
    bit-identity sweep of every default run against the audited one."""
    specs = plan_sections(sections, scale=GRID_SCALE, seed=0)
    default_walls, audited_walls, memo_hits = [], [], set()
    mismatches = 0
    for _ in range(REPEATS):
        default = ExperimentSuite(scale=GRID_SCALE, seed=0)
        default.probe = SimProbe()
        results, wall = run_grid(specs, default)
        default_walls.append(wall)
        memo_hits.add(default.probe.memo_hits)
        audited = ExperimentSuite(scale=GRID_SCALE, seed=0,
                                  check_invariants=True)
        expected, wall = run_grid(specs, audited)
        audited_walls.append(wall)
        mismatches += sum(
            1 for spec in specs
            if diff_results(results[spec.job_id], expected[spec.job_id],
                            actual_name="default", expected_name="audited"))
    assert mismatches == 0, f"{mismatches} cells diverged under the memo"
    assert len(memo_hits) == 1, f"memo hits varied across runs: {memo_hits}"
    return {
        "cells": len(specs),
        "repeats": REPEATS,
        "memo_hits": memo_hits.pop(),
        "bit_identical_cells": len(specs),
        **_wall_stats("default", default_walls),
        **_wall_stats("audited", audited_walls),
    }


def render(metrics) -> str:
    lines = [
        f"Incremental search + result memo on the full grid "
        f"({metrics['cells']} cells, scale {GRID_SCALE:g}):",
        f"  default (memo + incremental) : {metrics['default_wall_s']:8.2f} s"
        f"  ({metrics['default_wall_s_min']:.2f}-"
        f"{metrics['default_wall_s_max']:.2f} s over {REPEATS} runs)",
        f"  audited (--check-invariants) : {metrics['audited_wall_s']:8.2f} s"
        f"  ({metrics['audited_wall_s_min']:.2f}-"
        f"{metrics['audited_wall_s_max']:.2f} s over {REPEATS} runs)",
        f"  memo hits: {metrics['memo_hits']}"
        f" ({metrics['memo_hits'] / metrics['cells']:.0%} of cells)",
        f"  bit-identical cells          : {metrics['bit_identical_cells']}"
        f"/{metrics['cells']}",
    ]
    return "\n".join(lines)


def test_speculation_memo(capsys):
    """Pytest entry point: the acceptance-criteria assertions."""
    metrics = measure_speculation()
    with capsys.disabled():
        print("\n" + render(metrics))
    assert metrics["memo_hits"] > 0
    assert metrics["bit_identical_cells"] == metrics["cells"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    add_json_arg(parser)
    parser.add_argument("--sections", nargs="+", default=None,
                        help="restrict the grid to these report sections "
                             "(default: the full plan; CI uses a small "
                             "subset to fit its time budget)")
    args = parser.parse_args(argv)
    with Stopwatch() as watch:
        metrics = measure_speculation(args.sections)
    print(render(metrics))
    if args.json:
        write_json(args.json, bench_document(
            "speculation",
            params={"scale": GRID_SCALE, "seed": 0,
                    "sections": args.sections},
            wall_s=watch.wall_s, cpu_s=watch.cpu_s,
            metrics=metrics,
        ))
    return 0


if __name__ == "__main__":
    sys.exit(main())
