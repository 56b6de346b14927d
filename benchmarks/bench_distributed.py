"""Benchmark: distributed grid execution speedup and overhead.

The :mod:`repro.dist` layer shards the simulation grid over worker
nodes (``repro-serve`` processes sharing one store); this benchmark
pins down what that buys and what it costs:

* **node scaling** — the same suite over 1, 2, … single-worker nodes
  (fresh store each run, so nothing is answered from cache).  The
  speedup column is the whole point of distribution; the 1-node run
  doubles as the coordination-overhead probe, since it does everything
  the sequential baseline does *plus* HTTP dispatch, journal streaming
  and the merged-journal bookkeeping.
* **byte identity** — every distributed report is compared against the
  sequential single-machine baseline.  A distribution layer that went
  faster by computing something else would be worse than useless, so
  the benchmark hard-fails on any byte difference.

Pytest enforces a loose speedup floor for the 2-node run (this is a
shared CI box, not a cluster; the floor only catches a scheduler that
stopped parallelizing).  As a script it emits repro-bench/v1 JSON::

    PYTHONPATH=src python benchmarks/bench_distributed.py \\
        --json benchmarks/BENCH_distributed.json
"""

import argparse
import os
import socket
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from _harness import Stopwatch, add_json_arg, bench_document, write_json

from repro.dist.coordinator import run_distributed
from repro.experiments.api import RunOptions, SuiteRequest, run_suite
from repro.service.client import ServiceClient

#: One real simulated section: 64 content-addressed cells, each costly
#: enough (~200 ms) that dispatch overhead does not dominate.
SUITE = SuiteRequest(sections=("figure2",), scale=0.03)

#: Sanity floor for pytest (pathology detector, not a target).
MIN_2NODE_SPEEDUP = 1.15


def _spawn_node(root: Path, tag: str, store: Path) -> subprocess.Popen:
    """A real single-worker ``repro-serve`` node process (nodes must not
    share a GIL)."""
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.tools.serve_cli",
         "--data-dir", str(root / tag), "--store-dir", str(store),
         "--port", str(port)],
        stderr=subprocess.DEVNULL)
    process.address = f"127.0.0.1:{port}"
    assert ServiceClient(process.address).wait_ready(timeout=30)
    return process


def _run_on_nodes(num_nodes: int, baseline_text: str, root: Path) -> dict:
    """One distributed run on ``num_nodes`` fresh single-worker nodes."""
    store = root / f"store-{num_nodes}"
    nodes = [_spawn_node(root, f"n{num_nodes}-{i}", store)
             for i in range(num_nodes)]
    t0 = time.perf_counter()
    try:
        result, cluster = run_distributed(
            SUITE, [node.address for node in nodes],
            root / f"coord-{num_nodes}", store, timeout=600)
        wall_s = time.perf_counter() - t0
    finally:
        for node in nodes:
            node.terminate()
        for node in nodes:
            node.wait(timeout=10)
    assert cluster.ok and not cluster.missing, (
        f"{num_nodes}-node run degraded: {sorted(cluster.missing)[:3]}")
    assert result.report_text == baseline_text, (
        f"{num_nodes}-node report diverged from the sequential baseline")
    return {
        "nodes": num_nodes,
        "wall_s": wall_s,
        "cells": len(cluster.specs),
        "byte_identical": True,
    }


def measure_distributed(node_counts=(1, 2, 3)) -> dict:
    """Sequential baseline plus one distributed run per node count."""
    t0 = time.perf_counter()
    baseline = run_suite(SUITE, RunOptions())
    sequential_s = time.perf_counter() - t0
    runs = []
    with tempfile.TemporaryDirectory(prefix="bench-dist-") as tmp:
        for num_nodes in node_counts:
            runs.append(_run_on_nodes(num_nodes, baseline.report_text,
                                      Path(tmp)))
    one_node_s = runs[0]["wall_s"]
    for run in runs:
        run["speedup_vs_1node"] = one_node_s / run["wall_s"]
        run["speedup_vs_sequential"] = sequential_s / run["wall_s"]
    return {
        # Nodes are real processes: scaling is bounded by the host's
        # cores, so a single-core box caps every speedup column at ~1x
        # no matter how correct the scheduler is.  The count is recorded
        # so archived results are interpretable.
        "host_cpus": os.cpu_count(),
        "sequential_s": sequential_s,
        "runs": runs,
    }


def test_two_node_speedup_with_byte_identity():
    report = measure_distributed(node_counts=(1, 2))
    one, two = report["runs"]
    print()
    print(f"sequential {report['sequential_s']:.2f}s; "
          f"1 node {one['wall_s']:.2f}s; 2 nodes {two['wall_s']:.2f}s "
          f"({two['speedup_vs_1node']:.2f}x on {report['host_cpus']} cpus)")
    assert all(run["byte_identical"] for run in report["runs"])
    if (report["host_cpus"] or 1) >= 2:
        assert two["speedup_vs_1node"] > MIN_2NODE_SPEEDUP, report
    else:
        # One core: two single-worker node processes time-slice the same
        # CPU, so the most the scheduler can achieve is "no slowdown".
        assert two["speedup_vs_1node"] > 0.8, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="distributed grid execution speedup")
    add_json_arg(parser)
    parser.add_argument("--nodes", default="1,2,3",
                        help="comma list of node counts (default 1,2,3)")
    args = parser.parse_args(argv)
    counts = tuple(int(part) for part in args.nodes.split(","))
    with Stopwatch() as clock:
        report = measure_distributed(node_counts=counts)
    print(f"sequential baseline   {report['sequential_s']:8.2f} s")
    for run in report["runs"]:
        print(f"{run['nodes']} node(s)             {run['wall_s']:8.2f} s   "
              f"{run['speedup_vs_1node']:.2f}x vs 1 node   "
              f"{run['speedup_vs_sequential']:.2f}x vs sequential")
    multi = [run for run in report["runs"] if run["nodes"] >= 2]
    cpus = report["host_cpus"] or 1
    floor = 1.0 if cpus >= 2 else 0.8
    ok = all(run["byte_identical"] for run in report["runs"]) and (
        not multi or max(run["speedup_vs_1node"] for run in multi) > floor)
    if args.json:
        write_json(args.json, bench_document(
            "distributed",
            params={"node_counts": list(counts),
                    "suite": {"sections": list(SUITE.sections),
                              "scale": SUITE.scale}},
            wall_s=clock.wall_s, cpu_s=clock.cpu_s,
            metrics={**report, "within_budget": ok},
        ))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
