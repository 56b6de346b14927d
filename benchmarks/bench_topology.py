"""Benchmark: the topology experiment family.

Computes every cell of the topology report section (policies x
topologies x applications) and reports per-topology execution-time
ratios, migration counts and the section's wall-clock.  A reduced-scale
round additionally times the full oracle audit (every cell recomputed on
the naive reference interpreter and checked bit-identical).

Run with ``PYTHONPATH=src python -m pytest benchmarks/bench_topology.py -s``,
or as a script emitting the uniform repro-bench/v1 JSON::

    PYTHONPATH=src python benchmarks/bench_topology.py --json topo.json
"""

import argparse
import sys

from _harness import Stopwatch, add_json_arg, bench_document, write_json

from repro.experiments.runner import ExperimentSuite
from repro.topo.experiments import (
    TOPOLOGY_SECTION_APPS,
    TOPOLOGY_SECTION_POLICIES,
    TOPOLOGY_SECTION_TOPOLOGIES,
    audit_topology_section,
    topology_cells,
)

#: Section cells run at the integration-test scale; the oracle audit at a
#: reduced one (the naive interpreter is the slow path by design).
SECTION_SCALE = 0.004
AUDIT_SCALE = 0.0005


def _execution_time(cell) -> int:
    return int(getattr(cell, "result", cell).execution_time)


def measure_section():
    """All section cells: (cells, wall seconds)."""
    suite = ExperimentSuite(scale=SECTION_SCALE, seed=0)
    with Stopwatch() as watch:
        cells = topology_cells(suite)
    return cells, watch.wall_s


def section_metrics(cells) -> dict:
    """The section's numbers, flattened for the JSON envelope."""
    ratios = {}
    migrations = {}
    for app in TOPOLOGY_SECTION_APPS:
        for spec in TOPOLOGY_SECTION_TOPOLOGIES:
            baseline = _execution_time(cells[(app, "RANDOM", spec)])
            for policy in TOPOLOGY_SECTION_POLICIES:
                cell = cells[(app, policy, spec)]
                ratios[f"{app}/{policy}/{spec}"] = round(
                    _execution_time(cell) / baseline, 4)
                if policy == "MIGRATE":
                    migrations[f"{app}/{spec}"] = len(cell.events)
    return {"normalized_time": ratios, "migrations": migrations}


def measure_audit():
    """Wall seconds of the full oracle audit at reduced scale."""
    suite = ExperimentSuite(scale=AUDIT_SCALE, seed=0)
    topology_cells(suite)          # kernel side, excluded from the timing
    with Stopwatch() as watch:
        audit_topology_section(suite)
    return watch.wall_s


def measure() -> dict:
    cells, section_wall = measure_section()
    audit_wall = measure_audit()
    metrics = section_metrics(cells)
    metrics.update({
        "cells": len(cells),
        "section_wall_s": round(section_wall, 3),
        "audit_wall_s": round(audit_wall, 3),
        "audit_scale": AUDIT_SCALE,
    })
    return metrics


def render(metrics: dict) -> str:
    lines = [
        f"Topology section ({metrics['cells']} cells, scale "
        f"{SECTION_SCALE:g}):",
        f"  section        : {metrics['section_wall_s']:7.2f} s",
        f"  oracle audit   : {metrics['audit_wall_s']:7.2f} s  "
        f"(scale {metrics['audit_scale']:g})",
    ]
    for app in TOPOLOGY_SECTION_APPS:
        lines.append(f"  {app}:")
        for policy in TOPOLOGY_SECTION_POLICIES:
            cells = "  ".join(
                f"{spec}={metrics['normalized_time'][f'{app}/{policy}/{spec}']:.3f}"
                for spec in TOPOLOGY_SECTION_TOPOLOGIES
            )
            lines.append(f"    {policy:<13s} {cells}")
    moved = ", ".join(f"{k}: {v}" for k, v in metrics["migrations"].items())
    lines.append(f"  migrations: {moved}")
    return "\n".join(lines)


def test_topology_section_benchmark(capsys):
    """Pytest entry point: self-checks over the measured section."""
    metrics = measure()
    with capsys.disabled():
        print("\n" + render(metrics))
    ratios = metrics["normalized_time"]
    for app in TOPOLOGY_SECTION_APPS:
        for spec in TOPOLOGY_SECTION_TOPOLOGIES:
            assert ratios[f"{app}/RANDOM/{spec}"] == 1.0
        # flat:50 self-check: tier-awareness degenerates to the base.
        assert (ratios[f"{app}/H-SHARE-REFS/flat:50"]
                == ratios[f"{app}/SHARE-REFS/flat:50"])
        assert metrics["migrations"][f"{app}/flat:50"] == 0
    assert any(count > 0 for key, count in metrics["migrations"].items()
               if not key.endswith("flat:50"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    add_json_arg(parser)
    args = parser.parse_args(argv)
    with Stopwatch() as watch:
        metrics = measure()
    print(render(metrics))
    if args.json:
        document = bench_document(
            "topology",
            params={"scale": SECTION_SCALE, "audit_scale": AUDIT_SCALE,
                    "seed": 0},
            wall_s=watch.wall_s,
            cpu_s=watch.cpu_s,
            metrics=metrics,
        )
        write_json(args.json, document)
    return 0


if __name__ == "__main__":
    sys.exit(main())
