"""End-to-end benchmark: ``grid``, ``replay`` and ``served`` workloads.

Every pass runs in a fresh subprocess (``child.py``) with empty caches
and stores.  The untraced passes give the end-to-end metrics; with
``--trace 1`` one more pass runs with every layer's public entry points
wrapped from outside (``layers.py``), its spans are written as
``trace.jsonl`` and the per-layer metrics are computed from that file.
Outputs are checked: passes on the same input must produce identical
digests, and inputs with a digest pinned in ``baseline.json`` must match
it.

Usage, from the repository root::

    python3 benchmarks/e2e/run.py [--workloads grid replay served]
        [--seed N] [--repeats 3 | --seconds 36] [--trace 0|1]
        [--trace-dir DIR] [--json OUT] [--quick]
    python3 benchmarks/e2e/run.py --compare set1.json set2.json

The last line of standard output is the result as JSON: an object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics of ``BENCHMARK.json``, or its per-layer metrics with
``--trace 1``), or with several workloads, such objects keyed by name.  The exit code is 1 when an output digest does not match,
2 when the repository's sources are missing and 3 when a pass fails to
run.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
WORK = HERE / ".work"
SPEC = (json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        if (ROOT / "BENCHMARK.json").exists() else None)
BASELINE = json.loads((HERE / "baseline.json").read_text(encoding="utf-8"))

#: Set-up samples per run; ``setup_s`` is their median.
SETUP_SAMPLES = 5
#: Nominal length of one pass on a 2-CPU host: ``--seconds S`` runs
#: ``round(S / PASS_SECONDS)`` passes.  A fixed count, not a deadline,
#: so host speed never changes which inputs a run measures.
PASS_SECONDS = 12.0
#: A pass that has not finished by then is killed and the run fails.
CHILD_TIMEOUT_S = 150.0


class BenchError(RuntimeError):
    """A pass could not be run (its process failed or timed out)."""


def _percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile (``q`` in [0, 1])."""
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def _spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


# ----------------------------------------------------------------------
# Running passes
# ----------------------------------------------------------------------


def _child(workload: str, seed: int, work_dir: Path, *, quick: bool,
           setup_only: bool = False, trace: Path | None = None) -> dict:
    """Run one pass in a fresh process; returns its record with
    ``setup_s`` (spawn until set-up finished) added."""
    shutil.rmtree(work_dir, ignore_errors=True)
    command = [sys.executable, str(HERE / "child.py"), "--workload", workload,
               "--seed", str(seed), "--work-dir", str(work_dir)]
    if quick:
        command.append("--quick")
    if setup_only:
        command.append("--setup-only")
    if trace is not None:
        command += ["--trace", str(trace)]
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([str(SRC), str(HERE)]))
    spawned = time.time()
    try:
        done = subprocess.run(command, cwd=ROOT, env=env, timeout=CHILD_TIMEOUT_S,
                              stdin=subprocess.DEVNULL)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} pass timed out") from exc
    if done.returncode != 0:
        raise BenchError(f"{workload} pass exited {done.returncode}")
    record = json.loads((work_dir / "pass.json").read_text(encoding="utf-8"))
    record["setup_s"] = record["ready"] - spawned
    shutil.rmtree(work_dir, ignore_errors=True)
    return record


def run_workload(workload: str, seed: int, *, passes: int,
                 trace: Path | None, quick: bool) -> dict:
    """All passes of one workload.

    Untraced pass ``k`` uses input seed ``seed + k``, so a run's medians
    cover several inputs as well as host noise.  With ``trace`` one traced
    pass runs first, on ``seed``, and ``passes`` is ignored: a single
    untraced pass on the same input measures the tracing overhead.
    Set-up-only processes then top the set-up samples up to
    :data:`SETUP_SAMPLES`.
    """
    work = WORK / f"{workload}-{os.getpid()}"
    traced = None
    if trace is not None:
        traced = _child(workload, seed, work, quick=quick, trace=trace)
        passes = 1
    records = [_child(workload, seed + k, work, quick=quick)
               for k in range(passes)]
    setups = [r["setup_s"] for r in records]
    while len(setups) < SETUP_SAMPLES:
        setups.append(_child(workload, seed, work, quick=quick,
                             setup_only=True)["setup_s"])
    return {"passes": records, "traced": traced, "setups": setups}


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------


def end_to_end(run: dict) -> dict[str, list[float]]:
    """Every end-to-end metric's per-pass samples (the value reported is
    their median; ``setup_s`` has one sample per process started)."""
    passes = run["passes"]
    return {
        "setup_s": run["setups"],
        "wall_s": [p["wall_s"] for p in passes],
        "requests_per_s": [len(p["latencies_s"]) / p["wall_s"] for p in passes],
        "refs_per_s": [p["refs"] / p["wall_s"] for p in passes],
        "latency_p50_s": [_percentile(p["latencies_s"], 0.50) for p in passes],
        "latency_p75_s": [_percentile(p["latencies_s"], 0.75) for p in passes],
        "peak_rss_mb": [p["peak_rss_mb"] for p in passes],
    }


def per_layer(run: dict, trace: Path) -> dict[str, float]:
    """The per-layer metrics of the traced pass, read from its trace."""
    from layers import layer_table

    traced = run["traced"]
    table = layer_table(trace, traced["wall_s"])
    table["arch.replay_ratio"] = (table["arch.simulate.calls"]
                                  / max(1, traced["cells"]))
    for stage in ("submit_s", "queue_s", "execute_s", "fetch_s"):
        samples = traced["service"].get(stage)
        table[f"service.{stage}"] = (statistics.median(samples)
                                     if samples else 0.0)
    untraced = run["passes"][0]  # the same input as the traced pass
    table["traced_wall_s"] = traced["wall_s"]
    table["trace_overhead_frac"] = traced["wall_s"] / untraced["wall_s"] - 1.0
    return table


def check_outputs(workload: str, run: dict, quick: bool) -> list[str]:
    """Digest gate: passes on the same input agree, and every input with
    a pinned digest matches it."""
    everything = run["passes"] + ([run["traced"]] if run["traced"] else [])
    by_seed: dict[int, set] = {}
    for record in everything:
        by_seed.setdefault(record["seed"], set()).add(record["digest"])
    pinned = {} if quick else BASELINE["digests"].get(workload, {})
    problems = []
    for seed, digests in sorted(by_seed.items()):
        if len(digests) != 1:
            problems.append(f"{workload} seed {seed}: passes disagree")
        expected = pinned.get(str(seed))
        if expected is not None and digests != {expected}:
            problems.append(f"{workload} seed {seed}: digest "
                            f"{sorted(digests)} != pinned {expected}")
    return problems


def _units(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[section]}


def summarize(workload: str, run: dict, *, quick: bool,
              trace: Path | None) -> dict:
    """The result object of one workload (and the JSON document's entry)."""
    problems = check_outputs(workload, run, quick)
    everything = run["passes"] + ([run["traced"]] if run["traced"] else [])
    attempted = sum(p["attempted"] for p in everything)
    failed = sum(p["failed"] for p in everything)
    if problems:
        failed = attempted
    units = _units("end_to_end")
    e2e = {name: {"value": statistics.median(values),
                  "unit": units.get(name, ""), "samples": len(values),
                  "values": values}
           for name, values in end_to_end(run).items()}
    requests = sum(len(p["latencies_s"]) for p in run["passes"])
    for name in ("latency_p50_s", "latency_p75_s"):
        e2e[name]["samples"] = requests
    entry = {"correct": not problems, "attempted": attempted,
             "failed": failed, "problems": problems,
             "digests": {str(p["seed"]): p["digest"] for p in everything},
             "end_to_end": e2e}
    if trace is not None:
        layer_units = _units("per_layer")
        entry["per_layer"] = {
            name: {"value": value, "unit": layer_units.get(name, "")}
            for name, value in per_layer(run, trace).items()}
        entry["missing_entry_points"] = run["traced"].get(
            "missing_entry_points", [])
    return entry


def result_line(entry: dict, traced: bool) -> dict:
    """The contract's last-line object for one workload."""
    section = "per_layer" if traced else "end_to_end"
    names = [m["name"] for m in SPEC[section]]
    return {"correct": entry["correct"], "attempted": entry["attempted"],
            "failed": entry["failed"],
            "metrics": {name: {"value": entry[section][name]["value"],
                               "unit": entry[section][name]["unit"]}
                        for name in names}}


# ----------------------------------------------------------------------
# Comparing two sets
# ----------------------------------------------------------------------


def compare(path_a: str, path_b: str) -> int:
    """Print both medians, both spreads and the bound per (metric,
    workload); exit 1 on a regression beyond the bound."""
    docs = [json.loads(Path(p).read_text(encoding="utf-8"))
            for p in (path_a, path_b)]
    regressions = 0
    print(f"{'workload':<8} {'metric':<16} {'A median':>12} {'spread':>7} "
          f"{'B median':>12} {'spread':>7} {'bound':>6}  verdict")
    for workload in sorted(set(docs[0]["metrics"]) & set(docs[1]["metrics"])):
        entries = [d["metrics"][workload] for d in docs]
        for entry, label in zip(entries, "AB"):
            if not entry["correct"]:
                print(f"{workload}: set {label} failed the digest gate")
                regressions += 1
        for metric in SPEC["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [e["end_to_end"][name]["values"] for e in entries]
            medians = [statistics.median(v) for v in values]
            spreads = [_spread(v) for v in values]
            change = (medians[1] - medians[0]) / medians[0]
            worse = change if metric["better"] == "lower" else -change
            if worse > bound:
                verdict = "REGRESSION"
                regressions += 1
            elif max(spreads) > bound:
                verdict = "unresolved"
            else:
                verdict = "ok"
            print(f"{workload:<8} {name:<16} {medians[0]:>12.5g} "
                  f"{spreads[0]:>6.1%} {medians[1]:>12.5g} {spreads[1]:>6.1%} "
                  f"{bound:>6.0%}  {verdict}")
    return 1 if regressions else 0


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark with a per-layer trace.")
    names = [w["name"] for w in SPEC["workloads"]]
    parser.add_argument("--workload", "--workloads", dest="workloads",
                        nargs="+", choices=names, default=names,
                        help="workloads to run (default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--repeats", type=int, default=None,
                        help="untraced passes per workload (default 3)")
    parser.add_argument("--seconds", type=float, default=None,
                        help=f"instead of --repeats: one pass per "
                             f"{PASS_SECONDS:g} s (at least one)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: add one traced pass and report the "
                             "per-layer metrics")
    parser.add_argument("--trace-dir", type=Path, default=None,
                        help="keep each workload's trace.jsonl here")
    parser.add_argument("--json", metavar="OUT",
                        help="write a repro-bench/v1 document")
    parser.add_argument("--quick", action="store_true",
                        help="small inputs (smoke test)")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two --json documents and exit")
    return parser


def main(argv: list[str] | None = None) -> int:
    if SPEC is None or not (SRC / "repro").is_dir():
        print("error: run from a repository checkout (src/repro and "
              "BENCHMARK.json are required)", file=sys.stderr)
        return 2
    args = _parser().parse_args(argv)
    sys.path[:0] = [str(SRC), str(HERE), str(HERE.parent)]
    if args.compare:
        return compare(*args.compare)
    repeats = args.repeats
    if repeats is None:
        repeats = (3 if args.seconds is None
                   else max(1, round(args.seconds / PASS_SECONDS)))
    trace_dir = args.trace_dir or WORK
    started = time.perf_counter()
    entries: dict[str, dict] = {}
    try:
        for workload in args.workloads:
            trace = None
            if args.trace:
                trace_dir.mkdir(parents=True, exist_ok=True)
                trace = trace_dir / f"{workload}.trace.jsonl"
                trace.unlink(missing_ok=True)
            run = run_workload(workload, args.seed, passes=repeats,
                               trace=trace, quick=args.quick)
            entries[workload] = summarize(workload, run, quick=args.quick,
                                          trace=trace)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    for workload, entry in entries.items():
        for problem in entry["problems"]:
            print(f"digest gate: {problem}", file=sys.stderr)
        for name, metric in entry["end_to_end"].items():
            print(f"{workload:<7} {name:<15} {metric['value']:>14.6g} "
                  f"{metric['unit']:<6} n={metric['samples']}",
                  file=sys.stderr)
    if args.json:
        from _harness import bench_document, write_json

        usage = resource.getrusage(resource.RUSAGE_CHILDREN)
        write_json(args.json, bench_document(
            "e2e", params={"seed": args.seed, "repeats": repeats,
                           "quick": args.quick, "trace": args.trace,
                           "host_cpus": os.cpu_count()},
            wall_s=time.perf_counter() - started,
            cpu_s=usage.ru_utime + usage.ru_stime, metrics=entries))
    lines = [result_line(entry, bool(args.trace)) for entry in entries.values()]
    print(json.dumps(lines[0] if len(lines) == 1 else
                     dict(zip(entries, lines)), sort_keys=True))
    return 0 if all(entry["correct"] for entry in entries.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
