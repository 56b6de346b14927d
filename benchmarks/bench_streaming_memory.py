"""Benchmark: peak-RSS of streaming vs materialized million-reference replay.

The streaming-trace architecture's headline claim: a scenario whose
materialized replay needs every reference column (and the replay kernel's
whole-trace run columns) resident completes under a hard peak-RSS cap
when replayed chunk by chunk.  This script measures both modes on the
canonical 1,000,448-reference / 1024-thread scenario
(:func:`repro.workload.streaming.million_reference_scenario`), each in a
*fresh subprocess* so ``ru_maxrss`` is the mode's own high-water mark,
asserts the two replays produce bit-identical results, and enforces the
cap on the streaming run.

Run as a script (the CI ``streaming`` job does)::

    PYTHONPATH=src python benchmarks/bench_streaming_memory.py \
        --rss-cap-mb 125 --json streaming_memory.json

Exit status is non-zero when the replays diverge, when the streaming run
exceeds the cap, or when the materialized run *fits* under it (a cap the
baseline passes proves nothing — shrink it or grow the scenario).
"""

import argparse
import hashlib
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

from _harness import Stopwatch, add_json_arg, bench_document, write_json

#: Default hard cap for the streaming replay's peak RSS.  Calibrated
#: against measured behavior (streaming ≈ 109 MB, materialized ≈ 140 MB
#: on a 2-CPU x86-64 Linux host, Python 3.11): streaming clears it with
#: ~13% headroom, materialized exceeds it by ~12%.
DEFAULT_RSS_CAP_MB = 125

#: Processors in the replayed machine (1024 threads / 32 per processor).
PROCESSORS = 32


def replay(mode: str) -> dict:
    """One full replay in this process; returns its measurements.

    ``mode`` is ``streaming`` (chunked, O(chunk) resident reference
    data) or ``materialized`` (whole columns + whole-trace run columns).
    """
    from repro.arch.config import ArchConfig
    from repro.arch.simulator import simulate
    from repro.workload.streaming import million_reference_scenario

    spec = million_reference_scenario()
    stream = spec.build()
    traces = stream.materialize() if mode == "materialized" else stream
    placement = spec.round_robin_placement(PROCESSORS)
    config = ArchConfig(
        num_processors=PROCESSORS,
        contexts_per_processor=spec.num_threads // PROCESSORS,
        cache_words=4096,
        block_words=16,
    )
    start = time.perf_counter()
    result = simulate(traces, placement, config, quantum_refs=256)
    wall = time.perf_counter() - start
    fingerprint = hashlib.sha256(json.dumps({
        "execution_time": result.execution_time,
        "total_refs": result.total_refs,
        "processors": [[p.busy, p.switching, p.idle, p.completion_time]
                       for p in result.processors],
        "pairwise": result.pairwise_coherence.tolist(),
    }, sort_keys=True).encode()).hexdigest()[:16]
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "mode": mode,
        "total_refs": spec.total_refs,
        "num_threads": spec.num_threads,
        "execution_time": result.execution_time,
        "fingerprint": fingerprint,
        "replay_wall_s": round(wall, 3),
        "peak_rss_mb": round(rss_kb / 1024.0, 1),
    }


def run_subprocess(mode: str) -> dict:
    """Run one mode in a fresh interpreter and parse its report line."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src + (os.pathsep + existing if existing else "")
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--replay", mode],
        capture_output=True, text=True, env=env, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"{mode} replay subprocess failed "
            f"(exit {proc.returncode}):\n{proc.stderr[-2000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(rss_cap_mb: float) -> dict:
    streaming = run_subprocess("streaming")
    materialized = run_subprocess("materialized")
    for report in (streaming, materialized):
        print(f"{report['mode']:>12}: peak RSS {report['peak_rss_mb']:7.1f} MB"
              f"  replay {report['replay_wall_s']:6.2f} s"
              f"  fingerprint {report['fingerprint']}")
    if streaming["fingerprint"] != materialized["fingerprint"]:
        raise SystemExit(
            "FAIL: streaming and materialized replays diverged — "
            "byte-identity is the refactor invariant"
        )
    ratio = materialized["peak_rss_mb"] / streaming["peak_rss_mb"]
    print(f"memory ratio (materialized / streaming): {ratio:.2f}x, "
          f"cap {rss_cap_mb:g} MB")
    if streaming["peak_rss_mb"] > rss_cap_mb:
        raise SystemExit(
            f"FAIL: streaming replay peak RSS {streaming['peak_rss_mb']} MB "
            f"exceeds the {rss_cap_mb:g} MB cap"
        )
    if materialized["peak_rss_mb"] <= rss_cap_mb:
        raise SystemExit(
            f"FAIL: materialized replay fits under the {rss_cap_mb:g} MB cap "
            f"({materialized['peak_rss_mb']} MB) — the cap no longer "
            f"demonstrates anything; lower it or grow the scenario"
        )
    return {
        "total_refs": streaming["total_refs"],
        "num_threads": streaming["num_threads"],
        "execution_time": streaming["execution_time"],
        "results_identical": True,
        "rss_cap_mb": rss_cap_mb,
        "streaming_peak_rss_mb": streaming["peak_rss_mb"],
        "materialized_peak_rss_mb": materialized["peak_rss_mb"],
        "memory_ratio": round(ratio, 3),
        "streaming_replay_wall_s": streaming["replay_wall_s"],
        "materialized_replay_wall_s": materialized["replay_wall_s"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--replay", choices=("streaming", "materialized"),
                        help=argparse.SUPPRESS)  # internal subprocess mode
    parser.add_argument("--rss-cap-mb", type=float,
                        default=DEFAULT_RSS_CAP_MB,
                        help="hard peak-RSS cap for the streaming replay "
                             f"(default {DEFAULT_RSS_CAP_MB})")
    add_json_arg(parser)
    args = parser.parse_args(argv)
    if args.replay:
        print(json.dumps(replay(args.replay)))
        return 0
    with Stopwatch() as watch:
        metrics = measure(args.rss_cap_mb)
    print(f"streaming memory benchmark passed in {watch.wall_s:.1f} s")
    if args.json:
        write_json(args.json, bench_document(
            "streaming_memory",
            params={"total_refs": metrics["total_refs"],
                    "num_threads": metrics["num_threads"],
                    "processors": PROCESSORS,
                    "rss_cap_mb": args.rss_cap_mb},
            wall_s=watch.wall_s, cpu_s=watch.cpu_s, metrics=metrics,
        ))
    return 0


if __name__ == "__main__":
    sys.exit(main())
