"""``repro-simulate``: replay traces under a placement map.

The third stage of the paper's pipeline: "Both maps and program traces
were input to the simulator" (§3).

Examples::

    repro-simulate --traces fft.npz --map map.json --cache-words 256
    repro-simulate --traces fft.npz --map map.json --infinite --quiet
    repro-simulate --traces fft.npz --map map.json --associativity 2
"""

from __future__ import annotations

import argparse
import sys

from repro.arch.config import ArchConfig
from repro.arch.simulator import simulate
from repro.arch.stats import MissKind
from repro.arch.thrashing import detect_thrashing
from repro.placement.io import load_placement
from repro.tools.errors import friendly_errors
from repro.trace.io import load_trace_set, load_trace_set_text

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The tool's argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro-simulate",
        description="Simulate traces under a placement map (Table 3 machine).",
    )
    parser.add_argument("--traces", required=True, help="trace file (.npz or text)")
    parser.add_argument("--map", required=True, dest="placement_map",
                        help="placement map (JSON from repro-place)")
    parser.add_argument("--cache-words", type=int, default=256)
    parser.add_argument("--infinite", action="store_true",
                        help="use the 'effectively infinite' 8 MB cache")
    parser.add_argument("--block-words", type=int, default=4)
    parser.add_argument("--associativity", type=int, default=1)
    parser.add_argument("--latency", type=int, default=50,
                        help="memory latency in cycles")
    parser.add_argument("--switch-cost", type=int, default=6)
    parser.add_argument("--contexts", type=int, default=None,
                        help="hardware contexts per processor "
                             "(default: the map's largest cluster)")
    parser.add_argument("--check-invariants", action="store_true",
                        help="audit the run with the oracle's conservation "
                             "laws (cycle accounting, miss bookkeeping, "
                             "directory/cache sync); see docs/VALIDATION.md")
    parser.add_argument("--oracle", action="store_true",
                        help="also replay the run on the slow reference "
                             "interpreter and fail unless every metric "
                             "matches exactly")
    parser.add_argument("--quiet", action="store_true",
                        help="print only the execution time")
    return parser


@friendly_errors("repro-simulate")
def main(argv: list[str] | None = None) -> int:
    """Console entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    traces = (
        load_trace_set(args.traces)
        if args.traces.endswith(".npz")
        else load_trace_set_text(args.traces)
    )
    placement, metadata = load_placement(args.placement_map)
    contexts = args.contexts or int(placement.cluster_sizes().max())
    config = ArchConfig(
        num_processors=placement.num_processors,
        contexts_per_processor=contexts,
        cache_words=(
            ArchConfig.INFINITE_CACHE_WORDS if args.infinite else args.cache_words
        ),
        block_words=args.block_words,
        associativity=args.associativity,
        memory_latency_cycles=args.latency,
        context_switch_cycles=args.switch_cost,
    )
    result = simulate(traces, placement, config,
                      check_invariants=args.check_invariants)
    if args.oracle:
        from repro.oracle import assert_equivalent, reference_simulate

        expected = reference_simulate(traces, placement, config)
        try:
            assert_equivalent(result, expected, context=traces.name)
        except AssertionError as exc:
            print(f"ORACLE MISMATCH: {exc}", file=sys.stderr)
            return 1
        if not args.quiet:
            print("oracle: reference interpreter agrees on every metric")

    if args.quiet:
        print(result.execution_time)
        return 0

    provenance = metadata.get("algorithm") or "unknown algorithm"
    print(f"{traces.name} under {provenance} on "
          f"{config.num_processors}p/{contexts}c:")
    print(result.describe())
    breakdown = result.miss_breakdown()
    print(f"miss components: compulsory={breakdown[MissKind.COMPULSORY]} "
          f"intra={breakdown[MissKind.INTRA_THREAD_CONFLICT]} "
          f"inter={breakdown[MissKind.INTER_THREAD_CONFLICT]} "
          f"invalidation={breakdown[MissKind.INVALIDATION]}")
    print(f"coherence traffic: {100 * result.coherence_traffic_fraction:.2f}% "
          f"of references")
    for diagnosis in detect_thrashing(result):
        print(f"WARNING thrashing: {diagnosis}", file=sys.stderr)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
