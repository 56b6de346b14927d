"""Command-line entry point: ``repro-stats``.

Inspects the artifacts a run directory accumulates — the engine journal,
the observability exports (``metrics.json``, ``trace.jsonl``) and any
fault ledger — and prints what the run actually did::

    repro-stats repro-obs                 # the CLI's default obs dir
    repro-stats path/to/run-dir --json    # machine-readable
    repro-stats run.jsonl                 # a bare journal also works

The breakdown covers the run summary (jobs, retries, gaps, cache-hit
rate), per-stage wall/CPU time from the trace, p50/p95 cell latencies,
simulator counters from the metrics snapshot, and fault/hang tallies.
Every artifact is optional: the tool reports whatever is present and
says what is not, so it is equally useful on a journal-only run and on
a fully observed one.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.exec.journal import RunJournal
from repro.exec.summary import RunSummary, percentile
from repro.obs.spans import read_spans
from repro.tools.errors import CliError, friendly_errors

__all__ = ["main", "build_parser", "collect_stats"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-stats",
        description=(
            "Inspect a run directory's journal, metrics, traces and fault "
            "ledger and print per-stage breakdowns, latency percentiles "
            "and failure tallies."
        ),
    )
    parser.add_argument(
        "path",
        help="run directory (e.g. repro-obs) or a single journal file",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the full stats document as JSON on stdout",
    )
    parser.add_argument(
        "--follow",
        action="store_true",
        help="tail the run journal live first (progress meter on stderr "
             "until the run ends), then print the stats",
    )
    parser.add_argument(
        "--follow-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="give up following after this long (default: wait forever)",
    )
    return parser


# ----------------------------------------------------------------------
# Artifact discovery
# ----------------------------------------------------------------------


def _looks_like_journal(path: Path) -> bool:
    """A JSONL file whose first parseable line is an engine event."""
    try:
        with path.open("r", encoding="utf-8", errors="replace") as stream:
            for line in stream:
                line = line.strip()
                if not line:
                    continue
                try:
                    entry = json.loads(line)
                except json.JSONDecodeError:
                    return False
                return isinstance(entry, dict) and "event" in entry
    except OSError:
        return False
    return False


def discover(path: str | Path) -> dict:
    """Locate the artifacts under ``path`` (a run dir or journal file).

    Returns ``{"journal": Path|None, "trace": Path|None,
    "metrics": Path|None, "ledgers": [Path, ...]}``.
    """
    path = Path(path)
    if path.is_file():
        return {"journal": path, "trace": None, "metrics": None,
                "ledgers": [], "shards": None}
    if not path.is_dir():
        raise FileNotFoundError(str(path))
    found: dict = {"journal": None, "trace": None, "metrics": None,
                   "ledgers": [], "shards": None}
    shards = path / "shards.json"
    if shards.is_file():
        found["shards"] = shards
    trace = path / "trace.jsonl"
    if trace.is_file():
        found["trace"] = trace
    metrics = path / "metrics.json"
    if metrics.is_file():
        found["metrics"] = metrics
    # The journal is conventionally journal.jsonl, but accept any JSONL
    # of engine events (e.g. a --journal run.jsonl pointed elsewhere).
    candidates = sorted(
        p for p in path.glob("*.jsonl") if p.name != "trace.jsonl"
    )
    candidates.sort(key=lambda p: "journal" not in p.name)
    for candidate in candidates:
        if _looks_like_journal(candidate):
            found["journal"] = candidate
            break
    found["ledgers"] = sorted(
        p for p in path.iterdir() if p.is_file() and "ledger" in p.name
    )
    return found


# ----------------------------------------------------------------------
# Stats
# ----------------------------------------------------------------------


def _journal_stats(path: Path) -> dict:
    events = RunJournal.read(path)
    summary = RunSummary.from_journal(path)
    retry_kinds: dict[str, int] = {}
    fail_kinds: dict[str, int] = {}
    tallies = {"watchdog_kills": 0, "store_failures": 0, "interrupted": 0,
               "reused": 0}
    by_node: dict[str, int] = {}   # merged cluster journals only
    node_deaths = 0
    rebalances = 0
    for entry in events:
        kind = entry.get("kind")
        node = entry.get("node")
        if node:
            by_node[str(node)] = by_node.get(str(node), 0) + 1
        if entry["event"] == "retrying" and kind:
            retry_kinds[kind] = retry_kinds.get(kind, 0) + 1
        elif entry["event"] == "failed" and kind:
            fail_kinds[kind] = fail_kinds.get(kind, 0) + 1
        elif entry["event"] == "watchdog-kill":
            tallies["watchdog_kills"] += 1
        elif entry["event"] == "store-failed":
            tallies["store_failures"] += 1
        elif entry["event"] == "interrupted":
            tallies["interrupted"] += 1
        elif entry["event"] == "speculated":
            # Journals written before memo reuse moved to the metrics
            # snapshot recorded one event per reused cell.
            tallies["reused"] += 1
        elif entry["event"] == "node-dead":
            node_deaths += 1
        elif entry["event"] == "rebalance":
            rebalances += 1
    cluster = None
    if by_node or node_deaths or rebalances:
        cluster = {
            "events_by_node": dict(sorted(by_node.items())),
            "node_deaths": node_deaths,
            "rebalances": rebalances,
            "reroutes": retry_kinds.get("node-crash", 0),
        }
    return {
        "cluster": cluster,
        "path": str(path),
        "events": len(events),
        "summary": {
            "total_jobs": summary.total_jobs,
            "executed": summary.executed,
            "failed": summary.failed,
            "cache_hits": summary.cache_hits,
            "resumed": summary.resumed,
            "retries": summary.retries,
            "wall_seconds": round(summary.wall_seconds, 3),
            "cache_hit_rate": round(summary.cache_hit_rate, 4),
            "p50_seconds": round(summary.p50_seconds, 6),
            "p95_seconds": round(summary.p95_seconds, 6),
            "per_worker": summary.per_worker,
            "attempts": {str(k): v for k, v in summary.attempts.items()},
        },
        "retry_kinds": dict(sorted(retry_kinds.items())),
        "failure_kinds": dict(sorted(fail_kinds.items())),
        **tallies,
    }


def _trace_stats(path: Path) -> dict:
    spans = read_spans(path)
    stages: dict[str, dict] = {}
    cells: list[float] = []
    workers: set[int] = set()
    for span in spans:
        args = span.get("args") or {}
        if args.get("kind") == "stage":
            stage = stages.setdefault(
                span["name"], {"wall_seconds": 0.0, "cpu_seconds": 0.0,
                               "count": 0})
            stage["wall_seconds"] += float(span.get("wall", 0.0))
            stage["cpu_seconds"] += float(span.get("cpu", 0.0))
            stage["count"] += 1
        elif span["name"] == "simulate_cell":
            cells.append(float(span.get("wall", 0.0)))
            if "pid" in span:
                workers.add(span["pid"])
    for stage in stages.values():
        stage["wall_seconds"] = round(stage["wall_seconds"], 6)
        stage["cpu_seconds"] = round(stage["cpu_seconds"], 6)
    return {
        "path": str(path),
        "spans": len(spans),
        "stages": dict(sorted(stages.items())),
        "cells": {
            "count": len(cells),
            "workers": len(workers),
            "p50_seconds": round(percentile(cells, 50), 6),
            "p95_seconds": round(percentile(cells, 95), 6),
            "total_seconds": round(sum(cells), 6),
        },
    }


def _metrics_stats(path: Path) -> dict:
    try:
        snapshot = json.loads(path.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, OSError) as exc:
        raise CliError(f"unreadable metrics snapshot {path}: {exc}")
    if not isinstance(snapshot, dict):
        raise CliError(f"metrics snapshot {path} is not a JSON object")
    counters = snapshot.get("counters") or {}
    return {
        "path": str(path),
        "counters": len(counters),
        "gauges": len(snapshot.get("gauges") or {}),
        "histograms": len(snapshot.get("histograms") or {}),
        "simulator": {
            name: value for name, value in sorted(counters.items())
            if name.startswith("sim_")
        },
        # Snapshots from older runs carry the memo counters under their
        # retired sim_spec_* names; an absent counter reads as zero.
        "reuse": {
            "lookups": counters.get("sim_memo_lookups",
                                    counters.get("sim_spec_attempts", 0)),
            "hits": counters.get("sim_memo_hits",
                                 counters.get("sim_spec_hits", 0)),
        },
        "placement": {
            name: counters.get(f"sim_placement_{name}", 0)
            for name in ("searches", "relaxed", "backtracks")
        },
        "snapshot": snapshot,
    }


def _ledger_stats(paths: list[Path]) -> list[dict]:
    out = []
    for path in paths:
        try:
            lines = [
                line.strip()
                for line in path.read_text(encoding="utf-8",
                                           errors="replace").splitlines()
                if line.strip()
            ]
        except OSError:
            continue
        firings: dict[str, int] = {}
        for line in lines:
            firings[line] = firings.get(line, 0) + 1
        out.append({
            "path": str(path),
            "firings": len(lines),
            "by_fault": dict(sorted(firings.items())),
        })
    return out


def _shard_stats(path: Path) -> dict:
    """The partition directory, summarized (a coordinator's run dir)."""
    from repro.dist.directory import PartitionDirectory

    directory = PartitionDirectory.load(path)
    per_node = {node: len(directory.shards_of(node))
                for node in directory.nodes}
    return {
        "path": str(path),
        "version": directory.version,
        "num_shards": directory.num_shards,
        "nodes": directory.nodes,
        "shards_per_node": dict(sorted(per_node.items())),
    }


def collect_stats(path: str | Path) -> dict:
    """Everything repro-stats knows about ``path`` as one document."""
    found = discover(path)
    stats: dict = {"path": str(Path(path))}
    stats["journal"] = (
        _journal_stats(found["journal"]) if found["journal"] else None
    )
    stats["trace"] = _trace_stats(found["trace"]) if found["trace"] else None
    stats["metrics"] = (
        _metrics_stats(found["metrics"]) if found["metrics"] else None
    )
    stats["fault_ledgers"] = _ledger_stats(found["ledgers"])
    stats["shards"] = _shard_stats(found["shards"]) if found["shards"] else None
    return stats


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------


def _render(stats: dict) -> str:
    lines: list[str] = [f"Run stats for {stats['path']}", "=" * 40]
    journal = stats.get("journal")
    if journal:
        s = journal["summary"]
        lines += [
            f"journal             {journal['path']} "
            f"({journal['events']} events)",
            f"  jobs planned      {s['total_jobs']}",
            f"    executed        {s['executed']}",
            f"    cache hits      {s['cache_hits']}",
            f"    resumed         {s['resumed']}",
            f"    failed (gaps)   {s['failed']}",
            f"  retries           {s['retries']}",
            f"  cache-hit rate    {s['cache_hit_rate'] * 100:.1f}%",
            f"  wall time         {s['wall_seconds']:.2f} s",
            f"  job latency p50   {s['p50_seconds']:.3f} s",
            f"  job latency p95   {s['p95_seconds']:.3f} s",
        ]
        if s["attempts"]:
            spread = ", ".join(f"attempt {k}:{v}"
                               for k, v in s["attempts"].items())
            lines.append(f"  finishes          {spread}")
        if journal["retry_kinds"]:
            kinds = ", ".join(f"{k}:{v}"
                              for k, v in journal["retry_kinds"].items())
            lines.append(f"  retried for       {kinds}")
        if journal["failure_kinds"]:
            kinds = ", ".join(f"{k}:{v}"
                              for k, v in journal["failure_kinds"].items())
            lines.append(f"  failed for        {kinds}")
        for label, key in (("watchdog kills", "watchdog_kills"),
                           ("store failures", "store_failures"),
                           ("interrupted", "interrupted"),
                           ("reused (clone)", "reused")):
            if journal[key]:
                lines.append(f"  {label:<18}{journal[key]}")
        cluster = journal.get("cluster")
        if cluster:
            lines.append(f"  cluster           "
                         f"{len(cluster['events_by_node'])} node(s), "
                         f"{cluster['node_deaths']} death(s), "
                         f"{cluster['rebalances']} rebalance(s), "
                         f"{cluster['reroutes']} reroute(s)")
            for node, count in cluster["events_by_node"].items():
                lines.append(f"    {node:<16}{count} events")
    else:
        lines.append("journal             (none found)")
    shards = stats.get("shards")
    if shards:
        lines.append(f"shard map           {shards['path']} "
                     f"(v{shards['version']}, {shards['num_shards']} shards "
                     f"on {len(shards['nodes'])} node(s))")
        for node, count in shards["shards_per_node"].items():
            lines.append(f"  {node:<18}{count} shards")
    trace = stats.get("trace")
    if trace:
        lines.append(f"trace               {trace['path']} "
                     f"({trace['spans']} spans)")
        for name, stage in trace["stages"].items():
            lines.append(
                f"  stage {name:<12}wall {stage['wall_seconds']:.3f} s, "
                f"cpu {stage['cpu_seconds']:.3f} s"
            )
        cells = trace["cells"]
        if cells["count"]:
            lines += [
                f"  cells             {cells['count']} on "
                f"{cells['workers']} worker(s), "
                f"{cells['total_seconds']:.2f} s total",
                f"  cell latency p50  {cells['p50_seconds']:.3f} s",
                f"  cell latency p95  {cells['p95_seconds']:.3f} s",
            ]
    else:
        lines.append("trace               (none found)")
    metrics = stats.get("metrics")
    if metrics:
        lines.append(
            f"metrics             {metrics['path']} "
            f"({metrics['counters']} counters, {metrics['gauges']} gauges, "
            f"{metrics['histograms']} histograms)"
        )
        reuse = metrics["reuse"]
        if reuse["lookups"]:
            lines.append(f"  result memo       {reuse['hits']:g} hits / "
                         f"{reuse['lookups']:g} lookups")
        search = metrics["placement"]
        if search["searches"]:
            lines.append(f"  placement search  {search['searches']:g} searches, "
                         f"{search['relaxed']:g} relaxed, "
                         f"{search['backtracks']:g} backtracks")
        for name, value in metrics["simulator"].items():
            lines.append(f"  {name:<28}{value:g}")
    else:
        lines.append("metrics             (none found)")
    ledgers = stats.get("fault_ledgers") or []
    for ledger in ledgers:
        lines.append(f"fault ledger        {ledger['path']} "
                     f"({ledger['firings']} firings)")
        for fault, count in ledger["by_fault"].items():
            lines.append(f"  {fault:<28}{count}")
    if not ledgers:
        lines.append("fault ledger        (none found)")
    return "\n".join(lines) + "\n"


@friendly_errors("repro-stats")
def main(argv: list[str] | None = None) -> int:
    """Console entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.follow:
        from repro.obs.progress import follow_journal

        path = Path(args.path)
        journal = path if path.is_file() else path / "journal.jsonl"
        follow_journal(journal, stream=sys.stderr,
                       timeout=args.follow_timeout)
    stats = collect_stats(args.path)
    if (stats["journal"] is None and stats["trace"] is None
            and stats["metrics"] is None and not stats["fault_ledgers"]
            and stats["shards"] is None):
        raise CliError(
            f"no run artifacts (journal, trace, metrics or ledger) "
            f"found under {args.path}"
        )
    if args.json:
        # The full snapshot is redundant with the headline numbers.
        document = dict(stats)
        if document.get("metrics"):
            document["metrics"] = dict(document["metrics"])
        json.dump(document, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
    else:
        sys.stdout.write(_render(stats))
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
