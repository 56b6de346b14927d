"""Tests for the repro-stats run-directory inspector."""

import json

import pytest

from repro.tools import stats_cli
from repro.tools.errors import USAGE_EXIT_CODE


def write_jsonl(path, entries):
    with path.open("w", encoding="utf-8") as stream:
        for entry in entries:
            stream.write(json.dumps(entry) + "\n")


@pytest.fixture
def run_dir(tmp_path):
    """A synthetic but fully populated run directory."""
    write_jsonl(tmp_path / "journal.jsonl", [
        {"event": "run-start", "time": 0.0, "jobs": 3},
        {"event": "queued", "job": "a", "time": 0.0},
        {"event": "cache-hit", "job": "b", "time": 0.1},
        {"event": "started", "job": "a", "time": 0.1, "attempt": 1},
        {"event": "retrying", "job": "a", "time": 0.5, "attempt": 1,
         "kind": "timeout", "duration": 0.4},
        {"event": "watchdog-kill", "job": "c", "time": 0.6, "pid": 99},
        {"event": "store-failed", "job": "a", "time": 0.8, "attempt": 2},
        {"event": "finished", "job": "a", "time": 0.9, "attempt": 2,
         "duration": 0.3, "worker": 7},
        {"event": "failed", "job": "c", "time": 1.0, "attempt": 3,
         "kind": "hang", "error": "killed"},
        {"event": "run-end", "time": 1.0, "wall_seconds": 1.0},
    ])
    write_jsonl(tmp_path / "trace.jsonl", [
        {"name": "prefetch", "ts": 0.0, "wall": 0.9, "cpu": 0.1,
         "pid": 1, "tid": 0, "args": {"kind": "stage"}},
        {"name": "simulate_cell", "ts": 0.1, "wall": 0.7, "cpu": 0.6,
         "pid": 7, "tid": 0, "args": {"label": "Water"}},
        {"name": "render", "ts": 0.9, "wall": 0.05, "cpu": 0.04,
         "pid": 1, "tid": 0, "args": {"kind": "stage"}},
    ])
    (tmp_path / "metrics.json").write_text(json.dumps({
        "counters": {"sim_cells": 1, "sim_misses_total": 42,
                     'engine_events{event="finished"}': 1},
        "gauges": {"run_wall_seconds": 1.0},
        "histograms": {},
    }), encoding="utf-8")
    (tmp_path / "faults.ledger").write_text(
        "timeout:worker\ntimeout:worker\ncrash:store\n", encoding="ascii")
    return tmp_path


@pytest.fixture
def coord_dir(tmp_path):
    """A synthetic coordinator run directory: merged journal + shard map."""
    write_jsonl(tmp_path / "journal.jsonl", [
        {"event": "run-start", "time": 0.0, "jobs": 3},
        {"event": "finished", "job": "a", "time": 0.4, "attempt": 1,
         "duration": 0.4, "node": "127.0.0.1:8311"},
        {"event": "node-dead", "node": "127.0.0.1:8312", "time": 0.5},
        {"event": "rebalance", "version": 2, "time": 0.5,
         "nodes": ["127.0.0.1:8311"]},
        {"event": "retrying", "job": "b", "time": 0.5, "attempt": 1,
         "kind": "node-crash", "node": "127.0.0.1:8312"},
        {"event": "finished", "job": "b", "time": 0.9, "attempt": 2,
         "duration": 0.4, "node": "127.0.0.1:8311"},
        {"event": "finished", "job": "c", "time": 0.9, "attempt": 1,
         "duration": 0.3, "node": "127.0.0.1:8311"},
        {"event": "run-end", "time": 1.0, "wall_seconds": 1.0},
    ])
    from repro.dist.directory import PartitionDirectory
    directory = PartitionDirectory(tmp_path / "shards.json", num_shards=8)
    directory.rebalance(["127.0.0.1:8311", "127.0.0.1:8312"])
    directory.rebalance(["127.0.0.1:8311"])
    return tmp_path


class TestCollect:
    def test_full_directory(self, run_dir):
        stats = stats_cli.collect_stats(run_dir)
        journal = stats["journal"]
        assert journal["summary"]["executed"] == 1
        assert journal["summary"]["failed"] == 1
        assert journal["summary"]["cache_hits"] == 1
        # Retried-then-finished job: total latency 0.4 + 0.3.
        assert journal["summary"]["p50_seconds"] == pytest.approx(0.7)
        assert journal["summary"]["attempts"] == {"2": 1}
        assert journal["retry_kinds"] == {"timeout": 1}
        assert journal["failure_kinds"] == {"hang": 1}
        assert journal["watchdog_kills"] == 1
        assert journal["store_failures"] == 1
        trace = stats["trace"]
        assert set(trace["stages"]) == {"prefetch", "render"}
        assert trace["cells"]["count"] == 1
        assert trace["cells"]["p95_seconds"] == pytest.approx(0.7)
        assert stats["metrics"]["simulator"]["sim_misses_total"] == 42
        (ledger,) = stats["fault_ledgers"]
        assert ledger["firings"] == 3
        assert ledger["by_fault"] == {"timeout:worker": 2, "crash:store": 1}

    def test_bare_journal_file(self, run_dir):
        stats = stats_cli.collect_stats(run_dir / "journal.jsonl")
        assert stats["journal"]["summary"]["executed"] == 1
        assert stats["trace"] is None
        assert stats["metrics"] is None

    def test_journal_discovered_by_content(self, tmp_path):
        """A journal not named journal.jsonl is still found (and the
        trace file is never mistaken for one)."""
        write_jsonl(tmp_path / "run.jsonl", [
            {"event": "finished", "job": "a", "time": 0.0, "duration": 0.1},
        ])
        write_jsonl(tmp_path / "trace.jsonl", [
            {"name": "x", "ts": 0.0, "wall": 0.1},
        ])
        stats = stats_cli.collect_stats(tmp_path)
        assert stats["journal"]["path"].endswith("run.jsonl")
        assert stats["trace"]["spans"] == 1

    def test_missing_path_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            stats_cli.collect_stats(tmp_path / "nope")


class TestCluster:
    def test_merged_journal_and_shard_map_collected(self, coord_dir):
        stats = stats_cli.collect_stats(coord_dir)
        cluster = stats["journal"]["cluster"]
        # 8312's tally includes its own node-dead notice and the
        # re-route it caused, both attributed via the node= tag.
        assert cluster["events_by_node"] == {
            "127.0.0.1:8311": 3, "127.0.0.1:8312": 2}
        assert cluster["node_deaths"] == 1
        assert cluster["rebalances"] == 1
        assert cluster["reroutes"] == 1
        shards = stats["shards"]
        assert shards["version"] == 2
        assert shards["num_shards"] == 8
        assert shards["nodes"] == ["127.0.0.1:8311"]
        assert shards["shards_per_node"] == {"127.0.0.1:8311": 8}

    def test_single_machine_run_has_no_cluster_section(self, run_dir):
        stats = stats_cli.collect_stats(run_dir)
        assert stats["journal"]["cluster"] is None
        assert stats["shards"] is None

    def test_text_rendering(self, coord_dir, capsys):
        assert stats_cli.main([str(coord_dir)]) == 0
        out = capsys.readouterr().out
        assert "cluster" in out
        assert "2 node(s), 1 death(s), 1 rebalance(s), 1 reroute(s)" in out
        assert "127.0.0.1:8312" in out
        assert "shard map" in out
        assert "(v2, 8 shards on 1 node(s))" in out
        assert "127.0.0.1:8311    8 shards" in out


class TestCli:
    def test_text_output(self, run_dir, capsys):
        assert stats_cli.main([str(run_dir)]) == 0
        out = capsys.readouterr().out
        assert "jobs planned      3" in out
        assert "stage prefetch" in out
        assert "cell latency p95  0.700 s" in out
        assert "sim_misses_total" in out
        assert "timeout:worker" in out

    def test_json_output(self, run_dir, capsys):
        assert stats_cli.main([str(run_dir), "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["journal"]["summary"]["executed"] == 1
        assert document["trace"]["cells"]["count"] == 1
        assert document["metrics"]["counters"] == 3

    def test_empty_directory_is_usage_error(self, tmp_path, capsys):
        assert stats_cli.main([str(tmp_path)]) == USAGE_EXIT_CODE
        assert "no run artifacts" in capsys.readouterr().err

    def test_missing_path_is_usage_error(self, tmp_path, capsys):
        assert stats_cli.main([str(tmp_path / "gone")]) == USAGE_EXIT_CODE
        assert "error" in capsys.readouterr().err


class TestReuse:
    def _metrics(self, directory, counters):
        (directory / "metrics.json").write_text(json.dumps({
            "counters": counters, "gauges": {}, "histograms": {},
        }), encoding="utf-8")

    def test_legacy_speculation_artifacts_still_render(self, tmp_path,
                                                       capsys):
        """Runs recorded before the result memo carry delta/abort
        journal events and retired probe counters; both still parse, as
        do the sim_memo_* counters current runs write."""
        write_jsonl(tmp_path / "journal.jsonl", [
            {"event": "finished", "job": "a", "time": 0.1, "duration": 0.1},
            {"event": "speculated", "job": "a", "time": 0.1,
             "mode": "delta", "detail": "copied=1/2"},
            {"event": "finished", "job": "b", "time": 0.2, "duration": 0.1},
            {"event": "speculation-aborted", "job": "b", "time": 0.2,
             "mode": "abort", "detail": "no isolated processors"},
        ])
        for counters in (
            {"sim_cells": 1, "sim_spec_attempts": 2, "sim_spec_hits": 1,
             "sim_spec_aborts": 1, "sim_spec_delta_rejects": 1},
            {"sim_cells": 1, "sim_memo_lookups": 2, "sim_memo_hits": 1},
        ):
            self._metrics(tmp_path, counters)
            stats = stats_cli.collect_stats(tmp_path)
            assert stats["journal"]["summary"]["executed"] == 2
            assert stats["journal"]["reused"] == 1
            assert stats["metrics"]["reuse"] == {"lookups": 2, "hits": 1}
            assert stats_cli.main([str(tmp_path)]) == 0
            out = capsys.readouterr().out
            assert "reused (clone)    1" in out
            assert "result memo       1 hits / 2 lookups" in out

    def test_absent_reuse_counters_read_as_zero(self, tmp_path, capsys):
        self._metrics(tmp_path, {"sim_cells": 3})
        stats = stats_cli.collect_stats(tmp_path)
        assert stats["metrics"]["reuse"] == {"lookups": 0, "hits": 0}
        assert stats_cli.main([str(tmp_path)]) == 0
        assert "result memo" not in capsys.readouterr().out

    def test_placement_search_line(self, tmp_path, capsys):
        self._metrics(tmp_path, {
            "sim_cells": 3, "sim_placement_searches": 360,
            "sim_placement_relaxed": 26, "sim_placement_backtracks": 41211,
        })
        stats = stats_cli.collect_stats(tmp_path)
        assert stats["metrics"]["placement"] == {
            "searches": 360, "relaxed": 26, "backtracks": 41211}
        assert stats_cli.main([str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert ("placement search  360 searches, 26 relaxed, "
                "41211 backtracks") in out

    def test_absent_placement_counters_print_no_line(self, tmp_path, capsys):
        self._metrics(tmp_path, {"sim_cells": 3})
        stats = stats_cli.collect_stats(tmp_path)
        assert stats["metrics"]["placement"] == {
            "searches": 0, "relaxed": 0, "backtracks": 0}
        assert stats_cli.main([str(tmp_path)]) == 0
        assert "placement search" not in capsys.readouterr().out
