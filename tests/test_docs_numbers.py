"""Performance numbers quoted in the docs match the committed artifact.

``benchmarks/BENCH_speculation.json`` is the source of truth for the
full-grid wall times of the default run (incremental placement search +
result memo) and the audited from-scratch run; the prose in
``docs/PERFORMANCE.md`` and ``README.md`` must quote it, not a number
from an older run.  Each wall time is quoted as the median of the
bench's repeated runs with their range, "median s (min–max s)", since
one run of the audited half varies by a third between reruns.
"""

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _metrics() -> dict:
    document = json.loads(
        (ROOT / "benchmarks" / "BENCH_speculation.json").read_text(
            encoding="utf-8"))
    return document["metrics"]


def _wall(metrics: dict, name: str) -> str:
    """``name``'s wall time as the docs quote it: median (range)."""
    return (f"{metrics[name + '_wall_s']:.1f} s "
            f"({metrics[name + '_wall_s_min']:.1f}–"
            f"{metrics[name + '_wall_s_max']:.1f} s)")


def _section(text: str, heading: str) -> str:
    """``heading``'s text, up to the next heading of the same level
    (``#`` lines inside code fences are shell comments, not headings)."""
    level = heading.split(" ", 1)[0] + " "
    lines = text[text.index(heading):].splitlines()
    fenced = False
    for n, line in enumerate(lines[1:], start=1):
        if line.startswith("```"):
            fenced = not fenced
        elif not fenced and line.startswith(level):
            return "\n".join(lines[:n])
    return "\n".join(lines)


def test_performance_md_quotes_the_committed_grid_numbers():
    metrics = _metrics()
    section = _section(
        (ROOT / "docs" / "PERFORMANCE.md").read_text(encoding="utf-8"),
        "# Incremental placement search + result memo")
    flat = section.replace("\n", " ")
    assert (f"takes {_wall(metrics, 'default')} and the audited run "
            f"{_wall(metrics, 'audited')}") in flat
    assert f"{metrics['memo_hits']} memo hits" in flat
    assert (f"**{metrics['bit_identical_cells']} of {metrics['cells']} "
            "cells") in flat


def test_readme_quotes_the_committed_grid_numbers():
    metrics = _metrics()
    section = _section((ROOT / "README.md").read_text(encoding="utf-8"),
                       "## Incremental placement search + result memo")
    flat = section.replace("\n", " ")
    assert (f"takes {_wall(metrics, 'default')} by default and "
            f"{_wall(metrics, 'audited')} audited") in flat
    assert f"{metrics['memo_hits']} memo hits" in flat
