"""Performance numbers quoted in the docs match the committed artifact.

``benchmarks/BENCH_speculation.json`` is the source of truth for the
grid speed-up of the incremental placement search + result memo; the
prose in ``docs/PERFORMANCE.md`` and ``README.md`` must quote it, not a
number from an older run.
"""

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _metrics() -> dict:
    document = json.loads(
        (ROOT / "benchmarks" / "BENCH_speculation.json").read_text(
            encoding="utf-8"))
    return document["metrics"]


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
    assert (f"from {metrics['baseline_wall_s']:.1f} s to "
            f"{metrics['speculative_wall_s']:.1f} s "
            f"(**{metrics['speedup']:.2f}×**)") in section
    assert f"{metrics['clone_hits']} clone hits" in section
    assert (f"**{metrics['bit_identical_cells']} of {metrics['cells']} "
            "cells") in section.replace("\n", " ")


def test_readme_quotes_the_committed_speedup():
    speedup = f"{_metrics()['speedup']:.1f}×"
    section = _section((ROOT / "README.md").read_text(encoding="utf-8"),
                       "## Incremental placement search + result memo")
    assert f"measure: ~{speedup}" in section
    assert f"drops {speedup}" in section
