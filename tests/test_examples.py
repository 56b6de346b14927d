"""Smoke tests: every example script runs to completion.

The examples are a deliverable; these tests keep them from rotting.  Each
is executed in-process (``runpy``) with small arguments where the script
accepts them.
"""

import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"

# (script, argv tail) — arguments chosen for speed where supported.
CASES = [
    ("share_refs_walkthrough.py", []),
    ("custom_workload.py", []),
    ("load_balance_study.py", ["0.001"]),
    ("sharing_gap_study.py", ["Water", "0.001"]),
    ("temporal_study.py", ["0.001"]),
]

SLOW_CASES = [
    ("quickstart.py", []),
    ("placement_anatomy.py", ["Water", "4"]),
    ("infinite_cache_study.py", ["Water", "4"]),
]


def run_example(script: str, argv: list[str], capsys) -> str:
    path = EXAMPLES / script
    assert path.exists(), f"example {script} missing"
    old_argv = sys.argv
    sys.argv = [str(path)] + argv
    try:
        runpy.run_path(str(path), run_name="__main__")
    finally:
        sys.argv = old_argv
    return capsys.readouterr().out


@pytest.mark.integration
@pytest.mark.parametrize("script,argv", CASES, ids=lambda c: str(c))
def test_example_runs(script, argv, capsys):
    output = run_example(script, argv, capsys)
    assert len(output) > 100, f"{script} produced almost no output"


@pytest.mark.slow
@pytest.mark.integration
@pytest.mark.parametrize("script,argv", SLOW_CASES, ids=lambda c: str(c))
def test_slow_example_runs(script, argv, capsys):
    output = run_example(script, argv, capsys)
    assert len(output) > 100, f"{script} produced almost no output"
