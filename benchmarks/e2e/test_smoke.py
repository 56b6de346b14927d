"""Smoke test of the end-to-end benchmark on its quick inputs (< 60 s).

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_smoke.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RUN = HERE / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

sys.path.insert(0, str(HERE.parent))
from _harness import validate_document  # noqa: E402


@pytest.fixture(scope="module")
def quick_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e") / "quick.json"
    done = subprocess.run(
        [sys.executable, str(RUN), "--quick", "--repeats", "1", "--trace", "1",
         "--json", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    return out, json.loads(out.read_text(encoding="utf-8")), last


def test_document_is_a_bench_envelope(quick_run):
    _, document, _ = quick_run
    validate_document(document)
    assert set(document["metrics"]) == {w["name"] for w in SPEC["workloads"]}


def test_every_declared_metric_is_emitted_with_its_unit(quick_run):
    _, document, last = quick_run
    for workload, entry in document["metrics"].items():
        assert entry["correct"] and entry["failed"] == 0, entry["problems"]
        for section in ("end_to_end", "per_layer"):
            for metric in SPEC[section]:
                emitted = entry[section][metric["name"]]
                assert emitted["unit"] == metric["unit"]
        assert set(last[workload]["metrics"]) == {
            m["name"] for m in SPEC["per_layer"]}


def test_layer_self_times_add_up_to_the_traced_wall(quick_run):
    _, document, _ = quick_run
    for workload, entry in document["metrics"].items():
        layers = {name: m["value"] for name, m in entry["per_layer"].items()}
        parts = sum(value for name, value in layers.items()
                    if name.endswith(".self_s")) + layers["host.gc.pause_s"]
        assert parts == pytest.approx(layers["traced_wall_s"], rel=0.05)


def test_a_set_compares_clean_against_itself(quick_run):
    path, _, _ = quick_run
    done = subprocess.run([sys.executable, str(RUN), "--compare", str(path),
                           str(path)], cwd=ROOT, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stdout
    assert "REGRESSION" not in done.stdout


def test_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "grid",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
