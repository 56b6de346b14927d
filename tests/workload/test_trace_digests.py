"""Byte pins of every generated trace set.

Each entry of ``tests/data/trace_digests.json`` is a sha256 over the
``gaps``, ``addrs`` and ``writes`` columns of every thread of one
generated application, in thread order.  The pins cover the fourteen
paper applications at two scales and three seeds, plus one user-defined
workload per shipped access pattern, so any change to workload
generation that moves a single byte — a reordered random draw, a
different shuffle, a changed calibration decision — fails here with the
name of the application that moved.

If a change is intentional, regenerate the pins and review the diff like
any other code change:

    PYTHONPATH=src python tests/workload/test_trace_digests.py
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.trace.stream import TraceSet
from repro.workload import (
    AllSharePattern,
    BarrierPhasePattern,
    CustomWorkloadSpec,
    MigratoryPattern,
    PartitionedPattern,
    RandomCommPattern,
    application_names,
    build_application,
    build_custom_workload,
)

PINS = Path(__file__).resolve().parent.parent / "data" / "trace_digests.json"

SCALES = (0.004, 0.03)
SEEDS = (0, 1, 2)

#: One user-defined workload per shipped access pattern.
CUSTOM_PATTERNS = {
    "partitioned": PartitionedPattern,
    "barrier-phase": BarrierPhasePattern,
    "migratory": MigratoryPattern,
    "all-share": AllSharePattern,
    "random-comm": RandomCommPattern,
}


def trace_digest(trace_set: TraceSet) -> str:
    """sha256 over every thread's gaps, addrs and writes, in thread order."""
    digest = hashlib.sha256()
    for thread in trace_set:
        for column in (thread.gaps, thread.addrs, thread.writes):
            digest.update(column.tobytes())
    return digest.hexdigest()


def app_key(name: str, scale: float, seed: int) -> str:
    return f"{name}@{scale}#{seed}"


def custom_spec(label: str) -> CustomWorkloadSpec:
    return CustomWorkloadSpec(
        name=f"custom-{label}",
        num_threads=12,
        mean_thread_length=3000,
        thread_length_dev_pct=40.0,
        shared_refs_pct=70.0,
        refs_per_shared_addr=25.0,
        pattern=CUSTOM_PATTERNS[label](),
    )


def compute_all() -> dict:
    apps = {
        app_key(name, scale, seed): trace_digest(
            build_application(name, scale=scale, seed=seed))
        for scale in SCALES for seed in SEEDS for name in application_names()
    }
    custom = {label: trace_digest(build_custom_workload(custom_spec(label), seed=0))
              for label in CUSTOM_PATTERNS}
    return {"apps": apps, "custom": custom}


@pytest.fixture(scope="module")
def pins() -> dict:
    assert PINS.exists(), (
        f"missing {PINS}; regenerate with "
        f"`PYTHONPATH=src python tests/workload/test_trace_digests.py`"
    )
    return json.loads(PINS.read_text())


def test_pins_cover_every_case(pins):
    assert set(pins["apps"]) == {
        app_key(name, scale, seed)
        for scale in SCALES for seed in SEEDS for name in application_names()
    }
    assert set(pins["custom"]) == set(CUSTOM_PATTERNS)


@pytest.mark.parametrize("scale", SCALES)
@pytest.mark.parametrize("seed", SEEDS)
def test_application_traces_match_pins(pins, scale, seed):
    moved = [
        name for name in application_names()
        if trace_digest(build_application(name, scale=scale, seed=seed))
        != pins["apps"][app_key(name, scale, seed)]
    ]
    assert not moved, f"generated traces moved at scale={scale} seed={seed}: {moved}"


@pytest.mark.parametrize("label", sorted(CUSTOM_PATTERNS))
def test_custom_workload_matches_pin(pins, label):
    trace_set = build_custom_workload(custom_spec(label), seed=0)
    assert trace_digest(trace_set) == pins["custom"][label]


def regenerate() -> None:
    PINS.parent.mkdir(parents=True, exist_ok=True)
    PINS.write_text(json.dumps(compute_all(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {PINS}")


if __name__ == "__main__":
    regenerate()
