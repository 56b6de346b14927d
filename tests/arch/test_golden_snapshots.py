"""Golden-snapshot regression tests for the simulator.

Three small, fully seeded paper workloads are simulated and every metric
of the :class:`SimulationResult` — execution time, per-processor cycle
accounting, the four-way miss decomposition, interconnect traffic and the
pairwise coherence matrix — is compared *exactly* against a JSON snapshot
under ``tests/data/``.  Any unintended behavioural change to workload
generation, placement or the simulator fails tier-1 with a field-level
diff.

If a change is intentional, regenerate the snapshots and review the diff
like any other code change:

    PYTHONPATH=src python tests/arch/test_golden_snapshots.py

The cases span the machine space: a multithreaded 2-processor run, a
4-processor run under a sharing-based placement, an effectively
infinite cache (no conflict misses) under MIN-INVS, and two tiered
(NUMA) machines with distinct group counts and latency splits.  A
separate test pins the ``flat:50`` topology spec to the *same* snapshot
as the topology-free baseline — the canonicalization contract.
"""

import json
from pathlib import Path

import pytest

from repro.arch.stats import MissKind, SimulationResult
from repro.experiments.runner import ExperimentSuite

DATA_DIR = Path(__file__).resolve().parent.parent / "data"

SCALE = 0.0005
SEED = 11

#: (slug, app, algorithm, processors, infinite, topology)
CASES = [
    ("water-loadbal-2p", "Water", "LOAD-BAL", 2, False, None),
    ("fft-sharerefs-4p", "FFT", "SHARE-REFS", 4, False, None),
    ("barneshut-mininvs-4p-inf", "Barnes-Hut", "MIN-INVS", 4, True, None),
    ("fft-sharerefs-4p-numa2", "FFT", "SHARE-REFS", 4, False,
     "numa:2:50:150"),
    ("barneshut-mininvs-4p-numa4", "Barnes-Hut", "MIN-INVS", 4, False,
     "numa:4:50:200"),
]


def snapshot_dict(result: SimulationResult) -> dict:
    """A JSON-stable, human-reviewable projection of every metric."""
    return {
        "execution_time": result.execution_time,
        "total_refs": result.total_refs,
        "processors": [
            {
                "busy": p.busy,
                "switching": p.switching,
                "idle": p.idle,
                "completion_time": p.completion_time,
            }
            for p in result.processors
        ],
        "caches": [
            {
                "hits": c.hits,
                "misses": {kind.value: c.misses[kind] for kind in MissKind},
            }
            for c in result.caches
        ],
        "interconnect": {
            "memory_fetches": result.interconnect.memory_fetches,
            "invalidations_sent": result.interconnect.invalidations_sent,
        },
        "pairwise_coherence": result.pairwise_coherence.tolist(),
    }


def compute(app: str, algorithm: str, processors: int, infinite: bool,
            topology: str | None = None) -> dict:
    suite = ExperimentSuite(scale=SCALE, seed=SEED, topology=topology)
    return snapshot_dict(suite.run(app, algorithm, processors,
                                   infinite=infinite))


@pytest.mark.parametrize("slug,app,algorithm,processors,infinite,topology",
                         CASES, ids=[c[0] for c in CASES])
def test_simulation_matches_golden_snapshot(slug, app, algorithm, processors,
                                            infinite, topology):
    path = DATA_DIR / f"golden_{slug}.json"
    assert path.exists(), (
        f"missing snapshot {path}; regenerate with "
        f"`PYTHONPATH=src python tests/arch/test_golden_snapshots.py`"
    )
    expected = json.loads(path.read_text())
    actual = compute(app, algorithm, processors, infinite, topology)
    assert actual == expected, (
        f"{slug}: simulation diverged from its golden snapshot; "
        f"if the change is intentional, regenerate tests/data/ snapshots "
        f"and review the diff"
    )


def test_flat_topology_spec_matches_baseline_snapshot():
    """``flat:50`` must hit the very same golden file as no topology at
    all: ``canonical_topology`` collapses the default-latency flat spec to
    None, so the pre-topology snapshots remain authoritative for it."""
    expected = json.loads(
        (DATA_DIR / "golden_fft-sharerefs-4p.json").read_text()
    )
    assert compute("FFT", "SHARE-REFS", 4, False, "flat:50") == expected


def regenerate() -> None:
    DATA_DIR.mkdir(parents=True, exist_ok=True)
    for slug, app, algorithm, processors, infinite, topology in CASES:
        path = DATA_DIR / f"golden_{slug}.json"
        snapshot = compute(app, algorithm, processors, infinite, topology)
        path.write_text(json.dumps(snapshot, indent=2, sort_keys=True) + "\n")
        print(f"wrote {path} (execution_time={snapshot['execution_time']})")


if __name__ == "__main__":
    regenerate()
