"""Kernel ≡ reference interpreter under tiered topologies.

The differential tier (``tests/oracle``) fuzzes the same properties over
random worlds; these are the fixed, paper-workload anchors that run in
tier 1 without hypothesis.
"""

import pytest

from repro.arch.simulator import simulate
from repro.experiments.runner import ExperimentSuite
from repro.oracle import diff_results
from repro.oracle.reference import reference_simulate
from repro.topo.model import Topology

SCALE = 0.0005
SEED = 7

NUMA = Topology.numa(2, 50, 150)


@pytest.fixture(scope="module")
def suite():
    return ExperimentSuite(scale=SCALE, seed=SEED)


@pytest.fixture(scope="module")
def case(suite):
    placement = suite.placement("FFT", "SHARE-REFS", 4)
    config = suite._machine("FFT", placement, infinite=False,
                            associativity=1, cache_words=None)
    return suite.traces("FFT"), placement, config


def test_flat_topology_is_a_no_op(case):
    """An explicit uniform topology at the baseline latency must be
    bit-identical to no topology at all."""
    traces, placement, config = case
    baseline = simulate(traces, placement, config, quantum_refs=256)
    flat = simulate(traces, placement,
                    config.with_topology(Topology.flat(50)),
                    quantum_refs=256)
    assert not diff_results(flat, baseline, actual_name="flat:50",
                            expected_name="baseline")


def test_engines_agree_under_numa(case):
    """kernel == oracle, bit for bit, on a tiered machine."""
    traces, placement, config = case
    tiered = config.with_topology(NUMA)
    result = simulate(traces, placement, tiered, quantum_refs=256)
    oracle = reference_simulate(traces, placement, tiered, quantum_refs=256)
    assert not diff_results(result, oracle, actual_name="kernel",
                            expected_name="oracle")


def test_tiers_actually_change_the_outcome(case):
    """Guard against the topology silently not reaching the kernel: the
    tiered run must differ from the flat one on this workload."""
    traces, placement, config = case
    flat = simulate(traces, placement, config, quantum_refs=256)
    tiered = simulate(traces, placement, config.with_topology(NUMA),
                      quantum_refs=256)
    assert tiered.execution_time > flat.execution_time


def test_config_rejects_indivisible_groups():
    suite = ExperimentSuite(scale=SCALE, seed=SEED)
    placement = suite.placement("FFT", "SHARE-REFS", 4)
    config = suite._machine("FFT", placement, infinite=False,
                            associativity=1, cache_words=None)
    with pytest.raises(ValueError, match="does not divide"):
        config.with_topology(Topology.numa(3))
