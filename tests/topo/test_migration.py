"""Dynamic migration: determinism, flat no-op, oracle audit."""

import pytest

from repro.arch.simulator import simulate
from repro.experiments.runner import ExperimentSuite
from repro.oracle import diff_results
from repro.topo.migration import MigrationPolicy, simulate_migrating
from repro.topo.model import Topology
from repro.topo.oracle import reference_migrate

SCALE = 0.0005
SEED = 7

NUMA = Topology.numa(2, 50, 150)
POLICY = MigrationPolicy(interval_quanta=8, flush_penalty_cycles=200,
                         max_migrations=8)


@pytest.fixture(scope="module")
def suite():
    return ExperimentSuite(scale=SCALE, seed=SEED)


@pytest.fixture(scope="module")
def case(suite):
    placement = suite.placement("Health", "SHARE-REFS", 4)
    config = suite._machine("Health", placement, infinite=False,
                            associativity=1, cache_words=None)
    return suite.traces("Health"), placement, config.with_topology(NUMA)


class TestPolicyValidation:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            MigrationPolicy(interval_quanta=0)
        with pytest.raises(ValueError):
            MigrationPolicy(flush_penalty_cycles=-1)
        with pytest.raises(ValueError):
            MigrationPolicy(max_migrations=-1)


class TestFlatNoOp:
    def test_flat_machine_never_migrates(self, suite):
        """On a flat machine no pair is cross-group: zero events, and the
        result is bit-identical to the plain static simulation."""
        placement = suite.placement("Health", "SHARE-REFS", 4)
        config = suite._machine("Health", placement, infinite=False,
                                associativity=1, cache_words=None)
        traces = suite.traces("Health")
        run = simulate_migrating(traces, placement, config, policy=POLICY,
                                 quantum_refs=256)
        assert run.events == ()
        static = simulate(traces, placement, config, quantum_refs=256)
        assert not diff_results(run.result, static, actual_name="migrating",
                                expected_name="static")

    def test_zero_cap_disables_migration(self, case):
        traces, placement, config = case
        off = MigrationPolicy(interval_quanta=8, max_migrations=0)
        run = simulate_migrating(traces, placement, config, policy=off,
                                 quantum_refs=256)
        assert run.events == ()
        static = simulate(traces, placement, config, quantum_refs=256)
        assert not diff_results(run.result, static, actual_name="capped",
                                expected_name="static")


class TestDeterminismAndInvariance:
    def test_migrations_actually_fire_on_tiers(self, case):
        traces, placement, config = case
        run = simulate_migrating(traces, placement, config, policy=POLICY,
                                 quantum_refs=256)
        assert len(run.events) >= 1
        for event in run.events:
            assert event.source != event.dest
            assert event.traffic > 0

    def test_runs_are_deterministic(self, case):
        traces, placement, config = case
        a = simulate_migrating(traces, placement, config, policy=POLICY,
                               quantum_refs=256)
        b = simulate_migrating(traces, placement, config, policy=POLICY,
                               quantum_refs=256)
        assert a.events == b.events
        assert not diff_results(a.result, b.result, actual_name="first",
                                expected_name="second")

    def test_matches_the_naive_oracle(self, case):
        """The production scheduler and the independently written naive
        reference must produce the same journal and the same result."""
        traces, placement, config = case
        run = simulate_migrating(traces, placement, config, policy=POLICY,
                                 quantum_refs=256)
        expected = reference_migrate(traces, placement, config, policy=POLICY,
                                     quantum_refs=256)
        assert run.events == expected.events
        assert not diff_results(run.result, expected.result,
                                actual_name="engine", expected_name="oracle")
