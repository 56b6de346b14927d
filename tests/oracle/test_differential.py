"""The oracle's core guarantee: simulator ≡ reference interpreter.

Every generated (trace set, placement, configuration, quantum) case is
replayed by both the production simulator and the slow reference
interpreter, and the two must agree *exactly* — execution time, the
four-way miss decomposition, per-processor cycle accounting, interconnect
traffic and the pairwise coherence matrix.  Across the tests in this
module well over 200 cases are generated per run, the floor the
reproduction's acceptance criteria pin.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.arch.cache import max_block_of
from repro.arch.simulator import simulate
from repro.oracle import assert_equivalent, diff_results, reference_simulate

from tests.oracle.strategies import (
    simulation_cases,
    tag_sizing_cases,
    wide_machine_cases,
)

pytestmark = pytest.mark.oracle


class TestDifferential:
    @settings(max_examples=150, deadline=None)
    @given(case=simulation_cases())
    def test_simulator_matches_oracle_exactly(self, case):
        traces, placement, config, quantum = case
        production = simulate(traces, placement, config, quantum_refs=quantum)
        reference = reference_simulate(traces, placement, config,
                                       quantum_refs=quantum)
        assert_equivalent(
            production, reference,
            context=f"{traces.num_threads}t/"
                    f"{placement.num_processors}p/"
                    f"q{quantum}/{config.num_sets}s",
        )

    @settings(max_examples=50, deadline=None)
    @given(case=simulation_cases(max_threads=6, max_refs=50))
    def test_differential_with_invariants_enabled(self, case):
        """The invariant checker never fires on a valid run, and checking
        does not perturb the result."""
        traces, placement, config, quantum = case
        checked = simulate(traces, placement, config, quantum_refs=quantum,
                           check_invariants=True)
        unchecked = simulate(traces, placement, config, quantum_refs=quantum)
        assert not diff_results(checked, unchecked,
                                actual_name="checked", expected_name="unchecked")
        reference = reference_simulate(traces, placement, config,
                                       quantum_refs=quantum)
        assert_equivalent(checked, reference)


class TestPaperMachineSizes:
    """The general tier draws at most 4 processors; the paper's machines
    reach 16.  Wide sharer masks, multi-holder invalidation walks,
    lowest-sharer source attribution and the all-stalled idle pick at
    8 and 16 processors replay exactly like the reference interpreter."""

    @pytest.mark.parametrize("processors", [8, 16])
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_wide_machines_match_oracle(self, data, processors):
        traces, placement, config, quantum = data.draw(
            wide_machine_cases(processors))
        production = simulate(traces, placement, config, quantum_refs=quantum)
        reference = reference_simulate(traces, placement, config,
                                       quantum_refs=quantum)
        assert_equivalent(
            production, reference,
            context=f"{traces.num_threads}t/{placement.num_processors}p/"
                    f"q{quantum}/{config.num_sets}s",
        )


class TestTagSizing:
    """Tag stores sized to the block range (``repro.arch.cache.tag_lines``)
    replay exactly like full-size ones: machines whose set count is far
    above, one above, equal to, one below and well below the block count,
    on both organizations."""

    @pytest.mark.parametrize("associativity", [1, 2])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_sized_tag_stores_match_oracle(self, data, associativity):
        traces, placement, config, quantum = data.draw(
            tag_sizing_cases(associativity))
        production = simulate(traces, placement, config, quantum_refs=quantum)
        reference = reference_simulate(traces, placement, config,
                                       quantum_refs=quantum)
        assert_equivalent(
            production, reference,
            context=f"{config.num_sets}s/{associativity}w/"
                    f"max_block={max_block_of(traces, config.block_bits)}",
        )


class TestDifferentialDerivedMetrics:
    @settings(max_examples=40, deadline=None)
    @given(case=simulation_cases())
    def test_derived_metrics_agree(self, case):
        """The report-facing derived quantities match too (they are pure
        functions of the raw metrics, so this guards the accessors)."""
        traces, placement, config, quantum = case
        production = simulate(traces, placement, config, quantum_refs=quantum)
        reference = reference_simulate(traces, placement, config,
                                       quantum_refs=quantum)
        assert production.miss_breakdown() == reference.miss_breakdown()
        assert production.compulsory_plus_invalidation == \
            reference.compulsory_plus_invalidation
        assert production.coherence_traffic == reference.coherence_traffic
        assert production.cache_totals.hits == reference.cache_totals.hits
