"""Metamorphic relations of the simulator.

Each test states a *theorem* about how a transformed input must transform
the output, and asserts it exactly.  Where a relation is only a theorem in
a restricted regime, the restriction and its reason are documented on the
test — the global scheduler breaks equal-time ties by processor id, so
coherence-coupled runs can legitimately observe processor labels and
quantum boundaries; runs whose processors do not interact cannot.

Relations covered:

* **Processor relabeling** — permuting processor labels permutes
  per-processor and per-cache statistics.  Exact for coherence-decoupled
  (partitioned-address) runs; label-independent metrics (busy cycles,
  cache accesses, compulsory misses) permute exactly for *all* runs.
* **Placement invariance of compulsory+invalidation misses with an
  effectively infinite cache** — the paper's Figure 4/§5 claim as an
  executable property, in the regime where it is exact: one thread per
  processor (bijective placements), where total compulsory misses equal
  the sum over threads of their distinct-block counts, and — for
  read-only sharing — invalidation misses are zero.
* **Quantum-size changes** — the scheduling quantum is a performance
  knob, not a semantic one: single-processor and partitioned runs are
  bit-identical under any quantum; for all runs, per-processor busy
  cycles, per-cache accesses and compulsory misses are quantum-invariant.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.config import ArchConfig
from repro.arch.simulator import simulate
from repro.arch.stats import MissKind
from repro.oracle import diff_results
from repro.placement.base import PlacementMap

from tests.oracle.strategies import (
    QUANTA,
    arch_configs_for,
    partitioned_cases,
    simulation_cases,
    trace_sets,
)

pytestmark = pytest.mark.oracle


def _relabel(placement: PlacementMap, perm: list[int]) -> PlacementMap:
    """The same clustering with processor i renamed to perm[i]."""
    return PlacementMap(
        [perm[proc] for proc in placement.assignment.tolist()],
        placement.num_processors,
    )


@st.composite
def relabeling_cases(draw, case_strategy):
    traces, placement, config, quantum = draw(case_strategy)
    perm = draw(st.permutations(list(range(placement.num_processors))))
    return traces, placement, list(perm), config, quantum


class TestProcessorRelabeling:
    @settings(max_examples=40, deadline=None)
    @given(case=relabeling_cases(partitioned_cases()))
    def test_partitioned_runs_are_fully_equivariant(self, case):
        """No coherence coupling -> relabeling permutes *everything*."""
        traces, placement, perm, config, quantum = case
        base = simulate(traces, placement, config, quantum_refs=quantum)
        relabeled = simulate(traces, _relabel(placement, perm), config,
                             quantum_refs=quantum)
        assert relabeled.execution_time == base.execution_time
        assert relabeled.total_refs == base.total_refs
        for pid in range(placement.num_processors):
            ours, theirs = base.processors[pid], relabeled.processors[perm[pid]]
            assert (ours.busy, ours.switching, ours.idle, ours.completion_time) \
                == (theirs.busy, theirs.switching, theirs.idle,
                    theirs.completion_time)
            assert base.caches[pid].hits == relabeled.caches[perm[pid]].hits
            assert base.caches[pid].misses == relabeled.caches[perm[pid]].misses
        # Decoupled processors generate no coherence traffic at all.
        assert relabeled.interconnect.invalidations_sent == 0
        assert not base.pairwise_coherence.any()
        assert not relabeled.pairwise_coherence.any()

    @settings(max_examples=40, deadline=None)
    @given(case=relabeling_cases(simulation_cases()))
    def test_label_independent_metrics_always_permute(self, case):
        """Even with coherence coupling (where equal-time scheduling ties
        are broken by processor id, so miss *classification* may shift),
        metrics determined by the thread-to-processor clustering alone
        must permute exactly: busy cycles, cache accesses, and compulsory
        misses (= distinct blocks the processor's threads touch)."""
        traces, placement, perm, config, quantum = case
        base = simulate(traces, placement, config, quantum_refs=quantum)
        relabeled = simulate(traces, _relabel(placement, perm), config,
                             quantum_refs=quantum)
        for pid in range(placement.num_processors):
            assert base.processors[pid].busy == \
                relabeled.processors[perm[pid]].busy
            assert base.caches[pid].total_accesses == \
                relabeled.caches[perm[pid]].total_accesses
            assert base.caches[pid].misses[MissKind.COMPULSORY] == \
                relabeled.caches[perm[pid]].misses[MissKind.COMPULSORY]


def _effectively_infinite_config(num_processors: int) -> ArchConfig:
    """A cache no generated workload can evict from.

    The generated block universe fits entirely in 256 direct-mapped sets
    with distinct indices, so — like the paper's 8 MB "effectively
    infinite" cache (§4.3) — conflict misses are impossible by
    construction, leaving only compulsory and invalidation misses.
    """
    return ArchConfig(
        num_processors=num_processors,
        contexts_per_processor=1,
        cache_words=1024,
        block_words=4,
    )


@st.composite
def bijection_pairs(draw, read_only: bool):
    traces = draw(trace_sets(max_threads=5, max_refs=25))
    if read_only:
        for thread in traces:
            thread.writes[:] = False
    t = traces.num_threads
    first = list(draw(st.permutations(list(range(t)))))
    second = list(draw(st.permutations(list(range(t)))))
    quantum = draw(st.sampled_from(QUANTA))
    return traces, first, second, quantum


class TestInfiniteCachePlacementInvariance:
    """The paper's Figure 4 claim as an executable property.

    With an effectively infinite cache and one thread per processor, total
    compulsory misses are a placement-independent constant — the sum over
    threads of their distinct-block counts — under *every* bijective
    placement; with read-only sharing, invalidation misses are zero, so
    compulsory+invalidation is itself placement-invariant.  (Across
    placements that change *co-location*, the claim is empirical, not a
    theorem: co-residency converts misses to shared-cache hits.  The
    paper-workload version is asserted in ``test_paper_suite.py``.)
    """

    @settings(max_examples=40, deadline=None)
    @given(case=bijection_pairs(read_only=False))
    def test_compulsory_invariant_across_bijections(self, case):
        traces, first, second, quantum = case
        config = _effectively_infinite_config(traces.num_threads)
        results = [
            simulate(traces, PlacementMap(assignment, traces.num_threads),
                     config, quantum_refs=quantum)
            for assignment in (first, second)
        ]
        expected = sum(
            len(set((thread.addrs >> config.block_bits).tolist()))
            for thread in traces
        )
        for result in results:
            breakdown = result.miss_breakdown()
            assert breakdown[MissKind.COMPULSORY] == expected
            # Infinite cache: a conflict miss is impossible by construction.
            assert breakdown[MissKind.INTRA_THREAD_CONFLICT] == 0
            assert breakdown[MissKind.INTER_THREAD_CONFLICT] == 0

    @settings(max_examples=40, deadline=None)
    @given(case=bijection_pairs(read_only=True))
    def test_compulsory_plus_invalidation_invariant_read_only(self, case):
        traces, first, second, quantum = case
        config = _effectively_infinite_config(traces.num_threads)
        totals = []
        for assignment in (first, second):
            result = simulate(traces, PlacementMap(assignment, traces.num_threads),
                              config, quantum_refs=quantum)
            breakdown = result.miss_breakdown()
            assert breakdown[MissKind.INVALIDATION] == 0
            assert result.interconnect.invalidations_sent == 0
            totals.append(breakdown[MissKind.COMPULSORY]
                          + breakdown[MissKind.INVALIDATION])
        assert totals[0] == totals[1]

    @settings(max_examples=25, deadline=None)
    @given(case=bijection_pairs(read_only=False))
    def test_per_processor_compulsory_follows_its_thread(self, case):
        traces, first, second, quantum = case
        config = _effectively_infinite_config(traces.num_threads)
        for assignment in (first, second):
            result = simulate(traces, PlacementMap(assignment, traces.num_threads),
                              config, quantum_refs=quantum)
            for tid, proc in enumerate(assignment):
                distinct = len(set(
                    (traces[tid].addrs >> config.block_bits).tolist()
                ))
                assert result.caches[proc].misses[MissKind.COMPULSORY] == distinct


class TestQuantumSize:
    @settings(max_examples=30, deadline=None)
    @given(case=partitioned_cases(), other_quantum=st.sampled_from(QUANTA))
    def test_decoupled_runs_are_quantum_independent(self, case, other_quantum):
        """Without coherence coupling the quantum is unobservable: results
        are bit-identical under any quantum size."""
        traces, placement, config, quantum = case
        a = simulate(traces, placement, config, quantum_refs=quantum)
        b = simulate(traces, placement, config, quantum_refs=other_quantum)
        assert not diff_results(a, b, actual_name=f"q{quantum}",
                                expected_name=f"q{other_quantum}")

    @settings(max_examples=30, deadline=None)
    @given(case=simulation_cases(), other_quantum=st.sampled_from(QUANTA))
    def test_quantum_invariant_totals(self, case, other_quantum):
        """For coupled runs the quantum shifts which processor's coherence
        actions land first at equal times — classification may move between
        kinds — but clustering-determined totals cannot change."""
        traces, placement, config, quantum = case
        a = simulate(traces, placement, config, quantum_refs=quantum)
        b = simulate(traces, placement, config, quantum_refs=other_quantum)
        assert a.total_refs == b.total_refs
        for pid in range(placement.num_processors):
            assert a.processors[pid].busy == b.processors[pid].busy
            assert a.caches[pid].total_accesses == b.caches[pid].total_accesses
            assert a.caches[pid].misses[MissKind.COMPULSORY] == \
                b.caches[pid].misses[MissKind.COMPULSORY]
