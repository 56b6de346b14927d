"""Tests for the claims verification engine, and the claims that back
the paper's conclusion beyond one workload draw and one heuristic."""

import pytest

from repro.arch.config import ArchConfig
from repro.arch.simulator import simulate
from repro.experiments.claims import PAPER_CLAIMS, verify_claims
from repro.experiments.runner import ExperimentSuite
from repro.placement import LoadBal, PlacementInputs, ShareRefs
from repro.placement.exhaustive import optimal_sharing_placement
from repro.trace.analysis import TraceSetAnalysis
from repro.trace.transform import select_threads
from repro.workload import build_application, spec_for

#: The paper benches' scale (1/500 of the paper's trace lengths).
CLAIM_SCALE = 0.002
#: Five independently generated instances of every workload.
SEEDS = (0, 1, 2, 3, 4)


class TestClaimsRegistry:
    def test_five_claims(self):
        assert len(PAPER_CLAIMS) == 5
        assert len({c.claim_id for c in PAPER_CLAIMS}) == 5

    def test_statements_quote_paper(self):
        statements = " ".join(c.paper_statement for c in PAPER_CLAIMS)
        assert "fairly constant" in statements
        assert "orders of magnitude" in statements


@pytest.mark.slow
@pytest.mark.integration
class TestVerifyAtScale:
    def test_all_claims_pass(self):
        suite = ExperimentSuite(scale=0.004, seed=0)
        results = verify_claims(suite)
        failures = [r.render() for r in results if not r.passed]
        assert not failures, "\n".join(failures)

    def test_render_format(self):
        suite = ExperimentSuite(scale=0.004, seed=0)
        result = verify_claims(suite, claims=PAPER_CLAIMS[:1])[0]
        assert result.render().startswith(("[PASS]", "[FAIL]"))
        assert "invariance" in result.render()


class TestClaimsHoldAcrossSeeds:
    """Each seed re-draws the whole synthetic workload (lengths, structure
    and reference streams), so these are properties of the
    reconstruction, not of one lucky draw."""

    def test_loadbal_advantage_on_fft(self):
        values = [
            ExperimentSuite(scale=CLAIM_SCALE, seed=seed)
            .normalized_time("FFT", "LOAD-BAL", 8)
            for seed in SEEDS
        ]
        # LOAD-BAL beats RANDOM on average and never loses badly.
        assert sum(values) / len(values) < 0.95, values
        assert max(values) <= 1.10, values

    def test_invariance_on_water(self):
        algorithms = ["SHARE-REFS", "MIN-SHARE", "MAX-WRITES", "LOAD-BAL",
                      "RANDOM"]
        for seed in SEEDS:
            suite = ExperimentSuite(scale=CLAIM_SCALE, seed=seed)
            counts = [suite.run("Water", name, 4).compulsory_plus_invalidation
                      for name in algorithms]
            spread = (max(counts) - min(counts)) / max(min(counts), 1)
            # Compulsory+invalidation misses barely depend on placement.
            assert spread <= 0.40, (seed, counts)


def test_optimal_sharing_placement_does_not_win():
    """Even the provably optimal sharing placement (every thread-balanced
    placement of a 12-thread slice of Water on 2 processors, enumerated)
    lands within noise of LOAD-BAL and of the greedy SHARE-REFS."""
    traces = select_threads(
        build_application("Water", scale=CLAIM_SCALE, seed=0),
        list(range(12)),
    )
    analysis = TraceSetAnalysis(traces)
    optimal, _ = optimal_sharing_placement(analysis, 2)
    inputs = PlacementInputs(analysis, 2)
    config = ArchConfig(num_processors=2, contexts_per_processor=6,
                        cache_words=spec_for("Water").cache_words)
    times = {
        name: simulate(traces, placement, config).execution_time
        for name, placement in (("OPTIMAL-SHARING", optimal),
                                ("SHARE-REFS", ShareRefs().place(inputs)),
                                ("LOAD-BAL", LoadBal().place(inputs)))
    }
    assert times["OPTIMAL-SHARING"] >= times["LOAD-BAL"] * 0.92, times
    assert abs(times["OPTIMAL-SHARING"] - times["SHARE-REFS"]) <= (
        0.15 * times["LOAD-BAL"]), times
