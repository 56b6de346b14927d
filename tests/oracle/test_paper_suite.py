"""The oracle against the paper's own workloads.

Random small worlds (``test_differential``) explore the corner cases; this
module closes the loop on the *real* experiment pipeline:

* the invariant checker audits every quantum of the full fourteen-
  application suite without firing — the acceptance criterion for
  shipping it enabled under ``--check-invariants``;
* the reference interpreter reproduces production results bit-for-bit on
  actual paper workloads, not just generated micro-traces;
* the paper's Figure 4 observation — compulsory+invalidation misses are
  "fairly constant" across placement algorithms under the effectively
  infinite cache — holds at test scale, using the same ≤30% spread
  tolerance as :mod:`repro.experiments.claims`.

Workloads run at scale 0.001 (1/1000 of the paper's trace lengths) so the
whole module stays in CI budget while still replaying ~half a million
references through the checker.
"""

import pytest

from repro.arch.simulator import simulate
from repro.experiments.runner import ExperimentSuite
from repro.oracle import assert_equivalent, diff_results, reference_simulate
from repro.workload.applications import application_names

pytestmark = pytest.mark.oracle

SCALE = 0.001
SEED = 7


@pytest.fixture(scope="module")
def audited_suite():
    return ExperimentSuite(scale=SCALE, seed=SEED, check_invariants=True)


class TestInvariantsOnPaperSuite:
    @pytest.mark.parametrize("app", application_names())
    def test_checker_passes_every_application(self, audited_suite, app):
        """All fourteen applications, both baseline placements, 2 and 4
        processors — every quantum audited, no violation."""
        for algorithm in ("LOAD-BAL", "SHARE-REFS"):
            for processors in (2, 4):
                result = audited_suite.run(app, algorithm, processors)
                assert result.total_refs > 0

    def test_checker_passes_infinite_cache_and_associativity(self, audited_suite):
        """The §4.3/§4.4 machine variants exercise different coherence
        paths (no conflict evictions; 2-way LRU sets)."""
        audited_suite.run("Water", "SHARE-REFS", 4, infinite=True)
        audited_suite.run("Water", "SHARE-REFS", 4, associativity=2)


class TestOracleOnPaperWorkloads:
    @pytest.mark.parametrize("app", ["Water", "FFT", "MP3D"])
    @pytest.mark.parametrize("algorithm", ["LOAD-BAL", "SHARE-REFS"])
    def test_reference_matches_production(self, audited_suite, app, algorithm):
        """Bit-exact agreement on real paper workloads (the differential
        suite's guarantee, off the generated-trace training wheels)."""
        traces = audited_suite.traces(app)
        placement = audited_suite.placement(app, algorithm, 4)
        config = audited_suite._machine(
            app, placement, infinite=False, associativity=1, cache_words=None,
        )
        production = simulate(traces, placement, config,
                              quantum_refs=audited_suite.quantum_refs)
        reference = reference_simulate(traces, placement, config,
                                       quantum_refs=audited_suite.quantum_refs)
        assert_equivalent(production, reference,
                          context=f"{app}/{algorithm}/4p")


class TestKernelOnPaperSuite:
    """The replay kernel agrees with the reference interpreter
    bit-for-bit on every real paper workload, not just on generated
    micro-traces."""

    # Every app on the finite cache and on the infinite one (table 5),
    # whose cells have the longest hit windows.
    @pytest.mark.parametrize(("app", "infinite"), [
        *(pytest.param(app, False, id=app) for app in application_names()),
        *(pytest.param(app, True, id=f"{app}-infinite")
          for app in application_names()),
    ])
    def test_kernel_matches_reference(self, audited_suite, app, infinite):
        traces = audited_suite.traces(app)
        placement = audited_suite.placement(app, "SHARE-REFS", 4)
        config = audited_suite._machine(
            app, placement, infinite=infinite, associativity=1,
            cache_words=None,
        )
        production = simulate(traces, placement, config,
                              quantum_refs=audited_suite.quantum_refs)
        reference = reference_simulate(traces, placement, config,
                                       quantum_refs=audited_suite.quantum_refs)
        mismatches = diff_results(production, reference,
                                  actual_name="kernel",
                                  expected_name="reference")
        assert not mismatches, f"{app} (infinite={infinite}): {mismatches}"


class TestFigure4Claim:
    @pytest.mark.parametrize("app", ["Water", "Barnes-Hut"])
    def test_comp_plus_inval_fairly_constant_across_placements(
        self, audited_suite, app
    ):
        """§4.3: with the effectively infinite cache, placement changes
        *which* cache takes a compulsory miss and who gets invalidated,
        but barely moves the total.  Same ≤30% tolerance the claims
        module pins for the paper-scale run."""
        totals = {
            algorithm: audited_suite.run(
                app, algorithm, 4, infinite=True
            ).compulsory_plus_invalidation
            for algorithm in ("LOAD-BAL", "SHARE-REFS", "MIN-INVS", "RANDOM")
        }
        low, high = min(totals.values()), max(totals.values())
        spread = (high - low) / max(low, 1)
        assert spread <= 0.30, f"{app}: {totals} (spread {spread:.0%})"
