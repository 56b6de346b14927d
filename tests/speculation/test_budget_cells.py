"""Real report cells that drive the placement search to its budget.

Under ``+LB`` the search can wander until it has undone
``max_backtracks`` combines; the metric-blind fallback then finishes the
partition.  The incremental engine walks almost none of that wander: it
prices each subtree that cannot complete and walks only the path on
which the budget runs out.  These cells pin it to the reference loop
where it matters most: every
:class:`~repro.placement.clustering.ClusteringResult` field must match,
and each cell must still hit the budget (or empty the stack), so the test
cannot silently stop exercising the fallback.
"""

import pytest

from repro.experiments.runner import ExperimentSuite
from repro.placement.algorithms import algorithm_by_name
from repro.placement.base import PlacementInputs
from repro.placement.clustering import agglomerate

pytestmark = pytest.mark.speculation

#: (scale, app, algorithm, processors, threads, backtracks) measured on
#: the seed-0 suite.  All but the sixth exhaust the default budget of
#: 2000; the sixth empties the backtrack stack after 40.
CELLS = [
    (0.001, "Fullconn", "SHARE-REFS+LB", 4, 36, 2000),
    (0.001, "Fullconn", "SHARE-ADDR+LB", 4, 36, 2000),
    (0.001, "Fullconn", "MIN-PRIV+LB", 4, 36, 2000),
    (0.001, "LocusRoute", "MAX-WRITES+LB", 8, 24, 2000),
    (0.001, "Vandermonde", "MIN-SHARE+LB", 8, 40, 2000),
    (0.001, "LocusRoute", "SHARE-REFS+LB", 16, 24, 40),
    (0.004, "Health", "MAX-WRITES+LB", 16, 48, 2000),
]


@pytest.fixture(scope="module")
def suites():
    made: dict[float, ExperimentSuite] = {}

    def suite(scale: float) -> ExperimentSuite:
        if scale not in made:
            made[scale] = ExperimentSuite(scale=scale, seed=0)
        return made[scale]

    return suite


@pytest.mark.parametrize(
    "scale, app, algorithm, processors, threads, backtracks", CELLS,
    ids=[f"{app}-{algorithm}@{p}" for _, app, algorithm, p, _, _ in CELLS])
def test_budget_cell_matches_reference(suites, scale, app, algorithm,
                                       processors, threads, backtracks):
    algo = algorithm_by_name(algorithm)
    inputs = PlacementInputs(suites(scale).analysis(app), processors)
    assert inputs.num_threads == threads
    runs = [
        agglomerate(inputs.num_threads, processors, algo.scorer(inputs),
                    algo._balance, inputs.thread_lengths,
                    maximize=algo.maximize, incremental=incremental)
        for incremental in (True, False)
    ]
    fast, ref = runs
    assert fast.clusters == ref.clusters
    assert fast.merges == ref.merges
    assert fast.backtracks == ref.backtracks
    assert fast.relaxed == ref.relaxed
    assert (fast.backtracks, fast.relaxed) == (backtracks, True)
