"""Property suite: the result memo is exact over generated universes.

Two theorems:

* **Pair level.**  Every case draws one trace set and two placements of
  it on the same machine (half the time forced identical).  A memo holding
  the first placement's result answers the second exactly when the
  assignments are byte-identical, and that answer is bit-for-bit the
  second placement's full replay on both engines.
* **Suite level.**  On real applications, algorithms and processor
  counts, a memo-on :class:`ExperimentSuite` produces every cell
  bit-identical to a memo-off suite — including cells whose placement is
  forced equal to an earlier cell's, so the memo must hit.

The pair-level worlds are the oracle tier's deliberately dense small
universes (``tests/oracle/strategies.py``).

CI runs this file derandomized (``--hypothesis-profile=oracle-ci``).
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.arch.config import ArchConfig  # noqa: E402
from repro.arch.simulator import simulate  # noqa: E402
from repro.experiments.memo import ResultMemo  # noqa: E402
from repro.experiments.runner import ExperimentSuite  # noqa: E402
from repro.obs.probes import SimProbe  # noqa: E402
from repro.oracle import diff_results  # noqa: E402
from repro.placement.algorithms import all_algorithms  # noqa: E402
from repro.placement.base import PlacementMap  # noqa: E402
from repro.workload.applications import spec_for  # noqa: E402

from tests.oracle.strategies import QUANTA, trace_sets  # noqa: E402

pytestmark = pytest.mark.speculation


def _config_for(num_processors: int, contexts: int, draw_bits: int) -> ArchConfig:
    """A small dense machine; geometry varied by two drawn bits."""
    return ArchConfig(
        num_processors=num_processors,
        contexts_per_processor=contexts,
        cache_words=(16, 32, 64, 128)[draw_bits % 4],
        block_words=(1, 2, 4)[draw_bits % 3],
        memory_latency_cycles=(3, 11, 50)[draw_bits % 3],
    )


@st.composite
def neighbor_cases(draw):
    """(traces, first placement, second placement, config, quantum) —
    both placements on the same machine, contexts sized for both."""
    traces = draw(trace_sets(max_threads=5, max_refs=25))
    n = traces.num_threads
    p = draw(st.integers(min_value=1, max_value=4))
    a = PlacementMap(draw(st.lists(st.integers(0, p - 1),
                                   min_size=n, max_size=n)), p)
    if draw(st.booleans()):
        b = PlacementMap(a.assignment.copy(), p)
    else:
        b = PlacementMap(draw(st.lists(st.integers(0, p - 1),
                                       min_size=n, max_size=n)), p)
    contexts = max(1, int(a.cluster_sizes().max()),
                   int(b.cluster_sizes().max()))
    config = _config_for(p, contexts, draw(st.integers(0, 11)))
    quantum = draw(st.sampled_from(QUANTA))
    return traces, a, b, config, quantum


class TestSpeculationDifferential:
    @settings(max_examples=120, deadline=None)
    @given(case=neighbor_cases())
    def test_exact_or_absent_on_dense_worlds(self, case):
        """The memo hits exactly on identical assignments, and a hit is
        the full replay's result on both engines."""
        traces, a, b, config, quantum = case
        memo = ResultMemo()
        group = ("world", config.num_processors)
        memo.put(ResultMemo.key(group, config, a),
                 simulate(traces, a, config, quantum_refs=quantum,
                          engine="fast"))
        hit = memo.get(ResultMemo.key(group, config, b))
        assert (hit is not None) == (a == b)
        if hit is None:
            return
        for engine in ("fast", "classic"):
            full = simulate(traces, b, config, quantum_refs=quantum,
                            engine=engine)
            diffs = diff_results(hit, full, actual_name="memo",
                                 expected_name=f"full-{engine}")
            assert diffs == [], (
                f"memo hit diverged from {engine} replay "
                f"({traces.num_threads}t/{config.num_processors}p/"
                f"q{quantum}): " + "; ".join(diffs[:4]))


# ----------------------------------------------------------------------
# Suite level
# ----------------------------------------------------------------------

#: Applications whose placement searches are cheap at the test scale.
APPS = ("Water", "MP3D", "Cholesky", "Barnes-Hut", "Topopt")
ALGORITHMS = tuple(algo.name for algo in all_algorithms())
SCALE = 0.001

_REFERENCE: dict[str, ExperimentSuite] = {}


def _reference() -> ExperimentSuite:
    """One shared memo-off suite: the from-scratch answer per cell."""
    if "suite" not in _REFERENCE:
        _REFERENCE["suite"] = ExperimentSuite(scale=SCALE, seed=0,
                                              engine="fast",
                                              speculate=False)
    return _REFERENCE["suite"]


@st.composite
def suite_cases(draw):
    """(app, [(algorithm, processors, replicate), ...], forced pairs) —
    a forced pair (i, j), i < j, gives cell j cell i's placement."""
    app = draw(st.sampled_from(APPS))
    processors = _reference().processors_for(app)
    cells = draw(st.lists(
        st.tuples(st.sampled_from(ALGORITHMS), st.sampled_from(processors),
                  st.integers(0, 1)),
        min_size=2, max_size=6, unique=True))
    cells = [(algo, p, r if algo == "RANDOM" else 0)
             for algo, p, r in cells]
    cells = list(dict.fromkeys(cells))
    forced = []
    for j in range(1, len(cells)):
        same_machine = [i for i in range(j) if cells[i][1] == cells[j][1]]
        if same_machine and draw(st.booleans()):
            forced.append((draw(st.sampled_from(same_machine)), j))
    return app, cells, forced


class TestSuiteMemoTheorem:
    @settings(max_examples=15, deadline=None)
    @given(case=suite_cases())
    def test_memo_on_suite_is_bit_identical_to_memo_off(self, case):
        app, cells, forced = case
        suite = ExperimentSuite(scale=SCALE, seed=0, engine="fast")
        suite.probe = SimProbe()
        origin = {}     # forced cell -> the cell whose placement it runs
        for i, j in forced:
            origin[j] = origin.get(i, i)
        for j, (algo, p, r) in enumerate(cells):
            if j in origin:
                o_algo, _, o_r = cells[origin[j]]
                suite._placements[(spec_for(app).name, algo, p, r)] = \
                    suite.placement(app, o_algo, p, replicate=o_r)
            got = suite.run(app, algo, p, replicate=r)
            # A forced cell's from-scratch answer is its origin's.
            e_algo, _, e_r = cells[origin.get(j, j)]
            expected = _reference().run(app, e_algo, p, replicate=e_r)
            diffs = diff_results(got, expected, actual_name="memo-on",
                                 expected_name="memo-off")
            assert diffs == [], (
                f"{app}/{algo}/{p}p/r{r}: " + "; ".join(diffs[:4]))
        assert suite.probe.spec_attempts == len(cells)
        assert suite.probe.spec_hits + suite.probe.cells == len(cells)
        assert suite.probe.spec_hits >= len(forced)
