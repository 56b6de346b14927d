"""The experiment suite: memoized (application x algorithm x machine) runs.

Every table and figure in the paper's evaluation is a view over the same
underlying grid of simulations.  :class:`ExperimentSuite` owns that grid:
it builds each application once, analyzes it once, computes each placement
once and simulates each (application, algorithm, processors, cache) cell
once, memoizing everything in process.  :meth:`ExperimentSuite.prefetch`
delegates the whole grid to the :mod:`repro.exec` engine, which computes
the same cells on worker processes and seeds this memo with the results.

Machine sizing follows the paper: contexts per processor are nominally
⌈t/p⌉ ("all threads have been loaded into the hardware contexts"); when an
algorithm that does not thread-balance (LOAD-BAL, the "+LB" family)
produces a larger cluster, the machine is given exactly as many contexts
as the placement needs, and the nominal value is what configuration labels
report.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.arch.config import ArchConfig
from repro.arch.simulator import simulate
from repro.arch.stats import SimulationResult
from repro.experiments.cache import ResultStore, cell_store_key
from repro.experiments.memo import ResultMemo
from repro.placement.algorithms import ClusteringPlacement, algorithm_by_name
from repro.placement.base import PlacementInputs, PlacementMap
from repro.placement.dynamic import measure_coherence_matrix
from repro.topo.model import Topology, canonical_topology
from repro.trace.analysis import TraceSetAnalysis
from repro.trace.stream import TraceSet
from repro.workload.applications import DEFAULT_SCALE, build_application, spec_for
from repro.util.rng import RngStreams
from repro.util.validate import check_positive

__all__ = ["MachineSpec", "ExperimentSuite", "MissingCellError",
           "PROCESSOR_COUNTS"]


class MissingCellError(RuntimeError):
    """A requested cell is marked missing (its computation failed).

    Raised by :meth:`ExperimentSuite.run` for cells a degraded prefetch
    recorded in :attr:`ExperimentSuite.missing`; renderers catch it and
    show the cell as ``MISSING`` instead.
    """

#: The paper's processor axis (Table 3: 2-16 processors).
PROCESSOR_COUNTS: tuple[int, ...] = (2, 4, 8, 16)


@dataclass(frozen=True)
class MachineSpec:
    """One machine configuration label: (processors, nominal contexts)."""

    processors: int
    contexts: int

    def __str__(self) -> str:
        return f"{self.processors}p/{self.contexts}c"


class ExperimentSuite:
    """Memoized access to every simulation cell the evaluation needs.

    Args:
        scale: Workload scale (see :mod:`repro.workload.applications`).
        seed: Root seed for workload generation and the RANDOM placement.
        quantum_refs: Simulator scheduling quantum.
        random_replicates: RANDOM-baseline draws to average over.
        cache_dir: Optional directory for a persistent
            :class:`~repro.experiments.cache.ResultStore`, making repeated
            report/benchmark runs reuse each other's simulations.
        check_invariants: Audit every in-process simulation with the
            oracle's :class:`~repro.oracle.invariants.InvariantChecker`
            (``--check-invariants`` on the CLI).  Results are unchanged;
            cells served from a persistent store or by engine workers were
            not simulated here and are not re-audited.  This is the one
            from-scratch path: the result memo is off and the placement
            search runs the reference clustering loop
            (:func:`repro.placement.clustering.agglomerate` with
            ``incremental=False``), so every cell is a real replay the
            oracle can audit.  Otherwise a cell whose placement is
            identical to one already simulated on the same application
            and machine is answered from the
            :class:`~repro.experiments.memo.ResultMemo` (a deep copy,
            never a replay) and the search keeps incremental state; both
            are exact, so results are bit-for-bit identical either way
            (enforced by ``tests/speculation/``).
        topology: Machine topology every cell simulates under — a
            :class:`~repro.topo.model.Topology`, a spec string
            (``numa:4:50:150``) or None.  Canonicalized on construction:
            the flat baseline collapses to None, so flat suites keep
            every pre-topology memo key, store key and report byte.
            This *is* identity — a tiered machine computes genuinely
            different results — so it extends memo keys and store keys
            (only when non-None).
    """

    def __init__(
        self,
        *,
        scale: float = DEFAULT_SCALE,
        seed: int = 0,
        quantum_refs: int = 256,
        random_replicates: int = 3,
        cache_dir: str | None = None,
        check_invariants: bool = False,
        topology: Topology | str | None = None,
    ) -> None:
        check_positive("scale", scale)
        check_positive("random_replicates", random_replicates)
        self.scale = scale
        self.seed = seed
        self.quantum_refs = quantum_refs
        self.random_replicates = random_replicates
        self.cache_dir = cache_dir
        self.check_invariants = bool(check_invariants)
        #: Canonical topology (None = the flat baseline machine) and its
        #: spec string — the spelling that extends store keys.
        self.topology: Topology | None = canonical_topology(topology)
        self.topology_spec: str | None = (
            self.topology.spec if self.topology is not None else None
        )
        #: Cells a degraded prefetch failed to compute (memo-key tuples).
        self.missing: set[tuple] = set()
        #: Optional :class:`~repro.obs.probes.SimProbe` observing every
        #: simulation this suite runs in-process.  Deliberately not a
        #: constructor parameter: probes are runtime observation, not
        #: identity — they never affect results, memo keys or pickling
        #: (engine workers arm their own per-job probe).
        self.probe = None
        self._store = ResultStore(cache_dir) if cache_dir is not None else None
        #: Exact reuse: every result this suite simulated, keyed by
        #: (cell group, config, placement assignment).
        self._memo = ResultMemo()
        self._streams = RngStreams(seed).child("experiments")
        self._traces: dict[str, TraceSet] = {}
        self._analyses: dict[str, TraceSetAnalysis] = {}
        self._coherence: dict[str, np.ndarray] = {}
        self._placements: dict[tuple[str, str, int], PlacementMap] = {}
        self._results: dict[tuple, SimulationResult] = {}

    @property
    def store(self) -> ResultStore | None:
        """The persistent result store, if a cache_dir was configured."""
        return self._store

    def __reduce__(self):
        """Pickle as construction parameters only.

        A suite crossing a process boundary (engine workers, pools) must
        rebuild traces, analyses and placements from the spec in the
        receiving process — memoized ``TraceSet``s and results are
        per-process state and are never shipped or fork-shared.
        """
        return (
            _rebuild_suite,
            (self.scale, self.seed, self.quantum_refs,
             self.random_replicates, self.cache_dir, self.check_invariants,
             self.topology_spec),
        )

    # ------------------------------------------------------------------
    # Workload access
    # ------------------------------------------------------------------

    def traces(self, app: str) -> TraceSet:
        """The application's generated trace set (memoized)."""
        name = spec_for(app).name
        if name not in self._traces:
            self._traces[name] = build_application(name, scale=self.scale,
                                                   seed=self.seed)
        return self._traces[name]

    def analysis(self, app: str) -> TraceSetAnalysis:
        """The application's static analysis (memoized)."""
        name = spec_for(app).name
        if name not in self._analyses:
            self._analyses[name] = TraceSetAnalysis(self.traces(name))
        return self._analyses[name]

    def coherence_matrix(self, app: str) -> np.ndarray:
        """§4.2 measurement: one thread per processor, infinite cache."""
        name = spec_for(app).name
        if name not in self._coherence:
            self._coherence[name] = measure_coherence_matrix(self.traces(name))
        return self._coherence[name]

    def processors_for(self, app: str) -> list[int]:
        """Processor counts applicable to this application (p <= t; on a
        tiered suite, also divisible into the topology's groups)."""
        t = spec_for(app).num_threads
        groups = self.topology.groups if self.topology is not None else 1
        return [p for p in PROCESSOR_COUNTS if p <= t and p % groups == 0]

    def machine_specs(self, app: str) -> list[MachineSpec]:
        """The figures' X-axis: (processors, nominal contexts) pairs."""
        t = spec_for(app).num_threads
        return [MachineSpec(p, -(-t // p)) for p in self.processors_for(app)]

    # ------------------------------------------------------------------
    # Placements and simulations
    # ------------------------------------------------------------------

    def placement(
        self, app: str, algorithm: str, processors: int, *, replicate: int = 0
    ) -> PlacementMap:
        """The (memoized) placement of one cell.

        ``replicate`` only matters for RANDOM: each replicate draws an
        independent random map (the RANDOM baseline is averaged over
        :attr:`random_replicates` draws, so a single unlucky map cannot
        distort every normalized result — important for workloads like FFT
        whose few giant threads make single draws high-variance).

        The probe's ``placement_*`` counters record each clustering search
        this suite runs, whether the fallback finished it and its
        backtracks.
        """
        name = spec_for(app).name
        key = (name, algorithm.upper(), processors, replicate)
        if key not in self._placements:
            algo = algorithm_by_name(algorithm)
            inputs = PlacementInputs(
                self.analysis(name),
                processors,
                rng=self._streams.get("random-placement", name, processors,
                                      replicate),
                coherence_matrix=(
                    self.coherence_matrix(name)
                    if algo.name == "COHERENCE-TRAFFIC"
                    else None
                ),
                incremental=not self.check_invariants,
            )
            placement = algo.place(inputs)
            if self.probe is not None and isinstance(algo, ClusteringPlacement):
                self.probe.placement_searches += 1
                self.probe.placement_relaxed += placement.relaxed
                self.probe.placement_backtracks += placement.backtracks
            self._placements[key] = placement
        return self._placements[key]

    def _machine(
        self,
        app: str,
        placement: PlacementMap,
        *,
        infinite: bool,
        associativity: int,
        cache_words: int | None,
    ) -> ArchConfig:
        spec = spec_for(app)
        nominal = -(-spec.num_threads // placement.num_processors)
        contexts = max(nominal, int(placement.cluster_sizes().max()))
        if cache_words is None:
            cache_words = (
                ArchConfig.INFINITE_CACHE_WORDS if infinite else spec.cache_words
            )
        return ArchConfig(
            num_processors=placement.num_processors,
            contexts_per_processor=contexts,
            cache_words=cache_words,
            associativity=associativity,
            topology=self.topology,
        )

    def run(
        self,
        app: str,
        algorithm: str,
        processors: int,
        *,
        infinite: bool = False,
        associativity: int = 1,
        cache_words: int | None = None,
        replicate: int = 0,
    ) -> SimulationResult:
        """Simulate one cell (memoized).

        Args:
            app: Application name.
            algorithm: Placement algorithm name (paper spelling).
            processors: Processor count.
            infinite: Use the §4.3 "effectively infinite" 8 MB cache.
            associativity: Cache ways (1 = the paper's direct-mapped).
            cache_words: Explicit cache size override (wins over
                ``infinite`` and the application default).
            replicate: RANDOM draw index (see :meth:`placement`).
        """
        name = spec_for(app).name
        key = (name, algorithm.upper(), processors, infinite, associativity,
               cache_words, replicate)
        if self.topology_spec is not None:
            key += (self.topology_spec,)
        if key in self.missing:
            raise MissingCellError(
                f"cell {key} failed during prefetch and is marked missing; "
                "re-run with --resume to retry it"
            )
        if key not in self._results:
            store_key = cell_store_key(
                scale=self.scale, seed=self.seed,
                quantum_refs=self.quantum_refs,
                app=name, algorithm=algorithm, processors=processors,
                infinite=infinite, associativity=associativity,
                cache_words=cache_words, replicate=replicate,
                topology=self.topology_spec,
            )
            stored = self._store.load(store_key) if self._store is not None else None
            if stored is not None:
                self._results[key] = stored
            else:
                placement = self.placement(name, algorithm, processors,
                                           replicate=replicate)
                config = self._machine(
                    name, placement, infinite=infinite,
                    associativity=associativity, cache_words=cache_words,
                )
                group = (name, processors, infinite, associativity,
                         cache_words)
                memo_key = result = None
                if not self.check_invariants:
                    memo_key = ResultMemo.key(group, config, placement)
                    result = self._reuse(memo_key)
                if result is None:
                    result = simulate(
                        self.traces(name), placement, config,
                        quantum_refs=self.quantum_refs,
                        check_invariants=self.check_invariants,
                        probe=self.probe,
                    )
                    if memo_key is not None:
                        self._memo.put(memo_key, result)
                if self._store is not None:
                    self._store.store(store_key, result)
                self._results[key] = result
        return self._results[key]

    # ------------------------------------------------------------------
    # Exact reuse
    # ------------------------------------------------------------------

    def _reuse(self, memo_key: tuple) -> SimulationResult | None:
        """The cell's result from an identical-placement sibling this suite
        already simulated, or None.

        The probe's ``memo_*`` counters record one lookup per memo
        consultation and one hit per reuse.
        """
        result = self._memo.get(memo_key)
        if self.probe is not None:
            self.probe.memo_lookups += 1
            if result is not None:
                self.probe.memo_hits += 1
        return result

    def prefetch(
        self,
        sections: list[str] | None = None,
        *,
        jobs: int = 1,
        timeout: float | None = None,
        hang_timeout: float | None = None,
        journal: str | None = None,
        resume: bool = False,
        max_retries: int = 2,
        observer=None,
    ):
        """Precompute every cell the chosen sections need, in parallel.

        Delegates the sweep to the :mod:`repro.exec` engine: the cells are
        planned as content-addressed jobs, fanned out over ``jobs`` worker
        processes (with per-job ``timeout``, bounded retries and crash
        isolation), journaled to ``journal`` and — with ``resume`` — the
        journal-confirmed-complete cells of a killed run are skipped.
        With an ``observer`` (a :class:`~repro.obs.run.RunObserver`),
        the sweep additionally emits metrics, per-job trace spans and
        live progress — observation never changes the results.
        Successful results are inserted into this suite's memo, so
        subsequent :meth:`run` calls (and any report rendered from this
        suite) never simulate.  A cell the engine gave up on (retries
        exhausted) is reported in the returned
        :class:`~repro.exec.engine.RunReport` and marked :attr:`missing`,
        so it renders as ``MISSING`` rather than being recomputed
        sequentially — that would re-risk the crash or hang at render
        time, single-threaded and unjournaled.

        Returns:
            The engine's :class:`~repro.exec.engine.RunReport` (results,
            failures, journal events and the aggregate
            :class:`~repro.exec.summary.RunSummary`).
        """
        from repro.exec import ExecutionEngine, plan_sections

        specs = plan_sections(
            sections,
            scale=self.scale, seed=self.seed,
            quantum_refs=self.quantum_refs,
            random_replicates=self.random_replicates,
            topology=self.topology_spec,
        )
        engine = ExecutionEngine(
            workers=jobs, timeout=timeout, hang_timeout=hang_timeout,
            max_retries=max_retries, store=self._store,
            journal_path=journal, resume=resume, observer=observer,
        )
        report = engine.run(specs)
        by_job = {spec.job_id: spec for spec in specs}
        for spec in specs:
            result = report.results.get(spec.job_id)
            if result is not None:
                self._results[spec.cell] = result
                self.missing.discard(spec.cell)
        for failure in report.failures:
            spec = by_job.get(failure.job_id)
            if spec is not None:
                self.missing.add(spec.cell)
        return report

    def execution_time(self, app: str, algorithm: str, processors: int,
                       **kwargs) -> float | None:
        """Execution time of one cell; RANDOM is averaged over replicates.

        A cell marked missing yields None (the renderers' ``MISSING``
        marker) instead of raising.
        """
        try:
            if algorithm.upper() == "RANDOM":
                times = [
                    self.run(app, algorithm, processors, replicate=r,
                             **kwargs).execution_time
                    for r in range(self.random_replicates)
                ]
                return float(np.mean(times))
            return float(
                self.run(app, algorithm, processors, **kwargs).execution_time
            )
        except MissingCellError:
            return None

    def normalized_time(
        self,
        app: str,
        algorithm: str,
        processors: int,
        *,
        baseline: str = "RANDOM",
        **kwargs,
    ) -> float | None:
        """Execution time normalized to a baseline algorithm (the figures'
        Y-axis; RANDOM for Figures 2-4, LOAD-BAL for Table 5).

        None (missing numerator *or* baseline) propagates to the caller's
        ``MISSING`` rendering.
        """
        ours = self.execution_time(app, algorithm, processors, **kwargs)
        reference = self.execution_time(app, baseline, processors, **kwargs)
        if ours is None or reference is None:
            return None
        return ours / reference if reference else float("inf")

    def missing_labels(self) -> list[str]:
        """Human-readable labels of the missing cells (sorted, stable)."""
        labels = []
        # Keys are 7-tuples on a flat suite, 8-tuples (trailing topology
        # spec) on a tiered one; the label fields sit at fixed positions.
        for key in sorted(self.missing, key=repr):
            app, algorithm, processors, infinite = key[:4]
            replicate = key[6]
            label = f"{app}/{algorithm}/{processors}p"
            if infinite:
                label += "/inf"
            if replicate:
                label += f"/r{replicate}"
            labels.append(label)
        return labels


def _rebuild_suite(scale, seed, quantum_refs, random_replicates, cache_dir,
                   check_invariants=False, topology=None):
    """Unpickling target for :meth:`ExperimentSuite.__reduce__`."""
    return ExperimentSuite(
        scale=scale, seed=seed, quantum_refs=quantum_refs,
        random_replicates=random_replicates, cache_dir=cache_dir,
        check_invariants=check_invariants, topology=topology,
    )
