"""Job planning: the evaluation sweep as content-addressed work units.

A :class:`JobSpec` names one simulation cell — (application, algorithm,
machine) plus the workload parameters that make it reproducible (scale,
seed, quantum) — and is content-addressed by the same SHA-256 digest the
:class:`~repro.experiments.cache.ResultStore` files results under, so a
planned job, a journal entry and a cached ``.npz`` all share one id.

Two planners enumerate sweeps:

* :func:`plan_sections` mirrors exactly what the report renderer will ask
  an :class:`~repro.experiments.runner.ExperimentSuite` for, per section —
  prefetching these jobs makes a subsequent report render entirely from
  memoized results.
* :func:`plan_full_grid` is the paper's whole evaluation universe (every
  application x algorithm x machine cell, ~900 simulations), for
  benchmarks and cache prewarming.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from repro.experiments.cache import cell_store_key, store_digest
from repro.experiments.runner import PROCESSOR_COUNTS
from repro.placement.algorithms import all_algorithms, static_sharing_algorithms
from repro.topo.model import canonical_topology
from repro.workload.applications import DEFAULT_SCALE, application_names, spec_for

__all__ = ["JobSpec", "SIMULATED_SECTIONS", "plan_sections", "plan_full_grid"]

#: §4.3's six least-uniform applications (mirrors ``tables.TABLE5_APPS``;
#: restated here so planning does not import the rendering layer).
_TABLE5_APPS: tuple[str, ...] = ("Water", "Locus", "Pverify", "Grav", "FFT",
                                 "Health")

#: The application each execution-time figure plots.
_FIGURE_APPS: dict[str, str] = {
    "figure2": "LocusRoute",
    "figure3": "FFT",
    "figure4": "Barnes-Hut",
    "figure5": "Water",
}

#: Report sections backed by simulation cells the engine can precompute.
#: (Tables 1-3 and calibration are trace analyses; the ablations sweep
#: bespoke ``ArchConfig``s outside the suite's cell grid — both stay on
#: the sequential path.)
SIMULATED_SECTIONS = frozenset(_FIGURE_APPS) | {"table5"}


@dataclass(frozen=True)
class JobSpec:
    """One simulation cell plus everything needed to recompute it.

    ``app`` and ``algorithm`` are canonicalized on construction (paper
    spelling), so equal cells always compare — and hash — equal.

    ``topology`` — a spec string like ``numa:4:50:150`` (see
    :mod:`repro.topo.model`) — *is* part of the content address: a tiered
    machine computes genuinely different results.  It is canonicalized on
    construction, so the flat baseline collapses to None and keeps every
    pre-topology job id.
    """

    app: str
    algorithm: str
    processors: int
    infinite: bool = False
    associativity: int = 1
    cache_words: int | None = None
    replicate: int = 0
    scale: float = DEFAULT_SCALE
    seed: int = 0
    quantum_refs: int = 256
    topology: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "app", spec_for(self.app).name)
        object.__setattr__(self, "algorithm", self.algorithm.upper())
        canonical = canonical_topology(self.topology)
        object.__setattr__(
            self, "topology",
            canonical.spec if canonical is not None else None,
        )

    @property
    def cell(self) -> tuple:
        """The suite's in-process memoization key for this cell."""
        cell = (self.app, self.algorithm, self.processors, self.infinite,
                self.associativity, self.cache_words, self.replicate)
        if self.topology is not None:
            cell += (self.topology,)
        return cell

    @property
    def store_key(self) -> tuple:
        """The persistent :class:`ResultStore` key for this cell."""
        return cell_store_key(
            scale=self.scale, seed=self.seed, quantum_refs=self.quantum_refs,
            app=self.app, algorithm=self.algorithm,
            processors=self.processors, infinite=self.infinite,
            associativity=self.associativity, cache_words=self.cache_words,
            replicate=self.replicate, topology=self.topology,
        )

    @property
    def job_id(self) -> str:
        """Content address: the store digest of :attr:`store_key`."""
        return store_digest(self.store_key)

    def to_payload(self) -> dict:
        """The spec as a plain dict (crosses process boundaries as JSON-
        compatible data, never as a pickled suite)."""
        return asdict(self)

    @classmethod
    def from_payload(cls, payload: dict) -> "JobSpec":
        return cls(**payload)

    def describe(self) -> str:
        tags = []
        if self.infinite:
            tags.append("inf")
        if self.replicate:
            tags.append(f"r{self.replicate}")
        suffix = f" [{','.join(tags)}]" if tags else ""
        return f"{self.app}/{self.algorithm}/{self.processors}p{suffix}"


def _sort_key(spec: JobSpec) -> tuple:
    return (spec.app, spec.algorithm, spec.processors, spec.infinite,
            spec.associativity,
            -1 if spec.cache_words is None else spec.cache_words,
            spec.replicate, spec.topology or "")


def _dedup(specs: list[JobSpec]) -> list[JobSpec]:
    unique = {spec.job_id: spec for spec in specs}
    return sorted(unique.values(), key=_sort_key)


def _processors_for(app: str, topology: str | None = None) -> list[int]:
    """Machine sizes for one application: p <= t, and — mirroring
    :meth:`ExperimentSuite.processors_for` — divisible into a tiered
    topology's groups."""
    threads = spec_for(app).num_threads
    canonical = canonical_topology(topology)
    groups = canonical.groups if canonical is not None else 1
    return [p for p in PROCESSOR_COUNTS if p <= threads and p % groups == 0]


def _figure_jobs(app: str, *, random_replicates: int, params: dict) -> list[JobSpec]:
    """Every cell an execution-time figure (or Figure 5) touches: all
    fourteen static algorithms per machine, with the RANDOM baseline's
    extra replicate draws."""
    jobs = []
    for processors in _processors_for(app, params.get("topology")):
        for algorithm in all_algorithms():
            jobs.append(JobSpec(app=app, algorithm=algorithm.name,
                                processors=processors, **params))
            if algorithm.name == "RANDOM":
                jobs += [
                    JobSpec(app=app, algorithm="RANDOM",
                            processors=processors, replicate=r, **params)
                    for r in range(1, random_replicates)
                ]
    return jobs


def _table5_jobs(params: dict) -> list[JobSpec]:
    """Table 5's infinite-cache cells: the six static sharing algorithms,
    their +LB versions, COHERENCE-TRAFFIC and the LOAD-BAL baseline."""
    names = (
        [a.name for a in static_sharing_algorithms()]
        + [a.name for a in static_sharing_algorithms(load_balanced=True)]
        + ["COHERENCE-TRAFFIC", "LOAD-BAL"]
    )
    jobs = []
    for app in _TABLE5_APPS:
        for processors in _processors_for(app, params.get("topology")):
            jobs += [
                JobSpec(app=app, algorithm=name, processors=processors,
                        infinite=True, **params)
                for name in names
            ]
    return jobs


def plan_sections(
    sections: list[str] | None = None,
    *,
    scale: float = DEFAULT_SCALE,
    seed: int = 0,
    quantum_refs: int = 256,
    random_replicates: int = 3,
    topology: str | None = None,
) -> list[JobSpec]:
    """The deduplicated, deterministically ordered jobs the chosen report
    sections will need (default: all sections).

    Section names outside :data:`SIMULATED_SECTIONS` plan no jobs — their
    cells (if any) are computed sequentially at render time.
    """
    params = dict(scale=scale, seed=seed, quantum_refs=quantum_refs,
                  topology=topology)
    chosen = set(sections) if sections is not None else set(SIMULATED_SECTIONS)
    jobs: list[JobSpec] = []
    for section, app in _FIGURE_APPS.items():
        if section in chosen:
            jobs += _figure_jobs(app, random_replicates=random_replicates,
                                 params=params)
    if "table5" in chosen:
        jobs += _table5_jobs(params)
    return _dedup(jobs)


def plan_full_grid(
    *,
    scale: float = DEFAULT_SCALE,
    seed: int = 0,
    quantum_refs: int = 256,
    random_replicates: int = 3,
    topology: str | None = None,
) -> list[JobSpec]:
    """The paper's full evaluation universe: every application x algorithm
    x machine cell (plus RANDOM replicates and the Table 5 infinite-cache
    cells) — ~900 simulations at default replication."""
    params = dict(scale=scale, seed=seed, quantum_refs=quantum_refs,
                  topology=topology)
    jobs: list[JobSpec] = []
    for app in application_names():
        jobs += _figure_jobs(app, random_replicates=random_replicates,
                             params=params)
    jobs += _table5_jobs(params)
    return _dedup(jobs)
