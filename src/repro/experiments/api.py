"""Programmatic entry point: run a report suite without argv plumbing.

``repro-experiments`` used to be the only way to drive a full report
run; the service layer (:mod:`repro.service`) and library users need the
same behavior as a function call.  This module is that seam:

* :class:`SuiteRequest` — *what* to compute: the report sections and the
  workload identity (scale, seed, quantum, replicates) plus rendering
  options.  A request is content-addressed: :attr:`SuiteRequest.digest`
  is a SHA-256 over the canonical request fields *and* the planned
  cells' content addresses (the same per-cell SHA-256 keys the
  :class:`~repro.experiments.cache.ResultStore` files results under), so
  two identical submissions — from different processes, users or
  machines — name the same run and can be coalesced into one
  computation.
* :class:`RunOptions` — *how* to compute it: worker fan-out, timeouts,
  retries, journal/resume, the persistent store, an observer.  None of
  these change the report's bytes.
* :func:`run_suite` — build the suite, optionally prefetch the cell
  grid through the :mod:`repro.exec` engine, render the report; returns
  a :class:`SuiteResult`.

The CLI is a thin wrapper over this function, so a report produced here
is byte-identical to the CLI's (and therefore to the service's) — the
repo-wide byte-identity bar extends through every entry point.
"""

from __future__ import annotations

import hashlib
import io
import json
from dataclasses import dataclass, field, fields
from typing import TextIO

from repro.arch.simulator import ENGINES
from repro.experiments.report import REPORT_SECTIONS, write_report
from repro.experiments.runner import ExperimentSuite
from repro.topo.model import canonical_topology
from repro.obs.spans import trace_span
from repro.util.validate import check_positive
from repro.workload.applications import DEFAULT_SCALE

__all__ = ["SuiteRequest", "RunOptions", "SuiteResult", "run_suite",
           "REQUEST_SCHEMA"]

#: Leading tag of every request digest; bump on incompatible changes to
#: the digest composition.
REQUEST_SCHEMA = "repro-run/v1"


@dataclass(frozen=True)
class SuiteRequest:
    """What to compute: one report run, content-addressed.

    Only fields that shape the report's *bytes* live here (sections,
    workload identity, rendering switches) — execution mechanics
    (workers, timeouts, journals) belong in :class:`RunOptions`.

    ``engine`` is the exception: it selects the replay kernel but is
    excluded from :attr:`digest` because the engines are enforced
    bit-for-bit equivalent (see ``docs/PERFORMANCE.md``) — a fast-engine
    submission coalesces with a classic one.  ``stream_chunk_refs``
    (chunked streaming replay; see ``docs/STREAMING.md``) is excluded on
    the same grounds: streaming and whole-column replay are bit-for-bit
    identical, so a streaming submission coalesces with a materialized
    one.
    """

    sections: tuple[str, ...] | None = None
    scale: float = DEFAULT_SCALE
    seed: int = 0
    quantum_refs: int = 256
    random_replicates: int = 3
    engine: str = "classic"
    charts: bool = False
    check_invariants: bool = False
    stream_chunk_refs: int | None = None
    topology: str | None = None

    def __post_init__(self) -> None:
        check_positive("scale", self.scale)
        # Canonicalize the topology spec: the flat baseline collapses to
        # None, so a `flat:50` submission names — and coalesces with —
        # the same run as a pre-topology one.
        canonical = canonical_topology(self.topology)
        object.__setattr__(
            self, "topology",
            canonical.spec if canonical is not None else None,
        )
        check_positive("quantum_refs", self.quantum_refs)
        check_positive("random_replicates", self.random_replicates)
        if self.engine not in ENGINES:
            raise ValueError(
                f"unknown engine {self.engine!r}: expected one of {ENGINES}"
            )
        if self.stream_chunk_refs is not None:
            check_positive("stream_chunk_refs", self.stream_chunk_refs)
            if self.check_invariants:
                raise ValueError(
                    "stream_chunk_refs is incompatible with "
                    "check_invariants (the oracle audits whole-column "
                    "replay state)"
                )
        if self.sections is not None:
            chosen = list(self.sections)
            if not chosen:
                raise ValueError("sections must be non-empty or None (= all)")
            unknown = sorted(set(chosen) - set(REPORT_SECTIONS))
            if unknown:
                raise ValueError(
                    f"unknown sections {unknown}; "
                    f"known: {sorted(REPORT_SECTIONS)}"
                )
            # Paper presentation order, deduplicated — the order the
            # renderer will use regardless of submission order.
            ordered = tuple(s for s in REPORT_SECTIONS if s in set(chosen))
            object.__setattr__(self, "sections", ordered)

    # -- wire format -----------------------------------------------------

    @classmethod
    def from_dict(cls, payload: dict) -> "SuiteRequest":
        """Build a request from a plain dict (the service's POST body).

        Unknown keys raise ``ValueError`` (a 400 at the HTTP layer, not a
        silently ignored typo); values are coerced to their field types.
        """
        if not isinstance(payload, dict):
            raise ValueError(
                f"suite request must be an object, got {type(payload).__name__}"
            )
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ValueError(
                f"unknown suite request fields {unknown}; known: {sorted(known)}"
            )
        coerced: dict = {}
        for name, value in payload.items():
            if value is None:
                continue
            if name == "sections":
                if isinstance(value, str):
                    value = [value]
                coerced[name] = tuple(str(s) for s in value)
            elif name == "scale":
                coerced[name] = float(value)
            elif name in ("seed", "quantum_refs", "random_replicates",
                          "stream_chunk_refs"):
                coerced[name] = int(value)
            elif name in ("charts", "check_invariants"):
                coerced[name] = bool(value)
            else:
                coerced[name] = str(value)
        return cls(**coerced)

    def to_dict(self) -> dict:
        """The request as a plain JSON-able dict (round-trips through
        :meth:`from_dict`)."""
        return {
            "sections": list(self.sections) if self.sections is not None
            else None,
            "scale": self.scale,
            "seed": self.seed,
            "quantum_refs": self.quantum_refs,
            "random_replicates": self.random_replicates,
            "engine": self.engine,
            "charts": self.charts,
            "check_invariants": self.check_invariants,
            "stream_chunk_refs": self.stream_chunk_refs,
            "topology": self.topology,
        }

    # -- content address -------------------------------------------------

    def cell_ids(self) -> list[str]:
        """The content addresses of every simulation cell this request
        plans (the engine's job ids / the store's filenames)."""
        from repro.exec.jobs import plan_sections

        specs = plan_sections(
            list(self.sections) if self.sections is not None else None,
            scale=self.scale, seed=self.seed, quantum_refs=self.quantum_refs,
            random_replicates=self.random_replicates,
            topology=self.topology,
        )
        return [spec.job_id for spec in specs]

    @property
    def digest(self) -> str:
        """SHA-256 content address of this run (32 hex chars).

        Composed from the canonical request fields *and* the planned
        cells' own SHA-256 content addresses, so the run key is derived
        from the same addressing scheme as the
        :class:`~repro.experiments.cache.ResultStore` entries it will
        share.  Excludes ``engine`` (bit-for-bit equivalent kernels),
        ``stream_chunk_refs`` (bit-for-bit equivalent replay modes) and
        every :class:`RunOptions` mechanic.
        """
        fields_material = {
            "schema": REQUEST_SCHEMA,
            "sections": (list(self.sections)
                         if self.sections is not None else None),
            "scale": self.scale,
            "seed": self.seed,
            "quantum_refs": self.quantum_refs,
            "random_replicates": self.random_replicates,
            "charts": self.charts,
            "check_invariants": self.check_invariants,
            "cells": self.cell_ids(),
        }
        if self.topology is not None:
            # Only a non-flat topology contributes (the flat baseline is
            # canonicalized away), so pre-topology digests are unchanged.
            fields_material["topology"] = self.topology
        material = json.dumps(fields_material, sort_keys=True)
        return hashlib.sha256(material.encode("ascii")).hexdigest()[:32]

    def describe(self) -> str:
        """One-line human label (service listings, logs)."""
        names = ",".join(self.sections) if self.sections is not None else "all"
        label = (f"sections={names} scale={self.scale:g} seed={self.seed} "
                 f"q={self.quantum_refs}")
        if self.topology is not None:
            label += f" topo={self.topology}"
        return label


@dataclass(frozen=True)
class RunOptions:
    """How to compute a request: execution mechanics only.

    Nothing here may change the rendered report's bytes — that is the
    byte-identity contract every option rides on (parallel == sequential,
    journaled == bare, cached == recomputed, memoized == replayed: an
    identical placement is the same simulation, which is why
    ``speculate`` may live here rather than in :class:`SuiteRequest`).
    ``speculate`` gates all of the incremental machinery: the
    identical-placement result memo, the persistent analysis cache,
    and the placement search's incremental state — ``False`` is the
    from-scratch reference computation the differential tier compares
    against.
    """

    jobs: int = 1
    timeout: float | None = None
    hang_timeout: float | None = None
    retries: int = 2
    journal: str | None = None
    resume: bool = False
    cache_dir: str | None = None
    observer: object | None = None
    mp_context: str = "spawn"
    speculate: bool = True

    def __post_init__(self) -> None:
        check_positive("jobs", self.jobs)
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")
        if self.resume and not (self.journal and self.cache_dir):
            raise ValueError("resume requires both journal and cache_dir")

    @property
    def wants_engine(self) -> bool:
        """Whether the run should go through the parallel engine (rather
        than lazy sequential simulation at render time)."""
        return self.jobs > 1 or bool(self.journal) or self.resume


@dataclass
class SuiteResult:
    """Everything one :func:`run_suite` call produced."""

    request: SuiteRequest
    suite: ExperimentSuite
    run: object | None = None           #: engine RunReport (None: no prefetch)
    report_text: str | None = None      #: rendered report (None: render=False
                                        #: or rendered straight to ``out``)
    failures: list = field(default_factory=list)

    @property
    def degraded(self) -> bool:
        """Whether the report has MISSING cells (prefetch gaps)."""
        return bool(self.suite.missing)


def run_suite(
    request: SuiteRequest,
    options: RunOptions | None = None,
    *,
    render: bool = True,
    out: TextIO | None = None,
    strict: bool = False,
) -> SuiteResult:
    """Run one report suite programmatically.

    Builds the :class:`ExperimentSuite`, prefetches the simulation grid
    through the :mod:`repro.exec` engine when ``options`` ask for
    parallelism/journaling/resume, and renders the text report.

    Args:
        request: What to compute (sections, workload identity, charts).
        options: Execution mechanics (default: sequential, no journal).
        render: Render the report (``False``: callers wanting only the
            warmed suite — claim verification, exports — skip it).
        out: Render target stream; ``None`` buffers the text into
            :attr:`SuiteResult.report_text` (the CLI passes ``stdout``
            here so long runs stream).
        strict: Failure policy for cells the prefetch could not compute
            (see :class:`ExperimentSuite`); the CLI and the service use
            the default ``False`` so a bad cell degrades to ``MISSING``
            instead of aborting the report.

    Returns:
        A :class:`SuiteResult`; ``result.report_text`` is the exact byte
        content ``repro-experiments`` would have written.
    """
    options = options if options is not None else RunOptions()
    suite = ExperimentSuite(
        scale=request.scale, seed=request.seed,
        quantum_refs=request.quantum_refs,
        random_replicates=request.random_replicates,
        cache_dir=options.cache_dir,
        check_invariants=request.check_invariants,
        engine=request.engine, strict=strict,
        speculate=options.speculate,
        stream_chunk_refs=request.stream_chunk_refs,
        topology=request.topology,
    )
    sections = list(request.sections) if request.sections is not None else None
    result = SuiteResult(request=request, suite=suite)
    if options.wants_engine:
        with trace_span("prefetch", kind="stage"):
            run = suite.prefetch(
                sections, jobs=options.jobs, timeout=options.timeout,
                hang_timeout=options.hang_timeout,
                journal=options.journal, resume=options.resume,
                max_retries=options.retries, mp_context=options.mp_context,
                observer=options.observer,
            )
        result.run = run
        result.failures = list(run.failures)
    if render:
        with trace_span("render", kind="stage"):
            if out is not None:
                write_report(suite, out, sections=sections,
                             charts=request.charts)
            else:
                buffer = io.StringIO()
                write_report(suite, buffer, sections=sections,
                             charts=request.charts)
                result.report_text = buffer.getvalue()
    return result
