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
import math
from dataclasses import dataclass, field
from typing import TextIO

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


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _decode_bool(value):
    return value if isinstance(value, bool) else None


def _decode_int(value):
    if _is_number(value) and float(value).is_integer():
        return int(value)
    return None


def _decode_scale(value):
    if _is_number(value) and math.isfinite(value) and value > 0:
        return float(value)
    return None


def _decode_sections(value):
    if isinstance(value, str):
        return (value,)
    if isinstance(value, list) and all(isinstance(s, str) for s in value):
        return tuple(value)
    return None


def _decode_str(value):
    return value if isinstance(value, str) else None


#: Wire decoding of each :class:`SuiteRequest` field: (the expected JSON
#: shape, for the error message; a decoder returning ``None`` on any
#: other shape).
_DECODERS = {
    "sections": ("a string or a list of strings", _decode_sections),
    "scale": ("a finite positive number", _decode_scale),
    "seed": ("an integer", _decode_int),
    "quantum_refs": ("an integer", _decode_int),
    "random_replicates": ("an integer", _decode_int),
    "charts": ("a boolean", _decode_bool),
    "check_invariants": ("a boolean", _decode_bool),
    "topology": ("a string or null", _decode_str),
}


@dataclass(frozen=True)
class SuiteRequest:
    """What to compute: one report run, content-addressed.

    Only fields that shape the report's *bytes* live here (sections,
    workload identity, rendering switches) — execution mechanics
    (workers, timeouts, journals) belong in :class:`RunOptions`.
    """

    sections: tuple[str, ...] | None = None
    scale: float = DEFAULT_SCALE
    seed: int = 0
    quantum_refs: int = 256
    random_replicates: int = 3
    charts: bool = False
    check_invariants: bool = False
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

        Values are decoded by JSON type, never coerced: the switches must
        be booleans, the integer fields integers (a whole float such as
        ``7.0`` is read as ``7``), ``scale`` a finite positive number,
        ``sections`` a string or a list of strings and ``topology`` a
        string; ``sections`` and ``topology`` may be null (all sections,
        the flat machine).  Any other shape, and any unknown key, raises
        ``ValueError`` (a 400 at the HTTP layer).  Two legacy keys are
        tolerated, each only with a value its retired option accepted,
        since requests persisted before the removal carry them and
        neither ever changed a result: ``engine`` naming either retired
        replay engine, and ``stream_chunk_refs`` (null or a positive
        integer, decoded like the integer fields; every report path
        replays whole columns).  Any other value of either key still
        raises.
        """
        if not isinstance(payload, dict):
            raise ValueError(
                f"suite request must be an object, got {type(payload).__name__}"
            )
        payload = dict(payload)
        if payload.get("engine") in ("classic", "fast"):
            del payload["engine"]
        if "stream_chunk_refs" in payload:
            chunk_refs = payload.pop("stream_chunk_refs")
            if chunk_refs is not None:
                size = _decode_int(chunk_refs)
                if size is None or size <= 0:
                    raise ValueError(
                        "suite request field 'stream_chunk_refs' must be "
                        "null or a positive integer, got "
                        f"{type(chunk_refs).__name__} {chunk_refs!r}"
                    )
        unknown = sorted(set(payload) - set(_DECODERS))
        if unknown:
            raise ValueError(
                f"unknown suite request fields {unknown}; "
                f"known: {sorted(_DECODERS)}"
            )
        decoded: dict = {}
        for name, value in payload.items():
            if value is None and name in ("sections", "topology"):
                continue
            expected, decode = _DECODERS[name]
            result = decode(value)
            if result is None:
                raise ValueError(
                    f"suite request field {name!r} must be {expected}, "
                    f"got {type(value).__name__} {value!r}"
                )
            decoded[name] = result
        return cls(**decoded)

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
            "charts": self.charts,
            "check_invariants": self.check_invariants,
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
        share.  Excludes every :class:`RunOptions` mechanic.
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
    journaled == bare, cached == recomputed).
    """

    jobs: int = 1
    timeout: float | None = None
    hang_timeout: float | None = None
    retries: int = 2
    journal: str | None = None
    resume: bool = False
    cache_dir: str | None = None
    observer: object | None = None

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
                max_retries=options.retries, observer=options.observer,
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
