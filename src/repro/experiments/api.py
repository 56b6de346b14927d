"""Programmatic entry point: run a report suite without argv plumbing.

``repro-experiments`` used to be the only way to drive a full report
run; the service layer (:mod:`repro.service`) and library users need the
same behavior as a function call.  This module is that seam:

* :class:`SuiteRequest` — *what* to compute: the report sections and the
  workload identity (scale, seed, quantum) plus rendering options.  Its
  dataclass fields are the one request schema: each field's metadata
  holds its JSON shape, decoder and CLI flag, from which the wire format,
  the digest material and both CLIs' request flags
  (:func:`add_request_arguments`) are derived.  A request is
  content-addressed: :attr:`SuiteRequest.digest` is a SHA-256 over the
  canonical request fields *and* the planned cells' content addresses
  (the same per-cell SHA-256 keys the
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

import argparse
import hashlib
import io
import json
import math
from dataclasses import dataclass, field, fields
from typing import TextIO

from repro.experiments.report import REPORT_SECTIONS, write_report
from repro.experiments.runner import ExperimentSuite
from repro.topo.model import canonical_topology
from repro.obs.spans import trace_span
from repro.util.validate import check_positive
from repro.workload.applications import DEFAULT_SCALE

__all__ = ["SuiteRequest", "RunOptions", "SuiteResult", "run_suite",
           "add_request_arguments", "REQUEST_SCHEMA"]

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


def _request_field(default, shape: str, decode, **flag):
    """One :class:`SuiteRequest` field: its default; its JSON ``shape``
    (for error messages) and ``decode`` function, which returns ``None``
    on any other shape; and the :mod:`argparse` keywords of its flag."""
    return field(default=default,
                 metadata={"shape": shape, "decode": decode, "flag": flag})


#: The RANDOM baseline's replicate count, which every request runs (the
#: planner's and :class:`ExperimentSuite`'s default).  It was once a
#: request field: the digest still names it, so every content address is
#: unchanged, and :meth:`SuiteRequest.from_dict` accepts the key with
#: this value only.
_RANDOM_REPLICATES = 3


@dataclass(frozen=True)
class SuiteRequest:
    """What to compute: one report run, content-addressed.

    Only fields that shape the report's *bytes* live here (sections,
    workload identity, rendering switches) — execution mechanics
    (workers, timeouts, journals) belong in :class:`RunOptions`.  The
    fields are the request schema: the wire format, the digest and both
    CLIs' request flags are derived from them and their metadata.
    """

    sections: tuple[str, ...] | None = _request_field(
        None, "a string or a list of strings", _decode_sections,
        nargs="+", choices=sorted(REPORT_SECTIONS),
        help="which tables/figures to regenerate (default: all)")
    scale: float = _request_field(
        DEFAULT_SCALE, "a finite positive number", _decode_scale,
        type=float,
        help=f"workload scale relative to the paper (default {DEFAULT_SCALE})")
    seed: int = _request_field(0, "an integer", _decode_int,
                               type=int, help="root seed")
    quantum_refs: int = _request_field(
        256, "an integer", _decode_int, type=int, metavar="N",
        help="simulator scheduling quantum in references (default 256)")
    charts: bool = _request_field(
        False, "a boolean", _decode_bool, action="store_true",
        help="also render each figure as ASCII bar charts")
    check_invariants: bool = _request_field(
        False, "a boolean", _decode_bool, action="store_true",
        help="audit every simulation with the oracle's runtime conservation "
             "laws (cycle accounting, miss bookkeeping, directory/cache "
             "sync); results are unchanged, violations abort the run")
    topology: str | None = _request_field(
        None, "a string or null", _decode_str, metavar="SPEC",
        help="machine topology for every simulation: 'flat[:latency]' "
             "(the default machine) or 'numa:<groups>:<local>:<remote>' "
             "(tiered latencies; see docs/TOPOLOGY.md).  'flat:50' is "
             "byte-identical to omitting the flag")

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

    @property
    def section_list(self) -> list[str] | None:
        """The sections as the planner and renderers take them (None =
        all)."""
        return list(self.sections) if self.sections is not None else None

    # -- wire format and CLI ---------------------------------------------

    @classmethod
    def from_dict(cls, payload: dict) -> "SuiteRequest":
        """Build a request from a plain dict (the service's POST body).

        Values are decoded by JSON type, never coerced: the switches must
        be booleans, the integer fields integers (a whole float such as
        ``7.0`` is read as ``7``), ``scale`` a finite positive number,
        ``sections`` a string or a list of strings and ``topology`` a
        string; ``sections`` and ``topology`` may be null (all sections,
        the flat machine).  Any other shape, and any unknown key, raises
        ``ValueError`` (a 400 at the HTTP layer).  Three legacy keys are
        tolerated, each only with a value its retired field accepted,
        since requests persisted before the removal carry them and none
        ever changed a result: ``engine`` naming either retired replay
        engine, ``stream_chunk_refs`` (null or a positive integer; every
        report path replays whole columns) and ``random_replicates``
        (only 3, the count every request runs).  Any other value of
        these keys still raises.
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
        if "random_replicates" in payload:
            replicates = payload.pop("random_replicates")
            if _decode_int(replicates) != _RANDOM_REPLICATES:
                raise ValueError(
                    "suite request field 'random_replicates' must be an "
                    f"integer equal to {_RANDOM_REPLICATES} (the one count "
                    "every request runs), got "
                    f"{type(replicates).__name__} {replicates!r}"
                )
        specs = {spec.name: spec for spec in fields(cls)}
        unknown = sorted(set(payload) - set(specs))
        if unknown:
            raise ValueError(
                f"unknown suite request fields {unknown}; "
                f"known: {sorted(specs)}"
            )
        decoded: dict = {}
        for name, value in payload.items():
            spec = specs[name]
            if value is None and spec.default is None:
                continue
            result = spec.metadata["decode"](value)
            if result is None:
                raise ValueError(
                    f"suite request field {name!r} must be "
                    f"{spec.metadata['shape']}, "
                    f"got {type(value).__name__} {value!r}"
                )
            decoded[name] = result
        return cls(**decoded)

    def to_dict(self) -> dict:
        """The request as a plain JSON-able dict (round-trips through
        :meth:`from_dict`)."""
        values = {spec.name: getattr(self, spec.name) for spec in fields(self)}
        return {name: list(value) if isinstance(value, tuple) else value
                for name, value in values.items()}

    @classmethod
    def from_args(cls, args: argparse.Namespace) -> "SuiteRequest":
        """The request named by the flags :func:`add_request_arguments`
        added to a parser."""
        return cls(**{spec.name: getattr(args, spec.name)
                      for spec in fields(cls)})

    # -- planning and rendering ------------------------------------------

    def plan(self) -> list:
        """The :class:`~repro.exec.jobs.JobSpec` of every simulation
        cell this request needs."""
        from repro.exec.jobs import plan_sections

        return plan_sections(
            self.section_list, scale=self.scale, seed=self.seed,
            quantum_refs=self.quantum_refs, topology=self.topology,
        )

    def suite(self, cache_dir: str | None = None) -> ExperimentSuite:
        """A fresh :class:`ExperimentSuite` computing this request's
        cells, backed by the result store at ``cache_dir`` if given."""
        return ExperimentSuite(
            scale=self.scale, seed=self.seed,
            quantum_refs=self.quantum_refs, cache_dir=cache_dir,
            check_invariants=self.check_invariants, topology=self.topology,
        )

    def render(self, suite: ExperimentSuite, out: TextIO) -> None:
        """Write this request's report of ``suite`` to ``out``."""
        write_report(suite, out, sections=self.section_list,
                     charts=self.charts)

    # -- content address -------------------------------------------------

    def cell_ids(self) -> list[str]:
        """The content addresses of every simulation cell this request
        plans (the engine's job ids / the store's filenames)."""
        return [spec.job_id for spec in self.plan()]

    @property
    def digest(self) -> str:
        """SHA-256 content address of this run (32 hex chars).

        Composed from the canonical request fields *and* the planned
        cells' own SHA-256 content addresses, so the run key is derived
        from the same addressing scheme as the
        :class:`~repro.experiments.cache.ResultStore` entries it will
        share.  Excludes every :class:`RunOptions` mechanic.
        """
        material = dict(self.to_dict(), schema=REQUEST_SCHEMA,
                        random_replicates=_RANDOM_REPLICATES,
                        cells=self.cell_ids())
        if self.topology is None:
            # Only a non-flat topology contributes (the flat baseline is
            # canonicalized away), so pre-topology digests are unchanged.
            del material["topology"]
        encoded = json.dumps(material, sort_keys=True)
        return hashlib.sha256(encoded.encode("ascii")).hexdigest()[:32]

    def describe(self) -> str:
        """One-line human label (service listings, logs)."""
        names = ",".join(self.sections) if self.sections is not None else "all"
        label = (f"sections={names} scale={self.scale:g} seed={self.seed} "
                 f"q={self.quantum_refs}")
        if self.topology is not None:
            label += f" topo={self.topology}"
        return label


def add_request_arguments(parser: argparse.ArgumentParser) -> None:
    """Add one flag per :class:`SuiteRequest` field to ``parser``
    (``--quantum-refs`` for ``quantum_refs``), defaulting to the field's
    default; :meth:`SuiteRequest.from_args` reads them back."""
    for spec in fields(SuiteRequest):
        parser.add_argument("--" + spec.name.replace("_", "-"),
                            default=spec.default, **spec.metadata["flag"])


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
    suite = request.suite(options.cache_dir)
    result = SuiteResult(request=request, suite=suite)
    if options.wants_engine:
        with trace_span("prefetch", kind="stage"):
            run = suite.prefetch(
                request.section_list, jobs=options.jobs,
                timeout=options.timeout, hang_timeout=options.hang_timeout,
                journal=options.journal, resume=options.resume,
                max_retries=options.retries, observer=options.observer,
            )
        result.run = run
        result.failures = list(run.failures)
    if render:
        with trace_span("render", kind="stage"):
            if out is not None:
                request.render(suite, out)
            else:
                buffer = io.StringIO()
                request.render(suite, buffer)
                result.report_text = buffer.getvalue()
    return result
