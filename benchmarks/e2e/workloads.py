"""The benchmark's three workloads, driven through public entry points.

Each workload class has a ``setup`` (imports, server boot: what
``setup_s`` measures), a ``run_pass`` — the fixed unit of work one fresh
subprocess performs with empty caches and stores — and a ``teardown``.  The
program receives only the inputs generated from the seed; no engine or
speculation argument is passed anywhere, so the benchmark follows the
repository's defaults.

* ``grid`` — the 592-cell simulated report (figures 2-5 and table 5) at
  the CLI's default scale, through :func:`run_suite`.  Placement-bound,
  with infinite-cache cells: the unit of work the ROADMAP names.
* ``replay`` — LOAD-BAL cells for all 14 applications at every processor
  count, each application with its own finite cache.  Replay-bound, with
  almost no placement work: the control for placement changes, and it
  sweeps sharing patterns and working-set/cache ratios.
* ``served`` — one client's closed loop of figure-5 requests against an
  in-process service: HTTP, queue, execution engine, journal, store and
  render.  The control for store, engine and service changes.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

__all__ = ["WORKLOADS", "Region", "PassResult"]


class Region:
    """The timed region of a pass; turns the layer tracer on inside it."""

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self.wall_s = 0.0

    def __enter__(self) -> "Region":
        if self.tracer is not None:
            self.tracer.start()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self.wall_s = time.perf_counter() - self._t0
        if self.tracer is not None:
            self.tracer.stop()


@dataclass
class PassResult:
    """What one pass measured and produced."""

    wall_s: float
    latencies_s: list[float]     #: one per request
    attempted: int               #: cells (grid, replay) or requests (served)
    failed: int
    cells: int                   #: planned simulation cells
    refs: int                    #: references those cells simulate
    digest: str                  #: the outputs' sha256, for the gate
    service: dict = field(default_factory=dict)  #: served per-stage times


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Grid:
    name = "grid"

    def __init__(self, seed: int, quick: bool, work_dir: Path) -> None:
        self.seed = seed
        self.quick = quick
        self.scale = 0.0005 if quick else 0.004

    def setup(self) -> None:
        from repro.exec import SIMULATED_SECTIONS, plan_sections
        from repro.experiments.api import RunOptions, SuiteRequest, run_suite

        # The quick grid drops table 5, whose placement search alone takes
        # seconds at any scale.
        sections = (("figure4", "figure5") if self.quick
                    else tuple(sorted(SIMULATED_SECTIONS)))
        self._plan = plan_sections
        self._run = lambda: run_suite(
            SuiteRequest(sections=sections, scale=self.scale, seed=self.seed),
            RunOptions())

    def run_pass(self, region: Region) -> PassResult:
        with region:
            result = self._run()
        request = result.request
        cells = self._plan(list(request.sections), scale=request.scale,
                           seed=request.seed)
        # Every cell replays its application's whole trace set.
        refs = sum(result.suite.traces(cell.app).total_refs for cell in cells)
        return PassResult(
            wall_s=region.wall_s, latencies_s=[region.wall_s],
            attempted=len(cells), failed=len(result.suite.missing),
            cells=len(cells), refs=refs,
            digest=_sha256(result.report_text.encode("utf-8")))

    def teardown(self) -> None:
        pass


class Replay:
    name = "replay"
    algorithm = "LOAD-BAL"

    def __init__(self, seed: int, quick: bool, work_dir: Path) -> None:
        self.seed = seed
        self.scale = 0.002 if quick else 0.03

    def setup(self) -> None:
        from repro.arch.stats import MissKind
        from repro.experiments.runner import ExperimentSuite
        from repro.workload.applications import application_names

        self._kinds = list(MissKind)
        self._suite = lambda: ExperimentSuite(scale=self.scale, seed=self.seed)
        self._apps = application_names()

    def run_pass(self, region: Region) -> PassResult:
        latencies, rows, failed, refs = [], [], 0, 0
        with region:
            suite = self._suite()
            for app in self._apps:
                for processors in suite.processors_for(app):
                    t0 = time.perf_counter()
                    try:
                        result = suite.run(app, self.algorithm, processors)
                    except Exception as exc:  # counted, and fails the digest
                        failed += 1
                        rows.append([app, processors, repr(exc)])
                        continue
                    latencies.append(time.perf_counter() - t0)
                    refs += result.total_refs
                    misses = result.miss_breakdown()
                    rows.append([app, processors, int(result.execution_time),
                                 [int(misses[kind]) for kind in self._kinds],
                                 int(result.total_refs)])
        return PassResult(
            wall_s=region.wall_s, latencies_s=latencies,
            attempted=len(rows), failed=failed, cells=len(rows), refs=refs,
            digest=_sha256(json.dumps(rows).encode("ascii")))

    def teardown(self) -> None:
        pass


class Served:
    name = "served"
    sections = ("figure5",)

    def __init__(self, seed: int, quick: bool, work_dir: Path) -> None:
        self.seed = seed
        self.scale = 0.0005 if quick else 0.004
        self.requests = 4 if quick else 20
        self.data_dir = work_dir / "service"
        self._manager = self._handle = None

    def setup(self) -> None:
        from repro.exec import plan_sections
        from repro.experiments.cache import ResultStore
        from repro.service.client import ServiceClient, ServiceError
        from repro.service.manager import JobManager
        from repro.service.server import start_in_background

        self._plan = plan_sections
        self._store = ResultStore
        self._errors = (ServiceError, OSError)
        self._manager = JobManager(self.data_dir)
        self._handle = start_in_background(self._manager)
        self._client = ServiceClient(self._handle.url, tenant="e2e")
        self._client.health()

    def _request(self, seed: int) -> dict:
        return {"sections": list(self.sections), "scale": self.scale,
                "seed": seed}

    def _one(self, seed: int, detail: bool) -> tuple[float, bytes, dict]:
        """Submit, follow the events to ``job-end``, fetch the report."""
        client = self._client
        t0 = time.perf_counter()
        job = client.submit(self._request(seed))
        t1 = time.perf_counter()
        state = None
        for event in client.events(job["id"]):
            if event.get("event") == "job-end":
                state = event.get("state")
        t2 = time.perf_counter()
        if state != "done":
            raise RuntimeError(f"job {job['id']} ended {state}")
        report = client.report(job["id"])
        t3 = time.perf_counter()
        stages = {}
        if detail:
            record = client.job(job["id"])
            stages = {"submit_s": t1 - t0, "fetch_s": t3 - t2,
                      "queue_s": record["started"] - record["created"],
                      "execute_s": record["finished"] - record["started"]}
        return t3 - t0, report, stages

    def run_pass(self, region: Region) -> PassResult:
        detail = region.tracer is not None
        latencies, digests, failed = [], [], 0
        stages: dict[str, list] = {}
        # Pass seeds s, s+1, ... request disjoint, consecutive seed blocks.
        first = self.seed * self.requests + 1
        seeds = range(first, first + self.requests)
        with region:
            for seed in seeds:
                try:
                    latency, report, times = self._one(seed, detail)
                except (RuntimeError, *self._errors) as exc:
                    failed += 1
                    digests.append(repr(exc))
                    continue
                latencies.append(latency)
                digests.append(_sha256(report))
                for stage, value in times.items():
                    stages.setdefault(stage, []).append(value)
        store = self._store(self._manager.store_dir)
        cells = refs = 0
        for seed in seeds:
            planned = self._plan(list(self.sections), scale=self.scale,
                                 seed=seed)
            stored = store.load(planned[0].store_key) if planned else None
            cells += len(planned)
            refs += len(planned) * (stored.total_refs if stored else 0)
        return PassResult(
            wall_s=region.wall_s, latencies_s=latencies,
            attempted=self.requests, failed=failed, cells=cells, refs=refs,
            digest=_sha256("\n".join(digests).encode("ascii")),
            service=stages)

    def teardown(self) -> None:
        if self._handle is not None:
            self._handle.stop()
        if self._manager is not None:
            self._manager.shutdown()


WORKLOADS = {cls.name: cls for cls in (Grid, Replay, Served)}
