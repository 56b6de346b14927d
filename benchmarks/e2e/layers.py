"""Outside-in per-layer tracing for the end-to-end benchmark.

The traced run times each layer of the pipeline without editing it: every
public entry point named in :data:`ENTRY_POINTS` is wrapped by rebinding
each module attribute (across ``sys.modules``) that refers to it, and
methods are wrapped on their class and on every subclass that overrides
them.  An entry point that no longer exists is skipped, so its layer
reports ``calls=0`` instead of failing the benchmark.

Spans are kept in memory on a per-thread stack (the service executes jobs
on a worker thread) and written at the end as ``trace.jsonl`` records in
the :mod:`repro.obs.spans` format, so ``read_spans``,
``write_chrome_trace`` and ``repro-stats`` read them.  Every garbage
collection pause is recorded as a ``host.gc`` span whose parent is the
innermost span open on the collecting thread.  :func:`layer_table`
computes the per-layer metrics from that file alone.

A span's self time is its wall time minus the wall time of its child
spans (GC pauses included), so the self times of all layers plus
``other.self_s`` add up to the traced wall time.
"""

from __future__ import annotations

import functools
import gc
import importlib
import itertools
import os
import sys
import threading
import time
from collections import defaultdict

from repro.obs.spans import Tracer, read_spans

__all__ = ["ENTRY_POINTS", "LayerTracer", "layer_table"]

#: layer -> public entry points ("module", "function" or "Class.method").
ENTRY_POINTS: dict[str, tuple[tuple[str, str], ...]] = {
    "workload.generate": (
        ("repro.workload.applications", "build_application"),),
    "trace.compress": (
        ("repro.trace.runs", "compress_trace"),
        ("repro.trace.runs", "compress_chunk")),
    "trace.analysis_cache": (
        ("repro.trace.analysis_cache", "AnalysisCache.fetch"),
        ("repro.trace.analysis_cache", "AnalysisCache.fetch_chunk")),
    "placement.place": (
        ("repro.placement.base", "PlacementAlgorithm.place"),),
    "placement.coherence": (
        ("repro.placement.dynamic", "measure_coherence_matrix"),),
    "arch.simulate": (("repro.arch.simulator", "simulate"),),
    "arch.speculate": (("repro.arch.delta", "speculate_from_neighbor"),),
    "experiments.store.load": (("repro.experiments.cache", "ResultStore.load"),),
    "experiments.store.commit": (
        ("repro.experiments.cache", "ResultStore.store"),),
    "exec.engine": (("repro.exec.engine", "ExecutionEngine.run"),),
    "exec.journal": (("repro.exec.journal", "RunJournal.record"),),
    "experiments.render": (("repro.experiments.report", "write_report"),),
    "experiments.export": (("repro.experiments.export", "export_json"),),
}

GC_LAYER = "host.gc"


def _annotate(layer: str, args: tuple, before, result) -> dict:
    """Counts a layer records on its span, beside the timings."""
    if layer == "arch.simulate":
        return {"refs": int(getattr(result, "total_refs", 0))}
    if layer == "experiments.store.load":
        return {"hit": result is not None}
    if layer == "trace.analysis_cache":
        return {"hit": getattr(args[0], "misses", 0) == before}
    return {}


def _before(layer: str, args: tuple):
    if layer == "trace.analysis_cache":
        return getattr(args[0], "misses", 0)
    return None


class LayerTracer:
    """Installs the wrappers and the GC hook; collects spans in memory."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.enabled = False
        self._ids = itertools.count(1)
        self._local = threading.local()

    # -- span stack ------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, name: str, layer: str, parent: int | None, ts: float,
                wall: float, cpu: float, span_id: int, extra: dict) -> None:
        self.spans.append({
            "name": name, "ts": ts, "wall": wall, "cpu": cpu,
            "pid": os.getpid(), "tid": threading.get_ident(),
            "args": dict(extra, layer=layer, parent=parent, id=span_id),
        })

    def _wrap(self, layer: str, name: str, original):
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return original(*args, **kwargs)
            stack = tracer._stack()
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else None
            before = _before(layer, args)
            stack.append(span_id)
            ts = time.time()
            cpu0 = time.thread_time()
            t0 = time.perf_counter()
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                wall = time.perf_counter() - t0
                cpu = time.thread_time() - cpu0
                stack.pop()
                tracer._record(name, layer, parent, ts, wall, cpu, span_id,
                               _annotate(layer, args, before, result))

        return wrapper

    def _on_gc(self, phase: str, info: dict) -> None:
        if not self.enabled:
            return
        if phase == "start":
            self._local.gc_start = (time.time(), time.perf_counter())
            return
        started = getattr(self._local, "gc_start", None)
        if started is None:
            return
        self._local.gc_start = None
        ts, t0 = started
        wall = time.perf_counter() - t0
        stack = self._stack()
        self._record(f"gc.gen{info.get('generation', 0)}", GC_LAYER,
                     stack[-1] if stack else None, ts, wall, wall,
                     next(self._ids), {})

    # -- install ---------------------------------------------------------

    def install(self) -> list[str]:
        """Wrap every entry point that exists; returns the ones missing."""
        missing = []
        for layer, points in ENTRY_POINTS.items():
            for module_name, qualname in points:
                if not self._install_one(layer, module_name, qualname):
                    missing.append(f"{module_name}:{qualname}")
        gc.callbacks.append(self._on_gc)
        return missing

    def _install_one(self, layer: str, module_name: str, qualname: str) -> bool:
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            return False
        owner_name, _, attr = qualname.rpartition(".")
        if owner_name:
            cls = getattr(module, owner_name, None)
            if not isinstance(cls, type) or attr not in vars(cls):
                return False
            for klass in _with_subclasses(cls):
                function = vars(klass).get(attr)
                if callable(function):
                    setattr(klass, attr, self._wrap(
                        layer, f"{klass.__name__}.{attr}", function))
            return True
        original = getattr(module, attr, None)
        if not callable(original):
            return False
        wrapper = self._wrap(layer, attr, original)
        for loaded in list(sys.modules.values()):
            namespace = getattr(loaded, "__dict__", None)
            if not isinstance(namespace, dict):
                continue
            for key, value in list(namespace.items()):
                if value is original:
                    namespace[key] = wrapper
        return True

    def start(self) -> None:
        self.enabled = True

    def stop(self) -> None:
        self.enabled = False

    def write(self, path) -> None:
        """Write the spans as ``trace.jsonl`` records (repro.obs format)."""
        tracer = Tracer(path)
        try:
            for span in self.spans:
                tracer.add(span["name"], ts=span["ts"], wall=span["wall"],
                           cpu=span["cpu"], pid=span["pid"], tid=span["tid"],
                           args=span["args"])
        finally:
            tracer.close()


def _with_subclasses(cls: type) -> list[type]:
    found, pending = [], [cls]
    while pending:
        klass = pending.pop()
        if klass not in found:
            found.append(klass)
            pending.extend(klass.__subclasses__())
    return found


def layer_table(trace_path, traced_wall_s: float) -> dict[str, float]:
    """The per-layer metrics, computed from a ``trace.jsonl`` file."""
    spans = [s for s in read_spans(trace_path)
             if isinstance(s.get("args"), dict) and "layer" in s["args"]]
    child_wall: dict = defaultdict(float)
    for span in spans:
        parent = span["args"].get("parent")
        if parent is not None:
            child_wall[parent] += span["wall"]
    self_s: dict = defaultdict(float)
    calls: dict = defaultdict(int)
    refs: dict = defaultdict(int)
    hits: dict = defaultdict(int)
    for span in spans:
        args = span["args"]
        layer = args["layer"]
        self_s[layer] += span["wall"] - child_wall[args["id"]]
        calls[layer] += 1
        refs[layer] += int(args.get("refs", 0))
        hits[layer] += int(bool(args.get("hit", False)))
    table = {
        "placement.place.calls": calls["placement.place"],
        "arch.simulate.calls": calls["arch.simulate"],
        "arch.simulate.refs": refs["arch.simulate"],
        "host.gc.collections": calls[GC_LAYER],
        "host.gc.pause_s": self_s[GC_LAYER],
        "experiments.store.load.calls": calls["experiments.store.load"],
        "experiments.store.load.hits": hits["experiments.store.load"],
        "experiments.store.commit.calls": calls["experiments.store.commit"],
        "exec.journal.records": calls["exec.journal"],
        "workload.generate.calls": calls["workload.generate"],
        "trace.compress.calls": calls["trace.compress"],
        "trace.analysis_cache.hits": hits["trace.analysis_cache"],
        "trace.analysis_cache.misses": (calls["trace.analysis_cache"]
                                        - hits["trace.analysis_cache"]),
    }
    for layer in ENTRY_POINTS:
        table[f"{layer}.self_s"] = self_s[layer]
    table["other.self_s"] = traced_wall_s - sum(self_s.values())
    return table
