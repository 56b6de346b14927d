"""Observability for the reproduction pipeline (zero dependencies).

The paper's negative result rests on *measured* runtime behavior; this
package gives the reproduction the same discipline about itself.  Four
small pieces compose into a per-run observability layer:

* :mod:`repro.obs.metrics` — a thread-safe registry of counters, gauges
  and log-bucketed histograms with snapshot/merge (worker metrics
  aggregate into the parent) and deterministic JSON + Prometheus
  exporters;
* :mod:`repro.obs.spans` — span tracing (``with trace_span(...):``) into
  a per-run ``trace.jsonl``, exportable to Chrome trace-event JSON;
* :mod:`repro.obs.probes` — cheap, default-off event counters inside the
  replay kernel (quanta, miss classes, directory upgrades, context
  switches), gated so the disabled path stays on the fast path;
* :mod:`repro.obs.progress` — a single-line TTY progress meter fed from
  the engine's journal events.

:class:`~repro.obs.run.RunObserver` wires them into one run directory;
``repro-experiments --metrics --trace --progress`` turns them on and
``repro-stats <rundir>`` reads everything back.  See
``docs/OBSERVABILITY.md``.
"""

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.probes import SimProbe
from repro.obs.progress import ProgressMeter, drive_meter, follow_journal
from repro.obs.run import RunObserver
from repro.obs.spans import (
    Tracer,
    chrome_trace,
    get_tracer,
    read_spans,
    set_tracer,
    trace_span,
    write_chrome_trace,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
    "SimProbe",
    "ProgressMeter",
    "drive_meter",
    "follow_journal",
    "RunObserver",
    "Tracer",
    "trace_span",
    "set_tracer",
    "get_tracer",
    "read_spans",
    "chrome_trace",
    "write_chrome_trace",
]
