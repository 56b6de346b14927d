"""Shared script-mode benchmark harness: one ``--json PATH`` schema.

Several benchmarks double as scripts (``python benchmarks/bench_*.py``)
that emit machine-readable results for CI trend tracking.  Each one used
to invent its own JSON shape; this harness fixes a single envelope,
``repro-bench/v1``::

    {
      "schema": "repro-bench/v1",
      "name": "topology",                # which benchmark
      "params": {"scale": 0.002, ...},   # inputs that shaped the run
      "wall_s": 12.34,                   # whole-run wall clock
      "cpu_s": 12.01,                    # whole-run process CPU time
      "metrics": {...}                   # benchmark-specific results
    }

``metrics`` is intentionally free-form — a speedup table, an overhead
percentage — but the envelope is uniform, so one consumer can archive
and compare every benchmark's output without per-file parsers.
"""

import argparse
import json
import time

SCHEMA = "repro-bench/v1"

__all__ = ["SCHEMA", "Stopwatch", "bench_document", "add_json_arg",
           "write_json", "validate_document"]


class Stopwatch:
    """Measures wall and CPU seconds over a ``with`` block."""

    def __enter__(self):
        self._wall0 = time.perf_counter()
        self._cpu0 = time.process_time()
        self.wall_s = 0.0
        self.cpu_s = 0.0
        return self

    def __exit__(self, *exc_info):
        self.wall_s = time.perf_counter() - self._wall0
        self.cpu_s = time.process_time() - self._cpu0


def bench_document(name: str, *, params: dict, wall_s: float, cpu_s: float,
                   metrics: dict) -> dict:
    """The ``repro-bench/v1`` envelope around one benchmark's results."""
    return {
        "schema": SCHEMA,
        "name": str(name),
        "params": dict(params),
        "wall_s": round(float(wall_s), 6),
        "cpu_s": round(float(cpu_s), 6),
        "metrics": dict(metrics),
    }


def validate_document(document: dict) -> None:
    """Raise ``ValueError`` unless ``document`` is a well-formed envelope."""
    if not isinstance(document, dict):
        raise ValueError("benchmark document must be a JSON object")
    if document.get("schema") != SCHEMA:
        raise ValueError(
            f"expected schema {SCHEMA!r}, got {document.get('schema')!r}")
    for key, kind in (("name", str), ("params", dict), ("metrics", dict),
                      ("wall_s", (int, float)), ("cpu_s", (int, float))):
        if not isinstance(document.get(key), kind):
            raise ValueError(f"field {key!r} missing or mistyped")


def add_json_arg(parser: argparse.ArgumentParser) -> None:
    """The uniform ``--json PATH`` option every script benchmark takes."""
    parser.add_argument(
        "--json", metavar="PATH",
        help="also write the results as one repro-bench/v1 JSON document",
    )


def write_json(path: str, document: dict) -> None:
    """Validate and write one envelope (newline-terminated)."""
    validate_document(document)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {path}")
