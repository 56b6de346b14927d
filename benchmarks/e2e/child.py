"""One pass of one workload in a fresh process (spawned by ``run.py``).

Sets the workload up, records the wall-clock instant set-up finished
(``run.py`` measures ``setup_s`` from the spawn to that instant), runs one
pass — traced when ``--trace PATH`` is given — and writes the result as
JSON to ``<work-dir>/pass.json``.  With ``--setup-only`` it stops after
set-up.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from dataclasses import asdict
from pathlib import Path

from workloads import WORKLOADS, Region


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work-dir", required=True, type=Path)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", metavar="PATH",
                        help="trace the pass and write trace.jsonl here")
    args = parser.parse_args(argv)

    args.work_dir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, args.quick, args.work_dir)
    workload.setup()
    record: dict = {"ready": time.time(), "seed": args.seed}
    tracer = None
    try:
        if not args.setup_only:
            if args.trace:
                from layers import LayerTracer

                tracer = LayerTracer()
                record["missing_entry_points"] = tracer.install()
            record.update(asdict(workload.run_pass(Region(tracer))))
    finally:
        workload.teardown()
    if tracer is not None:
        tracer.write(args.trace)
    record["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    (args.work_dir / "pass.json").write_text(json.dumps(record),
                                             encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
