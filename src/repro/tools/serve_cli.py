"""``repro-serve`` — run the experiments service.

Boots a :class:`~repro.service.manager.JobManager` over a data
directory and serves the ``/v1`` API on a local socket until
interrupted::

    repro-serve --data-dir /tmp/repro-service --port 8077 --executors 2

Ctrl-C drains cleanly: the socket closes first (no new submissions),
then the manager joins its workers, so in-flight runs seal their
journals and finished artifacts stay consistent.  See
``docs/SERVICE.md`` for the API this serves.
"""

from __future__ import annotations

import argparse
import asyncio
import sys

from repro.obs.metrics import MetricsRegistry
from repro.service.manager import JobManager
from repro.service.server import ServiceServer
from repro.tools.errors import INTERRUPT_EXIT_CODE, friendly_errors

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Serve the reproduction pipeline over HTTP "
                    "(submit suites, stream progress, fetch reports).")
    parser.add_argument("--host", default="127.0.0.1",
                        help="bind address (default %(default)s; the "
                             "service has no authentication — keep it "
                             "on loopback unless fronted by a proxy)")
    parser.add_argument("--port", type=int, default=8077,
                        help="bind port (default %(default)s; 0 picks "
                             "a free one)")
    parser.add_argument("--data-dir", default="repro-service",
                        help="jobs + shared result store live here "
                             "(default %(default)s)")
    parser.add_argument("--run-jobs", type=int, default=1,
                        help="worker processes per engine run "
                             "(default %(default)s)")
    parser.add_argument("--executors", type=int, default=1,
                        help="concurrent engine runs (default %(default)s)")
    parser.add_argument("--queue-depth", type=int, default=16,
                        help="max queued jobs before 429 "
                             "(default %(default)s)")
    parser.add_argument("--tenant-quota", type=int, default=4,
                        help="max active jobs per tenant before 429 "
                             "(default %(default)s)")
    parser.add_argument("--retries", type=int, default=2,
                        help="per-cell retry budget (default %(default)s)")
    parser.add_argument("--timeout", type=float, default=None,
                        help="per-cell timeout in seconds (needs "
                             "--run-jobs > 1)")
    parser.add_argument("--metrics-interval", type=float, default=None,
                        metavar="SECONDS",
                        help="export Prometheus metrics to "
                             "<data-dir>/metrics.prom on this interval")
    return parser


@friendly_errors("repro-serve")
def main(argv: list[str] | None = None) -> int:
    """Entry point for the ``repro-serve`` console script."""
    args = _build_parser().parse_args(argv)
    manager = JobManager(
        args.data_dir,
        run_jobs=args.run_jobs,
        executors=args.executors,
        max_queue=args.queue_depth,
        tenant_quota=args.tenant_quota,
        retries=args.retries,
        timeout=args.timeout,
        registry=MetricsRegistry(),
    )
    server = ServiceServer(manager, host=args.host, port=args.port,
                           metrics_interval=args.metrics_interval)

    async def serve() -> None:
        bound = await server.start()
        print(f"repro-serve: listening on http://{args.host}:{server.port} "
              f"(data: {manager.data_dir})", file=sys.stderr, flush=True)
        exporter = None
        if args.metrics_interval:
            exporter = asyncio.ensure_future(server._export_metrics_loop())
        try:
            async with bound:
                await bound.serve_forever()
        finally:
            if exporter is not None:
                exporter.cancel()

    try:
        asyncio.run(serve())
    except KeyboardInterrupt:
        print("repro-serve: shutting down", file=sys.stderr)
        manager.shutdown()
        return INTERRUPT_EXIT_CODE
    manager.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
