"""Run-as-a-service: an HTTP front end for the reproduction pipeline.

``repro-serve`` turns the experiments engine into a small multi-tenant
job service — submit a report suite over HTTP, watch its engine journal
stream live, fetch the finished report — with the repo's byte-identity
bar intact: a report fetched from the service is byte-for-byte the
report the same suite produces offline.

Four pieces, all stdlib:

* :mod:`repro.service.http` — a minimal asyncio HTTP/1.1 layer
  (``Connection: close``, which makes event streams trivial);
* :mod:`repro.service.manager` — the job engine: a coalescing queue
  (job id == request content address, so identical submissions share
  one run), per-tenant quotas, bounded depth with 429 + Retry-After,
  worker threads driving :func:`repro.experiments.api.run_suite` (or,
  with ``nodes``, a cluster run) into a shared
  :class:`~repro.experiments.cache.ResultStore`, plus the serial batch
  executor that makes every service a cluster worker node;
* :mod:`repro.service.server` — the ``/v1`` routes (jobs and worker
  batches), SSE/NDJSON journal streams with a ``seq`` cursor via
  :class:`~repro.exec.journal.JournalTail`, per-route metrics through
  :mod:`repro.obs`;
* :mod:`repro.service.client` — a stdlib client (and ``python -m
  repro.service.client``) used by the tests, the CI service and
  distributed jobs, the throughput benchmark and the cluster
  coordinator.

See ``docs/SERVICE.md`` for the API reference and a walkthrough.
"""

from repro.service.client import (
    ServiceClient,
    ServiceError,
    ServiceUnreachable,
)
from repro.service.manager import (
    Busy,
    Job,
    JobManager,
    QueueFull,
    QuotaExceeded,
)
from repro.service.server import ServerHandle, ServiceServer, \
    start_in_background

__all__ = [
    "Busy",
    "Job",
    "JobManager",
    "QueueFull",
    "QuotaExceeded",
    "ServerHandle",
    "ServiceClient",
    "ServiceError",
    "ServiceUnreachable",
    "ServiceServer",
    "start_in_background",
]
