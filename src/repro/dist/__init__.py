"""Sharded distributed grid execution: coordinator, nodes, rebalancing.

The single-machine engine (:mod:`repro.exec`) completes a planned grid
of content-addressed cells on one host.  This package scales the same
grid across a cluster of worker *nodes* while holding the robustness
bar every prior layer enforced: **a chaos-faulted, node-killed,
rebalanced, resumed distributed run renders a report byte-identical to
the sequential single-machine baseline.**

The moving parts:

* :mod:`repro.dist.ring` — the consistent-hash ring mapping the cells'
  existing SHA-256 content addresses onto shards, and shards onto
  nodes, with minimal movement when the node set changes.
* :mod:`repro.dist.directory` — the partition directory: the versioned,
  atomically-written record of shard→node ownership.
* :mod:`repro.dist.coordinator` — the router/merger: plans cells,
  routes each to its owning node, merges every node's journal stream
  into one convergent run journal, watches node liveness, rebalances
  and re-routes when a node dies, and renders the final report from
  the shared store.

The nodes are ``repro-serve`` processes: every service accepts cell
batches (``POST /v1/cells``), runs them through the ordinary
:class:`~repro.exec.engine.ExecutionEngine` against the shared result
store and streams its journal back (:mod:`repro.service`).  A cluster's
front door is a ``repro-serve --nodes …`` whose jobs run through
:func:`~repro.dist.coordinator.run_distributed`, and the coordinator
talks to nodes with the service's own
:class:`~repro.service.client.ServiceClient`.

Results never travel over HTTP: nodes write them into the shared
content-addressed :class:`~repro.experiments.cache.ResultStore`
(verified, atomic, crash-safe — see ``docs/ROBUSTNESS.md``), so the
control plane carries only dispatch and journal events and every
transfer is idempotent.  See ``docs/DISTRIBUTION.md`` for the topology,
the failure matrix and the byte-identity argument.
"""

from repro.dist.coordinator import (
    ClusterResult,
    DistributedCoordinator,
    run_distributed,
)
from repro.dist.directory import PartitionDirectory
from repro.dist.ring import DEFAULT_NUM_SHARDS, HashRing, shard_of

__all__ = [
    "ClusterResult",
    "DEFAULT_NUM_SHARDS",
    "DistributedCoordinator",
    "HashRing",
    "PartitionDirectory",
    "run_distributed",
    "shard_of",
]
