"""The partition directory: versioned, atomically-written shard→node map.

The directory is the cluster's single piece of coordination state: which
node owns which shard, and how many times ownership has changed.  It is
deliberately tiny — a JSON document (``repro-shards/v1``) written with
the same tmp→fsync→rename discipline every other artifact in this repo
uses (:func:`repro.util.atomicio.atomic_write_text`), so a reader always
sees either the previous complete map or the next complete map, never a
half-written one, even if the coordinator dies mid-rebalance.

Every mutation bumps ``version``.  Journal events and dispatch batches
carry the version they were routed under, so after a rebalance the
coordinator can tell stale attribution from current attribution without
any clocks or consensus: the directory is written by exactly one
coordinator, and nodes never read it (they execute whatever cells they
are handed — ownership is purely a routing concern).

Schema::

    {
      "schema": "repro-shards/v1",
      "version": 3,
      "num_shards": 64,
      "replicas": 64,
      "nodes": ["127.0.0.1:8301", "127.0.0.1:8302"],
      "owners": {"0": "127.0.0.1:8302", "1": "127.0.0.1:8301", ...}
    }
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.dist.ring import (DEFAULT_NUM_SHARDS, DEFAULT_REPLICAS,
                             assign_shards, shard_of)
from repro.util.atomicio import atomic_write_text

__all__ = ["PartitionDirectory", "SCHEMA"]

SCHEMA = "repro-shards/v1"


class PartitionDirectory:
    """Versioned shard→node ownership, durably mirrored to one JSON file.

    Args:
        path: Where the map is persisted, or None for in-memory only
            (unit tests).
        num_shards: Fixed shard count; immutable for the directory's
            lifetime (cells hash to shards independently of the node
            set, so this never needs to change mid-run).
        replicas: Virtual ring points per node (see
            :mod:`repro.dist.ring`).
    """

    def __init__(self, path: str | Path | None = None, *,
                 num_shards: int = DEFAULT_NUM_SHARDS,
                 replicas: int = DEFAULT_REPLICAS) -> None:
        self.path = Path(path) if path is not None else None
        self.num_shards = num_shards
        self.replicas = replicas
        self.version = 0
        self.nodes: list[str] = []
        self.owners: dict[int, str] = {}

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    @classmethod
    def load(cls, path: str | Path) -> "PartitionDirectory":
        """Read a persisted directory back (e.g. for ``repro-stats``)."""
        path = Path(path)
        doc = json.loads(path.read_text(encoding="utf-8"))
        schema = doc.get("schema")
        if schema != SCHEMA:
            raise ValueError(
                f"{path}: expected schema {SCHEMA!r}, got {schema!r}")
        directory = cls(path, num_shards=int(doc["num_shards"]),
                        replicas=int(doc.get("replicas", DEFAULT_REPLICAS)))
        directory.version = int(doc["version"])
        directory.nodes = list(doc["nodes"])
        directory.owners = {int(s): n for s, n in doc["owners"].items()}
        return directory

    def save(self) -> None:
        """Atomically rewrite the directory file (no-op without a path)."""
        if self.path is None:
            return
        doc = {
            "schema": SCHEMA,
            "version": self.version,
            "num_shards": self.num_shards,
            "replicas": self.replicas,
            "nodes": self.nodes,
            "owners": {str(s): n for s, n in sorted(self.owners.items())},
        }
        atomic_write_text(self.path, json.dumps(doc, indent=2,
                                                sort_keys=True) + "\n",
                          fault_site=None)

    # ------------------------------------------------------------------
    # Ownership
    # ------------------------------------------------------------------

    def owner_of(self, job_id: str) -> str:
        """The node owning a content-addressed job id."""
        if not self.owners:
            raise RuntimeError("partition directory has no nodes")
        return self.owners[shard_of(job_id, self.num_shards)]

    def shards_of(self, node: str) -> list[int]:
        """The shards a node currently owns (sorted)."""
        return sorted(s for s, n in self.owners.items() if n == node)

    def rebalance(self, nodes: list[str] | set[str]) -> dict[int, str]:
        """Recompute ownership for a new node set; returns moved shards.

        The return value maps each shard that *changed hands* to its new
        owner — the rebalancer uses it to re-route only the cells whose
        shard actually moved.  Bumps ``version`` and persists, even when
        nothing moved (a join that takes no shards is still a membership
        change worth recording).
        """
        new_nodes = sorted(set(nodes))
        if not new_nodes:
            raise ValueError("cannot rebalance to an empty node set")
        new_owners = assign_shards(new_nodes, self.num_shards,
                                   replicas=self.replicas)
        moved = {
            shard: owner
            for shard, owner in new_owners.items()
            if self.owners.get(shard) != owner
        }
        self.nodes = new_nodes
        self.owners = new_owners
        self.version += 1
        self.save()
        return moved
