"""Consistent hashing of content-addressed cells onto worker nodes.

The grid's cells already carry collision-resistant identities: a
:class:`~repro.exec.jobs.JobSpec`'s ``job_id`` is the SHA-256 digest of
its canonical parameters (the same digest the result store files results
under).  Placement therefore needs no new hash of its own — the content
address *is* the hash, and :func:`shard_of` just folds its leading hex
digits into one of ``num_shards`` fixed shards.

Shards, not cells, are the unit of ownership.  A cluster of a few nodes
owning 64 shards rebalances by moving whole shards; the per-cell mapping
never changes, so a cell's shard is stable across runs, node sets and
resumes — exactly the property ``--resume`` and the merged journal rely
on to re-attribute work after a node dies.

Shard→node assignment uses a classic consistent-hash ring
(Karger et al.): each node projects ``replicas`` virtual points onto the
ring (SHA-256 of ``"node#i"``), and a shard belongs to the first node
point at or clockwise-after the shard's own point.  Adding or removing
one node therefore moves only the shards whose arcs that node's points
bounded — O(shards/nodes) — instead of reshuffling everything, which is
what keeps a mid-run rebalance cheap: shards that did not move keep
their dispatched cells untouched.

Everything here is pure and deterministic: same node names, same
assignment, on every host and every run.
"""

from __future__ import annotations

import bisect
import hashlib

__all__ = ["DEFAULT_NUM_SHARDS", "DEFAULT_REPLICAS", "HashRing",
           "assign_shards", "shard_of"]

#: Default shard count.  Comfortably above any realistic node count for
#: this workload (grids are hundreds-to-millions of cells, clusters are
#: a handful of nodes) so ownership stays balanced, while keeping the
#: directory file small and human-readable.
DEFAULT_NUM_SHARDS = 64

#: Virtual points per node on the ring.  More points → smoother balance
#: (the standard deviation of arc length shrinks as 1/sqrt(replicas)).
DEFAULT_REPLICAS = 64


def shard_of(job_id: str, num_shards: int = DEFAULT_NUM_SHARDS) -> int:
    """The shard a content-addressed job id belongs to.

    ``job_id`` is already a uniform SHA-256 hex digest, so its leading
    64 bits reduce to an unbiased shard index.  Raises ``ValueError``
    for ids that are not hex (nothing else should ever reach placement).
    """
    if num_shards <= 0:
        raise ValueError(f"num_shards must be positive, got {num_shards}")
    return int(job_id[:16], 16) % num_shards


def _point(label: str) -> int:
    """A label's position on the ring: its SHA-256, as an integer."""
    return int.from_bytes(
        hashlib.sha256(label.encode("utf-8")).digest()[:8], "big")


class HashRing:
    """A consistent-hash ring over a set of named nodes.

    Args:
        nodes: Node names (any non-empty strings; the coordinator uses
            ``host:port``).  Order does not matter — the ring is a pure
            function of the set.
        replicas: Virtual points per node.
    """

    def __init__(self, nodes: list[str] | tuple[str, ...] | set[str],
                 replicas: int = DEFAULT_REPLICAS) -> None:
        names = sorted(set(nodes))
        if not names:
            raise ValueError("a hash ring needs at least one node")
        if replicas <= 0:
            raise ValueError(f"replicas must be positive, got {replicas}")
        self.nodes = names
        self.replicas = replicas
        points: list[tuple[int, str]] = []
        for name in names:
            for i in range(replicas):
                points.append((_point(f"{name}#{i}"), name))
        # Ties between distinct labels are astronomically unlikely but
        # must still resolve deterministically: sort on (point, name).
        points.sort()
        self._points = [p for p, _ in points]
        self._owners = [n for _, n in points]

    def owner(self, label: str) -> str:
        """The node owning ``label``: first point clockwise from it."""
        return self.owner_of_point(_point(label))

    def owner_of_point(self, point: int) -> str:
        """The node whose virtual point is the first at or after
        ``point`` on the ring (wrapping past the top)."""
        index = bisect.bisect_left(self._points, point)
        if index == len(self._points):  # wrap past the top of the ring
            index = 0
        return self._owners[index]

    def shard_owner(self, shard: int) -> str:
        """The node owning a shard index."""
        return self.owner(f"shard:{shard}")


def assign_shards(nodes: list[str] | tuple[str, ...] | set[str],
                  num_shards: int = DEFAULT_NUM_SHARDS,
                  replicas: int = DEFAULT_REPLICAS) -> dict[int, str]:
    """The full shard→node map for a node set (pure, deterministic)."""
    ring = HashRing(nodes, replicas=replicas)
    return {shard: ring.shard_owner(shard) for shard in range(num_shards)}
