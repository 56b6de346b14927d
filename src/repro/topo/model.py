"""The machine-topology model: processor groups with tiered latency.

A :class:`Topology` partitions the machine's processors into equal-sized
contiguous *groups* (NUMA nodes / clusters) and assigns one remote-access
latency per tier: ``local_latency`` for a transaction that stays inside a
group, ``remote_latency`` for one that crosses groups.  The flat machine
of the paper is the one-group special case where both tiers collapse to
Table 3's single memory latency.

Where the tiers apply (the rules the kernel and the oracle implement;
the exactness argument is in ``docs/TOPOLOGY.md``):

* a **miss sourced from another cache** (the directory's ``fetch``
  returns the source processor) stalls the issuing context for the tier
  latency of the (requester, source) processor pair;
* a **miss sourced from memory** (no cached copy anywhere) stalls for
  the tier latency of the block's *home* group — memory is distributed
  round-robin by block number (``home_group(block) = block % groups``),
  the standard interleaved-memory NUMA model;
* a **stalling write upgrade** (``write_upgrade_stalls`` mode) waits for
  the farthest copy it invalidated — the max tier latency over the
  invalidated holders.

Every latency is a pure function of ``(requester, source-or-block)``, so
the model stays deterministic and trivially auditable by the reference
interpreter.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Topology", "parse_topology", "canonical_topology"]


@dataclass(frozen=True)
class Topology:
    """Processor groups plus per-tier remote-access latency (in cycles).

    Attributes:
        groups: Number of equal-sized contiguous processor groups; must
            divide the machine's processor count.  ``1`` is the flat
            machine.
        local_latency: Latency of a remote transaction that stays inside
            one group (cache-to-cache within the group, or a fetch from
            the group's own memory).
        remote_latency: Latency of a transaction that crosses groups.
    """

    groups: int = 1
    local_latency: int = 50
    remote_latency: int = 50

    def __post_init__(self) -> None:
        if self.groups < 1:
            raise ValueError(f"groups must be >= 1, got {self.groups}")
        if self.local_latency < 1:
            raise ValueError(
                f"local_latency must be >= 1, got {self.local_latency}"
            )
        if self.remote_latency < 1:
            raise ValueError(
                f"remote_latency must be >= 1, got {self.remote_latency}"
            )

    # -- constructors ---------------------------------------------------

    @classmethod
    def flat(cls, latency: int = 50) -> "Topology":
        """The paper's machine: one group, one uniform latency."""
        return cls(groups=1, local_latency=latency, remote_latency=latency)

    @classmethod
    def numa(cls, groups: int, local: int = 50, remote: int = 150) -> "Topology":
        """A NUMA machine: ``groups`` nodes, cheap local / dear remote."""
        return cls(groups=groups, local_latency=local, remote_latency=remote)

    # -- structure ------------------------------------------------------

    @property
    def uniform(self) -> bool:
        """True when every transaction costs the same latency — the flat
        fast path: the kernel skips the per-pair lookup entirely."""
        return self.groups == 1 or self.local_latency == self.remote_latency

    @property
    def spec(self) -> str:
        """Canonical parseable spelling (``flat:50``, ``numa:4:50:150``)."""
        if self.groups == 1:
            return f"flat:{self.local_latency}"
        return f"numa:{self.groups}:{self.local_latency}:{self.remote_latency}"

    def validate_for(self, num_processors: int) -> None:
        """Reject group counts the machine cannot be partitioned into."""
        if num_processors % self.groups != 0:
            raise ValueError(
                f"topology has {self.groups} groups, which does not divide "
                f"{num_processors} processors into equal groups"
            )

    def group_size(self, num_processors: int) -> int:
        """Processors per group."""
        self.validate_for(num_processors)
        return num_processors // self.groups

    def group_of(self, pid: int, num_processors: int) -> int:
        """Group of a processor (groups are contiguous pid ranges)."""
        return pid // self.group_size(num_processors)

    def home_group(self, block: int) -> int:
        """Home group of a memory block (round-robin interleaving)."""
        return block % self.groups

    # -- latency tables -------------------------------------------------

    def pair_latency(self, pid: int, source: int, num_processors: int) -> int:
        """Tier latency of a transaction between two processors."""
        size = self.group_size(num_processors)
        return (
            self.local_latency
            if pid // size == source // size
            else self.remote_latency
        )

    def latency_rows(self, num_processors: int) -> list[list[int]]:
        """Per-processor latency lookup rows: ``rows[pid][source]``.

        Built once per simulation; the kernels then pay one list index
        per miss.  Plain Python lists — the hot loops index elementwise,
        where lists beat numpy scalar access.
        """
        size = self.group_size(num_processors)
        return [
            [
                self.local_latency if pid // size == src // size
                else self.remote_latency
                for src in range(num_processors)
            ]
            for pid in range(num_processors)
        ]

    def memory_latency_row(self, pid: int, num_processors: int) -> list[int]:
        """Per-home-group memory-fetch latencies for one processor:
        ``row[block % groups]`` is the stall of a memory-sourced miss."""
        my_group = self.group_of(pid, num_processors)
        return [
            self.local_latency if home == my_group else self.remote_latency
            for home in range(self.groups)
        ]


def parse_topology(spec: str) -> Topology:
    """Parse a topology spec string.

    Accepted forms: ``flat`` / ``flat:<latency>`` and
    ``numa:<groups>:<local>:<remote>``.  The inverse of
    :attr:`Topology.spec`.
    """
    parts = spec.strip().lower().split(":")
    kind = parts[0]
    try:
        if kind == "flat" and len(parts) in (1, 2):
            latency = int(parts[1]) if len(parts) == 2 else 50
            return Topology.flat(latency)
        if kind == "numa" and len(parts) == 4:
            return Topology.numa(int(parts[1]), int(parts[2]), int(parts[3]))
    except ValueError as exc:
        raise ValueError(f"bad topology spec {spec!r}: {exc}") from exc
    raise ValueError(
        f"bad topology spec {spec!r}: expected 'flat[:latency]' or "
        f"'numa:<groups>:<local>:<remote>'"
    )


def canonical_topology(
    topology: "Topology | str | None", memory_latency: int = 50
) -> Topology | None:
    """Canonicalize a topology against the baseline flat machine.

    A topology whose every transaction costs exactly ``memory_latency``
    *is* the baseline machine; canonicalizing it to ``None`` keeps every
    flat artifact — configs, store keys, request digests, reports —
    bit-identical to the pre-topology baseline (equivalent machines
    share one name).
    """
    if topology is None:
        return None
    if isinstance(topology, str):
        topology = parse_topology(topology)
    if topology.uniform and topology.local_latency == memory_latency:
        return None
    return topology
