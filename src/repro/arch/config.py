"""Architectural configuration (the paper's Table 3).

Table 3 lists the simulator's inputs: number of processors, hardware
contexts per processor, context-switch policy (round-robin) and cost
(6 cycles, the pipeline drain), cache size and geometry (direct-mapped,
1-cycle hits), and the interconnect latency (50 cycles, "approximating the
average memory latency of a moderately-loaded Alewife-style multiprocessor"
with no explicit contention modelling).

Addresses are word-granular throughout the reproduction; sizes here are in
words (4 bytes each at the paper's scale).  ``INFINITE_CACHE_WORDS``
reproduces §4.3's "effectively infinite" 8 MB cache: large enough that no
application suffers a single capacity or conflict miss.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.topo.model import Topology
from repro.util.validate import check_positive, check_power_of_two

__all__ = ["ArchConfig"]


@dataclass(frozen=True)
class ArchConfig:
    """Complete architectural description consumed by the simulator.

    Attributes:
        num_processors: Processors in the machine (Table 3: 2-16).
        contexts_per_processor: Hardware contexts per processor; each holds
            one thread for the whole run (Table 3: 1-64).
        cache_words: Per-processor data-cache capacity in words.
        block_words: Cache block size in words (power of two).  The
            reproduction's default is 4 words — chosen with the scaled
            workloads so that footprints span enough blocks for conflict
            behaviour to be statistical rather than a lottery over a
            handful of very hot blocks.
        associativity: Ways per set; 1 is the paper's direct-mapped cache,
            larger values are the §4.1 thrashing remedy ("Set associative
            caching would address this problem").
        hit_cycles: Cache hit time (Table 3: 1 cycle).
        memory_latency_cycles: Remote access latency (Table 3: 50 cycles).
        context_switch_cycles: Pipeline-drain cost of a switch (6 cycles).
        write_upgrade_stalls: If True, a write hit that must invalidate
            remote copies stalls the context for the memory latency (a
            sequentially-consistent machine without a write buffer); the
            paper's baseline is False — writes retire into an
            Alewife-style write buffer and only *misses* trigger context
            switches.  Exposed as an ablation of that assumption.
        topology: Optional :class:`~repro.topo.model.Topology` replacing
            the single ``memory_latency_cycles`` with per-tier latencies
            (group-local vs cross-group; see ``docs/TOPOLOGY.md``).
            ``None`` — the default, and what every pre-topology config
            pickles/compares as — is the paper's flat machine: every
            remote operation costs ``memory_latency_cycles``.  A set
            topology *overrides* ``memory_latency_cycles`` for every
            miss and upgrade stall.
    """

    num_processors: int
    contexts_per_processor: int
    cache_words: int = 1024
    block_words: int = 4
    associativity: int = 1
    hit_cycles: int = 1
    memory_latency_cycles: int = 50
    context_switch_cycles: int = 6
    write_upgrade_stalls: bool = False
    topology: Topology | None = None

    #: §4.3's "effectively infinite" cache: 8 MB = 2M words.
    INFINITE_CACHE_WORDS: int = 1 << 21

    def __post_init__(self) -> None:
        check_positive("num_processors", self.num_processors)
        check_positive("contexts_per_processor", self.contexts_per_processor)
        check_positive("cache_words", self.cache_words)
        check_power_of_two("block_words", self.block_words)
        check_positive("associativity", self.associativity)
        check_positive("hit_cycles", self.hit_cycles)
        check_positive("memory_latency_cycles", self.memory_latency_cycles)
        check_positive("context_switch_cycles", self.context_switch_cycles, allow_zero=True)
        if self.cache_words % (self.block_words * self.associativity) != 0:
            raise ValueError(
                f"cache_words={self.cache_words} is not a whole number of "
                f"{self.associativity}-way sets of {self.block_words}-word blocks"
            )
        check_power_of_two("num_sets", self.num_sets)
        if self.topology is not None:
            self.topology.validate_for(self.num_processors)

    @property
    def num_sets(self) -> int:
        """Cache sets; a power of two so indexing is a mask."""
        return self.cache_words // (self.block_words * self.associativity)

    @property
    def block_bits(self) -> int:
        """Shift that converts a word address to a block number."""
        return self.block_words.bit_length() - 1

    @property
    def max_threads(self) -> int:
        """Threads the machine can hold (one per hardware context)."""
        return self.num_processors * self.contexts_per_processor

    @property
    def tiered(self) -> bool:
        """True when miss latency varies by processor-pair tier.

        A ``None`` topology and a uniform one both take the kernel's
        constant-latency fast path — the flat machine stays bit-identical
        to the pre-topology baseline by construction.
        """
        return self.topology is not None and not self.topology.uniform

    @property
    def flat_miss_latency(self) -> int:
        """The single miss latency when the machine is not tiered: the
        topology's uniform latency if one is set, else Table 3's value."""
        if self.topology is not None:
            return self.topology.local_latency
        return self.memory_latency_cycles

    def with_cache_words(self, cache_words: int) -> "ArchConfig":
        """Copy of this configuration with a different cache size."""
        return ArchConfig(
            num_processors=self.num_processors,
            contexts_per_processor=self.contexts_per_processor,
            cache_words=cache_words,
            block_words=self.block_words,
            associativity=self.associativity,
            hit_cycles=self.hit_cycles,
            memory_latency_cycles=self.memory_latency_cycles,
            context_switch_cycles=self.context_switch_cycles,
            write_upgrade_stalls=self.write_upgrade_stalls,
            topology=self.topology,
        )

    def with_memory_latency(self, memory_latency_cycles: int) -> "ArchConfig":
        """Copy of this configuration with a different remote latency."""
        return ArchConfig(
            num_processors=self.num_processors,
            contexts_per_processor=self.contexts_per_processor,
            cache_words=self.cache_words,
            block_words=self.block_words,
            associativity=self.associativity,
            hit_cycles=self.hit_cycles,
            memory_latency_cycles=memory_latency_cycles,
            context_switch_cycles=self.context_switch_cycles,
            write_upgrade_stalls=self.write_upgrade_stalls,
            topology=self.topology,
        )

    def with_topology(self, topology: Topology | None) -> "ArchConfig":
        """Copy of this configuration on a different machine topology."""
        return ArchConfig(
            num_processors=self.num_processors,
            contexts_per_processor=self.contexts_per_processor,
            cache_words=self.cache_words,
            block_words=self.block_words,
            associativity=self.associativity,
            hit_cycles=self.hit_cycles,
            memory_latency_cycles=self.memory_latency_cycles,
            context_switch_cycles=self.context_switch_cycles,
            write_upgrade_stalls=self.write_upgrade_stalls,
            topology=topology,
        )

    def describe(self) -> list[tuple[str, str]]:
        """Human-readable (parameter, value) rows — the Table 3 content.

        The topology row appears only when a topology is explicitly set,
        so baseline (``topology=None``) reports render byte-identically
        to the pre-topology suite.
        """
        rows = self._describe_flat()
        if self.topology is not None:
            topo = self.topology
            rows.append((
                "Topology",
                f"{topo.groups} group(s), local {topo.local_latency} / "
                f"remote {topo.remote_latency} cycles",
            ))
        return rows

    def _describe_flat(self) -> list[tuple[str, str]]:
        return [
            ("Number of processors", str(self.num_processors)),
            ("Hardware contexts per processor", str(self.contexts_per_processor)),
            ("Context switch policy", "round-robin"),
            ("Context switch cost", f"{self.context_switch_cycles} cycles"),
            ("Cache size", f"{self.cache_words} words"),
            ("Cache organization",
             "direct-mapped" if self.associativity == 1
             else f"{self.associativity}-way set associative"),
            ("Cache block size", f"{self.block_words} words"),
            ("Cache hit time", f"{self.hit_cycles} cycle"),
            ("Memory latency", f"{self.memory_latency_cycles} cycles"),
            ("Coherence", "distributed directory, write-invalidate"),
            ("Network", "multipath, contention-free"),
        ]
