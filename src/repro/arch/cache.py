"""Per-processor data caches with four-way miss classification.

The paper's cache unit is direct-mapped with a one-cycle hit; §4.1 suggests
set associativity as the fix for the Patch thrashing anomaly, so both
organizations are provided behind one interface.

Classification (§3.2) requires knowing, for every block that ever lived in
the cache, *why it left*:

* never resident before → **compulsory**;
* removed by a coherence invalidation → **invalidation** miss;
* evicted by a mapping conflict → **conflict** miss, *intra*-thread if the
  evicting reference came from the same thread as the missing one and
  *inter*-thread otherwise (the multithreading interference the paper is
  about).

With the §4.3 "infinite" cache no eviction ever happens, so only the first
two kinds remain — exactly the property the infinite-cache experiment
relies on.

Tag stores are sized to the block range the run can touch
(:func:`tag_lines`), not to the configured set count: the §4.3
"infinite" cache has 2M sets while no workload references more than a
few thousand blocks.  The sizing is exact — see :func:`tag_lines`.
"""

from __future__ import annotations

from repro.arch.config import ArchConfig
from repro.arch.stats import CacheStats, MissKind

__all__ = ["ArrayDirectMappedCache", "SetAssociativeCache", "make_cache",
           "max_block_of", "tag_lines"]

#: Departure-record codes for the array-backed classifier.
_NONE, _EVICTED, _INVALIDATED = 0, 1, 2


def max_block_of(trace_set, block_bits: int) -> int:
    """Largest block number any thread references (sizes the tag stores
    and the direct-mapped cache's per-block classification arrays).  Memoized per
    trace, so repeated simulate calls pay dict lookups only."""
    top = 0
    key = ("max_block", block_bits)
    for trace in trace_set:
        if trace.num_refs:
            cache = trace._replay_cache
            if cache is None:
                cache = trace._replay_cache = {}
            got = cache.get(key)
            if got is None:
                got = cache[key] = int(trace.addrs.max()) >> block_bits
            if got > top:
                top = got
    return top


def tag_lines(num_sets: int, max_block: int | None) -> int:
    """Sets a tag store needs when no block exceeds ``max_block``.

    ``num_sets`` when the blocks cover it (or the range is unknown), else
    the smallest power of two above ``max_block``.  Exact: every block
    ``b <= max_block < lines <= num_sets`` has
    ``b & (lines - 1) == b == b & (num_sets - 1)``, so each block maps to
    the same set it would in the full-size store, and the sets past
    ``lines`` could never be touched.
    """
    if max_block is None or max_block + 1 >= num_sets:
        return num_sets
    return 1 << max_block.bit_length()


class ArrayDirectMappedCache:
    """Direct-mapped cache (the paper's configuration), array-backed.

    One block per set; the set index is the low bits of the block number.
    The tag store is a flat list indexed by set, sized to the block range
    (:func:`tag_lines` — exact, and it keeps §4.3's 2M-set "infinite"
    cache as small as the blocks it can hold); the classification state
    (first-touch flags plus the one departure record each block can have)
    is flat lists indexed by block number — the workloads' word-granular
    address spaces are small, so O(num_blocks) arrays beat hashing on
    every miss.  The lists are plain Python, not ndarrays: the replay
    kernel indexes them elementwise, where list access is severalfold
    faster than numpy scalar access.
    """

    def __init__(self, config: ArchConfig, max_block: int) -> None:
        if config.associativity != 1:
            raise ValueError("ArrayDirectMappedCache requires associativity 1")
        self.num_sets = config.num_sets
        lines = tag_lines(self.num_sets, max_block)
        self._mask = lines - 1
        self._tags = [-1] * lines
        size = max_block + 1
        self._seen = [False] * size
        self._departure = [_NONE] * size
        self._actor = [0] * size
        self.stats = CacheStats()

    def contains(self, block: int) -> bool:
        """Whether the block is currently resident."""
        return self._tags[block & self._mask] == block

    def access(
        self, block: int, thread_id: int
    ) -> tuple[MissKind | None, int | None, int | None]:
        """One reference to ``block`` by ``thread_id``.

        Returns ``(miss_kind, evicted_block, invalidator)``:
        ``(None, None, None)`` on a hit; on a miss, the classified kind,
        the block evicted to make room (``None`` when the line was empty),
        and — for invalidation misses — the processor whose write
        invalidated the block.
        """
        index = block & self._mask
        tags = self._tags
        if tags[index] == block:
            self.stats.hits += 1
            return None, None, None

        # Miss: classify from the block's departure record.
        invalidator: int | None = None
        if not self._seen[block]:
            kind = MissKind.COMPULSORY
            self._seen[block] = True
        elif self._departure[block] == _INVALIDATED:
            invalidator = self._actor[block]
            self._departure[block] = _NONE
            kind = MissKind.INVALIDATION
        else:
            evictor = (
                self._actor[block]
                if self._departure[block] == _EVICTED
                else thread_id
            )
            self._departure[block] = _NONE
            kind = (
                MissKind.INTRA_THREAD_CONFLICT
                if evictor == thread_id
                else MissKind.INTER_THREAD_CONFLICT
            )
        self.stats.record_miss(kind)

        evicted = tags[index]
        if evicted != -1:
            self._departure[evicted] = _EVICTED
            self._actor[evicted] = thread_id
        tags[index] = block
        return kind, (evicted if evicted != -1 else None), invalidator

    def invalidate(self, block: int, by_processor: int) -> bool:
        """Coherence invalidation; True if the block was resident."""
        index = block & self._mask
        if self._tags[index] != block:
            return False
        self._tags[index] = -1
        self._departure[block] = _INVALIDATED
        self._actor[block] = by_processor
        return True

    def resident_blocks(self) -> set[int]:
        """All blocks currently resident (for invariant checks)."""
        blocks = set(self._tags)
        blocks.discard(-1)
        return blocks


class SetAssociativeCache:
    """LRU set-associative cache (the §4.1 extension).  ``max_block``
    bounds the tag store as in :class:`ArrayDirectMappedCache`."""

    def __init__(self, config: ArchConfig,
                 max_block: int | None = None) -> None:
        self.num_sets = config.num_sets
        self.ways = config.associativity
        lines = tag_lines(self.num_sets, max_block)
        self._mask = lines - 1
        # Per set: list of resident block numbers, MRU first.  (The
        # classifier needs the *evicting* thread, recorded in
        # ``_evicted_by`` at eviction time — no per-line thread slot.)
        self._sets: list[list[int]] = [[] for _ in range(lines)]
        self._seen: set[int] = set()
        self._invalidated_by: dict[int, int] = {}
        self._evicted_by: dict[int, int] = {}
        self.stats = CacheStats()

    def contains(self, block: int) -> bool:
        """Whether the block is currently resident."""
        return block in self._sets[block & self._mask]

    def access(
        self, block: int, thread_id: int
    ) -> tuple[MissKind | None, int | None, int | None]:
        """One reference; see :meth:`ArrayDirectMappedCache.access`."""
        lines = self._sets[block & self._mask]
        for position, resident in enumerate(lines):
            if resident == block:
                # LRU update: move to MRU position.
                lines.insert(0, lines.pop(position))
                self.stats.hits += 1
                return None, None, None

        invalidator: int | None = None
        if block not in self._seen:
            kind = MissKind.COMPULSORY
            self._seen.add(block)
        elif block in self._invalidated_by:
            invalidator = self._invalidated_by.pop(block)
            kind = MissKind.INVALIDATION
        else:
            evictor = self._evicted_by.pop(block, thread_id)
            kind = (
                MissKind.INTRA_THREAD_CONFLICT
                if evictor == thread_id
                else MissKind.INTER_THREAD_CONFLICT
            )
        self.stats.record_miss(kind)

        evicted = None
        if len(lines) >= self.ways:
            evicted = lines.pop()
            self._evicted_by[evicted] = thread_id
        lines.insert(0, block)
        return kind, evicted, invalidator

    def invalidate(self, block: int, by_processor: int) -> bool:
        """Coherence invalidation; True if the block was resident."""
        lines = self._sets[block & self._mask]
        for position, resident in enumerate(lines):
            if resident == block:
                lines.pop(position)
                self._invalidated_by[block] = by_processor
                return True
        return False

    def resident_blocks(self) -> set[int]:
        """All blocks currently resident (for invariant checks)."""
        return {b for lines in self._sets for b in lines}


def make_cache(config: ArchConfig, max_block: int):
    """Cache of the organization the configuration asks for, its tag
    store sized to blocks ``<= max_block``: array-backed when
    direct-mapped, LRU otherwise (the replay kernel works with both)."""
    if config.associativity == 1:
        return ArrayDirectMappedCache(config, max_block)
    return SetAssociativeCache(config, max_block)
