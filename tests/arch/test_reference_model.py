"""Differential testing: the caches against brute-force reference models.

The production caches use incremental state (departure records, LRU
shuffles); these tests replay random access sequences through deliberately
naive reference implementations that recompute everything from the full
history, and require exact agreement on every classification.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.arch.cache import ArrayDirectMappedCache, SetAssociativeCache
from repro.arch.config import ArchConfig
from repro.arch.stats import MissKind

#: Bound on every block :func:`operation_sequences` draws (sizes the
#: direct-mapped cache's per-block classification arrays).
MAX_BLOCK = 40


class ReferenceCache:
    """History-based reference model of an LRU set-associative cache.

    Classification is recomputed from the full access/invalidate history:

    * first touch of a block -> compulsory;
    * block's last departure was an invalidation -> invalidation miss;
    * otherwise -> conflict, intra/inter by the thread whose access
      evicted it.
    """

    def __init__(self, num_sets: int, ways: int) -> None:
        self.num_sets = num_sets
        self.ways = ways
        # Per set: list of blocks, MRU first.
        self.sets: dict[int, list[int]] = {s: [] for s in range(num_sets)}
        self.ever_seen: set[int] = set()
        self.departure: dict[int, tuple[str, int]] = {}  # block -> (kind, actor)

    def access(self, block: int, thread: int) -> MissKind | None:
        index = block % self.num_sets
        lines = self.sets[index]
        if block in lines:
            lines.remove(block)
            lines.insert(0, block)
            return None
        if block not in self.ever_seen:
            kind = MissKind.COMPULSORY
        else:
            how, actor = self.departure[block]
            if how == "invalidated":
                kind = MissKind.INVALIDATION
            elif actor == thread:
                kind = MissKind.INTRA_THREAD_CONFLICT
            else:
                kind = MissKind.INTER_THREAD_CONFLICT
        self.ever_seen.add(block)
        if len(lines) >= self.ways:
            victim = lines.pop()
            self.departure[victim] = ("evicted", thread)
        lines.insert(0, block)
        return kind

    def invalidate(self, block: int, by_processor: int) -> bool:
        index = block % self.num_sets
        if block in self.sets[index]:
            self.sets[index].remove(block)
            self.departure[block] = ("invalidated", by_processor)
            return True
        return False


@st.composite
def operation_sequences(draw):
    """Random interleavings of accesses and invalidations."""
    n = draw(st.integers(min_value=1, max_value=400))
    ops = []
    for _ in range(n):
        if draw(st.booleans()) or draw(st.booleans()):  # ~75% accesses
            ops.append(("access", draw(st.integers(0, 40)),
                        draw(st.integers(0, 3))))
        else:
            ops.append(("invalidate", draw(st.integers(0, 40)),
                        draw(st.integers(0, 3))))
    return ops


class TestDifferentialDirectMapped:
    @settings(max_examples=80, deadline=None)
    @given(operation_sequences(), st.sampled_from([8, 16, 32]))
    def test_matches_reference(self, ops, sets):
        config = ArchConfig(1, 1, cache_words=sets * 4, block_words=4)
        production = ArrayDirectMappedCache(config, MAX_BLOCK)
        reference = ReferenceCache(num_sets=sets, ways=1)
        for op, block, actor in ops:
            if op == "access":
                expected = reference.access(block, actor)
                got, _, _ = production.access(block, actor)
                assert got == expected, (op, block, actor)
            else:
                expected = reference.invalidate(block, actor)
                got = production.invalidate(block, by_processor=actor)
                assert got == expected, (op, block, actor)


class TestDifferentialSetAssociative:
    @settings(max_examples=80, deadline=None)
    @given(operation_sequences(), st.sampled_from([4, 8]), st.sampled_from([2, 4]))
    def test_matches_reference(self, ops, sets, ways):
        config = ArchConfig(
            1, 1, cache_words=sets * ways * 4, block_words=4, associativity=ways
        )
        production = SetAssociativeCache(config)
        reference = ReferenceCache(num_sets=sets, ways=ways)
        for op, block, actor in ops:
            if op == "access":
                expected = reference.access(block, actor)
                got, _, _ = production.access(block, actor)
                assert got == expected, (op, block, actor)
            else:
                expected = reference.invalidate(block, actor)
                got = production.invalidate(block, by_processor=actor)
                assert got == expected, (op, block, actor)


class TestDifferentialResidency:
    @settings(max_examples=40, deadline=None)
    @given(operation_sequences())
    def test_resident_sets_match(self, ops):
        config = ArchConfig(1, 1, cache_words=64, block_words=4)
        production = ArrayDirectMappedCache(config, MAX_BLOCK)
        reference = ReferenceCache(num_sets=16, ways=1)
        for op, block, actor in ops:
            if op == "access":
                production.access(block, actor)
                reference.access(block, actor)
            else:
                production.invalidate(block, by_processor=actor)
                reference.invalidate(block, by_processor=actor)
        resident_reference = {
            b for lines in reference.sets.values() for b in lines
        }
        assert production.resident_blocks() == resident_reference
