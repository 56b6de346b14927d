"""Tests for the caches and the four-way miss classification."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.arch.cache import (
    ArrayDirectMappedCache,
    SetAssociativeCache,
    make_cache,
)
from repro.arch.config import ArchConfig
from repro.arch.stats import MissKind


#: Bound on every block these tests touch (sizes the direct-mapped
#: cache's per-block classification arrays).
MAX_BLOCK = 511


def dm_cache(cache_words=64, block_words=8):
    return ArrayDirectMappedCache(
        ArchConfig(1, 1, cache_words=cache_words, block_words=block_words),
        MAX_BLOCK,
    )


def sa_cache(cache_words=64, block_words=8, ways=2):
    return SetAssociativeCache(
        ArchConfig(1, 1, cache_words=cache_words, block_words=block_words,
                   associativity=ways)
    )


class TestMakeCache:
    def test_direct_mapped_for_one_way(self):
        cfg = ArchConfig(1, 1, cache_words=64)
        assert isinstance(make_cache(cfg, MAX_BLOCK), ArrayDirectMappedCache)

    def test_set_associative_otherwise(self):
        cfg = ArchConfig(1, 1, cache_words=64, associativity=2)
        assert isinstance(make_cache(cfg, MAX_BLOCK), SetAssociativeCache)

    def test_direct_mapped_rejects_assoc_config(self):
        cfg = ArchConfig(1, 1, cache_words=64, associativity=2)
        with pytest.raises(ValueError):
            ArrayDirectMappedCache(cfg, MAX_BLOCK)


class TestClassification:
    def test_first_access_compulsory(self):
        cache = dm_cache()
        kind, evicted, inv = cache.access(5, thread_id=0)
        assert kind is MissKind.COMPULSORY
        assert evicted is None
        assert inv is None

    def test_second_access_hits(self):
        cache = dm_cache()
        cache.access(5, 0)
        assert cache.access(5, 0) == (None, None, None)
        assert cache.stats.hits == 1

    def test_conflict_intra_thread(self):
        cache = dm_cache()  # 8 sets
        cache.access(0, 0)
        cache.access(8, 0)  # same set, evicts 0 (thread 0 evicted it)
        kind, evicted, _ = cache.access(0, 0)
        assert kind is MissKind.INTRA_THREAD_CONFLICT
        assert evicted == 8

    def test_conflict_inter_thread(self):
        cache = dm_cache()
        cache.access(0, 0)
        cache.access(8, 1)  # thread 1 evicts thread 0's block
        kind, _, _ = cache.access(0, 0)
        assert kind is MissKind.INTER_THREAD_CONFLICT

    def test_invalidation_miss(self):
        cache = dm_cache()
        cache.access(3, 0)
        assert cache.invalidate(3, by_processor=7)
        kind, _, invalidator = cache.access(3, 0)
        assert kind is MissKind.INVALIDATION
        assert invalidator == 7

    def test_invalidate_absent_block_noop(self):
        cache = dm_cache()
        assert not cache.invalidate(3, by_processor=1)
        kind, _, _ = cache.access(3, 0)
        assert kind is MissKind.COMPULSORY

    def test_eviction_then_refetch_then_invalidation(self):
        cache = dm_cache()
        cache.access(0, 0)
        cache.access(8, 0)           # evicts 0
        cache.access(0, 0)           # intra conflict, refetched
        cache.invalidate(0, by_processor=2)
        kind, _, inv = cache.access(0, 0)
        assert kind is MissKind.INVALIDATION
        assert inv == 2

    def test_evictor_attribution_survives_foreign_hits(self):
        """Classification needs only the *evicting* thread, recorded at
        eviction time — hits by other threads in between must not perturb
        it (pins the removal of the caches' per-line thread slots)."""
        cache = dm_cache()
        cache.access(0, 0)   # thread 0 fills block 0
        cache.access(0, 1)   # foreign hit: no bookkeeping change
        cache.access(8, 0)   # thread 0 evicts block 0
        kind, _, _ = cache.access(0, 1)
        assert kind is MissKind.INTER_THREAD_CONFLICT

    def test_intra_thread_attribution_after_foreign_hit(self):
        cache = dm_cache()
        cache.access(0, 1)
        cache.access(0, 0)   # foreign hit
        cache.access(8, 1)   # thread 1 evicts its own earlier fill
        kind, _, _ = cache.access(0, 1)
        assert kind is MissKind.INTRA_THREAD_CONFLICT

    def test_contains(self):
        cache = dm_cache()
        assert not cache.contains(4)
        cache.access(4, 0)
        assert cache.contains(4)
        cache.access(12, 0)  # 8 sets: 4 and 12 conflict
        assert not cache.contains(4)

    def test_resident_blocks(self):
        cache = dm_cache()
        cache.access(1, 0)
        cache.access(2, 0)
        assert cache.resident_blocks() == {1, 2}


class TestInfiniteCacheProperty:
    def test_no_conflicts_in_huge_cache(self):
        """A cache larger than the footprint shows only compulsory (and
        invalidation) misses — the §4.3 infinite-cache property."""
        cache = dm_cache(cache_words=8192)
        rng = np.random.default_rng(0)
        blocks = rng.integers(0, 500, size=5000)
        for block in blocks:
            cache.access(int(block), thread_id=int(block) % 3)
        misses = cache.stats.misses
        assert misses[MissKind.INTRA_THREAD_CONFLICT] == 0
        assert misses[MissKind.INTER_THREAD_CONFLICT] == 0
        assert misses[MissKind.COMPULSORY] == len(set(blocks.tolist()))


class TestSetAssociative:
    def test_two_way_holds_two_conflicting_blocks(self):
        cache = sa_cache(cache_words=64, ways=2)  # 4 sets
        cache.access(0, 0)
        cache.access(4, 0)  # same set as 0 in a 4-set cache
        assert cache.contains(0)
        assert cache.contains(4)

    def test_lru_eviction(self):
        cache = sa_cache(cache_words=64, ways=2)  # 4 sets
        cache.access(0, 0)
        cache.access(4, 0)
        cache.access(0, 0)       # 0 is now MRU
        cache.access(8, 0)       # evicts LRU = 4
        assert cache.contains(0)
        assert not cache.contains(4)

    def test_classification_matches_direct_mapped_semantics(self):
        cache = sa_cache(cache_words=16, ways=2, block_words=8)  # 1 set, 2 ways
        cache.access(0, 0)
        cache.access(1, 1)
        cache.access(2, 1)  # evicts 0 (LRU), evictor thread 1
        kind, _, _ = cache.access(0, 0)
        assert kind is MissKind.INTER_THREAD_CONFLICT

    def test_invalidation(self):
        cache = sa_cache()
        cache.access(3, 0)
        assert cache.invalidate(3, by_processor=5)
        kind, _, inv = cache.access(3, 0)
        assert kind is MissKind.INVALIDATION
        assert inv == 5

    def test_evictor_attribution_survives_foreign_hits(self):
        """Same pin as the direct-mapped version: the set holds bare block
        ids; the evicting thread is recorded only at eviction time."""
        cache = sa_cache(cache_words=16, ways=2, block_words=8)  # 1 set
        cache.access(0, 0)
        cache.access(1, 0)
        cache.access(1, 1)   # foreign hit keeps 1 most-recently-used
        cache.access(2, 1)   # thread 1 evicts LRU block 0
        kind, _, _ = cache.access(0, 0)
        assert kind is MissKind.INTER_THREAD_CONFLICT

    def test_associativity_reduces_conflicts(self):
        """The §4.1 claim: associativity addresses thrashing."""
        pattern = [0, 4, 0, 4, 0, 4, 0, 4]  # ping-pong on one set (4 sets)
        direct = dm_cache(cache_words=32, block_words=8)  # 4 sets
        assoc = sa_cache(cache_words=32, block_words=8, ways=2)  # 2 sets
        for block in pattern:
            direct.access(block, 0)
            assoc.access(block, 0)
        assert assoc.stats.total_misses < direct.stats.total_misses


class TestAccountingInvariants:
    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 30), st.integers(0, 2)),
            min_size=1,
            max_size=300,
        ),
        st.sampled_from([32, 64, 256]),
        st.sampled_from([1, 2]),
    )
    def test_hits_plus_misses_equals_accesses(self, refs, cache_words, ways):
        cfg = ArchConfig(1, 1, cache_words=cache_words, associativity=ways)
        cache = make_cache(cfg, MAX_BLOCK)
        for block, tid in refs:
            cache.access(block, tid)
        assert cache.stats.total_accesses == len(refs)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 30), st.integers(0, 2)),
            min_size=1,
            max_size=300,
        )
    )
    def test_compulsory_equals_distinct_blocks(self, refs):
        cache = dm_cache(cache_words=32)
        for block, tid in refs:
            cache.access(block, tid)
        distinct = len({block for block, _ in refs})
        assert cache.stats.misses[MissKind.COMPULSORY] == distinct

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.integers(0, 20), min_size=1, max_size=200),
        st.lists(st.integers(0, 20), min_size=0, max_size=50),
    )
    def test_invalidation_misses_bounded_by_invalidations(self, blocks, invs):
        """Every invalidation miss requires a prior successful invalidation."""
        cache = dm_cache(cache_words=64)
        applied = 0
        for i, block in enumerate(blocks):
            cache.access(block, 0)
            if i < len(invs):
                if cache.invalidate(invs[i], by_processor=1):
                    applied += 1
        assert cache.stats.misses[MissKind.INVALIDATION] <= applied
