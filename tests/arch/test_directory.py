"""Tests for the full-map write-invalidate directory."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.arch.cache import make_cache
from repro.arch.config import ArchConfig
from repro.arch.directory import Directory
from repro.arch.stats import MissKind

#: Bound on every block these tests touch (sizes the caches' per-block
#: classification arrays).
MAX_BLOCK = 255


def machine(num_procs=3, cache_words=64):
    cfg = ArchConfig(num_procs, 1, cache_words=cache_words)
    caches = [make_cache(cfg, MAX_BLOCK) for _ in range(num_procs)]
    pairwise = np.zeros((num_procs, num_procs), dtype=np.int64)
    return caches, Directory(caches, pairwise), pairwise


def load(cache, directory, block, proc, is_write=False):
    """Simulate the miss path: cache fill + directory fetch."""
    kind, evicted, _ = cache.access(block, thread_id=proc)
    assert kind is not None
    if evicted is not None:
        directory.evict(evicted, proc)
    directory.fetch(block, proc, is_write)


class TestFetch:
    def test_read_sharers_accumulate(self):
        caches, directory, _ = machine()
        load(caches[0], directory, 5, 0)
        load(caches[1], directory, 5, 1)
        assert directory.sharers_of(5) == {0, 1}

    def test_write_fetch_invalidates_others(self):
        caches, directory, pairwise = machine()
        load(caches[0], directory, 5, 0)
        load(caches[1], directory, 5, 1)
        load(caches[2], directory, 5, 2, is_write=True)
        assert directory.sharers_of(5) == {2}
        assert not caches[0].contains(5)
        assert not caches[1].contains(5)
        assert directory.stats.invalidations_sent == 2
        assert pairwise[2, 0] == 1 and pairwise[2, 1] == 1

    def test_source_attribution_prefers_last_writer(self):
        caches, directory, _ = machine()
        load(caches[0], directory, 5, 0)
        load(caches[1], directory, 5, 1, is_write=True)  # 1 becomes writer
        load(caches[2], directory, 5, 2)
        # The fetch by 2 should be sourced from processor 1 (last writer).
        kind, _, _ = caches[0].access(5, 0)
        assert kind is MissKind.INVALIDATION
        source = directory.fetch(5, 0, is_write=False)
        assert source == 1

    def test_source_none_for_memory_only(self):
        caches, directory, _ = machine()
        kind, _, _ = caches[0].access(9, 0)
        source = directory.fetch(9, 0, is_write=False)
        assert source is None

    def test_memory_fetch_counted(self):
        caches, directory, _ = machine()
        load(caches[0], directory, 1, 0)
        load(caches[1], directory, 2, 1)
        assert directory.stats.memory_fetches == 2


class TestWriteHit:
    def test_upgrade_invalidates_sharers(self):
        caches, directory, pairwise = machine()
        load(caches[0], directory, 5, 0)
        load(caches[1], directory, 5, 1)
        directory.write_hit(5, 0)
        assert directory.sharers_of(5) == {0}
        assert not caches[1].contains(5)
        assert directory.stats.invalidations_sent == 1
        assert pairwise[0, 1] == 1

    def test_exclusive_write_hit_no_traffic(self):
        caches, directory, _ = machine()
        load(caches[0], directory, 5, 0)
        directory.write_hit(5, 0)
        assert directory.stats.invalidations_sent == 0

    def test_invalidated_cache_classifies_invalidation_miss(self):
        caches, directory, _ = machine()
        load(caches[0], directory, 5, 0)
        load(caches[1], directory, 5, 1)
        directory.write_hit(5, 1)
        kind, _, invalidator = caches[0].access(5, 0)
        assert kind is MissKind.INVALIDATION
        assert invalidator == 1


class TestEvict:
    def test_eviction_removes_sharer(self):
        caches, directory, _ = machine()
        load(caches[0], directory, 5, 0)
        directory.evict(5, 0)
        assert directory.sharers_of(5) == set()

    def test_eviction_of_untracked_block_noop(self):
        _, directory, _ = machine()
        directory.evict(99, 0)  # must not raise

    def test_emptied_entry_is_pruned(self):
        """An entry whose sharer set empties is removed outright; the
        observable surface (sharers_of, check_invariants) is unchanged."""
        caches, directory, _ = machine()
        load(caches[0], directory, 5, 0)
        directory.evict(5, 0)
        assert 5 not in directory._sharers
        assert directory.sharers_of(5) == set()
        directory.check_invariants()

    def test_pruned_entry_rebuilds_on_refetch(self):
        caches, directory, _ = machine()
        load(caches[0], directory, 5, 0)
        directory.evict(5, 0)
        caches[0].invalidate(5, by_processor=0)  # drop the stale copy
        load(caches[1], directory, 5, 1)
        assert directory.sharers_of(5) == {1}
        directory.check_invariants()

    def test_no_empty_entries_accumulate_over_sweep(self):
        """A long sweep through a small cache must not grow the directory
        by one dead entry per block ever cached: live entries are bounded
        by total cache residency."""
        caches, directory, _ = machine(num_procs=1, cache_words=64)
        for block in range(200):
            load(caches[0], directory, block, 0)
        assert len(directory._sharers) == len(caches[0].resident_blocks())
        directory.check_invariants()


class TestInvariants:
    def test_check_invariants_passes_on_consistent_state(self):
        caches, directory, _ = machine()
        load(caches[0], directory, 5, 0)
        load(caches[1], directory, 5, 1)
        directory.check_invariants()

    def test_check_invariants_detects_desync(self):
        caches, directory, _ = machine()
        load(caches[0], directory, 5, 0)
        # Corrupt: drop the cached copy without telling the directory.
        caches[0].invalidate(5, by_processor=0)
        with pytest.raises(AssertionError, match="out of sync"):
            directory.check_invariants()

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 2), st.integers(0, 15), st.booleans()),
            min_size=1,
            max_size=200,
        )
    )
    def test_directory_cache_consistency_property(self, ops):
        """After any access sequence (with the simulator's protocol glue),
        the directory's sharer sets exactly match cache residency."""
        caches, directory, _ = machine(num_procs=3, cache_words=64)
        for proc, block, is_write in ops:
            kind, evicted, _ = caches[proc].access(block, thread_id=proc)
            if kind is None:
                if is_write:
                    directory.write_hit(block, proc)
            else:
                if evicted is not None:
                    directory.evict(evicted, proc)
                directory.fetch(block, proc, is_write)
        directory.check_invariants()

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 2), st.integers(0, 15)),
            min_size=1,
            max_size=200,
        )
    )
    def test_single_writer_property(self, writes):
        """After a write, the writer is the block's only sharer."""
        caches, directory, _ = machine(num_procs=3, cache_words=256)
        for proc, block in writes:
            kind, evicted, _ = caches[proc].access(block, thread_id=proc)
            if kind is None:
                directory.write_hit(block, proc)
            else:
                if evicted is not None:
                    directory.evict(evicted, proc)
                directory.fetch(block, proc, is_write=True)
            assert directory.sharers_of(block) == {proc}
