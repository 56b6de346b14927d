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
    return caches, Directory(caches, pairwise, MAX_BLOCK), pairwise


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
        """Once its last holder drops it, a block is unknown to the
        directory again: no sharers, and the two-sided audit passes."""
        caches, directory, _ = machine()
        load(caches[0], directory, 5, 0)
        caches[0].invalidate(5, by_processor=0)  # drop the cached copy
        directory.evict(5, 0)
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
        """A long sweep through a small cache leaves sharers on exactly
        the blocks still resident: every conflict eviction reaches the
        directory."""
        caches, directory, _ = machine(num_procs=1, cache_words=64)
        for block in range(200):
            load(caches[0], directory, block, 0)
        known = {b for b in range(MAX_BLOCK + 1) if directory.sharers_of(b)}
        assert known == caches[0].resident_blocks()
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

    def test_check_invariants_detects_cache_only_residency(self):
        """The audit is two-sided: a block a cache holds but the directory
        never heard of is a desync too."""
        caches, directory, _ = machine()
        caches[0].access(7, 0)  # filled without a directory fetch
        with pytest.raises(AssertionError,
                           match="block 7: directory=\\[\\], resident=\\[0\\]"):
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


class _AcceptingCache:
    """Stands in for a processor cache: every invalidation lands."""

    def invalidate(self, block, by_processor):
        return True


class DictDirectory:
    """The dict-of-sets full-map directory the bitmask one must equal."""

    def __init__(self, p, lat_rows):
        self.sharers, self.last_writer, self.lat_rows = {}, {}, lat_rows
        self.pairwise = np.zeros((p, p), dtype=np.int64)
        self.fetches = self.sent = self.worst = 0

    def fetch(self, block, proc, is_write):
        self.fetches += 1
        held = self.sharers.setdefault(block, set())
        writer = self.last_writer.get(block)
        source = (writer if writer in held else min(held)) if held else None
        if is_write:
            self._invalidate(block, proc)
            self.last_writer[block] = proc
        self.sharers[block].add(proc)
        return source

    def write_hit(self, block, proc):
        others = self.sharers.get(block, set()) - {proc}
        sent = self._invalidate(block, proc) if others else 0
        self.last_writer[block] = proc
        return sent

    def evict(self, block, proc):
        self.sharers.get(block, set()).discard(proc)

    def _invalidate(self, block, writer):
        others = self.sharers.get(block, set()) - {writer}
        for holder in others:
            self.pairwise[writer, holder] += 1
        self.worst = max((self.lat_rows[writer][h] for h in others), default=0)
        self.sent += len(others)
        self.sharers[block] = {writer}
        return len(others)


@st.composite
def directory_programs(draw):
    """A processor count in 1..16 and a random fetch/write-hit/evict
    sequence over four blocks, read-heavy so sharer sets grow wide."""
    p = draw(st.one_of(st.sampled_from([8, 16]), st.integers(1, 16)))
    op = st.tuples(
        st.sampled_from(["read", "read", "read", "write", "write_hit",
                         "evict"]),
        st.integers(0, 3), st.integers(0, p - 1))
    return p, draw(st.lists(op, min_size=20, max_size=120))


class TestBitmaskContract:
    @settings(max_examples=150, deadline=None)
    @given(directory_programs())
    def test_matches_dict_of_sets_model(self, program):
        """The bitmask directory answers every call exactly like a
        dict-of-sets directory: sources, invalidations sent, sharer sets,
        the pairwise matrix, traffic counters and (after an upgrade that
        sent invalidations) the farthest tier reached."""
        p, ops = program
        lat_rows = [[(7 * w + 3 * h) % 11 for h in range(p)]
                    for w in range(p)]
        pairwise = np.zeros((p, p), dtype=np.int64)
        directory = Directory([_AcceptingCache() for _ in range(p)],
                              pairwise, 3, lat_rows)
        model = DictDirectory(p, lat_rows)
        for name, block, proc in ops:
            if name == "evict":
                directory.evict(block, proc)
                model.evict(block, proc)
            elif name == "write_hit":
                sent = directory.write_hit(block, proc)
                assert sent == model.write_hit(block, proc)
                if sent:
                    assert directory.last_upgrade_latency == model.worst
            else:
                is_write = name == "write"
                assert (directory.fetch(block, proc, is_write)
                        == model.fetch(block, proc, is_write))
            assert directory.sharers_of(block) == model.sharers.get(block,
                                                                    set())
        for block in range(4):
            assert directory.sharers_of(block) == model.sharers.get(block,
                                                                    set())
        assert (pairwise == model.pairwise).all()
        assert directory.stats.memory_fetches == model.fetches
        assert directory.stats.invalidations_sent == model.sent
