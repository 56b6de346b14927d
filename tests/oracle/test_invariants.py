"""The invariant checker detects every class of corruption it claims to.

A checker that never fires is indistinguishable from a working simulator —
so each conservation law is tested by *injecting* the violation it guards
against into a minimal fake machine and asserting the checker raises
:class:`InvariantViolation` with a diagnostic that names the failure.

The fake machine mirrors exactly the attributes the checker reads:
``processor.time``, ``processor.stats``, ``processor.contexts`` (each with
a replay cursor ``pos`` and its ``blocks``), ``cache.stats`` and
``directory.check_invariants()``.  The baseline fake is self-consistent —
one context that replayed blocks [3, 4, 3]: 1 hit, 2 compulsory misses,
3 busy + 10 idle cycles at local time 13 — and the clean-pass tests prove
the checker accepts it before each corruption test breaks one law.
"""

import numpy as np
import pytest

from repro.arch.stats import (
    CacheStats,
    InterconnectStats,
    MissKind,
    ProcessorStats,
    SimulationResult,
)
from repro.oracle import InvariantChecker, InvariantViolation

pytestmark = pytest.mark.oracle


class FakeContext:
    def __init__(self, blocks, pos):
        self.blocks = list(blocks)
        self.pos = pos


class FakeProcessor:
    def __init__(self, contexts, *, time, busy, switching, idle,
                 completion_time=None):
        self.contexts = contexts
        self.time = time
        self.stats = ProcessorStats(
            busy=busy, switching=switching, idle=idle,
            completion_time=time if completion_time is None else completion_time,
        )


class FakeCache:
    def __init__(self, *, hits, compulsory=0, intra=0, inter=0, inval=0):
        self.stats = CacheStats(hits=hits)
        self.stats.misses[MissKind.COMPULSORY] = compulsory
        self.stats.misses[MissKind.INTRA_THREAD_CONFLICT] = intra
        self.stats.misses[MissKind.INTER_THREAD_CONFLICT] = inter
        self.stats.misses[MissKind.INVALIDATION] = inval


class FakeDirectory:
    """Stands in for Directory; optionally reports itself corrupted."""

    def __init__(self, error: str | None = None):
        self.error = error
        self.checks = 0

    def check_invariants(self):
        self.checks += 1
        if self.error is not None:
            raise AssertionError(self.error)


def consistent_machine():
    """One processor, one context, blocks [3, 4, 3] fully replayed."""
    processors = [FakeProcessor(
        [FakeContext([3, 4, 3], pos=3)],
        time=13, busy=3, switching=0, idle=10,
    )]
    caches = [FakeCache(hits=1, compulsory=2)]
    return processors, caches, FakeDirectory()


def result_for(processors, caches, *, fetches=None, invals_sent=0,
               execution_time=None, total_refs=None):
    """The SimulationResult the fake machine would legitimately report."""
    if fetches is None:
        fetches = sum(c.stats.total_misses for c in caches)
    if execution_time is None:
        execution_time = max(p.stats.completion_time for p in processors)
    if total_refs is None:
        total_refs = sum(ctx.pos for p in processors for ctx in p.contexts)
    p = len(processors)
    return SimulationResult(
        execution_time=execution_time,
        processors=[p_.stats for p_ in processors],
        caches=[c.stats for c in caches],
        interconnect=InterconnectStats(memory_fetches=fetches,
                                       invalidations_sent=invals_sent),
        pairwise_coherence=np.zeros((p, p), dtype=np.int64),
        total_refs=total_refs,
    )


class TestCleanMachine:
    def test_clean_quantum_and_completion_pass(self):
        processors, caches, directory = consistent_machine()
        checker = InvariantChecker(processors, caches, directory)
        checker.after_quantum(0)
        checker.at_completion(result_for(processors, caches))

    def test_completion_always_checks_directory(self):
        processors, caches, directory = consistent_machine()
        checker = InvariantChecker(processors, caches, directory,
                                   directory_check_interval=0)
        checker.after_quantum(0)
        assert directory.checks == 0  # interval 0 defers the full scan
        checker.at_completion(result_for(processors, caches))
        assert directory.checks == 1

    def test_violation_is_an_assertion_error(self):
        # `pytest.raises(AssertionError)` and plain `assert`-based tooling
        # both catch it.
        assert issubclass(InvariantViolation, AssertionError)

    def test_interval_must_be_non_negative(self):
        processors, caches, directory = consistent_machine()
        with pytest.raises(ValueError, match="-1"):
            InvariantChecker(processors, caches, directory,
                             directory_check_interval=-1)


class TestQuantumLaws:
    def test_cycle_accounting_leak(self):
        processors, caches, directory = consistent_machine()
        processors[0].stats.idle = 9  # one cycle vanished
        checker = InvariantChecker(processors, caches, directory)
        with pytest.raises(InvariantViolation, match="cycle accounting leaks"):
            checker.after_quantum(0)

    def test_clock_going_backwards(self):
        processors, caches, directory = consistent_machine()
        checker = InvariantChecker(processors, caches, directory)
        checker.after_quantum(0)
        processors[0].time = 12
        processors[0].stats.idle = 9  # keep cycle accounting self-consistent
        with pytest.raises(InvariantViolation, match="clock went backwards"):
            checker.after_quantum(0)

    def test_access_count_mismatch(self):
        processors, caches, directory = consistent_machine()
        caches[0].stats.hits = 5  # claims more accesses than were replayed
        checker = InvariantChecker(processors, caches, directory)
        with pytest.raises(InvariantViolation, match="references\\s+replayed"):
            checker.after_quantum(0)

    def test_negative_miss_count(self):
        processors, caches, directory = consistent_machine()
        caches[0].stats.misses[MissKind.INVALIDATION] = -1
        caches[0].stats.hits = 2  # totals still balance: the sign is the bug
        checker = InvariantChecker(processors, caches, directory)
        with pytest.raises(InvariantViolation, match="negative"):
            checker.after_quantum(0)

    def test_compulsory_does_not_match_first_touches(self):
        processors, caches, directory = consistent_machine()
        # 2 hits + 1 compulsory keeps access conservation satisfied, but
        # the contexts demonstrably first-touched two distinct blocks.
        caches[0].stats.hits = 2
        caches[0].stats.misses[MissKind.COMPULSORY] = 1
        checker = InvariantChecker(processors, caches, directory)
        with pytest.raises(InvariantViolation,
                           match="first-touched 2 distinct blocks"):
            checker.after_quantum(0)

    def test_directory_desync_surfaces_at_sampled_quantum(self):
        processors, caches, _ = consistent_machine()
        directory = FakeDirectory(error="block 7 sharers {0} but cached in {1}")
        checker = InvariantChecker(processors, caches, directory,
                                   directory_check_interval=1)
        with pytest.raises(InvariantViolation, match="block 7"):
            checker.after_quantum(0)

    def test_directory_scan_respects_interval(self):
        processors, caches, _ = consistent_machine()
        directory = FakeDirectory(error="desync")
        checker = InvariantChecker(processors, caches, directory,
                                   directory_check_interval=3)
        checker.after_quantum(0)
        checker.after_quantum(0)
        assert directory.checks == 0
        with pytest.raises(InvariantViolation, match="quantum 3"):
            checker.after_quantum(0)


class TestCompletionLaws:
    def test_cycle_accounting_must_cover_completion_time(self):
        processors, caches, directory = consistent_machine()
        processors[0].stats.completion_time = 14  # one unaccounted cycle
        checker = InvariantChecker(processors, caches, directory)
        with pytest.raises(InvariantViolation, match="completion\\s+time"):
            checker.at_completion(
                result_for(processors, caches, execution_time=14))

    def test_replayed_references_must_match_trace_total(self):
        processors, caches, directory = consistent_machine()
        checker = InvariantChecker(processors, caches, directory)
        with pytest.raises(InvariantViolation, match="replayed 3 references"):
            checker.at_completion(result_for(processors, caches, total_refs=4))

    def test_fetch_conservation(self):
        processors, caches, directory = consistent_machine()
        checker = InvariantChecker(processors, caches, directory)
        with pytest.raises(InvariantViolation, match="memory fetches"):
            checker.at_completion(result_for(processors, caches, fetches=5))

    def test_invalidation_misses_need_a_sender(self):
        processors, caches, directory = consistent_machine()
        # Reclassify the hit as an invalidation miss: all counts still
        # balance, but nobody ever *sent* an invalidation.
        caches[0].stats.hits = 0
        caches[0].stats.misses[MissKind.INVALIDATION] = 1
        checker = InvariantChecker(processors, caches, directory)
        with pytest.raises(InvariantViolation, match="invalidations sent"):
            checker.at_completion(result_for(processors, caches,
                                             invals_sent=0))

    def test_execution_time_is_slowest_processor(self):
        processors, caches, directory = consistent_machine()
        checker = InvariantChecker(processors, caches, directory)
        with pytest.raises(InvariantViolation, match="slowest"):
            checker.at_completion(
                result_for(processors, caches, execution_time=99))

    def test_directory_desync_surfaces_at_completion(self):
        processors, caches, _ = consistent_machine()
        directory = FakeDirectory(error="stale sharer")
        checker = InvariantChecker(processors, caches, directory,
                                   directory_check_interval=0)
        with pytest.raises(InvariantViolation, match="stale sharer"):
            checker.at_completion(result_for(processors, caches))


class TestDirectoryAgreement:
    """The directory audit over a real directory and real caches: residency
    the directory never heard of is caught, not only stale sharers."""

    @staticmethod
    def machine():
        from repro.arch.cache import make_cache
        from repro.arch.config import ArchConfig
        from repro.arch.directory import Directory

        config = ArchConfig(2, 1, cache_words=64)
        caches = [make_cache(config, 15) for _ in range(2)]
        directory = Directory(caches, np.zeros((2, 2), dtype=np.int64), 15)
        # One context that replayed block 7 once: a compulsory miss.
        processors = [
            FakeProcessor([FakeContext([7], pos=1)],
                          time=1, busy=1, switching=0, idle=0),
            FakeProcessor([], time=0, busy=0, switching=0, idle=0),
        ]
        caches[0].access(7, 0)
        return processors, caches, directory

    def test_fetched_block_passes(self):
        processors, caches, directory = self.machine()
        directory.fetch(7, 0, is_write=False)
        checker = InvariantChecker(processors, caches, directory,
                                   directory_check_interval=1)
        checker.after_quantum(0)

    def test_cache_only_residency_is_a_violation(self):
        processors, caches, directory = self.machine()  # no directory fetch
        checker = InvariantChecker(processors, caches, directory,
                                   directory_check_interval=1)
        with pytest.raises(InvariantViolation,
                           match="block 7: directory=\\[\\], resident=\\[0\\]"):
            checker.after_quantum(0)
