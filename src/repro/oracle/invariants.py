"""Runtime conservation laws for the simulator.

:class:`InvariantChecker` audits a live simulation — enabled via
``simulate(..., check_invariants=True)`` or the CLI ``--check-invariants``
flags — and raises :class:`InvariantViolation` the moment bookkeeping
drifts.  The laws, checked after every scheduling quantum (Q) and again at
completion (C):

1. **Cycle conservation** (Q, C): per processor,
   ``busy + switching + idle == local time``; at completion the local time
   is the recorded ``completion_time``.
2. **Clock monotonicity** (Q): a processor's local time never decreases.
3. **Access conservation** (Q, C): per cache, ``hits + Σ misses-by-kind``
   equals the references its contexts have replayed; machine-wide at
   completion it equals the trace set's total references.
4. **Miss decomposition** (Q, C): every per-kind miss counter is
   non-negative and the four kinds sum to the cache's total misses.
5. **Compulsory = first touches** (Q, C): per cache, compulsory misses
   equal the number of *distinct* blocks its contexts have referenced —
   recomputed here from the replayed trace prefixes, independently of the
   cache's own first-touch bookkeeping.
6. **Directory/cache synchronization** (sampled Q, C): every block's
   directory sharer set exactly matches the caches in which it is
   resident, in both directions (a cached block the directory never
   fetched fails too).  This is a full scan of coherence state, so during
   the run it is sampled every ``directory_check_interval`` quanta;
   completion always checks it.
7. **Fetch conservation** (C): interconnect memory fetches equal total
   misses (every miss performs exactly one fetch), and invalidation
   misses never exceed invalidations sent (each invalidation miss consumes
   one prior invalidation).

The checker holds no simulation logic of its own: it only *recounts* what
the production structures claim, from independently tracked replay
cursors.  Its cost is a few dict/set operations per replayed reference,
which is why it is off by default on the hot path.
"""

from __future__ import annotations

from repro.arch.stats import MissKind, SimulationResult

__all__ = ["InvariantChecker", "InvariantViolation"]


class InvariantViolation(AssertionError):
    """A simulator conservation law failed mid-run or at completion."""


class InvariantChecker:
    """Audits one simulation's processors, caches and directory.

    Args:
        processors: The live :class:`~repro.arch.kernel.FastProcessor` list.
        caches: The live per-processor caches.
        directory: The live coherence :class:`~repro.arch.directory.Directory`.
        directory_check_interval: Full directory/cache synchronization is
            verified every this-many quanta (it scans all coherence
            state); 0 defers it to completion only.
    """

    def __init__(
        self,
        processors: list,
        caches: list,
        directory,
        *,
        directory_check_interval: int = 64,
    ) -> None:
        if directory_check_interval < 0:
            raise ValueError(
                f"directory_check_interval must be >= 0, "
                f"got {directory_check_interval!r}"
            )
        self._processors = processors
        self._caches = caches
        self._directory = directory
        self._interval = directory_check_interval
        self._quanta = 0
        #: Per processor: distinct blocks its contexts have referenced.
        self._touched: list[set[int]] = [set() for _ in processors]
        #: Per processor, per context: replay cursor at the last audit.
        self._cursors: list[list[int]] = [
            [0] * len(proc.contexts) for proc in processors
        ]
        self._last_time: list[int] = [proc.time for proc in processors]

    # ------------------------------------------------------------------

    def after_quantum(self, pid: int) -> None:
        """Audit processor ``pid`` after one scheduling quantum."""
        self._quanta += 1
        self._advance_cursors(pid)
        proc = self._processors[pid]
        if proc.time < self._last_time[pid]:
            self._fail(
                f"processor {pid} clock went backwards: "
                f"{self._last_time[pid]} -> {proc.time}"
            )
        self._last_time[pid] = proc.time
        self._check_processor(pid, proc.time)
        if self._interval and self._quanta % self._interval == 0:
            self._check_directory()

    def at_completion(self, result: SimulationResult) -> None:
        """Audit the finished machine and its reported result."""
        total_replayed = 0
        for pid, proc in enumerate(self._processors):
            self._advance_cursors(pid)
            total_replayed += sum(self._cursors[pid])
            stats = proc.stats
            if stats.total != stats.completion_time:
                self._fail(
                    f"processor {pid} cycle accounting does not cover its "
                    f"completion time: busy={stats.busy} + "
                    f"switching={stats.switching} + idle={stats.idle} = "
                    f"{stats.total} != completion_time={stats.completion_time}"
                )
            self._check_processor(pid, stats.completion_time)
        if total_replayed != result.total_refs:
            self._fail(
                f"machine replayed {total_replayed} references, trace set "
                f"has {result.total_refs}"
            )
        totals = result.cache_totals
        if totals.total_accesses != result.total_refs:
            self._fail(
                f"cache accesses ({totals.total_accesses}) != total "
                f"references ({result.total_refs})"
            )
        fetches = result.interconnect.memory_fetches
        if fetches != totals.total_misses:
            self._fail(
                f"memory fetches ({fetches}) != total misses "
                f"({totals.total_misses}): every miss fetches exactly once"
            )
        inval_misses = totals.misses[MissKind.INVALIDATION]
        if inval_misses > result.interconnect.invalidations_sent:
            self._fail(
                f"{inval_misses} invalidation misses exceed the "
                f"{result.interconnect.invalidations_sent} invalidations sent"
            )
        expected_time = max(p.completion_time for p in result.processors)
        if result.execution_time != expected_time:
            self._fail(
                f"execution_time={result.execution_time} is not the slowest "
                f"processor's completion time ({expected_time})"
            )
        self._check_directory()

    # ------------------------------------------------------------------

    def _advance_cursors(self, pid: int) -> None:
        """Fold newly replayed references into the first-touch tracker."""
        touched = self._touched[pid]
        cursors = self._cursors[pid]
        for index, context in enumerate(self._processors[pid].contexts):
            start = cursors[index]
            if context.pos > start:
                touched.update(context.blocks[start:context.pos])
                cursors[index] = context.pos

    def _check_processor(self, pid: int, local_time: int) -> None:
        stats = self._processors[pid].stats
        accounted = stats.busy + stats.switching + stats.idle
        if accounted != local_time:
            self._fail(
                f"processor {pid} cycle accounting leaks: busy={stats.busy} "
                f"+ switching={stats.switching} + idle={stats.idle} = "
                f"{accounted} != local time {local_time}"
            )
        cache = self._caches[pid].stats
        for kind, count in cache.misses.items():
            if count < 0:
                self._fail(f"cache {pid} has negative {kind.value} count {count}")
        replayed = sum(self._cursors[pid])
        if cache.hits + cache.total_misses != replayed:
            self._fail(
                f"cache {pid} accesses (hits={cache.hits} + "
                f"misses={cache.total_misses}) != {replayed} references "
                f"replayed on processor {pid}"
            )
        first_touches = len(self._touched[pid])
        compulsory = cache.misses[MissKind.COMPULSORY]
        if compulsory != first_touches:
            self._fail(
                f"cache {pid} counts {compulsory} compulsory misses but its "
                f"contexts first-touched {first_touches} distinct blocks"
            )

    def _check_directory(self) -> None:
        try:
            self._directory.check_invariants()
        except AssertionError as exc:
            self._fail(str(exc))

    def _fail(self, message: str) -> None:
        raise InvariantViolation(f"after quantum {self._quanta}: {message}")
