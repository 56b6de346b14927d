"""Persistent on-disk cache of simulation results.

A full-suite report is ~900 simulations; the in-process memoization in
:class:`~repro.experiments.runner.ExperimentSuite` makes each table cheap
*within* a run, and this store makes them cheap *across* runs (successive
CLI invocations, benchmark re-runs, notebook sessions).

Results are serialized explicitly to ``.npz`` (no pickling): every field
of :class:`~repro.arch.stats.SimulationResult` round-trips through plain
arrays, keyed by a SHA-256 of the cell descriptor (workload scale/seed,
application, algorithm, machine).

Durability — atomic commits, a sha256 trailer in every entry,
verify-on-load with evict-and-recompute — is delegated to
:class:`repro.util.verified_store.VerifiedDirectory`, the discipline this
store shares with the trace-chunk store.
"""

from __future__ import annotations

import hashlib
import io
import logging
import zipfile
from pathlib import Path

import numpy as np

from repro.arch.stats import (
    CacheStats,
    InterconnectStats,
    MissKind,
    ProcessorStats,
    SimulationResult,
)
from repro.util.verified_store import VerifiedDirectory

__all__ = [
    "ResultStore",
    "cell_store_key",
    "store_digest",
    "result_to_arrays",
    "result_from_arrays",
]

log = logging.getLogger(__name__)

#: Everything a damaged or stale ``.npz`` can raise while being opened and
#: decoded: filesystem errors, truncated zip containers, missing arrays and
#: malformed/stale-format payloads.
_LOAD_ERRORS = (OSError, EOFError, KeyError, ValueError, zipfile.BadZipFile)

# Fixed field order for the per-cache miss matrix.
_MISS_ORDER: tuple[MissKind, ...] = (
    MissKind.COMPULSORY,
    MissKind.INTRA_THREAD_CONFLICT,
    MissKind.INTER_THREAD_CONFLICT,
    MissKind.INVALIDATION,
)

_FORMAT_VERSION = 1

#: Leading tag of every store key; bump together with ``_FORMAT_VERSION``.
STORE_KEY_TAG = "v1"


def cell_store_key(
    *,
    scale: float,
    seed: int,
    quantum_refs: int,
    app: str,
    algorithm: str,
    processors: int,
    infinite: bool,
    associativity: int,
    cache_words: int | None,
    replicate: int,
    topology: str | None = None,
) -> tuple:
    """The canonical store key of one simulation cell.

    This is the single definition shared by the sequential
    :class:`~repro.experiments.runner.ExperimentSuite` and the parallel
    :mod:`repro.exec` engine, so both address the same ``.npz`` entries.
    ``app`` and ``algorithm`` must already be canonical (paper spelling);
    ``topology`` must be a *canonical* spec string (see
    :func:`repro.topo.model.canonical_topology`) or None.  The flat
    machine is the None spelling and appends nothing, so every pre-
    topology store key — and therefore every existing ``.npz`` entry —
    keeps its content address.
    """
    key = (
        STORE_KEY_TAG, scale, seed, quantum_refs,
        app, algorithm.upper(), processors,
        infinite, associativity, cache_words, replicate,
    )
    if topology is not None:
        key += (topology,)
    return key


def store_digest(key: tuple) -> str:
    """The SHA-256 content address of a store key (32 hex chars).

    The digest doubles as the engine's job id, so a journal entry, a store
    filename and a planned job all name the same cell.
    """
    return hashlib.sha256(repr(key).encode()).hexdigest()[:32]


def result_to_arrays(result: SimulationResult) -> dict[str, np.ndarray]:
    """Flatten a simulation result into named arrays (for ``np.savez``)."""
    p = result.num_processors
    processors = np.array(
        [
            [s.busy, s.switching, s.idle, s.completion_time]
            for s in result.processors
        ],
        dtype=np.int64,
    ).reshape(p, 4)
    hits = np.array([c.hits for c in result.caches], dtype=np.int64)
    misses = np.array(
        [[c.misses[kind] for kind in _MISS_ORDER] for c in result.caches],
        dtype=np.int64,
    ).reshape(p, len(_MISS_ORDER))
    scalars = np.array(
        [
            _FORMAT_VERSION,
            result.execution_time,
            result.total_refs,
            result.interconnect.memory_fetches,
            result.interconnect.invalidations_sent,
        ],
        dtype=np.int64,
    )
    return {
        "scalars": scalars,
        "processors": processors,
        "hits": hits,
        "misses": misses,
        "pairwise": np.asarray(result.pairwise_coherence, dtype=np.int64),
    }


def result_from_arrays(arrays) -> SimulationResult:
    """Rebuild a simulation result from :func:`result_to_arrays` output."""
    scalars = arrays["scalars"]
    version = int(scalars[0])
    if version != _FORMAT_VERSION:
        raise ValueError(
            f"unsupported result format version {version} "
            f"(expected {_FORMAT_VERSION})"
        )
    processors = [
        ProcessorStats(busy=int(b), switching=int(s), idle=int(i),
                       completion_time=int(c))
        for b, s, i, c in arrays["processors"]
    ]
    caches = []
    for hits, miss_row in zip(arrays["hits"], arrays["misses"]):
        stats = CacheStats(hits=int(hits))
        for kind, count in zip(_MISS_ORDER, miss_row):
            stats.misses[kind] = int(count)
        caches.append(stats)
    return SimulationResult(
        execution_time=int(scalars[1]),
        processors=processors,
        caches=caches,
        interconnect=InterconnectStats(
            memory_fetches=int(scalars[3]),
            invalidations_sent=int(scalars[4]),
        ),
        pairwise_coherence=np.asarray(arrays["pairwise"], dtype=np.int64),
        total_refs=int(scalars[2]),
    )


def _decode_result(data: bytes) -> SimulationResult:
    with np.load(io.BytesIO(data), allow_pickle=False) as arrays:
        return result_from_arrays(arrays)


class ResultStore:
    """Content-addressed store of simulation results under one directory.

    Crash-safe: entries are committed by write-tmp → fsync → rename, so a
    killed writer leaves either no entry or a complete one, never a torn
    ``.npz``.  Each entry file ends in a sha256 trailer over its payload,
    verified on load; an entry whose bytes no longer match (bit rot, a
    torn write from an unhardened writer, an injected ``corrupt``/
    ``truncate`` fault, an entry written before the trailer format) is
    evicted and recomputed, never returned.

    Args:
        directory: Store root (created if missing).
    """

    def __init__(self, directory: str | Path) -> None:
        self._entries = VerifiedDirectory(
            directory, fault_site="store", logger=log)

    @property
    def directory(self) -> Path:
        return self._entries.directory

    @staticmethod
    def _name(key: tuple) -> str:
        return f"{store_digest(key)}.npz"

    def _path(self, key: tuple) -> Path:
        return self._entries.path(self._name(key))

    def contains(self, key: tuple) -> bool:
        """Whether an entry exists for ``key`` (without decoding it)."""
        return self._path(key).exists()

    def load(self, key: tuple) -> SimulationResult | None:
        """The stored result for ``key``, or None.

        Checksum-failing, corrupt, truncated or stale-format files are
        treated as misses: they are logged and evicted so the caller
        recomputes the cell and the next ``store`` writes a clean entry —
        a damaged cache never aborts a report.
        """
        return self._entries.load(
            self._name(key), _decode_result,
            errors=_LOAD_ERRORS, describe="result",
        )

    def store(self, key: tuple, result: SimulationResult) -> bool:
        """Persist ``result`` under ``key``; True if it was committed.

        The commit point is the final rename: a crash at any earlier
        moment leaves only a temporary file, invisible to :meth:`load`.
        A filesystem error (disk full, permissions) degrades to a logged
        warning and False — the caller still holds the in-memory result,
        so a sick disk never aborts a sweep; the cell is simply
        recomputed next run.
        """
        buffer = io.BytesIO()
        np.savez_compressed(buffer, **result_to_arrays(result))
        return self._entries.commit(self._name(key), buffer.getvalue())

    def __len__(self) -> int:
        return sum(1 for _ in self.directory.glob("*.npz"))
