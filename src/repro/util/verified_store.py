"""Self-verifying entry families: one verify/commit/evict discipline.

Both persistent stores in the pipeline — the simulation
:class:`~repro.experiments.cache.ResultStore` and the trace-chunk
:class:`~repro.trace.chunks.ChunkStore` — keep content-addressed entries
under a directory, one file per entry: the payload followed by a fixed
:data:`TRAILER_BYTES`-byte trailer holding ``sha256(payload).digest()``.
Entries are committed crash-safely and *verified on every load*: an entry
whose trailer no longer matches its payload (bit rot, a torn write from an
unhardened writer, an injected ``corrupt``/``truncate`` fault, an entry
written before the trailer format) is logged, evicted and recomputed, never
returned.  This module is that shared discipline, extracted so the stores
cannot drift apart.

A commit is one :func:`~repro.util.atomicio.atomic_write_bytes` of
payload + trailer: write a temporary file, ``fsync`` it, ``os.replace``
it onto the entry name, ``fsync`` the directory.  Because every file
checks itself, no lock pairs anything: a reader or a racing writer of the
same name (the service's executor pool, a second process) sees one
complete file or another, and the last rename wins.
"""

from __future__ import annotations

import hashlib
import logging
from pathlib import Path
from typing import Callable

from repro.util.atomicio import atomic_write_bytes

__all__ = ["VerifiedDirectory", "TRAILER_BYTES"]

log = logging.getLogger(__name__)

#: Size of the checksum trailer that ends every entry file.
TRAILER_BYTES = hashlib.sha256().digest_size


class VerifiedDirectory:
    """Self-verifying entries (payload + sha256 trailer) under one directory.

    Args:
        directory: Store root (created if missing).
        fault_site: :mod:`repro.faults` site name for this store's write
            path (``fire`` before writing, ``mangle`` after the commit), or
            None to disable the injection hooks.
        logger: Logger for eviction/persist warnings — pass the owning
            store's logger so damage reports carry its name (tests and
            operators filter on it); defaults to this module's.
    """

    def __init__(self, directory: str | Path, *,
                 fault_site: str | None = None,
                 logger: logging.Logger | None = None) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.fault_site = fault_site
        self.log = logger if logger is not None else log

    def path(self, name: str) -> Path:
        """The entry's path (no existence implied)."""
        return self.directory / name

    # -- load ------------------------------------------------------------

    def evict(self, name: str) -> None:
        """Remove an entry (tolerates concurrent eviction)."""
        try:
            self.path(name).unlink()
        except OSError:  # pragma: no cover - concurrent eviction
            pass

    def load(
        self,
        name: str,
        decoder: Callable[[bytes], object],
        *,
        errors: tuple[type[BaseException], ...] = (),
        describe: str = "entry",
    ) -> object | None:
        """Decode a verified entry's payload, or None.

        A missing file is a plain miss.  A file too short to hold the
        trailer, a trailer that does not match the payload, a filesystem
        error, or any exception in ``errors`` raised by ``decoder`` is
        treated as damage: the entry is logged and evicted, so the caller
        recomputes it and the next commit writes a clean file.  A damaged
        cache never aborts the computation it backs.
        """
        path = self.path(name)
        try:
            data = path.read_bytes()
            if len(data) < TRAILER_BYTES:
                raise ValueError(
                    f"{len(data)} bytes cannot hold a checksum trailer")
            payload = data[:-TRAILER_BYTES]
            if hashlib.sha256(payload).digest() != data[-TRAILER_BYTES:]:
                raise ValueError("checksum trailer does not match payload")
            return decoder(payload)
        except FileNotFoundError:
            return None
        except (OSError, ValueError) + tuple(errors) as exc:
            self.log.warning(
                "evicting unreadable %s %s (%s: %s); it will be recomputed",
                describe, path.name, type(exc).__name__, exc,
            )
            self.evict(name)
            return None

    # -- commit ----------------------------------------------------------

    def commit(self, name: str, data: bytes) -> bool:
        """Persist ``data`` under ``name``; True if it was committed.

        The commit point is the final rename: a crash at any earlier
        moment leaves only a temporary file, invisible to :meth:`load`.
        A filesystem error (disk full, permissions) degrades to a logged
        warning and False — the caller still holds the in-memory value,
        so a sick disk never aborts the computation; the entry is simply
        recomputed next run.
        """
        path = self.path(name)
        try:
            atomic_write_bytes(path, data + hashlib.sha256(data).digest(),
                               fault_site=self.fault_site)
        except OSError as exc:
            self.log.warning(
                "failed to persist %s (%s: %s); the in-memory value is "
                "unaffected and will be recomputed next run",
                path.name, type(exc).__name__, exc,
            )
            return False
        if self.fault_site is not None:
            from repro import faults

            faults.mangle(self.fault_site, path)
        return True
