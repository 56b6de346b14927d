"""Checksummed entry families: one verify/commit/evict discipline.

Both persistent stores in the pipeline — the simulation
:class:`~repro.experiments.cache.ResultStore` and the trace-chunk
:class:`~repro.trace.chunks.ChunkStore` — keep content-addressed entries
under a directory, each paired with a ``.sha256`` sidecar, committed
crash-safely and *verified on every load*: an entry whose bytes no longer
match its sidecar (bit rot, a torn write from an unhardened writer, an
injected ``corrupt``/``truncate`` fault) is logged, evicted and recomputed,
never returned.  This module is that shared discipline, extracted so the
stores cannot drift apart.

The commit protocol per entry:

1. write the payload to a uniquely named temporary file in the directory;
2. flush + ``fsync`` it, so the bytes are durable before they are visible;
3. under the directory's commit lock, write the sidecar atomically and
   ``os.replace`` the temporary onto the entry name;
4. best-effort ``fsync`` of the directory.

The per-directory commit lock pairs the sidecar write and the entry rename
as one unit for in-process readers and writers (the service's executor pool
runs several engine executions against one directory).  Cross-process races
remain possible and remain benign: a mismatched pair degrades to
evict-and-recompute, never to torn data.
"""

from __future__ import annotations

import logging
import os
import threading
from pathlib import Path
from typing import Callable

from repro.util.atomicio import atomic_write_text, fsync_directory, sha256_hex

__all__ = ["VerifiedDirectory", "commit_lock_for"]

log = logging.getLogger(__name__)

# One commit lock per directory (process-wide), shared by every
# VerifiedDirectory pointed at the same path.
_COMMIT_LOCKS: dict[str, threading.Lock] = {}
_COMMIT_LOCKS_GUARD = threading.Lock()


def commit_lock_for(directory: Path) -> threading.Lock:
    """The process-wide commit lock of one store directory."""
    key = str(Path(directory).resolve())
    with _COMMIT_LOCKS_GUARD:
        lock = _COMMIT_LOCKS.get(key)
        if lock is None:
            lock = _COMMIT_LOCKS[key] = threading.Lock()
        return lock


class VerifiedDirectory:
    """Sidecar-checksummed entries under one directory.

    Args:
        directory: Store root (created if missing).
        checksum: Write and verify sha256 sidecars (on by default; overhead
            benchmarks turn it off to measure the cost).
        fsync: Sync entry bytes and renames to disk (on by default).
        fault_site: :mod:`repro.faults` site name for this store's write
            path (``fire`` before writing, ``mangle`` after the commit), or
            None to disable the injection hooks.
        logger: Logger for eviction/persist warnings — pass the owning
            store's logger so damage reports carry its name (tests and
            operators filter on it); defaults to this module's.
    """

    def __init__(self, directory: str | Path, *, checksum: bool = True,
                 fsync: bool = True, fault_site: str | None = None,
                 logger: logging.Logger | None = None) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.checksum = bool(checksum)
        self.fsync = bool(fsync)
        self.fault_site = fault_site
        self.log = logger if logger is not None else log
        self.lock = commit_lock_for(self.directory)

    def path(self, name: str) -> Path:
        """The entry's path (no existence implied)."""
        return self.directory / name

    @staticmethod
    def sidecar(path: Path) -> Path:
        """The checksum sidecar of an entry path."""
        return path.with_name(path.name + ".sha256")

    # -- load ------------------------------------------------------------

    def evict(self, name: str) -> None:
        """Remove an entry and its sidecar (tolerates concurrent eviction)."""
        path = self.path(name)
        with self.lock:
            for victim in (path, self.sidecar(path)):
                try:
                    victim.unlink()
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
        """Decode a verified entry, or None.

        The entry and its sidecar are snapshotted under the commit lock
        (so an in-process writer can never be caught between the two);
        the checksum check and ``decoder`` run outside it.  A checksum
        mismatch, a filesystem error, or any exception in ``errors``
        raised by the decoder is treated as damage: the entry is logged
        and evicted — entry and sidecar — so the caller recomputes it and
        the next commit writes a clean pair.  A damaged cache never
        aborts the computation it backs.
        """
        path = self.path(name)
        try:
            with self.lock:
                if not path.exists():
                    return None
                data = path.read_bytes()
                sidecar = self.sidecar(path)
                expected = (sidecar.read_text(encoding="ascii").strip()
                            if self.checksum and sidecar.exists() else None)
            if expected is not None:
                actual = sha256_hex(data)
                if actual != expected:
                    raise ValueError(
                        f"checksum mismatch (expected {expected[:12]}…, "
                        f"got {actual[:12]}…)"
                    )
            return decoder(data)
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
        moment leaves only a temporary file (cleaned up on the next
        attempt's failure path) and possibly a stale sidecar, both
        invisible to :meth:`load`.  A filesystem error (disk full,
        permissions) degrades to a logged warning and False — the caller
        still holds the in-memory value, so a sick disk never aborts the
        computation; the entry is simply recomputed next run.
        """
        path = self.path(name)
        temporary = path.with_name(
            f"{path.name}.tmp-{os.getpid()}-{threading.get_ident()}")
        try:
            if self.fault_site is not None:
                from repro import faults

                faults.fire(self.fault_site, context=path.name)
            with open(temporary, "wb") as stream:
                stream.write(data)
                stream.flush()
                if self.fsync:
                    os.fsync(stream.fileno())
            # Sidecar + rename commit as one unit under the per-directory
            # lock: an in-process reader (or racing writer of the same
            # name) can never pair this entry's bytes with another
            # writer's sidecar.
            with self.lock:
                if self.checksum:
                    atomic_write_text(
                        self.sidecar(path), sha256_hex(data) + "\n",
                        encoding="ascii", fsync=self.fsync, fault_site=None,
                    )
                os.replace(temporary, path)
            if self.fsync:
                fsync_directory(self.directory)
        except OSError as exc:
            try:
                temporary.unlink()
            except OSError:
                pass
            self.log.warning(
                "failed to persist %s (%s: %s); the in-memory value is "
                "unaffected and will be recomputed next run",
                path.name, type(exc).__name__, exc,
            )
            return False
        except BaseException:
            try:
                temporary.unlink()
            except OSError:
                pass
            raise
        if self.fault_site is not None:
            from repro import faults

            faults.mangle(self.fault_site, path)
        return True
