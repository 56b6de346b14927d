"""Crash-safe file writes: write-tmp → fsync → rename.

Every artifact the pipeline persists (self-verifying store entries,
JSON/CSV/HTML exports, the rendered report) goes through these helpers,
so a crash — or an injected fault — at any moment leaves either the
complete previous file or the complete new file at the target path,
never a torn hybrid.

The protocol:

1. write the full payload to a uniquely named temporary file *in the
   destination directory* (same filesystem, so the final rename cannot
   degrade to a copy);
2. flush and ``fsync`` the temporary file, so the bytes are durable
   before they become visible;
3. ``os.replace`` onto the destination (atomic on POSIX);
4. best-effort ``fsync`` of the directory, making the rename itself
   durable.

The helpers double as fault-injection points (site ``"artifact"`` by
default): a planned ``disk-full`` fault raises ``OSError`` *before* any
byte reaches the destination, which is exactly the guarantee callers rely
on — a failed write never damages the previous artifact.
"""

from __future__ import annotations

import os
import threading
from pathlib import Path

__all__ = [
    "atomic_write_bytes",
    "atomic_write_text",
    "fsync_directory",
]


def fsync_directory(directory: Path) -> None:
    """Best-effort fsync of a directory (makes renames durable).

    Silently skipped where directories cannot be opened for reading
    (some platforms/filesystems); the write itself is already synced.
    """
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def atomic_write_bytes(
    path: str | Path,
    data: bytes,
    *,
    fault_site: str | None = "artifact",
) -> None:
    """Atomically replace ``path`` with ``data`` (tmp → fsync → rename).

    Args:
        path: Destination file.
        data: Full payload.
        fault_site: Fault-injection site checked before writing (None
            disables the hook).  An injected ``disk-full`` fault raises
            here, with the destination untouched.
    """
    path = Path(path)
    if fault_site is not None:
        from repro import faults

        faults.fire(fault_site, context=path.name)
    # Unique per writer *thread*, not just per process: concurrent
    # threads targeting the same path (the service's executor pool) must
    # not share a temporary file.
    temporary = path.parent / (
        f"{path.name}.tmp-{os.getpid()}-{threading.get_ident()}")
    try:
        with open(temporary, "wb") as stream:
            stream.write(data)
            stream.flush()
            os.fsync(stream.fileno())
        os.replace(temporary, path)
    except BaseException:
        try:
            temporary.unlink()
        except OSError:
            pass
        raise
    fsync_directory(path.parent)


def atomic_write_text(
    path: str | Path,
    text: str,
    *,
    encoding: str = "utf-8",
    fault_site: str | None = "artifact",
) -> None:
    """:func:`atomic_write_bytes` for text payloads."""
    atomic_write_bytes(path, text.encode(encoding), fault_site=fault_site)
