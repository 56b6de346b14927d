"""The verify/commit/evict discipline behind the on-disk result store.

:class:`repro.util.verified_store.VerifiedDirectory` is the code path
ResultStore relies on for crash-safe commits and damage detection;
these tests pin its contract directly so a regression cannot hide
behind the store's own suite.
"""

from __future__ import annotations

import hashlib
import os
import stat
import sys
import threading

import pytest

from repro import faults
from repro.util.verified_store import TRAILER_BYTES, VerifiedDirectory


def make(tmp_path, **kwargs):
    return VerifiedDirectory(tmp_path / "store", **kwargs)


def flip(path, index):
    data = bytearray(path.read_bytes())
    data[index] ^= 0xFF
    path.write_bytes(bytes(data))


class TestRoundTrip:
    def test_commit_then_load(self, tmp_path):
        store = make(tmp_path)
        assert store.commit("a.bin", b"payload") is True
        assert store.load("a.bin", bytes) == b"payload"

    def test_missing_entry_is_none(self, tmp_path, caplog):
        store = make(tmp_path)
        with caplog.at_level("WARNING", logger="repro.util.verified_store"):
            assert store.load("absent.bin", bytes) is None
        assert not caplog.text

    def test_sidecar_naming_matches_result_store(self, tmp_path):
        # One file per entry, named exactly as given (ResultStore's
        # ``<digest>.npz``), ending in the payload's sha256 trailer.
        store = make(tmp_path)
        store.commit("a.bin", b"payload")
        assert [p.name for p in store.directory.iterdir()] == ["a.bin"]
        assert (store.directory / "a.bin").read_bytes() == (
            b"payload" + hashlib.sha256(b"payload").digest())
        assert TRAILER_BYTES == 32

    def test_overwrite_replaces_entry_and_sidecar(self, tmp_path):
        store = make(tmp_path)
        store.commit("a.bin", b"one")
        old_trailer = (store.directory / "a.bin").read_bytes()[-TRAILER_BYTES:]
        store.commit("a.bin", b"two")
        assert store.load("a.bin", bytes) == b"two"
        new_trailer = (store.directory / "a.bin").read_bytes()[-TRAILER_BYTES:]
        assert new_trailer != old_trailer

    def test_no_temporaries_left_behind(self, tmp_path):
        store = make(tmp_path)
        store.commit("a.bin", b"payload")
        assert not list(store.directory.glob("*.tmp-*"))

    def test_commit_fsyncs_file_then_directory(self, tmp_path, monkeypatch):
        # Durability pin: the temporary file is synced before it becomes
        # visible, and the directory after the rename — two fsyncs, no more.
        store = make(tmp_path)
        events: list[str] = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            kind = "dir" if stat.S_ISDIR(os.fstat(fd).st_mode) else "file"
            events.append(f"fsync-{kind}")
            real_fsync(fd)

        def replace(src, dst):
            events.append("replace")
            real_replace(src, dst)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        assert store.commit("a.bin", b"payload") is True
        assert events == ["fsync-file", "replace", "fsync-dir"]


class TestDamage:
    def test_flipped_byte_evicts_entry_and_sidecar(self, tmp_path, caplog):
        store = make(tmp_path)
        store.commit("a.bin", b"payload")
        flip(store.directory / "a.bin", 3)  # inside the payload
        with caplog.at_level("WARNING", logger="repro.util.verified_store"):
            assert store.load("a.bin", bytes) is None
        assert not (store.directory / "a.bin").exists()
        assert "checksum" in caplog.text
        assert "evicting" in caplog.text

    def test_flipped_trailer_byte_evicts(self, tmp_path, caplog):
        store = make(tmp_path)
        store.commit("a.bin", b"payload")
        flip(store.directory / "a.bin", -1)  # inside the trailer
        with caplog.at_level("WARNING", logger="repro.util.verified_store"):
            assert store.load("a.bin", bytes) is None
        assert not (store.directory / "a.bin").exists()
        assert "checksum" in caplog.text

    def test_file_shorter_than_trailer_evicts(self, tmp_path, caplog):
        store = make(tmp_path)
        store.commit("a.bin", b"payload")
        entry = store.directory / "a.bin"
        entry.write_bytes(entry.read_bytes()[:TRAILER_BYTES - 1])
        with caplog.at_level("WARNING", logger="repro.util.verified_store"):
            assert store.load("a.bin", bytes) is None
        assert not entry.exists()
        assert "evicting" in caplog.text

    def test_entry_with_old_sidecar_is_evicted(self, tmp_path):
        # The previous format: a bare payload with a correct sha256
        # sidecar beside it.  It fails the trailer check like any damage.
        store = make(tmp_path)
        payload = b"payload" * 8  # longer than a trailer
        (store.directory / "a.bin").write_bytes(payload)
        (store.directory / "a.bin.sha256").write_text(
            hashlib.sha256(payload).hexdigest() + "\n")
        assert store.load("a.bin", bytes) is None
        assert not (store.directory / "a.bin").exists()
        assert store.commit("a.bin", payload) is True
        assert store.load("a.bin", bytes) == payload

    def test_decoder_error_in_errors_tuple_evicts(self, tmp_path, caplog):
        # A correctly trailed payload that only the decoder rejects.
        store = make(tmp_path)
        store.commit("a.bin", b"bad")

        def decoder(data):
            raise KeyError("missing field")

        with caplog.at_level("WARNING", logger="repro.util.verified_store"):
            assert store.load("a.bin", decoder, errors=(KeyError,)) is None
        assert not (store.directory / "a.bin").exists()
        assert "KeyError" in caplog.text
        assert "checksum" not in caplog.text

    def test_decoder_error_outside_errors_tuple_propagates(self, tmp_path):
        store = make(tmp_path)
        store.commit("a.bin", b"payload")

        def decoder(data):
            raise RuntimeError("bug, not damage")

        with pytest.raises(RuntimeError):
            store.load("a.bin", decoder)
        # A programming error must not destroy a healthy entry.
        assert (store.directory / "a.bin").exists()

    def test_evict_tolerates_missing_entry(self, tmp_path):
        make(tmp_path).evict("never-existed.bin")


class TestFaultSites:
    def test_disk_full_degrades_to_false(self, tmp_path, caplog):
        with faults.installed("disk-full:store", tmp_path / "ledger"):
            store = make(tmp_path, fault_site="store")
            with caplog.at_level("WARNING",
                                 logger="repro.util.verified_store"):
                assert store.commit("a.bin", b"payload") is False
            assert store.load("a.bin", bytes) is None
            assert not list(store.directory.glob("*.tmp-*"))
            # The fault is spent; the retry commits cleanly.
            assert store.commit("a.bin", b"payload") is True

    def test_corrupt_after_commit_is_detected_on_load(self, tmp_path):
        with faults.installed("corrupt:store", tmp_path / "ledger"):
            store = make(tmp_path, fault_site="store")
            assert store.commit("a.bin", b"payload") is True
            assert store.load("a.bin", bytes) is None  # damaged + evicted
            assert store.commit("a.bin", b"payload") is True
            assert store.load("a.bin", bytes) == b"payload"

    def test_no_fault_site_means_no_injection(self, tmp_path):
        with faults.installed("disk-full:store", tmp_path / "ledger"):
            store = make(tmp_path)  # fault_site=None
            assert store.commit("a.bin", b"payload") is True


class TestCommitLock:
    def test_concurrent_commits_and_loads_never_misparse(self, tmp_path,
                                                        caplog):
        # Hammer one entry name from several threads, with no lock: every
        # load must see one complete committed file (never a torn one, so
        # never an eviction).
        store = make(tmp_path)
        payloads = [bytes([i]) * 64 for i in range(4)]
        stop = threading.Event()
        failures: list[object] = []

        def writer(payload: bytes) -> None:
            while not stop.is_set():
                store.commit("hot.bin", payload)

        def reader() -> None:
            while not stop.is_set():
                value = store.load("hot.bin", bytes)
                if value is not None and value not in payloads:
                    failures.append(value)

        threads = [threading.Thread(target=writer, args=(p,))
                   for p in payloads]
        threads += [threading.Thread(target=reader) for _ in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often, mid-commit
        try:
            with caplog.at_level("WARNING",
                                 logger="repro.util.verified_store"):
                for t in threads:
                    t.start()
                stop.wait(0.5)
                stop.set()
                for t in threads:
                    t.join(timeout=10)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not failures
        assert "evicting" not in caplog.text
        assert store.load("hot.bin", bytes) in payloads
