"""The shared verify/commit/evict discipline behind both on-disk stores.

:class:`repro.util.verified_store.VerifiedDirectory` is the single code
path ResultStore and the trace ChunkStore rely on for crash-safe
commits and damage detection; these tests pin its contract directly so a
regression cannot hide behind either store's own suite.
"""

from __future__ import annotations

import threading

import pytest

from repro import faults
from repro.util.verified_store import VerifiedDirectory, commit_lock_for


def make(tmp_path, **kwargs):
    return VerifiedDirectory(tmp_path / "store", **kwargs)


class TestRoundTrip:
    def test_commit_then_load(self, tmp_path):
        store = make(tmp_path)
        assert store.commit("a.bin", b"payload") is True
        assert store.load("a.bin", bytes) == b"payload"

    def test_missing_entry_is_none(self, tmp_path):
        store = make(tmp_path)
        assert store.load("absent.bin", bytes) is None

    def test_sidecar_naming_matches_result_store(self, tmp_path):
        # The ``<entry>.sha256`` convention is shared with ResultStore and
        # pinned by its hardening suite; keep the helper aligned.
        store = make(tmp_path)
        store.commit("a.bin", b"payload")
        assert (store.directory / "a.bin.sha256").exists()

    def test_overwrite_replaces_entry_and_sidecar(self, tmp_path):
        store = make(tmp_path)
        store.commit("a.bin", b"one")
        old_sidecar = (store.directory / "a.bin.sha256").read_text()
        store.commit("a.bin", b"two")
        assert store.load("a.bin", bytes) == b"two"
        assert (store.directory / "a.bin.sha256").read_text() != old_sidecar

    def test_no_temporaries_left_behind(self, tmp_path):
        store = make(tmp_path)
        store.commit("a.bin", b"payload")
        assert not list(store.directory.glob("*.tmp-*"))


class TestDamage:
    def test_flipped_byte_evicts_entry_and_sidecar(self, tmp_path, caplog):
        store = make(tmp_path)
        store.commit("a.bin", b"payload")
        (store.directory / "a.bin").write_bytes(b"payLoad")
        with caplog.at_level("WARNING", logger="repro.util.verified_store"):
            assert store.load("a.bin", bytes) is None
        assert not (store.directory / "a.bin").exists()
        assert not (store.directory / "a.bin.sha256").exists()
        assert "checksum" in caplog.text
        assert "evicting" in caplog.text

    def test_decoder_error_in_errors_tuple_evicts(self, tmp_path):
        store = make(tmp_path)
        store.commit("a.bin", b"payload")
        # Re-checksum the damaged bytes so only the decoder objects.
        (store.directory / "a.bin").write_bytes(b"bad")
        from repro.util.atomicio import sha256_hex
        (store.directory / "a.bin.sha256").write_text(sha256_hex(b"bad") + "\n")

        def decoder(data):
            raise KeyError("missing field")

        assert store.load("a.bin", decoder, errors=(KeyError,)) is None
        assert not (store.directory / "a.bin").exists()

    def test_decoder_error_outside_errors_tuple_propagates(self, tmp_path):
        store = make(tmp_path)
        store.commit("a.bin", b"payload")

        def decoder(data):
            raise RuntimeError("bug, not damage")

        with pytest.raises(RuntimeError):
            store.load("a.bin", decoder)
        # A programming error must not destroy a healthy entry.
        assert (store.directory / "a.bin").exists()

    def test_missing_sidecar_is_tolerated(self, tmp_path):
        # Entries written by checksum-disabled writers stay loadable.
        store = make(tmp_path)
        store.commit("a.bin", b"payload")
        (store.directory / "a.bin.sha256").unlink()
        assert store.load("a.bin", bytes) == b"payload"

    def test_checksums_can_be_disabled(self, tmp_path):
        store = make(tmp_path, checksum=False)
        store.commit("a.bin", b"payload")
        assert not (store.directory / "a.bin.sha256").exists()
        assert store.load("a.bin", bytes) == b"payload"

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
    def test_same_directory_shares_one_lock(self, tmp_path):
        a = commit_lock_for(tmp_path / "x")
        b = commit_lock_for(tmp_path / "x")
        c = commit_lock_for(tmp_path / "y")
        assert a is b
        assert a is not c

    def test_concurrent_commits_and_loads_never_misparse(self, tmp_path):
        # Hammer one entry name from several threads; every load must see
        # a complete committed payload (never a torn pair → eviction).
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
        for t in threads:
            t.start()
        stop.wait(0.5)
        stop.set()
        for t in threads:
            t.join()
        assert not failures
        assert store.load("hot.bin", bytes) in payloads
