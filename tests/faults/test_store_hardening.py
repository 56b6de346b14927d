"""Crash-safe result store: checksums, eviction, and injected damage.

Every failure mode here maps to a real deployment hazard — bit rot on
the cache volume (corrupt), a crash mid-flush (truncate), a full disk
(ENOSPC) — and the contract is always the same: ``load`` never returns
damaged data, damaged entries are evicted so a recompute heals them, and
``store`` reports failure instead of raising.
"""

import hashlib

import numpy as np

from repro import faults
from repro.experiments.cache import ResultStore
from repro.placement.base import PlacementMap
from repro.arch.config import ArchConfig
from repro.arch.simulator import simulate
from repro.trace.stream import ThreadTrace, TraceSet
from repro.util.verified_store import TRAILER_BYTES


def small_result():
    rng = np.random.default_rng(3)
    threads = []
    for tid in range(3):
        n = 40
        threads.append(
            ThreadTrace(
                tid,
                rng.integers(0, 3, n).astype(np.int64),
                rng.integers(0, 64, n).astype(np.int64),
                rng.random(n) < 0.3,
            )
        )
    app = TraceSet("t", threads)
    return simulate(app, PlacementMap([0, 1, 0], 2), ArchConfig(2, 2, cache_words=64))


class TestChecksums:
    def test_store_writes_a_trailer(self, tmp_path):
        store = ResultStore(tmp_path)
        assert store.store(("x",), small_result()) is True
        entry = next(tmp_path.glob("*.npz"))
        assert [p.name for p in tmp_path.iterdir()] == [entry.name]
        data = entry.read_bytes()
        payload, trailer = data[:-TRAILER_BYTES], data[-TRAILER_BYTES:]
        assert trailer == hashlib.sha256(payload).digest()
        assert store.load(("x",)) is not None

    def test_flipped_byte_fails_verification_and_evicts(self, tmp_path, caplog):
        store = ResultStore(tmp_path)
        store.store(("x",), small_result())
        entry = next(tmp_path.glob("*.npz"))
        data = bytearray(entry.read_bytes())
        data[len(data) // 2] ^= 0xFF  # single-bit-rot class of damage
        entry.write_bytes(bytes(data))
        with caplog.at_level("WARNING", logger="repro.experiments.cache"):
            assert store.load(("x",)) is None
        assert not entry.exists()
        assert "checksum" in caplog.text

    def test_flipped_trailer_byte_fails_verification_and_evicts(
            self, tmp_path, caplog):
        store = ResultStore(tmp_path)
        store.store(("x",), small_result())
        entry = next(tmp_path.glob("*.npz"))
        data = bytearray(entry.read_bytes())
        data[-TRAILER_BYTES] ^= 0x01
        entry.write_bytes(bytes(data))
        with caplog.at_level("WARNING", logger="repro.experiments.cache"):
            assert store.load(("x",)) is None
        assert not entry.exists()
        assert "checksum" in caplog.text

    def test_file_shorter_than_trailer_is_evicted(self, tmp_path, caplog):
        store = ResultStore(tmp_path)
        store.store(("x",), small_result())
        entry = next(tmp_path.glob("*.npz"))
        entry.write_bytes(entry.read_bytes()[:TRAILER_BYTES - 1])
        with caplog.at_level("WARNING", logger="repro.experiments.cache"):
            assert store.load(("x",)) is None
        assert not entry.exists()
        assert "evicting" in caplog.text

    def test_sidecar_era_entry_is_evicted_and_recomputed(self, tmp_path):
        # The previous format: a bare .npz with a correct .sha256 sidecar
        # beside it.  It fails the trailer check and is recomputed.
        result = small_result()
        store = ResultStore(tmp_path)
        store.store(("x",), result)
        entry = next(tmp_path.glob("*.npz"))
        payload = entry.read_bytes()[:-TRAILER_BYTES]
        entry.write_bytes(payload)
        entry.with_name(entry.name + ".sha256").write_text(
            hashlib.sha256(payload).hexdigest() + "\n")
        assert store.load(("x",)) is None
        assert not entry.exists()
        assert store.store(("x",), result) is True
        assert store.load(("x",)).execution_time == result.execution_time

    def test_len_ignores_leftover_sidecars(self, tmp_path):
        store = ResultStore(tmp_path)
        store.store(("x",), small_result())
        entry = next(tmp_path.glob("*.npz"))
        entry.with_name(entry.name + ".sha256").write_text("0" * 64 + "\n")
        (tmp_path / "gone.npz.sha256").write_text("0" * 64 + "\n")
        assert len(store) == 1


class TestInjectedDamage:
    def test_corrupt_fault_round_trip_heals_on_restore(self, tmp_path):
        result = small_result()
        with faults.installed("corrupt:store", tmp_path / "ledger"):
            store = ResultStore(tmp_path / "cache")
            assert store.store(("x",), result) is True  # commit then damage
            assert store.load(("x",)) is None            # detected + evicted
            assert not store.contains(("x",))
            # The fault is spent; the recompute path stores cleanly.
            assert store.store(("x",), result) is True
            assert store.load(("x",)) is not None

    def test_truncate_fault_round_trip(self, tmp_path):
        result = small_result()
        with faults.installed("truncate:store", tmp_path / "ledger"):
            store = ResultStore(tmp_path / "cache")
            assert store.store(("x",), result) is True
            assert store.load(("x",)) is None
            assert store.store(("x",), result) is True
            assert store.load(("x",)) is not None

    def test_disk_full_reports_failure_without_litter(self, tmp_path, caplog):
        result = small_result()
        with faults.installed("disk-full:store", tmp_path / "ledger"):
            store = ResultStore(tmp_path / "cache")
            with caplog.at_level("WARNING", logger="repro.experiments.cache"):
                assert store.store(("x",), result) is False
            assert not store.contains(("x",))
            assert not list((tmp_path / "cache").glob("*.tmp-*"))
            # Space freed (fault spent): the next attempt succeeds.
            assert store.store(("x",), result) is True
            assert store.load(("x",)) is not None
