"""Tests for the persistent result store."""

import io

import numpy as np
import pytest

from repro.arch.config import ArchConfig
from repro.arch.simulator import simulate
from repro.arch.stats import MissKind
from repro.experiments.cache import ResultStore, result_from_arrays, result_to_arrays
from repro.experiments.runner import ExperimentSuite
from repro.placement.base import PlacementMap
from repro.trace.stream import ThreadTrace, TraceSet
from repro.util.verified_store import TRAILER_BYTES, VerifiedDirectory


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


def stored_arrays(path):
    """The arrays of a store entry: its payload without the trailer."""
    payload = path.read_bytes()[:-TRAILER_BYTES]
    with np.load(io.BytesIO(payload)) as arrays:
        return dict(arrays)


def recommit(path, arrays):
    """Rewrite a store entry through the verified commit, so its trailer
    is valid and only the decoder can object to the crafted arrays."""
    buffer = io.BytesIO()
    np.savez_compressed(buffer, **arrays)
    entries = VerifiedDirectory(path.parent)
    assert entries.commit(path.name, buffer.getvalue())


class TestRoundTrip:
    def test_arrays_round_trip(self):
        result = small_result()
        rebuilt = result_from_arrays(result_to_arrays(result))
        assert rebuilt.execution_time == result.execution_time
        assert rebuilt.total_refs == result.total_refs
        assert rebuilt.miss_breakdown() == result.miss_breakdown()
        assert rebuilt.cache_totals.hits == result.cache_totals.hits
        assert np.array_equal(rebuilt.pairwise_coherence, result.pairwise_coherence)
        for a, b in zip(rebuilt.processors, result.processors):
            assert (a.busy, a.switching, a.idle, a.completion_time) == (
                b.busy, b.switching, b.idle, b.completion_time
            )

    def test_version_guard(self):
        arrays = result_to_arrays(small_result())
        arrays["scalars"] = arrays["scalars"].copy()
        arrays["scalars"][0] = 99
        with pytest.raises(ValueError, match="version"):
            result_from_arrays(arrays)


class TestResultStore:
    def test_store_and_load(self, tmp_path):
        store = ResultStore(tmp_path)
        result = small_result()
        store.store(("cell", 1), result)
        loaded = store.load(("cell", 1))
        assert loaded is not None
        assert loaded.execution_time == result.execution_time
        assert len(store) == 1

    def test_miss_returns_none(self, tmp_path):
        assert ResultStore(tmp_path).load(("nothing",)) is None

    def test_distinct_keys_distinct_files(self, tmp_path):
        store = ResultStore(tmp_path)
        result = small_result()
        store.store(("a",), result)
        store.store(("b",), result)
        assert len(store) == 2

    def test_corrupt_file_is_a_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        store.store(("x",), small_result())
        path = next(tmp_path.glob("*.npz"))
        path.write_bytes(b"garbage")
        assert store.load(("x",)) is None

    def test_corrupt_file_is_evicted_and_logged(self, tmp_path, caplog):
        store = ResultStore(tmp_path)
        store.store(("x",), small_result())
        path = next(tmp_path.glob("*.npz"))
        path.write_bytes(b"garbage")
        with caplog.at_level("WARNING", logger="repro.experiments.cache"):
            assert store.load(("x",)) is None
        assert not path.exists()
        assert "evicting" in caplog.text
        # A recompute-and-store writes a clean entry again.
        store.store(("x",), small_result())
        assert store.load(("x",)) is not None

    def test_truncated_file_is_evicted(self, tmp_path):
        store = ResultStore(tmp_path)
        store.store(("x",), small_result())
        path = next(tmp_path.glob("*.npz"))
        path.write_bytes(path.read_bytes()[:20])  # valid zip magic, cut off
        assert store.load(("x",)) is None
        assert not path.exists()

    def test_stale_format_version_is_evicted(self, tmp_path, caplog):
        store = ResultStore(tmp_path)
        store.store(("x",), small_result())
        path = next(tmp_path.glob("*.npz"))
        arrays = stored_arrays(path)
        arrays["scalars"] = arrays["scalars"].copy()
        arrays["scalars"][0] = 99  # future format version
        recommit(path, arrays)
        with caplog.at_level("WARNING", logger="repro.experiments.cache"):
            assert store.load(("x",)) is None
        assert not path.exists()
        assert "version" in caplog.text
        assert "checksum" not in caplog.text

    def test_missing_array_is_evicted(self, tmp_path, caplog):
        store = ResultStore(tmp_path)
        store.store(("x",), small_result())
        path = next(tmp_path.glob("*.npz"))
        arrays = stored_arrays(path)
        del arrays["hits"]
        recommit(path, arrays)
        with caplog.at_level("WARNING", logger="repro.experiments.cache"):
            assert store.load(("x",)) is None
        assert not path.exists()
        assert "KeyError" in caplog.text
        assert "checksum" not in caplog.text

    def test_contains(self, tmp_path):
        store = ResultStore(tmp_path)
        assert not store.contains(("x",))
        store.store(("x",), small_result())
        assert store.contains(("x",))
        assert not store.contains(("y",))

    def test_creates_directory(self, tmp_path):
        nested = tmp_path / "a" / "b"
        ResultStore(nested)
        assert nested.is_dir()


class TestSuiteIntegration:
    def test_second_suite_reuses_results(self, tmp_path):
        first = ExperimentSuite(scale=0.001, seed=0, cache_dir=str(tmp_path))
        time_first = first.execution_time("Water", "LOAD-BAL", 2)
        assert len(ResultStore(tmp_path)) >= 1

        second = ExperimentSuite(scale=0.001, seed=0, cache_dir=str(tmp_path))
        time_second = second.execution_time("Water", "LOAD-BAL", 2)
        assert time_second == time_first

    def test_different_scale_different_cells(self, tmp_path):
        a = ExperimentSuite(scale=0.001, seed=0, cache_dir=str(tmp_path))
        a.execution_time("Water", "LOAD-BAL", 2)
        count_after_first = len(ResultStore(tmp_path))
        b = ExperimentSuite(scale=0.002, seed=0, cache_dir=str(tmp_path))
        b.execution_time("Water", "LOAD-BAL", 2)
        assert len(ResultStore(tmp_path)) > count_after_first

    def test_cached_result_preserves_miss_breakdown(self, tmp_path):
        first = ExperimentSuite(scale=0.001, seed=0, cache_dir=str(tmp_path))
        original = first.run("Water", "LOAD-BAL", 2).miss_breakdown()
        second = ExperimentSuite(scale=0.001, seed=0, cache_dir=str(tmp_path))
        cached = second.run("Water", "LOAD-BAL", 2).miss_breakdown()
        assert cached == original
        assert set(cached) == set(MissKind)
