"""Tests for the crash-safe write helpers."""

import pytest

from repro import faults
from repro.util.atomicio import atomic_write_bytes, atomic_write_text


class TestAtomicWrite:
    def test_creates_file_with_content(self, tmp_path):
        target = tmp_path / "out.txt"
        atomic_write_text(target, "hello\n")
        assert target.read_text() == "hello\n"

    def test_replaces_existing_file(self, tmp_path):
        target = tmp_path / "out.txt"
        target.write_text("old")
        atomic_write_bytes(target, b"new")
        assert target.read_bytes() == b"new"

    def test_leaves_no_temporaries_behind(self, tmp_path):
        atomic_write_text(tmp_path / "a.txt", "x")
        assert [p.name for p in tmp_path.iterdir()] == ["a.txt"]

    def test_injected_disk_full_preserves_previous_artifact(self, tmp_path):
        target = tmp_path / "report.json"
        target.write_text("previous complete artifact")
        with faults.installed("disk-full:artifact", tmp_path / "ledger"):
            with pytest.raises(OSError):
                atomic_write_text(target, "half-baked replacement")
        # The failed write touched nothing: old content, no tmp litter.
        assert target.read_text() == "previous complete artifact"
        assert not list(tmp_path.glob("*.tmp-*"))

    def test_fault_site_none_disables_the_hook(self, tmp_path):
        target = tmp_path / "note.txt"
        with faults.installed("disk-full:artifact", tmp_path / "ledger"):
            atomic_write_text(target, "abc\n", fault_site=None)
        assert target.read_text() == "abc\n"
