"""Tests for the fault grammar, selectors, injection points and ledger."""

import errno

import pytest

from repro import faults
from repro.faults import (
    FaultPlan,
    InjectedFault,
    parse_fault_spec,
    random_fault_spec,
)


class TestGrammar:
    def test_minimal_fault(self):
        (fault,) = parse_fault_spec("crash:worker")
        assert fault.kind == "crash"
        assert fault.site == "worker"
        assert fault.times == 1
        assert fault.nth is None

    def test_full_parameters(self):
        (fault,) = parse_fault_spec("error:worker:job=Water,nth=2,times=3")
        assert fault.job == "Water"
        assert fault.nth == 2
        assert fault.times == 3

    def test_schedule_of_several(self):
        schedule = parse_fault_spec("crash:worker;torn:journal:nth=5")
        assert [f.kind for f in schedule] == ["crash", "torn"]

    @pytest.mark.parametrize("bad", [
        "",
        "crash",                       # no site
        "meteor:worker",               # unknown kind
        "corrupt:journal",             # kind/site mismatch
        "disk-full:chunks",            # no store fires these sites
        "corrupt:analysis",
        "crash:worker:color=red",      # unknown parameter
        "crash:worker:nth=0",          # out of range
        "error:worker:times=0",
        "hang:worker:secs=0",
        "random:count=2",              # random without seed
    ])
    def test_malformed_specs_raise_value_error(self, bad):
        with pytest.raises(ValueError):
            parse_fault_spec(bad)

    def test_fault_id_round_trips(self):
        for text in ("crash:worker", "error:worker:job=FFT,times=2",
                     "hang:worker:nth=1,secs=9", "torn:journal:nth=7"):
            (fault,) = parse_fault_spec(text)
            (again,) = parse_fault_spec(fault.fault_id)
            assert again == fault

    def test_random_schedule_is_deterministic(self):
        assert random_fault_spec(7) == random_fault_spec(7)
        assert len(parse_fault_spec(random_fault_spec(7, count=6))) == 6

    def test_random_through_parse(self):
        direct = parse_fault_spec(random_fault_spec(3, count=2))
        via_spec = parse_fault_spec("random:seed=3,count=2")
        assert via_spec == direct


class TestSelectors:
    def test_nth_counts_site_invocations(self):
        plan = FaultPlan.from_spec("error:worker:nth=3")
        assert plan.pending("worker") is None
        assert plan.pending("worker") is None
        assert plan.pending("worker") is not None

    def test_job_substring_is_scheduling_independent(self):
        plan = FaultPlan.from_spec("error:worker:job=Water")
        assert plan.pending("worker", "FFT/LOAD-BAL/2p") is None
        assert plan.pending("worker", "Water/RANDOM/4p [r1]") is not None

    def test_kinds_filter_protects_wrong_hooks(self):
        plan = FaultPlan.from_spec("corrupt:store")
        # The pre-write hook (fire) cannot act on a data fault; it must
        # not consume it either.
        assert plan.pending("store",
                            kinds=frozenset({"disk-full"})) is None
        assert plan.pending("store", kinds=frozenset({"corrupt"}),
                            counter="store#data") is not None

    def test_counter_separates_hooks_sharing_a_site(self):
        plan = FaultPlan.from_spec("corrupt:store:nth=1")
        # Advancing the default counter does not advance the data hook's.
        assert plan.pending("store",
                            kinds=frozenset({"disk-full"})) is None
        fault = plan.pending("store", kinds=frozenset({"corrupt"}),
                             counter="store#data")
        assert fault is not None and fault.kind == "corrupt"


class TestLedger:
    def test_firing_is_durable_across_plans(self, tmp_path):
        ledger = tmp_path / "ledger"
        first = FaultPlan.from_spec("error:worker", ledger)
        assert first.pending("worker") is not None
        # A fresh plan (another process, another --resume run) sees the
        # firing and never repeats it.
        second = FaultPlan.from_spec("error:worker", ledger)
        assert second.pending("worker") is None
        assert second.remaining() == []

    def test_times_budget_spans_runs(self, tmp_path):
        ledger = tmp_path / "ledger"
        fired = 0
        for _ in range(5):
            plan = FaultPlan.from_spec("error:worker:times=2", ledger)
            if plan.pending("worker") is not None:
                fired += 1
        assert fired == 2

    def test_ledgerless_times_is_per_process(self):
        plan = FaultPlan.from_spec("error:worker:times=2")
        fired = sum(plan.pending("worker") is not None for _ in range(5))
        assert fired == 2


class TestInjectionPoints:
    def test_no_plan_is_a_noop(self, monkeypatch):
        monkeypatch.delenv(faults.SPEC_VAR, raising=False)
        assert faults.active_plan() is None
        faults.fire("worker", context="anything")  # must not raise

    def test_error_fires_once(self, tmp_path):
        with faults.installed("error:worker", tmp_path / "ledger"):
            with pytest.raises(InjectedFault):
                faults.fire("worker", context="Water/LOAD-BAL/2p")
            faults.fire("worker", context="Water/LOAD-BAL/2p")  # spent

    def test_disk_full_is_enospc(self, tmp_path):
        with faults.installed("disk-full:artifact", tmp_path / "ledger"):
            with pytest.raises(OSError) as info:
                faults.fire("artifact", context="report.json")
        assert info.value.errno == errno.ENOSPC

    def test_mangle_corrupt_damages_in_place(self, tmp_path):
        victim = tmp_path / "entry.npz"
        victim.write_bytes(b"A" * 64)
        with faults.installed("corrupt:store", tmp_path / "ledger"):
            assert faults.mangle("store", victim) is True
        assert victim.stat().st_size == 64
        assert victim.read_bytes() != b"A" * 64

    def test_mangle_truncate_halves_the_file(self, tmp_path):
        victim = tmp_path / "entry.npz"
        victim.write_bytes(b"B" * 64)
        with faults.installed("truncate:store", tmp_path / "ledger"):
            assert faults.mangle("store", victim) is True
        assert victim.stat().st_size == 32

    def test_mangle_without_matching_fault_leaves_file(self, tmp_path):
        victim = tmp_path / "entry.npz"
        victim.write_bytes(b"C" * 64)
        with faults.installed("corrupt:store:job=other", tmp_path / "ledger"):
            assert faults.mangle("store", victim) is False
        assert victim.read_bytes() == b"C" * 64
