"""Pinned content addresses: request digests and cell job ids.

Every persisted job directory, store entry and journal is named by these
hashes, so a refactor of the request or planning code must leave them
byte-for-byte unchanged.  The literals were computed before the request
fields became one table.
"""

import pytest

from repro.exec.jobs import JobSpec
from repro.experiments.api import SuiteRequest

PINNED_DIGESTS = [
    (SuiteRequest(), "742bbe3704962a8c90c7f2150207c81f"),
    (SuiteRequest(sections=("figure4",), scale=0.001,
                  topology="numa:2:50:150"),
     "683dcd3ecbd9f330f8e4465c5843cb9d"),
    (SuiteRequest(sections=("table1",), charts=True, check_invariants=True),
     "592147e38f26a3d44dc1b78327d79d8c"),
    (SuiteRequest(sections=("figure5",), seed=7, quantum_refs=128),
     "2011f5162010e811e3349596855ae506"),
]


@pytest.mark.parametrize("request_, digest", PINNED_DIGESTS,
                         ids=["all", "figure4-numa", "table1-audited",
                              "figure5-seed7-q128"])
def test_digest_is_pinned(request_, digest):
    assert request_.digest == digest


def test_job_ids_are_pinned():
    plain = JobSpec(app="Barnes-Hut", algorithm="LOAD-BAL", processors=2,
                    scale=0.001)
    tiered = JobSpec(app="Water", algorithm="SHARE-REFS+LB", processors=16,
                     infinite=True, scale=0.001, seed=7,
                     topology="numa:2:50:150")
    assert plain.job_id == "5c6dddf01be06ab8dd241ffd89a01f40"
    assert tiered.job_id == "c8eb9915c6092a9b782dfd35a6327932"
