"""The batched generator against the run-at-a-time reference.

:mod:`repro.workload.generator` draws each channel's runs in one batch
and assembles a thread with one gather;
:mod:`tests.workload.reference_generator` is the original generator that
drew and concatenated one small array per run.  For the same recipe and
the same generator state both must produce the same bytes and leave the
generator in the same state.  The property covers random recipes; the
named cases pin the corners a random draw is unlikely to hit.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.workload.address_space import AddressSpace
from repro.workload.channels import PoolChannel
from repro.workload.generator import (
    ThreadRecipe,
    _MAX_RUN,
    generate_thread,
    probe_thread,
)

from tests.workload import reference_generator

pytestmark = pytest.mark.oracle


def assert_same_thread(recipe: ThreadRecipe, seed: int) -> None:
    """Both generators agree on every column and on the stream consumed."""
    fast_rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    try:
        expected = reference_generator.generate_thread(recipe, reference_rng)
    except ValueError:
        with pytest.raises(ValueError):
            generate_thread(recipe, fast_rng)
        return
    actual = generate_thread(recipe, fast_rng)
    for column in ("gaps", "addrs", "writes"):
        left, right = getattr(actual, column), getattr(expected, column)
        assert left.dtype == right.dtype, column
        assert np.array_equal(left, right), column
    assert fast_rng.random() == reference_rng.random()


def make_recipe(*, length, channels=(), private=None, phases=1, shared_fraction=0.6,
                data_ref_fraction=0.3, private_mean_run=8.0, private_write_prob=0.3,
                private_reuse=24.0, private_window=4) -> ThreadRecipe:
    """A recipe over a fresh address space.

    ``channels`` are (words, weight, write_prob, mean_run, span,
    run_level_writes) tuples; ``private`` is the private region's size in
    words, or None for no private region.
    """
    space = AddressSpace()
    pools = [
        PoolChannel(region=space.allocate(f"pool-{i}", words), weight=weight,
                    write_prob=write_prob, mean_run=mean_run, span=min(span, words),
                    run_level_writes=run_level)
        for i, (words, weight, write_prob, mean_run, span, run_level)
        in enumerate(channels)
    ]
    return ThreadRecipe(
        thread_id=0,
        length=length,
        data_ref_fraction=data_ref_fraction,
        shared_fraction=shared_fraction,
        channels=pools,
        private_region=None if private is None else space.allocate("private", private),
        private_reuse=private_reuse,
        private_mean_run=private_mean_run,
        private_write_prob=private_write_prob,
        private_window=private_window,
        phases=phases,
    )


channel_specs = st.tuples(
    st.integers(1, 64),                                    # region words
    st.sampled_from([1.0, 0.5, 0.25, 1e-6]),               # weight (1e-6: zero quota)
    st.sampled_from([0.0, 0.3, 0.7, 1.0]),                 # write_prob
    st.sampled_from([1.0, 3.0, 8.0, 40.0]),                # mean_run
    st.integers(1, 8),                                     # span (capped by words)
    st.booleans(),                                         # run-level writes
)


@st.composite
def recipes(draw):
    return make_recipe(
        length=draw(st.integers(1, 3000)),
        channels=draw(st.lists(channel_specs, max_size=4)),
        private=draw(st.one_of(st.none(), st.integers(1, 256))),
        phases=draw(st.integers(1, 6)),
        shared_fraction=draw(st.sampled_from([0.0, 0.3, 0.6, 0.95, 1.0])),
        data_ref_fraction=draw(st.sampled_from([0.0, 0.1, 0.3, 1.0])),
        private_mean_run=draw(st.sampled_from([1.0, 4.0, 8.0, 100.0])),
        private_write_prob=draw(st.sampled_from([0.0, 0.3, 1.0])),
        private_reuse=draw(st.sampled_from([1.0, 24.0, 500.0])),
        private_window=draw(st.integers(1, 8)),
    )


@settings(max_examples=150, deadline=None)
@given(recipe=recipes(), seed=st.integers(0, 2**32 - 1))
def test_generator_matches_reference_on_random_recipes(recipe, seed):
    assert_same_thread(recipe, seed)


READS = (64, 1.0, 0.0, 8.0, 4, False)
ZONE = (8, 0.3, 0.6, 8.0, 4, True)

CORNERS = {
    "phases-1": dict(length=2000, channels=[READS, ZONE], private=96),
    "phases-6": dict(length=2000, channels=[READS, ZONE], private=96, phases=6),
    "run-level-writes": dict(length=1500, channels=[(16, 1.0, 0.5, 6.0, 1, True)],
                             private=64),
    "span-above-one": dict(length=1500, channels=[(32, 1.0, 0.4, 20.0, 8, False)],
                           private=64),
    "write-prob-zero": dict(length=1500, channels=[(16, 1.0, 0.0, 5.0, 2, False)],
                            private=64, private_write_prob=0.0, phases=3),
    "write-prob-one": dict(length=1500, channels=[(16, 1.0, 1.0, 5.0, 2, False)],
                           private=64, private_write_prob=1.0, phases=3),
    "working-set-shorter-than-run": dict(length=3000, private=3, private_window=1,
                                         private_mean_run=50.0, shared_fraction=0.0),
    "max-run-truncation": dict(length=60_000,
                               channels=[(16, 1.0, 0.5, 30_000.0, 4, False)],
                               private=64, shared_fraction=0.5,
                               private_mean_run=30_000.0, private_reuse=1.0),
    "zero-quota-channel": dict(length=300, channels=[READS, (8, 1e-6, 1.0, 4.0, 4, True)],
                               private=32, phases=2),
    "no-channels": dict(length=1000, private=64, shared_fraction=0.9),
    "no-private-region": dict(length=1000, channels=[READS, ZONE], phases=4),
    "single-reference": dict(length=1, channels=[READS], private=8),
    "no-data-refs": dict(length=50, channels=[READS], private=8, data_ref_fraction=0.0),
    "neither-channels-nor-private": dict(length=100),
}


@pytest.mark.parametrize("case", sorted(CORNERS))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_generator_matches_reference_on_corner(case, seed):
    assert_same_thread(make_recipe(**CORNERS[case]), seed)


def test_max_run_truncation_case_really_truncates():
    """The max-run corner must actually cut shared runs at the cap."""
    probe = probe_thread(make_recipe(**CORNERS["max-run-truncation"]),
                         np.random.default_rng(0))
    assert probe.lengths.max() == _MAX_RUN
