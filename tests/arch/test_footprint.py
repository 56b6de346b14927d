"""What a simulation leaves allocated: tag stores sized to the block range,
and replay state that dies with the ``simulate`` call.

The §4.3 "infinite" cache has 2M sets, but a run can only ever touch the
sets of the blocks its traces reference; the tag stores are sized to
that range (exact — see :func:`repro.arch.cache.tag_lines`).  And
nothing the replay kernel builds per call (processors, contexts, their
run-compressed columns) may outlive the call, not even until the next
garbage collection.
"""

import gc
import weakref

import numpy as np
import pytest

from repro.arch.cache import (
    ArrayDirectMappedCache,
    SetAssociativeCache,
    max_block_of,
    tag_lines,
)
from repro.arch.config import ArchConfig
from repro.arch.kernel import FastProcessor
from repro.arch.simulator import simulate
from repro.placement import LoadBal, PlacementInputs
from repro.trace.analysis import TraceSetAnalysis
from repro.workload import build_application


@pytest.fixture(scope="module")
def water_cell():
    traces = build_application("Water", scale=0.002, seed=0)
    placement = LoadBal().place(PlacementInputs(TraceSetAnalysis(traces), 4))
    return traces, placement


def _config(placement, associativity=1, cache_words=None):
    return ArchConfig(
        num_processors=4,
        contexts_per_processor=int(placement.cluster_sizes().max()),
        cache_words=cache_words or ArchConfig.INFINITE_CACHE_WORDS,
        associativity=associativity,
    )


def _tag_store_size(cache) -> int:
    if isinstance(cache, ArrayDirectMappedCache):
        return len(cache._tags)
    return len(cache._sets)


class TestTagLines:
    def test_closed_form(self):
        assert tag_lines(1 << 21, 11_214) == 1 << 14
        assert tag_lines(16, 15) == 16        # blocks fill every set
        assert tag_lines(16, 14) == 16        # max_block + 1 == 15 -> 16
        assert tag_lines(16, 16) == 16        # more blocks than sets
        assert tag_lines(16, 6) == 8
        assert tag_lines(16, 0) == 1
        assert tag_lines(16, None) == 16

    @pytest.mark.parametrize("num_sets", [1, 2, 8, 1 << 21])
    @pytest.mark.parametrize("max_block", [0, 1, 5, 7, 8, 11_214])
    def test_every_block_keeps_its_set(self, num_sets, max_block):
        lines = tag_lines(num_sets, max_block)
        assert lines <= num_sets and lines & (lines - 1) == 0
        blocks = np.arange(max_block + 1)
        assert np.array_equal(blocks & (lines - 1), blocks & (num_sets - 1))


class TestInfiniteCacheFootprint:
    @pytest.mark.parametrize("associativity", [1, 2])
    def test_tag_stores_cover_only_the_block_range(
            self, water_cell, monkeypatch, associativity):
        traces, placement = water_cell
        config = _config(placement, associativity)
        made = []
        for cls in (ArrayDirectMappedCache, SetAssociativeCache):
            init = cls.__init__

            def spy(self, *args, _init=init, **kwargs):
                _init(self, *args, **kwargs)
                made.append(self)

            monkeypatch.setattr(cls, "__init__", spy)
        simulate(traces, placement, config)
        max_block = max_block_of(traces, config.block_bits)
        assert len(made) == config.num_processors
        for cache in made:
            assert cache.num_sets == config.num_sets
            assert _tag_store_size(cache) <= 2 ** max_block.bit_length()


class TestReplayStateLifetime:
    @pytest.mark.parametrize("associativity", [1, 2])
    def test_fast_processors_die_with_the_call(
            self, water_cell, monkeypatch, associativity):
        """No reference cycle keeps a processor (and with it every
        context's columns) alive past ``simulate``: with the collector
        off, only reference counting can free them."""
        traces, placement = water_cell
        config = _config(placement, associativity, cache_words=1024)
        refs = []
        init = FastProcessor.__init__

        def spy(self, *args, **kwargs):
            init(self, *args, **kwargs)
            refs.append(weakref.ref(self))

        monkeypatch.setattr(FastProcessor, "__init__", spy)
        enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            simulate(traces, placement, config)
            assert len(refs) == config.num_processors
            assert all(ref() is None for ref in refs)
        finally:
            if enabled:
                gc.enable()
