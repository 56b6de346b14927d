"""Tests for PlacementMap and PlacementInputs."""

import numpy as np
import pytest

from repro.placement.base import PlacementInputs, PlacementMap
from repro.trace.analysis import TraceSetAnalysis
from repro.trace.stream import ThreadTrace, TraceSet


def tiny_analysis(num_threads=4):
    threads = []
    for tid in range(num_threads):
        threads.append(
            ThreadTrace(
                tid,
                np.zeros(2, np.int64),
                np.array([0, tid + 1], np.int64),
                np.zeros(2, bool),
            )
        )
    return TraceSetAnalysis(TraceSet("tiny", threads))


class TestPlacementMap:
    def test_basic(self):
        pm = PlacementMap([0, 1, 0, 1], 2)
        assert pm.num_threads == 4
        assert pm.threads_on(0) == [0, 2]
        assert pm.threads_on(1) == [1, 3]
        assert pm.clusters() == [[0, 2], [1, 3]]
        assert list(pm.cluster_sizes()) == [2, 2]

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            PlacementMap([0, 2], 2)
        with pytest.raises(ValueError):
            PlacementMap([-1, 0], 2)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            PlacementMap([], 2)

    def test_from_clusters(self):
        pm = PlacementMap.from_clusters([[0, 3], [1, 2]], 4)
        assert list(pm.assignment) == [0, 1, 1, 0]

    def test_from_clusters_rejects_duplicate(self):
        with pytest.raises(ValueError, match="two clusters"):
            PlacementMap.from_clusters([[0, 1], [1]], 2)

    def test_from_clusters_rejects_missing(self):
        with pytest.raises(ValueError, match="not placed"):
            PlacementMap.from_clusters([[0], [2]], 3)

    def test_from_clusters_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown thread"):
            PlacementMap.from_clusters([[0, 9]], 2)

    def test_loads(self):
        pm = PlacementMap([0, 1, 0], 2)
        assert list(pm.loads([10, 20, 30])) == [40, 20]

    def test_loads_wrong_size(self):
        with pytest.raises(ValueError):
            PlacementMap([0, 1], 2).loads([10])

    def test_thread_balance_predicate(self):
        assert PlacementMap([0, 1, 0, 1, 0], 2).is_thread_balanced()  # 3/2
        assert not PlacementMap([0, 0, 0, 0, 1], 2).is_thread_balanced()  # 4/1

    def test_load_imbalance(self):
        pm = PlacementMap([0, 1], 2)
        assert pm.load_imbalance([30, 10]) == pytest.approx(1.5)
        assert pm.load_imbalance([20, 20]) == pytest.approx(1.0)

    def test_equality(self):
        assert PlacementMap([0, 1], 2) == PlacementMap([0, 1], 2)
        assert PlacementMap([0, 1], 2) != PlacementMap([1, 0], 2)

    def test_search_record_is_not_part_of_the_map(self):
        """``relaxed``/``backtracks`` declare how a map was found; equality
        and serialization see only the assignment."""
        from repro.placement.io import placement_to_json

        plain = PlacementMap([0, 1, 1], 2)
        assert (plain.relaxed, plain.backtracks) == (False, 0)
        searched = PlacementMap([0, 1, 1], 2)
        searched.relaxed, searched.backtracks = True, 2000
        assert searched == plain
        assert placement_to_json(searched) == placement_to_json(plain)


class TestPlacementInputs:
    def test_dimensions(self):
        inputs = PlacementInputs(tiny_analysis(4), num_processors=2)
        assert inputs.num_threads == 4
        assert inputs.thread_lengths.shape == (4,)

    def test_more_processors_than_threads_rejected(self):
        with pytest.raises(ValueError, match="threads < processors"):
            PlacementInputs(tiny_analysis(2), num_processors=4)

    def test_zero_processors_rejected(self):
        with pytest.raises(ValueError):
            PlacementInputs(tiny_analysis(2), num_processors=0)
