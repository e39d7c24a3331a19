"""Unit tests for repro.core.routing."""

import numpy as np
import pytest

from repro.core.partition import build_plan
from repro.core.routing import (
    shard_candidate_lists,
    staggered_order,
    touched_shards,
)


@pytest.fixture()
def hybrid_plan(trained_index):
    return build_plan(trained_index, 4, 2, 2)


@pytest.fixture()
def dim_plan(trained_index):
    return build_plan(trained_index, 4, 1, 4)


class TestTouchedShards:
    def test_unique_sorted(self, hybrid_plan):
        probe_row = np.array([0, 1, 2, 3, 4, 5])
        shards = touched_shards(hybrid_plan, probe_row)
        assert np.all(np.diff(shards) > 0)
        assert set(shards) <= {0, 1}

    def test_single_list(self, hybrid_plan):
        shards = touched_shards(hybrid_plan, np.array([3]))
        assert shards.shape == (1,)
        assert shards[0] == hybrid_plan.shard_of_list[3]

    def test_dimension_plan_single_shard(self, dim_plan):
        shards = touched_shards(dim_plan, np.arange(8))
        np.testing.assert_array_equal(shards, [0])


class TestShardCandidateLists:
    def test_filters_by_shard(self, hybrid_plan):
        probe_row = np.arange(8)
        for shard in (0, 1):
            lists = shard_candidate_lists(hybrid_plan, probe_row, shard)
            assert np.all(hybrid_plan.shard_of_list[lists] == shard)

    def test_union_covers_probes(self, hybrid_plan):
        probe_row = np.arange(8)
        combined = np.concatenate(
            [
                shard_candidate_lists(hybrid_plan, probe_row, s)
                for s in range(2)
            ]
        )
        np.testing.assert_array_equal(np.sort(combined), probe_row)


class TestStaggeredOrder:
    def test_is_permutation(self):
        for q in range(6):
            order = staggered_order(4, q, 0)
            np.testing.assert_array_equal(np.sort(order), np.arange(4))

    def test_rotation_by_query(self):
        np.testing.assert_array_equal(staggered_order(4, 0, 0), [0, 1, 2, 3])
        np.testing.assert_array_equal(staggered_order(4, 1, 0), [1, 2, 3, 0])
        np.testing.assert_array_equal(staggered_order(4, 2, 0), [2, 3, 0, 1])

    def test_shard_offset(self):
        np.testing.assert_array_equal(staggered_order(4, 0, 1), [1, 2, 3, 0])

    def test_consecutive_queries_start_on_different_slices(self):
        starts = {int(staggered_order(4, q, 0)[0]) for q in range(4)}
        assert starts == {0, 1, 2, 3}

    def test_invalid_blocks(self):
        with pytest.raises(ValueError):
            staggered_order(0, 0, 0)
