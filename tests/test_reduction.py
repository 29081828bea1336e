"""Hash grouping and stratified sampling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import vardrop.reduction as reduction
from vardrop import (
    GroupTable,
    ParameterError,
    derive_seed,
    group_by_hash,
    kdfh,
    stratified_sample,
    synth_redundant_detail,
)

from helpers import dict_grouping


def table_of(sizes):
    """GroupTable with contiguous index blocks and distinct single-bin keys."""
    groups = {}
    cursor = 0
    for g, size in enumerate(sizes):
        groups[str(g + 1)] = tuple(range(cursor, cursor + size))
        cursor += size
    return GroupTable(groups=groups)


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(7, "0:3") == derive_seed(7, "0:3")

    def test_tag_sensitivity(self):
        assert derive_seed(7, "0:3") != derive_seed(7, "0:4")
        assert derive_seed(7, "a") != derive_seed(8, "a")

    def test_range(self):
        value = derive_seed(123, "x")
        assert 0 <= value < 2**64


class TestGroupByHash:
    def test_shared_and_solo(self):
        table = group_by_hash(np.array([[1, 2], [3, 4], [1, 2]]))
        assert table.G == 2
        assert table.groups["1-2"] == (0, 2)
        assert table.groups["3-4"] == (1,)

    def test_all_distinct(self):
        table = group_by_hash(np.arange(5)[:, None])
        assert table.G == 5
        assert [len(idx) for idx in table.groups.values()] == [1] * 5

    def test_lexicographic_key_order(self):
        # integer order, not text order: "10-1" sorts after "9-1"
        table = group_by_hash(np.array([[9, 1], [2, 7], [2, 3], [9, 1], [10, 1]]))
        assert list(table.groups) == ["2-3", "2-7", "9-1", "10-1"]

    def test_synthetic_eight_groups(self):
        detail = synth_redundant_detail(64, 8, 384, 0.0, seed=21, period=96)
        batch = detail.table.values[:, :96][None]
        table = group_by_hash(kdfh(batch, k=3, epsilon=25))
        assert table.G == 8
        assert [len(idx) for idx in table.groups.values()] == [8] * 8
        # members of each group share one synthetic label
        for members in table.groups.values():
            labels = {detail.labels[i] for i in members}
            assert len(labels) == 1

    def test_empty_rejected(self):
        for bins in (np.zeros((0, 3), dtype=np.int64), np.zeros((4, 0), dtype=np.int64)):
            with pytest.raises(ParameterError):
                group_by_hash(bins)

    @pytest.mark.parametrize(
        "bins",
        [np.array([1, 2, 3]), np.ones((2, 2, 2), dtype=np.int64), np.array([[1.0, 2.0]])],
    )
    def test_rejects_non_2d_or_non_int(self, bins):
        with pytest.raises(ParameterError):
            group_by_hash(bins)

    @settings(max_examples=100, deadline=None)
    @given(assignment=st.lists(st.integers(0, 4), min_size=1, max_size=40))
    def test_partitions_indices(self, assignment):
        table = group_by_hash(np.array(assignment)[:, None])
        combined = sorted(i for idx in table.groups.values() for i in idx)
        assert combined == list(range(len(assignment)))
        for k_, members in table.groups.items():
            assert all(str(assignment[i]) == k_ for i in members)

    @settings(max_examples=200, deadline=None)
    @given(
        bins=arrays(
            np.int64,
            st.tuples(st.integers(1, 400), st.integers(1, 3)),
            elements=st.integers(1, 4),
        )
    )
    def test_matches_dict_grouping(self, bins):
        table = group_by_hash(bins)
        assert list(table.groups.items()) == dict_grouping(bins)


class TestGroupTableValidation:
    def test_rejects_unsorted_members(self):
        with pytest.raises(ParameterError):
            GroupTable(groups={"1": (2, 0, 1)})

    def test_rejects_non_partition(self):
        with pytest.raises(ParameterError):
            GroupTable(groups={"1": (0,), "2": (2,)})

    def test_rejects_no_groups(self):
        with pytest.raises(ParameterError):
            GroupTable(groups={})

    def test_rejects_empty_group(self):
        with pytest.raises(ParameterError):
            GroupTable(groups={"1": (0, 1), "2": ()})


class TestStratifiedSample:
    def test_mixed_sizes(self):
        plan = stratified_sample(table_of([5, 3, 1]), gs=2, seed=0)
        assert len(plan.retained) == 5
        assert plan.delta == 1.0 - 5.0 / 9.0
        sizes = [len(v) for v in plan.per_group.values()]
        assert sizes == [2, 2, 1]

    def test_gs_covers_everything(self):
        plan = stratified_sample(table_of([5, 3, 1]), gs=5, seed=0)
        assert plan.retained == tuple(range(9))
        assert plan.delta == 0.0

    def test_single_large_group(self):
        plan = stratified_sample(table_of([137]), gs=20, seed=3)
        assert len(plan.retained) == 20
        assert plan.delta == 1.0 - 20.0 / 137.0

    def test_members_stay_in_their_group(self):
        table = table_of([4, 6, 2, 9])
        plan = stratified_sample(table, gs=3, seed=11)
        for k_, members in table.groups.items():
            chosen = plan.per_group[k_]
            assert len(chosen) == min(len(members), 3)
            assert set(chosen) <= set(members)
            assert tuple(sorted(chosen)) == chosen

    def test_retained_is_sorted_union(self):
        plan = stratified_sample(table_of([7, 7, 7]), gs=2, seed=5)
        union = sorted(i for v in plan.per_group.values() for i in v)
        assert list(plan.retained) == union

    def test_deterministic_per_seed(self):
        table = table_of([10, 10])
        a = stratified_sample(table, gs=3, seed=42)
        b = stratified_sample(table, gs=3, seed=42)
        assert a == b
        c = stratified_sample(table, gs=3, seed=43)
        assert len(c.retained) == len(a.retained)
        assert c.delta == a.delta

    def test_groups_draw_independent_streams(self):
        # identical groups must not select the same positions in lockstep
        table = table_of([20, 20, 20, 20, 20])
        plan = stratified_sample(table, gs=2, seed=1)
        offsets = {
            tuple(i - min(members) for i in plan.per_group[k_])
            for k_, members in table.groups.items()
        }
        assert len(offsets) > 1

    def test_draw_uniformity(self):
        counts = np.zeros(5)
        for seed in range(2000):
            plan = stratified_sample(table_of([5]), gs=2, seed=seed)
            for i in plan.retained:
                counts[i] += 1
        freqs = counts / 2000.0
        assert np.all(np.abs(freqs - 0.4) < 0.05)

    def test_gs_validation(self):
        with pytest.raises(ParameterError):
            stratified_sample(table_of([3]), gs=0, seed=0)

    def test_only_groups_above_gs_seed_a_generator(self, monkeypatch):
        tags = []

        def counting(base_seed, tag):
            tags.append(tag)
            return derive_seed(base_seed, tag)

        monkeypatch.setattr(reduction, "derive_seed", counting)
        plan = stratified_sample(table_of([1] * 40), gs=1, seed=4)
        assert tags == []
        assert plan.retained == tuple(range(40))
        assert plan.delta == 0.0
        stratified_sample(table_of([3, 2, 5, 1]), gs=2, seed=4)
        assert tags == ["1", "3"]

    @settings(max_examples=100, deadline=None)
    @given(
        sizes=st.lists(st.integers(1, 30), min_size=1, max_size=12),
        gs=st.integers(1, 12),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_retention_identity(self, sizes, gs, seed):
        table = table_of(sizes)
        plan = stratified_sample(table, gs, seed)
        expected = sum(min(s, gs) for s in sizes)
        assert len(plan.retained) == expected
        assert plan.delta == 1.0 - expected / sum(sizes)
        assert all(len(v) >= 1 for v in plan.per_group.values())

