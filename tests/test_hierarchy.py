from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from fglift import (
    DistanceMatrix,
    build_hierarchy,
    export_tree,
    level_for_epsilon,
    parse_tree,
    partition_at_level,
)
from fglift.errors import LevelOutOfRange, SchemaError

from oracles import naive_complete_linkage, naive_level_partitions

# ten leaves merging pairwise, then across, with an ultrametric realisation:
# D[i][j] = height of the lowest common group
TEN_GROUP_HEIGHTS = [
    ({0, 1}, 0.1),
    ({2, 3}, 0.2),
    ({4, 5}, 0.3),
    ({0, 1, 2, 3}, 0.4),
    ({4, 5, 6}, 0.5),
    ({7, 8}, 0.6),
    ({0, 1, 2, 3, 4, 5, 6}, 0.7),
    ({7, 8, 9}, 0.8),
    (set(range(10)), 0.9),
]

EXPECTED_NESTED = [
    [[[1, 2, 11], [3, 4, 12], 14], [[5, 6, 13], 7, 15], 17],
    [[8, 9, 16], 10, 18],
    19,
]

GROUP_SIZE_TABLE = {
    0: {1: 10},
    1: {2: 1, 1: 8},
    2: {2: 2, 1: 6},
    3: {2: 3, 1: 4},
    4: {4: 1, 2: 1, 1: 4},
    5: {4: 1, 3: 1, 1: 3},
    6: {4: 1, 3: 1, 2: 1, 1: 1},
    7: {7: 1, 2: 1, 1: 1},
    8: {7: 1, 3: 1},
    9: {10: 1},
}


def ten_factor_matrix() -> DistanceMatrix:
    entries = []
    for i in range(9):
        for j in range(i + 1, 10):
            entries.append(
                min(h for grp, h in TEN_GROUP_HEIGHTS if i in grp and j in grp)
            )
    return DistanceMatrix.from_entries(10, entries)


def random_matrix(rng, m, *, quantize=False, classes=1) -> DistanceMatrix:
    class_ids = rng.integers(0, classes, size=m)
    entries = []
    for i in range(m - 1):
        for j in range(i + 1, m):
            if class_ids[i] != class_ids[j]:
                entries.append(np.inf)
            else:
                v = float(rng.uniform(0.01, 2.0))
                entries.append(round(v, 1) if quantize else v)
    return DistanceMatrix.from_entries(m, entries, class_ids)


def oracle_trees(rng):
    """The ten-factor tree, then random two-class forests."""
    yield build_hierarchy(ten_factor_matrix())[0]
    for _ in range(20):
        m = int(rng.integers(1, 16))
        yield build_hierarchy(random_matrix(rng, m, classes=2))[0]


def oracle_levels(tree):
    return naive_level_partitions(tree.m, [(mg.i, mg.j) for mg in tree.merges])


class TestTenFactorExample:
    def test_nested_list(self):
        tree, ladder = build_hierarchy(ten_factor_matrix())
        assert tree.nested() == [EXPECTED_NESTED]

    def test_ladder(self):
        _, ladder = build_hierarchy(ten_factor_matrix())
        assert ladder == tuple((k + 1) / 10 for k in range(9))

    def test_level_four_partition(self):
        tree, _ = build_hierarchy(ten_factor_matrix())
        part = partition_at_level(tree, 4)
        assert part.groups == ((0, 1, 2, 3), (4, 5), (6,), (7,), (8,), (9,))

    def test_level_zero_is_singletons(self):
        tree, _ = build_hierarchy(ten_factor_matrix())
        part = partition_at_level(tree, 0)
        assert part.groups == tuple((k,) for k in range(10))

    def test_group_size_table_per_level(self):
        tree, _ = build_hierarchy(ten_factor_matrix())
        for level, expected in GROUP_SIZE_TABLE.items():
            part = partition_at_level(tree, level)
            sizes = Counter(len(grp) for grp in part.groups)
            assert dict(sizes) == expected


class TestBuildHierarchy:
    def test_single_factor(self):
        tree, ladder = build_hierarchy(DistanceMatrix.from_entries(1, []))
        assert ladder == ()
        assert tree.nested() == []
        assert partition_at_level(tree, 0).groups == ((0,),)

    def test_matches_naive_oracle(self, rng):
        for trial in range(60):
            m = int(rng.integers(2, 20))
            dm = random_matrix(rng, m, quantize=trial % 3 == 0)
            tree, _ = build_hierarchy(dm)
            expected = naive_complete_linkage(dm.square())
            got = [(mg.i, mg.j, mg.eps) for mg in tree.merges]
            assert got == expected

    def test_oracle_agreement_with_classes(self, rng):
        for _ in range(30):
            m = int(rng.integers(3, 16))
            dm = random_matrix(rng, m, classes=2)
            tree, _ = build_hierarchy(dm)
            expected = naive_complete_linkage(dm.square())
            assert [(mg.i, mg.j, mg.eps) for mg in tree.merges] == expected

    def test_ladder_non_decreasing(self, rng):
        for _ in range(20):
            dm = random_matrix(rng, int(rng.integers(2, 24)))
            _, ladder = build_hierarchy(dm)
            assert all(a <= b for a, b in zip(ladder, ladder[1:]))

    def test_root_eps_is_max_pairwise(self, rng):
        for _ in range(20):
            dm = random_matrix(rng, int(rng.integers(2, 16)))
            tree, _ = build_hierarchy(dm)
            for mg, leaves in zip(tree.merges, tree.leaf_sets()):
                worst = max(
                    dm.get(a, b)
                    for a in leaves
                    for b in leaves
                    if a < b
                )
                assert mg.eps == worst

    def test_blocks_pairwise_within_level_eps(self, rng):
        for _ in range(20):
            dm = random_matrix(rng, int(rng.integers(2, 16)))
            tree, ladder = build_hierarchy(dm)
            for level in range(1, tree.num_levels + 1):
                part = partition_at_level(tree, level)
                for grp in part.groups:
                    for pos, a in enumerate(grp):
                        for b in grp[pos + 1 :]:
                            assert dm.get(a, b) <= ladder[level - 1]

    def test_nestedness(self, rng):
        for _ in range(20):
            dm = random_matrix(rng, int(rng.integers(2, 16)), classes=2)
            tree, _ = build_hierarchy(dm)
            for level in range(tree.num_levels):
                fine = partition_at_level(tree, level)
                coarse = partition_at_level(tree, level + 1)
                assert coarse.num_groups == fine.num_groups - 1
                coarse_sets = [set(grp) for grp in coarse.groups]
                for grp in fine.groups:
                    assert any(set(grp) <= cs for cs in coarse_sets)

    def test_incompatible_never_share_block(self, rng):
        for _ in range(20):
            dm = random_matrix(rng, int(rng.integers(3, 16)), classes=3)
            tree, _ = build_hierarchy(dm)
            for level in range(tree.num_levels + 1):
                for grp in partition_at_level(tree, level).groups:
                    classes = {int(dm.class_ids[k]) for k in grp}
                    assert len(classes) == 1

    def test_forest_has_fewer_levels(self, rng):
        dm = random_matrix(rng, 10, classes=3)
        tree, _ = build_hierarchy(dm)
        n_classes = len(set(map(int, dm.class_ids)))
        assert tree.num_levels == 10 - n_classes

    def test_deterministic(self, rng):
        dm = random_matrix(rng, 12, quantize=True)
        t1, l1 = build_hierarchy(dm)
        t2, l2 = build_hierarchy(dm)
        assert t1 == t2
        assert l1 == l2


class TestLevelSelection:
    def test_boundaries(self):
        tree, ladder = build_hierarchy(ten_factor_matrix())
        assert level_for_epsilon(tree, ladder[0] / 2) == 0
        assert level_for_epsilon(tree, ladder[2]) == 3
        assert level_for_epsilon(tree, 100.0) == 9

    def test_between_levels_matches_linear_scan(self, rng):
        for _ in range(20):
            dm = random_matrix(rng, 12)
            tree, ladder = build_hierarchy(dm)
            eps = float(rng.uniform(0, 2.2))
            expected = sum(1 for e in ladder if e <= eps)
            assert level_for_epsilon(tree, eps) == expected

    def test_out_of_range_level(self):
        tree, _ = build_hierarchy(ten_factor_matrix())
        with pytest.raises(LevelOutOfRange):
            partition_at_level(tree, 10)
        with pytest.raises(LevelOutOfRange):
            partition_at_level(tree, -1)


class TestExportParse:
    def test_ten_factor_document_ids(self):
        tree, _ = build_hierarchy(ten_factor_matrix())
        doc = export_tree(tree)
        assert doc["m"] == 10
        assert doc["epsilons"] == [(k + 1) / 10 for k in range(9)]
        assert [lvl["groups"] for lvl in doc["levels"]][4] == [
            [1, 2, 3, 4],
            [5, 6],
            [7],
            [8],
            [9],
            [10],
        ]
        assert parse_tree(doc) == tree

    def test_single_leaf_tree(self):
        tree, _ = build_hierarchy(DistanceMatrix.from_entries(1, []))
        doc = export_tree(tree)
        assert doc["tree"] == [{"leaf": 1}]
        assert parse_tree(doc) == tree

    def test_random_roundtrip(self, rng):
        for _ in range(20):
            dm = random_matrix(rng, int(rng.integers(1, 16)), classes=2)
            tree, _ = build_hierarchy(dm)
            assert parse_tree(export_tree(tree)) == tree


class TestLevelViewsAgainstOracle:
    def test_partitions_and_exported_levels(self, rng):
        for tree in oracle_trees(rng):
            expected = oracle_levels(tree)
            doc = export_tree(tree)
            listing = doc["levels"]
            assert len(listing) == len(expected) == tree.num_levels + 1
            assert [root for root in doc["tree"] if "leaf" in root] == [
                {"leaf": grp[0] + 1} for grp in expected[-1] if len(grp) == 1
            ]
            for level, groups in enumerate(expected):
                assert list(partition_at_level(tree, level).groups) == groups
                assert listing[level]["groups"] == [
                    [k + 1 for k in grp] for grp in groups
                ]

    def test_leaf_sets(self, rng):
        for tree in oracle_trees(rng):
            expected = oracle_levels(tree)
            for level, (mg, leaves) in enumerate(
                zip(tree.merges, tree.leaf_sets()), start=1
            ):
                grp = next(grp for grp in expected[level] if mg.i in grp)
                assert leaves == frozenset(grp)


class TestParseRejects:
    @pytest.mark.parametrize(
        "doc, reason",
        [
            (
                {
                    "m": 3,
                    "tree": [
                        {"id": 4, "eps": 0.1,
                         "children": [{"leaf": 1}, {"leaf": 2}]},
                        {"id": 5, "eps": 0.2,
                         "children": [{"leaf": 1}, {"leaf": 3}]},
                    ],
                },
                "more than once",
            ),
            (
                {
                    "m": 3,
                    "tree": [
                        {"id": 4, "eps": 0.5, "children": [
                            {"id": 5, "eps": 0.1,
                             "children": [{"leaf": 1}, {"leaf": 2}]},
                            {"leaf": 3},
                        ]},
                    ],
                },
                "smaller ids",
            ),
            (
                {
                    "m": 3,
                    "tree": [
                        {"id": 5, "eps": 0.1, "children": [
                            {"id": 4, "eps": 0.5,
                             "children": [{"leaf": 1}, {"leaf": 2}]},
                            {"leaf": 3},
                        ]},
                    ],
                },
                "ladder decreases",
            ),
        ],
        ids=["repeated-leaf", "child-id-above-parent", "decreasing-ladder"],
    )
    def test_invalid_merge_sequence(self, doc, reason):
        with pytest.raises(SchemaError, match=reason):
            parse_tree(doc)
