from __future__ import annotations

import numpy as np
import pytest

from fglift import (
    RandomVariable,
    acp_refine,
    build_graph,
    build_hierarchy,
    distance_matrix,
    greedy_eps_grouping,
    hacp_compress,
    mean_table,
    odeed,
    table_equality_colours,
)
from fglift.errors import (
    EmptyGroup,
    HierarchyMismatch,
    LengthMismatch,
    LevelOutOfRange,
)

from conftest import BOOL, random_graph
from oracles import factor_orbits


def palindromic_chain(k=4, table=(1.0, 2.0, 3.0, 4.0)):
    """k identical pair factors along a path, argument order mirrored.

    With args oriented palindromically (f1(V1,V2), ..., f4(V5,V4)) the path
    reversal is a positional automorphism, so end factors and middle factors
    form two orbits.
    """
    assert k == 4
    variables = [RandomVariable(f"V{p + 1}", BOOL) for p in range(5)]
    t = list(table)
    factors = [
        ("f1", ["V1", "V2"], t),
        ("f2", ["V2", "V3"], t),
        ("f3", ["V4", "V3"], t),
        ("f4", ["V5", "V4"], t),
    ]
    return build_graph(variables, factors)


def mixed_class_graph(variables="ABCD", f1_args=("A", "B"), f1_table=(1, 2, 3, 4)):
    """f1 and f2(C, D) with close tables; X, when present, has four states."""
    return build_graph(
        [
            RandomVariable(nm, ("a", "b", "c", "d") if nm == "X" else BOOL)
            for nm in variables
        ],
        [
            ("f1", list(f1_args), list(f1_table)),
            ("f2", ["C", "D"], [1.0, 2.0, 3.0, 4.1]),
        ],
    )


class TestMeanTable:
    def test_two_tables(self):
        assert np.array_equal(mean_table([[1.0, 2.0], [3.0, 2.0]]), [2.0, 2.0])

    def test_example_pair(self):
        assert np.array_equal(mean_table([[0.49], [0.5]]), [(0.49 + 0.5) / 2])

    def test_single_table_bitwise(self):
        t = np.array([0.1, 0.2, 0.7])
        out = mean_table([t])
        assert out.tobytes() == t.tobytes()

    def test_errors(self):
        with pytest.raises(EmptyGroup):
            mean_table([])
        with pytest.raises(LengthMismatch):
            mean_table([[1.0], [1.0, 2.0]])

    def test_mean_is_eps_equivalent_to_members(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 9))
            base = np.exp(rng.uniform(-2, 2, n))
            group = [base * rng.uniform(0.9, 1.1, n) for _ in range(4)]
            eps = max(
                odeed(a, b) for i, a in enumerate(group) for b in group[i + 1 :]
            )
            mean = mean_table(group)
            for member in group:
                assert odeed(mean, member) <= eps

    def test_mean_minimises_squared_deviation(self, rng):
        group = [np.exp(rng.uniform(-1, 1, 3)) for _ in range(5)]
        stacked = np.stack(group)
        mean = mean_table(group)
        # analytic first-order condition: residuals sum to ~0 per row
        assert np.abs((stacked - mean).sum(axis=0)).max() < 1e-12
        # grid search per row
        for row in range(3):
            values = stacked[:, row]
            grid = np.linspace(values.min(), values.max(), 10_001)
            sse = ((values[:, None] - grid[None, :]) ** 2).sum(axis=0)
            best = grid[int(sse.argmin())]
            step = (values.max() - values.min()) / 10_000
            assert abs(best - mean[row]) <= step


class TestAcpRefine:
    def test_fig1_symmetry(self, fig1):
        grouping = acp_refine(fig1, [0, 0])
        assert grouping.blocks == ((0, 1),)
        colours = grouping.variable_colours
        assert colours["A"] == colours["C"]
        assert colours["B"] != colours["A"]

    def test_distinct_seeds_stay_split(self, fig1):
        grouping = acp_refine(fig1, [0, 1])
        assert grouping.blocks == ((0,), (1,))

    def test_chain_matches_orbit_oracle(self):
        g = palindromic_chain()
        grouping = acp_refine(g, [0, 0, 0, 0])
        assert list(grouping.blocks) == factor_orbits(g)
        assert grouping.blocks == ((0, 3), (1, 2))

    def test_seed_must_respect_signatures(self):
        g = build_graph(
            [RandomVariable("A", BOOL), RandomVariable("B", ("x", "y", "z"))],
            [("f1", ["A"], [1, 2]), ("f2", ["B"], [1, 2, 3])],
        )
        with pytest.raises(ValueError):
            acp_refine(g, [0, 0])

    def test_coarser_seed_never_finer_fixpoint(self, rng):
        for _ in range(20):
            g = random_graph(rng, n_vars=5, n_factors=6, max_arity=2)
            fine_seed = table_equality_colours(g)
            fine = acp_refine(g, fine_seed)
            # coarsen: merge colour classes that share a signature
            from fglift import signature

            sig_to_colour: dict = {}
            coarse_seed = [
                sig_to_colour.setdefault(signature(f), len(sig_to_colour))
                for f in g.factors
            ]
            coarse = acp_refine(g, coarse_seed)
            fine_sets = [set(b) for b in fine.blocks]
            for blk in fine_sets:
                assert any(
                    blk <= set(cb) for cb in coarse.blocks
                ), "coarser seed produced a finer fixpoint"

    def test_plain_mode_splits_structurally_different(self):
        # f1 and f2 share a table but only f2 touches the shared variable D
        g = build_graph(
            [RandomVariable(nm, BOOL) for nm in "ABCDE"],
            [
                ("f1", ["A", "B"], [1.0, 2.0, 3.0, 4.0]),
                ("f2", ["C", "D"], [1.0, 2.0, 3.0, 4.0]),
                ("f3", ["D", "E"], [5.0, 6.0, 7.0, 8.0]),
            ],
        )
        grouping = acp_refine(g, table_equality_colours(g))
        assert grouping.blocks == ((0,), (1,), (2,))


class TestGreedyGrouping:
    def test_tiny_eps_gives_singletons(self, rng):
        g = random_graph(rng, n_vars=4, n_factors=5, max_arity=2)
        grouping = greedy_eps_grouping(g, 1e-12)
        assert grouping.blocks == tuple((k,) for k in range(g.m))

    def test_fig1_single_block(self, fig1):
        assert greedy_eps_grouping(fig1, 0.5).blocks == ((0, 1),)

    def test_non_transitive_triple_blocked_by_first(self):
        g = build_graph(
            [RandomVariable("X", BOOL)],
            [
                ("p1", ["X"], [0.95, 2.05]),
                ("p2", ["X"], [1.0, 1.95]),
                ("p3", ["X"], [1.08, 2.10]),
            ],
        )
        assert greedy_eps_grouping(g, 0.1).blocks == ((0, 1), (2,))

    def test_order_sensitivity(self):
        # same factors, scan order p2, p3, p1: p3 now joins p2 first and
        # p1 is blocked, yielding a different partition of the same set
        g = build_graph(
            [RandomVariable("X", BOOL)],
            [
                ("p2", ["X"], [1.0, 1.95]),
                ("p3", ["X"], [1.08, 2.10]),
                ("p1", ["X"], [0.95, 2.05]),
            ],
        )
        assert greedy_eps_grouping(g, 0.1).blocks == ((0, 1), (2,))


class TestHacpCompress:
    def test_level_zero_identity(self, rng):
        g = random_graph(rng, n_vars=5, n_factors=5, max_arity=2)
        tree, _ = build_hierarchy(distance_matrix(g))
        cm = hacp_compress(g, tree, 0)
        for before, after in zip(g.factors, cm.base.factors):
            assert before.table.tobytes() == after.table.tobytes()
        assert cm.eps == 0.0

    def test_fig1_level_one_mean_of_identical(self, fig1):
        tree, _ = build_hierarchy(distance_matrix(fig1))
        cm = hacp_compress(fig1, tree, 1)
        assert cm.grouping.blocks == ((0, 1),)
        assert np.array_equal(
            cm.base.factor("phi1").table, fig1.factor("phi1").table
        )
        assert cm.base.factor("phi1").table is cm.base.factor("phi2").table

    def test_worked_mean_and_eps(self):
        g = build_graph(
            [RandomVariable("A", BOOL), RandomVariable("B", BOOL)],
            [
                ("f1", ["A", "B"], [1.0, 2.0, 3.0, 4.0]),
                ("f2", ["A", "B"], [1.1, 2.2, 2.7, 4.4]),
            ],
        )
        tree, ladder = build_hierarchy(distance_matrix(g))
        cm = hacp_compress(g, tree, 1)
        np.testing.assert_allclose(
            cm.shared_tables[0], [1.05, 2.1, 2.85, 4.2], rtol=1e-15
        )
        assert cm.eps == pytest.approx(0.3 / 2.7, rel=1e-12)
        assert ladder[0] == cm.eps

    def test_refinement_can_split_hierarchy_blocks(self):
        # f1 and f2 have close tables (grouped by the hierarchy) but only
        # f2 shares a variable with f3, so refinement separates them
        g = build_graph(
            [RandomVariable(nm, BOOL) for nm in "ABCDE"],
            [
                ("f1", ["A", "B"], [1.0, 2.0, 3.0, 4.0]),
                ("f2", ["C", "D"], [1.0, 2.0, 3.0, 4.0]),
                ("f3", ["D", "E"], [50.0, 60.0, 70.0, 80.0]),
            ],
        )
        tree, _ = build_hierarchy(distance_matrix(g))
        cm = hacp_compress(g, tree, 1)
        assert cm.hierarchy_blocks == ((0, 1), (2,))
        assert cm.grouping.blocks == ((0,), (1,), (2,))

    def test_level_out_of_range(self, fig1):
        tree, _ = build_hierarchy(distance_matrix(fig1))
        with pytest.raises(LevelOutOfRange):
            hacp_compress(fig1, tree, 2)

    def test_hierarchy_mismatch(self, rng):
        g1 = random_graph(rng, n_vars=4, n_factors=4, max_arity=2)
        g2 = random_graph(rng, n_vars=4, n_factors=4, max_arity=2)
        tree, _ = build_hierarchy(distance_matrix(g1))
        if tree.num_levels == 0:
            pytest.skip("no merges to validate")
        with pytest.raises(HierarchyMismatch):
            hacp_compress(g2, tree, tree.num_levels)

    @pytest.mark.parametrize(
        "variables, f1_args, f1_table",
        [
            ("ACD", ["A"], [1.0, 2.0]),
            ("XCD", ["X"], [1.0, 2.0, 3.0, 4.0]),
        ],
        ids=["shorter-table", "same-length-table"],
    )
    def test_group_mixing_classes(self, variables, f1_args, f1_table):
        tree, _ = build_hierarchy(distance_matrix(mixed_class_graph()))
        g = mixed_class_graph(variables, f1_args, f1_table)
        with pytest.raises(HierarchyMismatch, match="compatibility classes"):
            hacp_compress(g, tree, 1)

    def test_mismatched_m(self, fig1, rng):
        g = random_graph(rng, n_vars=4, n_factors=5, max_arity=2)
        tree, _ = build_hierarchy(distance_matrix(g))
        with pytest.raises(HierarchyMismatch):
            hacp_compress(fig1, tree, 0)

    def test_block_count_decreases_by_level(self, rng):
        g = random_graph(rng, n_vars=3, n_factors=6, max_arity=2)
        tree, _ = build_hierarchy(distance_matrix(g))
        for level in range(tree.num_levels + 1):
            cm = hacp_compress(g, tree, level)
            assert len(cm.hierarchy_blocks) == g.m - level

    def test_shared_tables_bit_identical_within_block(self, rng):
        g = random_graph(rng, n_vars=3, n_factors=6, max_arity=2)
        tree, _ = build_hierarchy(distance_matrix(g))
        cm = hacp_compress(g, tree, tree.num_levels)
        for pos, blk in enumerate(cm.grouping.blocks):
            for k in blk:
                assert cm.base.factors[k].table is cm.shared_tables[pos]
