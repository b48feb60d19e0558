from __future__ import annotations

import time
import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from fglift import (
    PlantedSpec,
    RandomVariable,
    build_graph,
    build_hierarchy,
    cd_interval,
    dcd_distance,
    distance_matrix,
    hacp_compress,
    lifted_marginal,
    max_query_deviation,
    partition_function,
    planted_model,
    pmax_bound,
    query,
    star_marginal,
)
from fglift.errors import (
    NumericOverflow,
    NumericUnderflow,
    PatternNotLiftable,
    StateSpaceTooLarge,
    StructureMismatch,
    UnknownVariable,
)

from conftest import BOOL, make_fig1, random_graph
from oracles import (
    brute_dcd,
    brute_marginal,
    brute_partition_function,
    log_chain_marginal,
    log_star_hub_belief,
    log_star_hub_marginal,
)

#: Star whose linear-domain products overflow from about 160 factors on.
OVERFLOW_STAR = PlantedSpec(
    seed=909,
    num_groups=20,
    factors_per_group=8,
    table_dim=4,
    topology="star",
    noise=0.05,
)


def star_graph(k: int, table=(2.0, 1.0, 3.0, 4.0), perturb=None):
    """k pair factors (leaf, hub) sharing one table (optionally perturbed)."""
    variables = [RandomVariable("Q", BOOL)] + [
        RandomVariable(f"L{p + 1}", BOOL) for p in range(k)
    ]
    factors = []
    for p in range(k):
        t = list(table)
        if perturb is not None:
            t = [x * (1 + perturb * (p + 1)) for x in t]
        factors.append((f"f{p + 1}", [f"L{p + 1}", "Q"], t))
    return build_graph(variables, factors)


class TestPartitionFunction:
    def test_single_boolean_factor(self):
        g = build_graph([RandomVariable("X", BOOL)], [("phi", ["X"], [2.5, 4.0])])
        assert partition_function(g) == pytest.approx(6.5, rel=1e-12)

    def test_fig1_matches_brute_force(self, fig1):
        assert partition_function(fig1) == pytest.approx(
            brute_partition_function(fig1), rel=1e-12
        )

    def test_enum_matches_ve_on_random_graphs(self, rng):
        for _ in range(10):
            g = random_graph(rng, n_vars=8, n_factors=6, max_arity=3)
            z_enum = partition_function(g, method="enum")
            z_ve = partition_function(g, method="ve")
            assert z_enum == pytest.approx(z_ve, rel=1e-9)

    def test_budget_refusal(self, fig1):
        with pytest.raises(StateSpaceTooLarge):
            partition_function(fig1, enum_budget=4)

    def test_log_domain_survives_many_small_potentials(self):
        # 22 unary factors with entries around 1e-6: the naive product
        # underflows around 1e-127 territory; log accumulation does not
        variables = [RandomVariable(f"V{k}", BOOL) for k in range(22)]
        factors = [(f"f{k}", [f"V{k}"], [1e-6, 2e-6]) for k in range(22)]
        g = build_graph(variables, factors)
        assert partition_function(g) == pytest.approx(3e-6**22, rel=1e-9)

    def test_ve_overflow_raises(self):
        g, _ = planted_model(OVERFLOW_STAR)
        with pytest.raises(NumericOverflow, match="log Z = "):
            partition_function(g, method="ve")

    def test_enum_overflow_raises(self):
        # Z = (3e20)^20 is about 1e406, beyond the largest float
        variables = [RandomVariable(f"V{k}", BOOL) for k in range(20)]
        factors = [(f"f{k}", [f"V{k}"], [1e20, 2e20]) for k in range(20)]
        g = build_graph(variables, factors)
        with pytest.raises(NumericOverflow, match=r"log Z = 943\.00"):
            partition_function(g, method="enum")

    def test_ve_underflow_raises(self):
        # Z = (3e-10)^40 is about 1e-381, below the smallest float
        variables = [RandomVariable(f"V{k}", BOOL) for k in range(40)]
        factors = [(f"f{k}", [f"V{k}"], [1e-10, 2e-10]) for k in range(40)]
        g = build_graph(variables, factors)
        with pytest.raises(NumericUnderflow, match=r"log Z = -877\.08"):
            partition_function(g, method="ve")

    def test_enum_underflow_raises(self):
        # Z = (3e-20)^20 is about 3.5e-391
        variables = [RandomVariable(f"V{k}", BOOL) for k in range(20)]
        factors = [(f"f{k}", [f"V{k}"], [1e-20, 2e-20]) for k in range(20)]
        g = build_graph(variables, factors)
        with pytest.raises(NumericUnderflow, match=r"log Z = -899\.06"):
            partition_function(g, method="enum")


class TestQuery:
    def test_fig1_hub_marginal(self, fig1):
        t = fig1.factor("phi1").table
        z = (t[0] + t[2]) ** 2 + (t[1] + t[3]) ** 2
        res = query(fig1, "B")
        assert res.probabilities[0] == pytest.approx(
            (t[0] + t[2]) ** 2 / z, rel=1e-12
        )

    def test_uniform_tables_uniform_distribution(self):
        g = make_fig1(table=(1.0, 1.0, 1.0, 1.0))
        for var in "ABC":
            np.testing.assert_allclose(query(g, var).probabilities, [0.5, 0.5])

    def test_ve_matches_enum_and_brute(self, rng):
        for _ in range(10):
            g = random_graph(rng, n_vars=6, n_factors=5, max_arity=3)
            names = [v.name for v in g.variables]
            ev_vars = [names[1], names[2]]
            evidence = {
                nm: g.variable(nm).range[int(rng.integers(g.variable(nm).size))]
                for nm in ev_vars
            }
            q = names[0]
            ve = query(g, q, evidence, method="ve")
            enum = query(g, q, evidence, method="enum")
            np.testing.assert_allclose(
                ve.probabilities, enum.probabilities, rtol=1e-9
            )
            np.testing.assert_allclose(
                ve.probabilities, brute_marginal(g, q, evidence), rtol=1e-9
            )

    def test_distribution_normalised(self, rng):
        g = random_graph(rng, n_vars=5, n_factors=4)
        res = query(g, g.variables[0].name)
        assert res.probabilities.sum() == pytest.approx(1.0, abs=1e-12)
        assert (res.probabilities >= 0).all()

    def test_unknown_variable(self, fig1):
        with pytest.raises(UnknownVariable):
            query(fig1, "Z")
        with pytest.raises(UnknownVariable):
            query(fig1, "B", {"Z": "true"})

    def test_query_in_evidence_rejected(self, fig1):
        with pytest.raises(ValueError):
            query(fig1, "B", {"B": "true"})

    def test_planted_star_and_chain_at_m2000(self):
        spec = replace(OVERFLOW_STAR, factors_per_group=100)
        star, _ = planted_model(replace(spec, table_dim=16))
        chain, _ = planted_model(replace(spec, topology="chain"))
        t0 = time.perf_counter()
        hub = query(star, "Q").probabilities
        mid = query(chain, "V1001").probabilities
        elapsed = time.perf_counter() - t0
        assert np.isfinite(hub).all() and np.isfinite(mid).all()
        np.testing.assert_allclose(
            hub, log_star_hub_marginal(star, "Q"), rtol=1e-9, atol=0.0
        )
        np.testing.assert_allclose(
            mid, log_chain_marginal(chain, "V1001"), rtol=1e-9, atol=0.0
        )
        assert elapsed < 10.0, f"two m=2000 queries took {elapsed:.1f}s"

        # eliminating the hub too: log Z is far past the float range
        t0 = time.perf_counter()
        with pytest.raises(NumericOverflow) as info:
            partition_function(star, method="ve")
        elapsed = time.perf_counter() - t0
        log_z = float(str(info.value).rsplit("= ", 1)[1])
        belief = log_star_hub_belief(star, "Q")
        top = belief.max()
        assert log_z == pytest.approx(
            top + np.log(np.exp(belief - top).sum()), rel=1e-9
        )
        assert elapsed < 10.0, f"log Z at m=2000 took {elapsed:.1f}s"


class TestDcdDistance:
    def test_identical_graphs(self, fig1):
        assert dcd_distance(fig1, fig1) == 0.0

    def test_scaling_one_factor_is_invisible(self, fig1):
        t = list(fig1.factor("phi1").table)
        scaled = build_graph(
            [v for v in fig1.variables],
            [
                ("phi1", ["A", "B"], [7.5 * x for x in t]),
                ("phi2", ["C", "B"], t),
            ],
        )
        assert dcd_distance(fig1, scaled) == pytest.approx(0.0, abs=1e-12)

    def test_perturbed_and_merged_matches_log_ratio_sweep(self):
        g = make_fig1()
        perturbed = build_graph(
            list(g.variables),
            [
                ("phi1", ["A", "B"], [2.0, 1.0, 3.0, 4.0]),
                ("phi2", ["C", "B"], [2.2, 1.05, 2.9, 4.3]),
            ],
        )
        tree, _ = build_hierarchy(distance_matrix(perturbed))
        cm = hacp_compress(perturbed, tree, 1)
        got = dcd_distance(perturbed, cm.base)
        assert got == pytest.approx(brute_dcd(perturbed, cm.base), rel=1e-9)

    def test_symmetry(self, rng):
        g1 = random_graph(rng, n_vars=5, n_factors=4)
        g2 = build_graph(
            list(g1.variables),
            [
                (f.name, [a.name for a in f.args], list(f.table * 1.1))
                for f in g1.factors
            ],
        )
        assert dcd_distance(g1, g2) == pytest.approx(
            dcd_distance(g2, g1), rel=1e-12
        )

    def test_structure_mismatch(self, fig1, rng):
        other = random_graph(rng, n_vars=3, n_factors=2)
        with pytest.raises(StructureMismatch):
            dcd_distance(fig1, other)


class TestMaxQueryDeviation:
    def test_identical_graphs_zero(self, fig1):
        report = max_query_deviation(fig1, fig1, evidence_budget=1)
        assert report.pmax == 0.0
        assert report.dcd == 0.0

    def test_bounded_by_pmax_of_dcd(self, rng):
        for _ in range(10):
            g = random_graph(rng, n_vars=5, n_factors=4, max_arity=2)
            g2 = build_graph(
                list(g.variables),
                [
                    (
                        f.name,
                        [a.name for a in f.args],
                        list(f.table * rng.uniform(0.9, 1.1, f.dim)),
                    )
                    for f in g.factors
                ],
            )
            report = max_query_deviation(g, g2, evidence_budget=1)
            assert report.pmax <= pmax_bound(report.dcd) + 1e-12

    def test_every_scanned_query_inside_cd_interval(self, rng):
        g = random_graph(rng, n_vars=5, n_factors=4, max_arity=2)
        g2 = build_graph(
            list(g.variables),
            [
                (
                    f.name,
                    [a.name for a in f.args],
                    list(f.table * rng.uniform(0.95, 1.05, f.dim)),
                )
                for f in g.factors
            ],
        )
        report = max_query_deviation(g, g2, evidence_budget=2)
        for dev in report.deviations:
            low, high = cd_interval(dev.p, report.dcd)
            assert low - 1e-12 <= dev.p_compressed <= high + 1e-12

    def test_worst_case_is_recorded(self, fig1):
        perturbed = build_graph(
            list(fig1.variables),
            [
                ("phi1", ["A", "B"], [2.0, 1.0, 3.0, 4.0]),
                ("phi2", ["C", "B"], [2.4, 1.1, 2.8, 4.4]),
            ],
        )
        report = max_query_deviation(fig1, perturbed, evidence_budget=1)
        assert report.worst is not None
        assert report.worst.abs_dev == report.pmax
        assert report.pmax > 0

    @pytest.mark.parametrize("budget", [0, 1, 2])
    def test_rows_match_ve(self, rng, budget):
        for _ in range(4):
            g = random_graph(rng, n_vars=5, n_factors=4, max_arity=3)
            g2 = build_graph(
                list(g.variables),
                [
                    (
                        f.name,
                        [a.name for a in f.args],
                        list(f.table * rng.uniform(0.8, 1.2, f.dim)),
                    )
                    for f in g.factors
                ],
            )
            report = max_query_deviation(g, g2, budget)
            for dev in report.deviations:
                p = query(g, dev.variable, dev.evidence).probabilities
                p2 = query(g2, dev.variable, dev.evidence).probabilities
                vi = g.variable(dev.variable).index_of(dev.value)
                assert abs(dev.p - p[vi]) <= 1e-12
                assert abs(dev.p_compressed - p2[vi]) <= 1e-12
                assert abs(dev.abs_dev - np.abs(p - p2).max()) <= 1e-12
            names = [v.name for v in g.variables]
            expected = sum(
                math.prod(g.variable(e).size for e in ev)
                for q in names
                for count in range(budget + 1)
                for ev in itertools.combinations(
                    [nm for nm in names if nm != q], count
                )
            )
            assert len(report.deviations) == expected

    def test_improbable_evidence_stays_exact(self):
        # B=t carries weight about 1e-400: exponentiating the whole joint
        # at once would zero that slice and give 0/0
        ft = ("f", "t")
        variables = [RandomVariable(nm, ft) for nm in "ABC"]

        def graph(p3):
            return build_graph(
                variables,
                [
                    ("p1", ["B"], [1.0, 1e-200]),
                    ("p2", ["B", "C"], [1.0, 1.0, 1e-200, 1e-200]),
                    ("p3", ["A", "B"], p3),
                ],
            )

        g, g2 = graph([1.0, 2.0, 3.0, 1.0]), graph([1.0, 2.1, 3.0, 1.0])
        report = max_query_deviation(g, g2, evidence_budget=1)
        (dev,) = [
            d
            for d in report.deviations
            if d.variable == "A" and d.evidence == {"B": "t"}
        ]
        vi = g.variable("A").index_of(dev.value)
        expected = query(g, "A", {"B": "t"}).probabilities
        expected2 = query(g2, "A", {"B": "t"}).probabilities
        assert math.isfinite(dev.p) and math.isfinite(dev.p_compressed)
        assert abs(dev.p - expected[vi]) <= 1e-12
        assert abs(dev.p_compressed - expected2[vi]) <= 1e-12
        assert abs(dev.abs_dev - np.abs(expected - expected2).max()) <= 1e-12


class TestLiftedMarginal:
    def test_fig1_level_one_matches_ground(self, fig1):
        tree, _ = build_hierarchy(distance_matrix(fig1))
        cm = hacp_compress(fig1, tree, 1)
        lifted = lifted_marginal(cm, "B")
        ground = query(cm.base, "B")
        np.testing.assert_allclose(
            lifted.probabilities, ground.probabilities, atol=1e-12
        )
        t = fig1.factor("phi1").table
        z = (t[0] + t[2]) ** 2 + (t[1] + t[3]) ** 2
        assert lifted.probabilities[0] == pytest.approx(
            (t[0] + t[2]) ** 2 / z, rel=1e-12
        )

    def test_singleton_blocks_identical_to_ground(self):
        g = star_graph(3, perturb=0.2)
        tree, _ = build_hierarchy(distance_matrix(g))
        cm = hacp_compress(g, tree, 0)
        lifted = lifted_marginal(cm, "Q")
        ground = query(cm.base, "Q")
        np.testing.assert_allclose(
            lifted.probabilities, ground.probabilities, atol=1e-12
        )

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_star_op_count_ratio(self, k):
        g = star_graph(k)
        tree, _ = build_hierarchy(distance_matrix(g))
        cm = hacp_compress(g, tree, tree.num_levels)
        lifted = star_marginal(cm, "Q", lifted=True)
        ground = star_marginal(cm, "Q", lifted=False)
        assert np.array_equal(lifted.probabilities, ground.probabilities)
        assert ground.ops == k * lifted.ops
        np.testing.assert_allclose(
            lifted.probabilities, query(cm.base, "Q").probabilities, atol=1e-12
        )

    def test_long_products_stay_finite(self):
        g, _ = planted_model(OVERFLOW_STAR)
        tree, _ = build_hierarchy(distance_matrix(g))
        cm = hacp_compress(g, tree, g.m - 20)
        lifted = lifted_marginal(cm, "Q").probabilities
        ground = star_marginal(cm, "Q", lifted=False).probabilities
        ve = query(cm.base, "Q").probabilities
        assert np.isfinite(lifted).all()
        assert np.array_equal(lifted, ground)
        assert np.abs(lifted - ve).max() <= 1e-12
        np.testing.assert_allclose(
            ve, log_star_hub_marginal(cm.base, "Q"), rtol=1e-9, atol=0.0
        )

    def test_opposed_large_blocks(self):
        # Leaf sums are (2, 0.002) in one block of 121 and (0.002, 2) in one
        # of 120, so each block alone weighs one hub value below 1e-360.
        n = 120
        variables = [RandomVariable("Q", BOOL)] + [
            RandomVariable(f"L{p}", BOOL) for p in range(2 * n + 1)
        ]
        factors = [
            (
                f"f{p}",
                [f"L{p}", "Q"],
                [1.0, 1e-3, 1.0, 1e-3] if p <= n else [1e-3, 1.0, 1e-3, 1.0],
            )
            for p in range(2 * n + 1)
        ]
        g = build_graph(variables, factors)
        tree, _ = build_hierarchy(distance_matrix(g))
        cm = hacp_compress(g, tree, g.m - 2)
        assert sorted(len(b) for b in cm.grouping.blocks) == [n, n + 1]
        lifted = lifted_marginal(cm, "Q").probabilities
        ground = star_marginal(cm, "Q", lifted=False).probabilities
        assert np.array_equal(lifted, ground)
        np.testing.assert_allclose(lifted, [1000 / 1001, 1 / 1001], rtol=1e-9)
        assert np.abs(lifted - query(cm.base, "Q").probabilities).max() <= 1e-12

    def test_evidence_rejected(self, fig1):
        tree, _ = build_hierarchy(distance_matrix(fig1))
        cm = hacp_compress(fig1, tree, 1)
        with pytest.raises(PatternNotLiftable):
            lifted_marginal(cm, "B", {"A": "true"})

    def test_shared_leaf_rejected(self):
        # V2 sits in two factors, so the star precondition fails for query V1
        g = build_graph(
            [RandomVariable(nm, BOOL) for nm in ("V1", "V2", "V3")],
            [
                ("f1", ["V2", "V1"], [1.0, 2.0, 3.0, 4.0]),
                ("f2", ["V2", "V1"], [1.0, 2.0, 3.0, 4.0]),
                ("f3", ["V3", "V1"], [1.0, 2.0, 3.0, 4.0]),
            ],
        )
        tree, _ = build_hierarchy(distance_matrix(g))
        cm = hacp_compress(g, tree, 0)
        with pytest.raises(PatternNotLiftable):
            lifted_marginal(cm, "V1")

    def test_factor_missing_query_rejected(self, rng):
        g = random_graph(rng, n_vars=5, n_factors=4, max_arity=2)
        tree, _ = build_hierarchy(distance_matrix(g))
        cm = hacp_compress(g, tree, 0)
        with pytest.raises((PatternNotLiftable, UnknownVariable)):
            lifted_marginal(cm, g.variables[0].name)
