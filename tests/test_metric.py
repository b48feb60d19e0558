from __future__ import annotations

import math

import numpy as np
import pytest

from fglift import (
    DistanceMatrix,
    RandomVariable,
    build_graph,
    distance_matrix,
    eps_equivalent,
    odeed,
)
from fglift.errors import LengthMismatch, NonPositivePotential
from fglift.io import distance_matrix_to_csv

from conftest import BOOL, random_graph
from oracles import def3_equivalent, naive_odeed

# the non-metric witness triple and the non-transitive unary triple
TRIANGLE = ([2.0, 0.5], [1.0, 1.0], [1.0, 2.0])
NONTRANS = ([0.95, 2.05], [1.0, 1.95], [1.08, 2.10])


class TestOdeed:
    def test_triangle_inequality_violation(self):
        t1, t2, t3 = TRIANGLE
        assert odeed(t1, t2) == 1.0
        assert odeed(t2, t3) == 1.0
        assert odeed(t1, t3) == 3.0
        assert odeed(t1, t2) + odeed(t2, t3) < odeed(t1, t3)

    def test_self_distance_zero(self, rng):
        for _ in range(20):
            t = np.exp(rng.uniform(-3, 3, rng.integers(1, 9)))
            assert odeed(t, t) == 0.0

    def test_worked_pair(self):
        d = odeed(NONTRANS[0], NONTRANS[1])
        assert d == max(abs(0.95 - 1.0) / 0.95, abs(2.05 - 1.95) / 1.95)
        assert d == pytest.approx(max(0.05 / 0.95, 0.10 / 1.95), rel=1e-12)
        assert round(d, 6) == 0.052632

    def test_symmetry_exact(self, rng):
        for _ in range(50):
            n = rng.integers(1, 9)
            a = np.exp(rng.uniform(-3, 3, n))
            b = np.exp(rng.uniform(-3, 3, n))
            assert odeed(a, b) == odeed(b, a)

    def test_zero_iff_identical(self, rng):
        a = np.array([1.0, 2.0, 3.0])
        b = a.copy()
        assert odeed(a, b) == 0.0
        b[1] = np.nextafter(b[1], 4.0)
        assert odeed(a, b) > 0.0

    def test_positive_scaling_invariance(self, rng):
        for _ in range(50):
            n = rng.integers(1, 9)
            a = np.exp(rng.uniform(-3, 3, n))
            b = np.exp(rng.uniform(-3, 3, n))
            c = float(np.exp(rng.uniform(-6, 6)))
            base = odeed(a, b)
            scaled = odeed(c * a, c * b)
            assert scaled == pytest.approx(base, rel=1e-12)

    def test_matches_naive_oracle(self, rng):
        for _ in range(100):
            n = rng.integers(1, 9)
            a = np.exp(rng.uniform(-3, 3, n))
            b = np.exp(rng.uniform(-3, 3, n))
            assert odeed(a, b) == naive_odeed(a, b)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            odeed([1.0, 2.0], [1.0])

    def test_rejects_non_positive(self):
        with pytest.raises(NonPositivePotential):
            odeed([1.0, 0.0], [1.0, 1.0])


class TestEpsEquivalent:
    def test_example_pair(self):
        assert eps_equivalent([0.49], [0.5], 0.1)

    def test_non_transitive_triple(self):
        t1, t2, t3 = NONTRANS
        assert eps_equivalent(t1, t2, 0.1)
        assert eps_equivalent(t2, t3, 0.1)
        assert not eps_equivalent(t1, t3, 0.1)
        # the failing containment: 0.95 < 0.972 = (1 - eps) * 1.08
        assert t1[0] < (1 - 0.1) * t3[0]

    def test_identical_tables(self, rng):
        t = np.exp(rng.uniform(-3, 3, 4))
        for eps in (1e-9, 0.1, 3.0):
            assert eps_equivalent(t, t, eps)

    def test_agrees_with_literal_interval_checker(self, rng):
        for _ in range(500):
            n = rng.integers(1, 9)
            a = np.exp(rng.uniform(math.log(1e-3), math.log(1e3), n))
            b = a * np.exp(rng.uniform(-0.5, 0.5, n))
            for eps in (0.01, 0.1, 0.5, 1.0, 3.0):
                assert eps_equivalent(a, b, eps) == def3_equivalent(a, b, eps)

    def test_eps_must_be_positive(self):
        with pytest.raises(ValueError):
            eps_equivalent([1.0], [1.0], 0.0)


class TestDistanceMatrix:
    def test_fig1_identical_tables(self, fig1):
        dm = distance_matrix(fig1)
        assert dm.m == 2
        assert dm.get(0, 1) == 0.0
        assert dm.get(1, 0) == 0.0
        assert dm.get(1, 1) == 0.0

    def test_single_factor(self):
        g = build_graph([RandomVariable("X", BOOL)], [("phi", ["X"], [1, 2])])
        dm = distance_matrix(g)
        assert dm.entries.size == 0
        assert list(dm.pairs()) == []

    def test_entries_match_pairwise_recomputation(self, rng):
        tables = [np.exp(rng.uniform(-2, 2, 4)) for _ in range(4)]
        g = build_graph(
            [RandomVariable("A", BOOL), RandomVariable("B", BOOL)],
            [(f"f{k}", ["A", "B"], t) for k, t in enumerate(tables)],
        )
        dm = distance_matrix(g)
        assert dm.entries.size == 6
        for i in range(4):
            for j in range(i + 1, 4):
                assert dm.get(i, j) == naive_odeed(tables[i], tables[j])

    def test_incompatible_pairs_are_infinite(self):
        g = build_graph(
            [RandomVariable("A", BOOL), RandomVariable("B", ("x", "y", "z"))],
            [
                ("f1", ["A"], [1.0, 2.0]),
                ("f2", ["B"], [1.0, 2.0, 3.0]),
                ("f3", ["A"], [1.5, 2.5]),
            ],
        )
        dm = distance_matrix(g)
        assert np.isinf(dm.get(0, 1))
        assert np.isinf(dm.get(1, 2))
        assert np.isfinite(dm.get(0, 2))
        assert list(dm.class_ids) == [0, 1, 0]

    def test_threads_bit_identical(self, rng):
        g = random_graph(rng, n_vars=4, n_factors=12, max_arity=2)
        seq = distance_matrix(g, threads=1)
        par = distance_matrix(g, threads=4)
        assert np.array_equal(seq.entries, par.entries)

    def test_interleaved_classes_over_several_row_blocks(self, rng):
        # unary factors on 2- and 3-state variables: two interleaved classes
        # of about 80 factors each, more than one block of rows apiece
        g = random_graph(rng, n_vars=4, n_factors=160, max_arity=1)
        seq = distance_matrix(g, threads=1)
        assert np.array_equal(seq.entries, distance_matrix(g, threads=2).entries)
        for i, j in seq.pairs():
            a, b = g.factors[i].table, g.factors[j].table
            expected = naive_odeed(a, b) if a.size == b.size else math.inf
            assert seq.get(i, j) == expected

    def test_condensed_layout_matches_loops(self, rng):
        m = 9
        dm = DistanceMatrix.from_entries(
            m, rng.uniform(0.0, 1.0, m * (m - 1) // 2)
        )
        pairs, sq, pos = [], np.zeros((m, m)), 0
        for i in range(m - 1):
            for j in range(i + 1, m):
                assert dm.index(i, j) == pos
                pairs.append((i, j))
                sq[i, j] = sq[j, i] = dm.entries[pos]
                pos += 1
        assert list(dm.pairs()) == pairs
        assert np.array_equal(dm.square(), sq)
        cols = np.arange(3, m)
        assert dm.index(2, cols).tolist() == [dm.index(2, j) for j in cols]
        with pytest.raises(IndexError):
            dm.index(2, np.array([1, 5]))

    def test_square_symmetric(self, rng):
        g = random_graph(rng, n_vars=4, n_factors=6, max_arity=2)
        dm = distance_matrix(g)
        sq = dm.square()
        assert np.array_equal(sq, sq.T)
        assert (np.diag(sq) == 0.0).all()

    def test_from_entries_validates_classes(self):
        with pytest.raises(ValueError):
            DistanceMatrix.from_entries(3, [0.1, 0.2, 0.3], [0, 0, 1])
        with pytest.raises(ValueError, match=r"entry \(1,2\)"):
            DistanceMatrix.from_entries(3, [0.1, np.inf, 0.3], [0, 0, 1])
        dm = DistanceMatrix.from_entries(
            3, [0.1, np.inf, np.inf], [0, 0, 1]
        )
        assert dm.get(0, 1) == 0.1

    def test_csv_dump(self):
        dm = DistanceMatrix.from_entries(3, [0.25, np.inf, np.inf], [0, 0, 1])
        text = distance_matrix_to_csv(dm)
        lines = text.strip().split("\n")
        assert lines[0] == "i,j,distance"
        assert lines[1] == "1,2,0.25"
        assert lines[2] == "1,3,inf"
        assert lines[3] == "2,3,inf"
