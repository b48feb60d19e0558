from __future__ import annotations

import math

import numpy as np
import pytest

from fglift import (
    bound_chain,
    cd_interval,
    dcd_bound_sharp,
    dcd_bounds_loose,
    eps_for_target,
    pmax_bound,
)
from fglift.errors import EpsOutOfRange


class TestSharpBound:
    def test_vanishes_with_eps(self):
        assert dcd_bound_sharp(1e-15, 5) < 1e-12
        assert dcd_bound_sharp(0.0, 5) == 0.0

    def test_worked_points(self):
        assert dcd_bound_sharp(0.1, 2) == pytest.approx(2 * math.log(1.1), rel=1e-12)
        assert round(dcd_bound_sharp(0.1, 2), 6) == 0.190620
        assert dcd_bound_sharp(2.0, 2) == pytest.approx(2 * math.log(3.0), rel=1e-12)

    def test_strictly_increasing_in_eps_and_m(self):
        eps_grid = np.linspace(0.01, 0.99, 50)
        for m in (2, 3, 10, 100):
            vals = [dcd_bound_sharp(e, m) for e in eps_grid]
            assert all(a < b for a, b in zip(vals, vals[1:]))
        for eps in (0.01, 0.3, 0.9):
            vals = [dcd_bound_sharp(eps, m) for m in range(1, 40)]
            assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_small_eps_precision(self):
        # the log1p form keeps sub-1e-12 tolerances meaningful
        eps = 1e-13
        expected = 2 * (5 - 1) * eps  # first-order expansion, m=5
        assert dcd_bound_sharp(eps, 5) == pytest.approx(expected, rel=1e-10)


class TestLooseBounds:
    def test_worked_point(self):
        d3, d4 = dcd_bounds_loose(0.1, 2)
        assert d3 == pytest.approx(4 * math.log(1.1), rel=1e-12)
        assert d4 == pytest.approx(2 * math.log(1.1 / 0.9), rel=1e-12)
        assert round(d3, 6) == 0.381241
        assert round(d4, 6) == 0.401341

    def test_limits(self):
        d3, d4 = dcd_bounds_loose(1e-16, 3)
        assert d3 < 1e-12 and d4 < 1e-12

    def test_eps_domain(self):
        with pytest.raises(EpsOutOfRange):
            dcd_bounds_loose(1.0, 2)
        with pytest.raises(EpsOutOfRange):
            dcd_bounds_loose(-0.1, 2)

    def test_strict_chain_on_grid(self):
        for eps in np.linspace(0.005, 0.995, 100):
            for m in range(2, 12):
                d2 = dcd_bound_sharp(eps, m)
                d3, d4 = dcd_bounds_loose(eps, m)
                assert d2 < d3 < d4


class TestPmaxBound:
    def test_zero(self):
        assert pmax_bound(0.0) == 0.0

    def test_sqrt_three_point(self):
        assert pmax_bound(2 * math.log(3.0)) == pytest.approx(0.5, rel=1e-14)

    def test_unit_distance(self):
        assert pmax_bound(1.0) == pytest.approx(math.tanh(0.25), abs=1e-15)
        assert round(pmax_bound(1.0), 6) == 0.244919

    def test_tanh_identity_on_range(self):
        for d in np.linspace(0.0, 50.0, 2001):
            assert abs(pmax_bound(float(d)) - math.tanh(d / 4)) <= 1e-12

    def test_strictly_increasing_below_one(self):
        grid = np.linspace(0.0, 50.0, 500)
        vals = [pmax_bound(float(d)) for d in grid]
        assert all(a < b for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 1.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            pmax_bound(-1e-9)


class TestCdInterval:
    def test_degenerate_distance(self):
        for p in (0.0, 0.25, 1.0):
            assert cd_interval(p, 0.0) == (p, p)

    def test_brackets_p(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            p = float(rng.uniform(0, 1))
            d = float(rng.uniform(0, 5))
            low, high = cd_interval(p, d)
            assert low <= p <= high
            assert 0.0 <= low and high <= 1.0

    def test_upper_extremum_reaches_pmax(self):
        for d in (0.3, 1.0, 2.5):
            p1 = 1.0 / (math.sqrt(math.exp(d)) + 1.0)
            _, high = cd_interval(p1, d)
            assert high - p1 == pytest.approx(pmax_bound(d), abs=1e-12)

    def test_lower_extremum_reaches_pmax(self):
        for d in (0.3, 1.0, 2.5):
            s = math.sqrt(math.exp(d))
            p2 = s / (s + 1.0)
            low, _ = cd_interval(p2, d)
            assert p2 - low == pytest.approx(pmax_bound(d), abs=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            cd_interval(1.5, 1.0)
        with pytest.raises(ValueError):
            cd_interval(0.5, -1.0)


class TestEpsForTarget:
    def test_worked_point(self):
        eps1 = eps_for_target(0.5, 2)
        assert eps1 == pytest.approx(2.0, rel=1e-12)
        d = 2 * math.log((1 + 0.5) / (1 - 0.5))
        assert dcd_bound_sharp(eps1, 2) == pytest.approx(d, rel=1e-12)

    def test_tiny_target_gives_tiny_eps(self):
        assert eps_for_target(1e-9, 10) < 1e-8

    def test_round_trip_grid(self):
        for p_star in np.arange(0.01, 0.51, 0.01):
            for m in (2, 3, 5, 10, 50, 200, 1000):
                p_star_f = float(p_star)
                d = 2 * math.log((1 + p_star_f) / (1 - p_star_f))
                eps1 = eps_for_target(p_star_f, m)
                assert dcd_bound_sharp(eps1, m) == pytest.approx(
                    d, rel=1e-9, abs=1e-12
                )
                assert pmax_bound(dcd_bound_sharp(eps1, m)) == pytest.approx(
                    p_star_f, rel=1e-9
                )

    def test_domain(self):
        with pytest.raises(ValueError):
            eps_for_target(0.0, 2)
        with pytest.raises(ValueError):
            eps_for_target(0.6, 2)
        with pytest.raises(ValueError):
            eps_for_target(0.3, 1)


class TestBoundChain:
    def test_worked_point(self):
        chain = bound_chain(0.1, 2)
        assert round(chain.d2, 6) == 0.190620
        assert round(chain.d3, 6) == 0.381241
        assert round(chain.d4, 6) == 0.401341
        assert chain.pmax_d2 == pytest.approx(math.tanh(chain.d2 / 4), abs=1e-12)
        assert chain.pmax_d2 < chain.pmax_d3 < chain.pmax_d4
        assert chain.d1 is None and chain.pmax_d1 is None

    def test_limit(self):
        chain = bound_chain(1e-16, 4)
        for value in (chain.d2, chain.d3, chain.d4, chain.pmax_d2):
            assert value < 1e-12

    def test_measured_slot(self):
        chain = bound_chain(0.2, 3, measured_d=0.05)
        assert chain.d1 == 0.05
        assert chain.pmax_d1 == pytest.approx(math.tanh(0.05 / 4), abs=1e-12)

    def test_eps_domain(self):
        with pytest.raises(EpsOutOfRange):
            bound_chain(1.0, 2)


def test_ten_times_eps_close_to_ten_times_m():
    # doubling knobs: scaling eps by 10 or m by 10 changes the sharp bound
    # almost identically for small eps and m >= 10
    for eps in (0.001, 0.005, 0.01):
        for m in (10, 20, 100, 500):
            a = dcd_bound_sharp(10 * eps, m)
            b = dcd_bound_sharp(eps, 10 * m)
            assert abs(a - b) / b <= 0.15


NAN = float("nan")


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: pmax_bound(NAN), ValueError),
        (lambda: cd_interval(0.5, NAN), ValueError),
        (lambda: dcd_bound_sharp(NAN, 10), EpsOutOfRange),
        (lambda: dcd_bounds_loose(NAN, 10), EpsOutOfRange),
        (lambda: bound_chain(NAN, 10), EpsOutOfRange),
        (lambda: bound_chain(0.1, 10, NAN), ValueError),
    ],
    ids=[
        "pmax_bound",
        "cd_interval",
        "dcd_bound_sharp",
        "dcd_bounds_loose",
        "bound_chain",
        "bound_chain_measured",
    ],
)
def test_nan_is_rejected(call, error):
    with pytest.raises(error):
        call()
