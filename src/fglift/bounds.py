"""Closed-form bounds linking grouping tolerance to query deviation.

For a graph with ``m`` factors compressed under tolerance ``eps``, the
distribution distance d between original and compressed model obeys a chain
of bounds

    d  <=  d2 = m * ln((1 + (m-1)/m * eps) * (1 + eps) / (1 + eps/m))
        <   d3 = 2m * ln(1 + eps)
        <   d4 = m * ln((1 + eps) / (1 - eps))        (eps < 1 only),

with d2 sharp. Any conditional probability then moves by at most

    pmax(d) = (sqrt(e^d) - 1) / (sqrt(e^d) + 1) = tanh(d / 4),

and a single query value p is confined to the interval

    [p e^-d / (p(e^-d - 1) + 1),  p e^d / (p(e^d - 1) + 1)].

The inverse direction solves d2(eps, m) = d for eps, which yields the
largest tolerance guaranteeing a requested deviation cap. All formulas use
log1p/expm1 forms so tiny eps values keep full precision.

Throughout, ``m`` is the total factor count of the input graph, not the
number of factors inside merged groups; passing a smaller m produces bounds
the guarantees do not cover.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import EpsOutOfRange


def _check_eps(eps: float, *, strict_upper: bool) -> None:
    if not eps >= 0.0:
        raise EpsOutOfRange(f"eps must be non-negative, got {eps}")
    if strict_upper and eps >= 1.0:
        raise EpsOutOfRange(f"eps must be below 1, got {eps}")


def dcd_bound_sharp(eps: float, m: int) -> float:
    """Sharp bound on the distribution distance for tolerance ``eps``.

    ``m * ln((1 + (m-1)/m * eps) * (1 + eps) / (1 + eps/m))``; valid for any
    eps >= 0 and m >= 1, increasing in both arguments.
    """
    _check_eps(eps, strict_upper=False)
    if m < 1:
        raise ValueError("m must be at least 1")
    a = (m - 1) / m
    return m * (math.log1p(a * eps) + math.log1p(eps) - math.log1p(eps / m))


def dcd_bounds_loose(eps: float, m: int) -> tuple[float, float]:
    """The two loose bounds ``(2m ln(1+eps), m ln((1+eps)/(1-eps)))``.

    The second requires eps < 1.
    """
    _check_eps(eps, strict_upper=True)
    if m < 1:
        raise ValueError("m must be at least 1")
    d3 = 2 * m * math.log1p(eps)
    d4 = m * (math.log1p(eps) - math.log1p(-eps))
    return d3, d4


def pmax_bound(d: float) -> float:
    """Largest possible conditional-query shift for distance ``d``.

    ``(sqrt(e^d) - 1) / (sqrt(e^d) + 1)``, evaluated as expm1(d/2) over
    (expm1(d/2) + 2); identical to tanh(d/4). Saturates to 1.0 once the
    half-exponent overflows float64.
    """
    if not d >= 0.0:
        raise ValueError("distance must be non-negative")
    if d > 1416.0:
        return 1.0
    em = math.expm1(d / 2.0)
    return em / (em + 2.0)


def cd_interval(p: float, d: float) -> tuple[float, float]:
    """Reachable interval for a probability ``p`` under distance ``d``."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be a probability, got {p}")
    if not d >= 0.0:
        raise ValueError("distance must be non-negative")
    ed = math.exp(d)
    emd = math.exp(-d)
    lower = p * emd / (p * (emd - 1.0) + 1.0)
    upper = p * ed / (p * (ed - 1.0) + 1.0)
    return lower, upper


def eps_for_target(p_star: float, m: int) -> float:
    """Largest tolerance guaranteeing a query deviation of at most ``p_star``.

    Inverts the sharp bound at ``d = 2 ln((1 + p_star)/(1 - p_star))``: with
    ``q1 = 2 - expm1(d/m)/(m-1)`` and ``q2 = -m expm1(d/m)/(m-1)`` the
    positive quadratic root is returned in the rationalised form
    ``-q2 / (sqrt((q1/2)^2 - q2) + q1/2)``, which keeps precision when the
    result is tiny. Values >= 1 are returned verbatim; they mean any
    tolerance below 1 suffices, and callers clamp where a formula needs
    eps < 1.
    """
    if not 0.0 < p_star <= 0.5:
        raise ValueError(f"target deviation must be in (0, 0.5], got {p_star}")
    if m < 2:
        raise ValueError("m must be at least 2")
    d = 2.0 * (math.log1p(p_star) - math.log1p(-p_star))
    em = math.expm1(d / m)
    q1 = 2.0 - em / (m - 1)
    q2 = -m * em / (m - 1)
    half = q1 / 2.0
    root = math.sqrt(half * half - q2)
    if q1 >= 0.0:
        return -q2 / (root + half)
    return root - half


@dataclass(frozen=True)
class BoundChain:
    """All bound values for one (eps, m) point, optionally with a measurement.

    ``d1``/``pmax_d1`` hold a measured distance when one is supplied; the
    closed-form values satisfy d2 <= d3 <= d4 and the same order of their
    pmax transforms.
    """

    eps: float
    m: int
    d2: float
    d3: float
    d4: float
    pmax_d2: float
    pmax_d3: float
    pmax_d4: float
    d1: float | None = None
    pmax_d1: float | None = None


def bound_chain(eps: float, m: int, measured_d: float | None = None) -> BoundChain:
    """Evaluate the full bound chain at one (eps, m) point (eps < 1)."""
    _check_eps(eps, strict_upper=True)
    d2 = dcd_bound_sharp(eps, m)
    d3, d4 = dcd_bounds_loose(eps, m)
    return BoundChain(
        eps,
        m,
        d2,
        d3,
        d4,
        pmax_bound(d2),
        pmax_bound(d3),
        pmax_bound(d4),
        measured_d,
        None if measured_d is None else pmax_bound(measured_d),
    )
