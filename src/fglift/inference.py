"""Exact query answering and distribution distance between two graphs.

Two independent routes are provided and cross-checked in the test suite:
variable elimination (default for queries) and full enumeration over the
joint state space. Both work in the log domain, so long products of
potentials neither overflow nor underflow. Variable elimination multiplies
log tables by broadcast sums and sums variables out by log-sum-exp, in
min-degree order kept up to date incrementally: after each elimination only
the variables that shared a table with the eliminated one are re-costed.
Enumeration refuses to run past a configurable state budget instead of
approximating. ``partition_function`` raises :class:`NumericOverflow` or
:class:`NumericUnderflow` when the normalisation constant leaves the float
range.

The distribution distance used throughout is the Chan-Darwiche measure

    D(P, P') = ln max_r P'(r)/P(r) - ln min_r P'(r)/P(r),

computed by a full sweep over assignments; normalisation constants cancel
in the two log ratios. It bounds the shift of every conditional query
between the two models. ``max_query_deviation`` measures that shift by
enumeration, reading the marginals of all variables off one rescaled slice
per evidence assignment: O(#evidence assignments x joint size).

``star_marginal`` evaluates hub queries on compressed star-shaped models,
optionally exploiting grouped identical factors by computing each group's
leaf summation once and raising it to the group size, in the log domain.
The operation counter it reports counts visited table entries in those
summations.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .colour import CompressedModel
from .errors import (
    InconsistentEvidence,
    NumericOverflow,
    NumericUnderflow,
    PatternNotLiftable,
    StateSpaceTooLarge,
    StructureMismatch,
    UnknownVariable,
)
from .model import Assignment, FactorGraph

#: Enumeration refuses above this many joint states unless overridden.
DEFAULT_ENUM_BUDGET = 2**24


@dataclass(frozen=True)
class QueryResult:
    """Normalised distribution over a query variable's range."""

    variable: str
    evidence: dict[str, str]
    probabilities: np.ndarray
    ops: int | None = None

    def prob(self, value: str, g: FactorGraph) -> float:
        return float(self.probabilities[g.variable(self.variable).index_of(value)])


@dataclass(frozen=True)
class QueryDeviation:
    """Largest per-value gap of one conditional query between two models.

    When several values share the largest gap, which one is reported
    depends on rounding; every boolean query is such a tie, as its two
    values' gaps are equal. ``p``, ``p_compressed`` and ``abs_dev`` belong
    to the reported value.
    """

    variable: str
    value: str
    evidence: dict[str, str]
    p: float
    p_compressed: float
    abs_dev: float


@dataclass(frozen=True)
class DeviationReport:
    """Measured distance and query deviations over all scanned queries.

    ``pmax`` is a maximum over the scanned queries only; with a bounded
    evidence budget it is a lower bound on the true worst case.
    """

    dcd: float
    pmax: float
    worst: QueryDeviation | None
    deviations: list[QueryDeviation] = field(default_factory=list)


def _check_query_terms(
    g: FactorGraph, q: str | None, evidence: Assignment
) -> None:
    if q is not None and not g.has_variable(q):
        raise UnknownVariable(f"query variable {q!r} is not in the graph")
    for name, value in evidence.items():
        if not g.has_variable(name):
            raise UnknownVariable(f"evidence variable {name!r} is not in the graph")
        g.variable(name).index_of(value)
    if q is not None and q in evidence:
        raise ValueError(f"query variable {q!r} also appears as evidence")


def _log_joint(
    g: FactorGraph,
    order: list[str] | None = None,
    *,
    enum_budget: int = DEFAULT_ENUM_BUDGET,
) -> tuple[list[str], np.ndarray]:
    """Log joint potential over the full state space, axes in ``order``."""
    names = order if order is not None else [v.name for v in g.variables]
    sizes = [g.variable(nm).size for nm in names]
    total = math.prod(sizes)
    if total > enum_budget:
        raise StateSpaceTooLarge(
            f"{total} joint states exceed the enumeration budget {enum_budget}"
        )
    axis_of = {nm: k for k, nm in enumerate(names)}
    arr = np.zeros(sizes, dtype=np.float64)
    for f in g.factors:
        lt = np.log(f.table).reshape(f.shape)
        axes = [axis_of[a.name] for a in f.args]
        perm = sorted(range(len(axes)), key=axes.__getitem__)
        lt = lt.transpose(perm)
        shape = [1] * len(names)
        for p in perm:
            shape[axes[p]] = f.args[p].size
        arr += lt.reshape(shape)
    return names, arr


def _lse(arr: np.ndarray, axis: tuple[int, ...] | None = None) -> np.ndarray:
    mx = arr.max(axis=axis, keepdims=True)
    out = mx + np.log(np.exp(arr - mx).sum(axis=axis, keepdims=True))
    return np.squeeze(out, axis=axis) if axis is not None else out.reshape(())


def _softmax(lp: np.ndarray) -> np.ndarray:
    w = np.exp(lp - lp.max())
    return w / w.sum()


def partition_function(
    g: FactorGraph,
    *,
    method: str = "enum",
    enum_budget: int = DEFAULT_ENUM_BUDGET,
) -> float:
    """Normalisation constant: the sum of joint potentials over all states.

    Raises :class:`NumericOverflow` when the constant exceeds the float range
    and :class:`NumericUnderflow` when it is too small to represent.
    """
    if method == "enum":
        _, arr = _log_joint(g, enum_budget=enum_budget)
        log_z = float(_lse(arr))
    elif method == "ve":
        _, arr = _ve_contract(g, keep=(), evidence={})
        log_z = float(arr)
    else:
        raise ValueError(f"unknown method {method!r}")
    try:
        z = math.exp(log_z)
    except OverflowError:
        raise NumericOverflow(
            f"partition function exceeds the float range: log Z = {log_z!r}"
        ) from None
    if z == 0.0:
        raise NumericUnderflow(
            f"partition function underflows the float range: log Z = {log_z!r}"
        )
    return z


def _broadcast_to_scope(
    names: tuple[str, ...], arr: np.ndarray, scope: list[str]
) -> np.ndarray:
    perm = sorted(range(len(names)), key=lambda p: scope.index(names[p]))
    a = np.transpose(arr, perm)
    ordered = [names[p] for p in perm]
    shape, it = [], 0
    for s in scope:
        if it < len(ordered) and ordered[it] == s:
            shape.append(a.shape[it])
            it += 1
        else:
            shape.append(1)
    return a.reshape(shape)


def _log_product(
    items: list[tuple[tuple[str, ...], np.ndarray]]
) -> tuple[tuple[str, ...], np.ndarray]:
    """Product of log tables: their broadcast sum over the union of scopes."""
    scope: list[str] = []
    for names, _ in items:
        for nm in names:
            if nm not in scope:
                scope.append(nm)
    out = np.zeros([1] * len(scope))
    for names, arr in items:
        out = out + _broadcast_to_scope(names, arr, scope)
    return tuple(scope), out


def _ve_contract(
    g: FactorGraph, keep: tuple[str, ...], evidence: Assignment
) -> tuple[tuple[str, ...], np.ndarray]:
    """Log table over ``keep`` left after eliminating every other variable.

    Evidence is sliced into each factor's log table. The next variable to
    eliminate is the one whose product table would be smallest, ties broken
    by name (min-degree). That size is kept per variable as the product of
    the sizes of the variables it shares a table with, counted per table, so
    adding or dropping a table updates the costs of its own variables only.
    Each variable of a new table gets a fresh heap entry; entries whose cost
    is stale are skipped.
    """
    sizes = {v.name: v.size for v in g.variables}
    costs = {
        v.name: 1
        for v in g.variables
        if v.name not in keep and v.name not in evidence
    }
    shared: dict[str, Counter[str]] = {u: Counter() for u in costs}
    items: dict[int, tuple[tuple[str, ...], np.ndarray]] = {}
    adjacent: dict[str, set[int]] = {v.name: set() for v in g.variables}
    ids = itertools.count()

    def add(names: tuple[str, ...], arr: np.ndarray) -> None:
        k = next(ids)
        items[k] = (names, arr)
        for u in names:
            adjacent[u].add(k)
            if u in costs:
                for w in names:
                    if not shared[u][w]:
                        costs[u] *= sizes[w]
                    shared[u][w] += 1

    def drop(k: int) -> tuple[tuple[str, ...], np.ndarray]:
        names, arr = items.pop(k)
        for u in names:
            adjacent[u].discard(k)
            if u in costs:
                for w in names:
                    shared[u][w] -= 1
                    if not shared[u][w]:
                        costs[u] //= sizes[w]
        return names, arr

    for f in g.factors:
        idx = tuple(
            a.index_of(evidence[a.name]) if a.name in evidence else slice(None)
            for a in f.args
        )
        add(
            tuple(a.name for a in f.args if a.name not in evidence),
            np.log(np.asarray(f.table.reshape(f.shape)[idx], dtype=np.float64)),
        )

    heap = [(c, v) for v, c in costs.items()]
    heapq.heapify(heap)
    while heap:
        c, v = heapq.heappop(heap)
        if costs.get(v) != c:
            continue
        del costs[v]
        names, arr = _log_product([drop(k) for k in sorted(adjacent[v])])
        axis = names.index(v)
        add(names[:axis] + names[axis + 1 :], _lse(arr, axis=(axis,)))
        for u in names:
            if u in costs:
                heapq.heappush(heap, (costs[u], u))
    return _log_product(list(items.values()))


def query(
    g: FactorGraph,
    q: str,
    evidence: Assignment | None = None,
    *,
    method: str = "ve",
    enum_budget: int = DEFAULT_ENUM_BUDGET,
) -> QueryResult:
    """Conditional distribution of ``q`` given ``evidence``.

    ``method="ve"`` contracts log tables by min-degree variable elimination;
    ``method="enum"`` marginalises the full log joint (the oracle route).
    """
    evidence = dict(evidence or {})
    _check_query_terms(g, q, evidence)
    if method == "ve":
        _, lp = _ve_contract(g, keep=(q,), evidence=evidence)
        if not np.isfinite(lp).any():
            raise InconsistentEvidence(
                f"evidence {evidence!r} has zero probability mass"
            )
        return QueryResult(q, evidence, _softmax(lp))
    if method == "enum":
        names, arr = _log_joint(g, enum_budget=enum_budget)
        indexer = [slice(None)] * len(names)
        for nm, value in evidence.items():
            indexer[names.index(nm)] = g.variable(nm).index_of(value)
        sub = arr[tuple(indexer)]
        sub_names = [nm for nm in names if nm not in evidence]
        other = tuple(k for k, nm in enumerate(sub_names) if nm != q)
        lp = _lse(sub, axis=other) if other else sub
        return QueryResult(q, evidence, _softmax(lp))
    raise ValueError(f"unknown method {method!r}")


def _check_same_structure(g: FactorGraph, g2: FactorGraph) -> None:
    mine = {v.name: v.range for v in g.variables}
    theirs = {v.name: v.range for v in g2.variables}
    if mine != theirs:
        raise StructureMismatch(
            "graphs must share variable names and ranges to be compared"
        )


def dcd_distance(
    g: FactorGraph,
    g2: FactorGraph,
    *,
    enum_budget: int = DEFAULT_ENUM_BUDGET,
) -> float:
    """Chan-Darwiche distance between the two encoded distributions."""
    _check_same_structure(g, g2)
    order = [v.name for v in g.variables]
    _, lp1 = _log_joint(g, order, enum_budget=enum_budget)
    _, lp2 = _log_joint(g2, order, enum_budget=enum_budget)
    diff = lp2 - lp1
    return float(diff.max() - diff.min())


def _axis_marginals(lp: np.ndarray) -> list[np.ndarray]:
    """Normalised marginal of every axis of the log table ``lp``.

    The table is rescaled by its maximum and exponentiated once; each axis's
    marginal is then the row sums over the leading axis, which is summed
    away before the next, so the work is linear in the table size.
    """
    w = np.exp(lp - lp.max())
    out = []
    for size in lp.shape:
        w = w.reshape(size, -1)
        m = w.sum(axis=1)
        out.append(m / m.sum())
        w = w.sum(axis=0)
    return out


def max_query_deviation(
    g: FactorGraph,
    g2: FactorGraph,
    evidence_budget: int = 0,
    *,
    enum_budget: int = DEFAULT_ENUM_BUDGET,
) -> DeviationReport:
    """Scan single-variable conditional queries for the largest deviation.

    Every variable is queried under every evidence assignment of up to
    ``evidence_budget`` other variables (0 scans marginals only). The
    returned maximum is over the scanned queries.

    Each evidence assignment is visited once: its slice of each log joint is
    rescaled by the slice's own maximum (so improbable evidence stays
    exact) and exponentiated once, and the marginals of all remaining
    variables are read off it by :func:`_axis_marginals`. The cost is
    O(#evidence assignments x joint size). Rows come out ordered by query
    variable, evidence count, evidence variables and evidence values.
    """
    _check_same_structure(g, g2)
    order = [v.name for v in g.variables]
    _, lp1 = _log_joint(g, order, enum_budget=enum_budget)
    _, lp2 = _log_joint(g2, order, enum_budget=enum_budget)
    diff = lp2 - lp1
    dcd = float(diff.max() - diff.min())

    n = len(order)
    rows = []
    for count in range(min(evidence_budget, n - 1) + 1):
        for ev_axes in itertools.combinations(range(n), count):
            kept = [k for k in range(n) if k not in ev_axes]
            ranges = (range(lp1.shape[a]) for a in ev_axes)
            for combo in itertools.product(*ranges):
                indexer: list = [slice(None)] * n
                for a, value_pos in zip(ev_axes, combo):
                    indexer[a] = value_pos
                margs1 = _axis_marginals(lp1[tuple(indexer)])
                margs2 = _axis_marginals(lp2[tuple(indexer)])
                for qi, p, p2 in zip(kept, margs1, margs2):
                    rows.append((qi, count, ev_axes, combo, p, p2))
    rows.sort(key=lambda row: row[:4])

    deviations: list[QueryDeviation] = []
    worst: QueryDeviation | None = None
    for qi, _, ev_axes, combo, p, p2 in rows:
        gaps = np.abs(p - p2)
        vi = int(gaps.argmax())
        dev = QueryDeviation(
            order[qi],
            g.variable(order[qi]).range[vi],
            {
                order[a]: g.variable(order[a]).range[value_pos]
                for a, value_pos in zip(ev_axes, combo)
            },
            float(p[vi]),
            float(p2[vi]),
            float(gaps[vi]),
        )
        deviations.append(dev)
        if worst is None or dev.abs_dev > worst.abs_dev:
            worst = dev
    pmax = worst.abs_dev if worst is not None else 0.0
    return DeviationReport(dcd, pmax, worst, deviations)


def star_marginal(
    cm: CompressedModel, q: str, *, lifted: bool = True
) -> QueryResult:
    """Hub-variable marginal on a star-shaped compressed model.

    Requires the pattern: every factor contains the query variable exactly
    once, all other arguments are private to their factor (degree one), and
    every block's members agree on tables, query position and leaf ranges.
    With ``lifted`` each block's leaf summation runs once and is raised to
    the block size, as its logarithm added up block-size times; otherwise
    each member is summed separately and the logs of the sums are added.
    Both routes add identical values in identical order, so they agree
    bit-for-bit, and working with logs keeps large blocks from overflowing
    or underflowing. ``ops`` counts visited table entries.
    """
    g = cm.base
    if not g.has_variable(q):
        raise UnknownVariable(f"query variable {q!r} is not in the graph")
    degree: dict[str, int] = {}
    for f in g.factors:
        for a in f.args:
            degree[a.name] = degree.get(a.name, 0) + 1
    for f in g.factors:
        positions = [k for k, a in enumerate(f.args) if a.name == q]
        if len(positions) != 1:
            raise PatternNotLiftable(
                f"factor {f.name!r} must mention the query variable exactly once"
            )
        for a in f.args:
            if a.name != q and degree[a.name] != 1:
                raise PatternNotLiftable(
                    f"variable {a.name!r} is shared between factors; only the "
                    f"query variable may be"
                )

    q_size = g.variable(q).size
    log_unnorm = np.zeros(q_size, dtype=np.float64)
    ops = 0
    for blk in cm.grouping.blocks:
        members = [g.factors[k] for k in blk]
        first = members[0]
        q_pos = [a.name for a in first.args].index(q)
        for f in members[1:]:
            if (
                [a.name for a in f.args].index(q) != q_pos
                or f.shape != first.shape
                or any(
                    a.range != b.range
                    for a, b in zip(f.args, first.args)
                    if a.name != q
                )
                or not np.array_equal(f.table, first.table)
            ):
                raise PatternNotLiftable(
                    f"block containing {first.name!r} mixes incompatible factors"
                )
        axes = tuple(k for k in range(len(first.args)) if k != q_pos)
        if lifted:
            log_s = np.log(first.table.reshape(first.shape).sum(axis=axes))
            ops += first.dim
            contrib = log_s.copy()
            for _ in range(len(members) - 1):
                contrib = contrib + log_s
        else:
            contrib = np.zeros(q_size, dtype=np.float64)
            for f in members:
                log_s = np.log(f.table.reshape(f.shape).sum(axis=axes))
                ops += f.dim
                contrib = contrib + log_s
        log_unnorm += contrib
    return QueryResult(q, {}, _softmax(log_unnorm), ops)


def lifted_marginal(
    cm: CompressedModel, q: str, evidence: Assignment | None = None
) -> QueryResult:
    """Marginal of ``q`` exploiting grouped identical factors.

    Raises :class:`PatternNotLiftable` when the model is not a star around
    ``q`` or when evidence is present; there is no silent fallback.
    """
    if evidence:
        raise PatternNotLiftable(
            "evidence is not supported by the lifted star pattern"
        )
    return star_marginal(cm, q, lifted=True)
