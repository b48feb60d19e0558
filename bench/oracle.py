"""Reference computations the benchmark checks the program's outputs against.

Nothing here calls into ``fglift``: models are read only through their
variables, argument lists and tables, and every quantity is re-derived from
its definition. Probabilities are computed in the log domain (log-sum-exp),
so these oracles stay finite where a raw product of potentials overflows.
"""

from __future__ import annotations

import math

import numpy as np


# ---------------------------------------------------------------------------
# distances and the merge tree
# ---------------------------------------------------------------------------


def odeed_cross(a: np.ndarray, b: np.ndarray) -> float:
    """Largest worst-row relative deviation between any row of a and any of b."""
    x = a[:, None, :]
    y = b[None, :, :]
    return float((np.abs(x - y) / np.minimum(x, y)).max())


def tree_merges(doc: dict) -> list[tuple[int, float, list[int], list[int]]]:
    """Merges of a hierarchy document as (node id, eps, left leaves, right leaves).

    Leaves are 0-based; merges come back in node-id order, which is the
    merge order. The walk is iterative, so deep trees need no recursion.
    """
    merges = []
    leaves_of: dict[int, list[int]] = {}
    stack = [(node, False) for node in doc["tree"]]
    while stack:
        node, expanded = stack.pop()
        if "leaf" in node:
            continue
        left, right = node["children"]
        if not expanded:
            stack.append((node, True))
            stack.extend((child, False) for child in (left, right))
            continue
        sides = [
            [child["leaf"] - 1] if "leaf" in child else leaves_of[child["id"]]
            for child in (left, right)
        ]
        leaves_of[node["id"]] = sides[0] + sides[1]
        merges.append((node["id"], float(node["eps"]), sides[0], sides[1]))
    merges.sort(key=lambda rec: rec[0])
    return merges


class UnionFind:
    """Partition of 0..m-1 whose blocks are labelled by their smallest member."""

    def __init__(self, m: int) -> None:
        self.parent = list(range(m))

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)

    def labels(self) -> list[int]:
        return [self.find(k) for k in range(len(self.parent))]


def groups_of(labels: list[int]) -> list[tuple[int, ...]]:
    """Blocks of a label list, ordered by their smallest member."""
    blocks: dict[int, list[int]] = {}
    for k, lab in enumerate(labels):
        blocks.setdefault(lab, []).append(k)
    return sorted(tuple(b) for b in blocks.values())


# ---------------------------------------------------------------------------
# closed-form bounds, written out from the paper's formulas
# ---------------------------------------------------------------------------


def d2(eps: float, m: int) -> float:
    return m * math.log((1 + (m - 1) / m * eps) * (1 + eps) / (1 + eps / m))


def d3(eps: float, m: int) -> float:
    return 2 * m * math.log(1 + eps)


def d4(eps: float, m: int) -> float:
    return m * math.log((1 + eps) / (1 - eps))


def pmax(d: float) -> float:
    return math.tanh(d / 4)


def cd_interval(p: float, d: float) -> tuple[float, float]:
    ed = math.exp(d)
    return p / (p + (1 - p) * ed), p * ed / (p * ed + 1 - p)


def close(a: float, b: float, rel: float, floor: float = 0.0) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b)) + floor


# ---------------------------------------------------------------------------
# log-domain marginals
# ---------------------------------------------------------------------------


def _lse(x: np.ndarray, axis=None) -> np.ndarray:
    mx = np.max(x, axis=axis, keepdims=True)
    out = mx + np.log(np.exp(x - mx).sum(axis=axis, keepdims=True))
    return np.squeeze(out, axis=axis) if axis is not None else out.reshape(())


def _normalise(logp: np.ndarray) -> np.ndarray:
    w = np.exp(logp - logp.max())
    return w / w.sum()


def _log_table(f, evidence: dict[str, str]) -> np.ndarray:
    """Log table reshaped to the argument ranges, evidence rows masked out."""
    lt = np.log(np.asarray(f.table, dtype=np.float64)).reshape(
        [a.size for a in f.args]
    )
    for axis, a in enumerate(f.args):
        if a.name in evidence:
            keep = np.full(a.size, -np.inf)
            keep[a.range.index(evidence[a.name])] = 0.0
            shape = [1] * lt.ndim
            shape[axis] = a.size
            lt = lt + keep.reshape(shape)
    return lt


def star_marginal(g, q: str, evidence: dict[str, str] | None = None) -> np.ndarray:
    """Exact conditional of any variable of a star model by closed form.

    Every factor touches the hub once plus private leaves, so the hub's log
    belief is the sum of each factor's log-sum over its leaves; a leaf's
    belief adds its own factor back in with the hub summed out.
    """
    evidence = dict(evidence or {})
    counts: dict[str, int] = {}
    for f in g.factors:
        for a in f.args:
            counts[a.name] = counts.get(a.name, 0) + 1
    hub = max(counts, key=counts.get)
    hub_var = next(a for f in g.factors for a in f.args if a.name == hub)
    leaf_evidence = {k: v for k, v in evidence.items() if k != hub}
    msgs = []
    for f in g.factors:
        lt = _log_table(f, leaf_evidence)
        h = [a.name for a in f.args].index(hub)
        lt = np.moveaxis(lt, h, -1)
        msgs.append(_lse(lt, axis=tuple(range(lt.ndim - 1))) if lt.ndim > 1 else lt)
    belief = np.sum(msgs, axis=0)
    if hub in evidence:
        mask = np.full(hub_var.size, -np.inf)
        mask[hub_var.range.index(evidence[hub])] = 0.0
        belief = belief + mask
    if q == hub:
        return _normalise(belief)
    k, f = next((k, f) for k, f in enumerate(g.factors) if q in [a.name for a in f.args])
    names = [a.name for a in f.args]
    lt = _log_table(f, leaf_evidence)
    lt = np.moveaxis(lt, names.index(hub), -1) + (belief - msgs[k])
    qi = [n for n in names if n != hub].index(q)
    lt = np.moveaxis(lt, qi, 0)
    return _normalise(_lse(lt, axis=tuple(range(1, lt.ndim))))


def chain_marginal(g, q: str, evidence: dict[str, str] | None = None) -> np.ndarray:
    """Exact conditional on a pairwise chain by log-domain forward-backward.

    Factor k must span (V_k, V_{k+1}) in declaration order, which is the
    planted chain with two-argument tables.
    """
    evidence = dict(evidence or {})
    variables = list(g.variables)
    n = len(variables)
    if len(g.factors) != n - 1:
        raise ValueError("chain oracle needs n - 1 pairwise factors")
    unary = []
    for v in variables:
        u = np.zeros(v.size)
        if v.name in evidence:
            u[:] = -np.inf
            u[v.range.index(evidence[v.name])] = 0.0
        unary.append(u)
    pair = []
    for k, f in enumerate(g.factors):
        if [a.name for a in f.args] != [variables[k].name, variables[k + 1].name]:
            raise ValueError(f"factor {f.name!r} is not chain link {k + 1}")
        pair.append(np.log(np.asarray(f.table, dtype=np.float64)).reshape(f.args[0].size, f.args[1].size))
    fwd = [unary[0]]
    for k in range(n - 1):
        fwd.append(_lse(fwd[k][:, None] + pair[k], axis=0) + unary[k + 1])
    bwd = [np.zeros(v.size) for v in variables]
    for k in range(n - 2, -1, -1):
        bwd[k] = _lse(pair[k] + (unary[k + 1] + bwd[k + 1])[None, :], axis=1)
    i = [v.name for v in variables].index(q)
    return _normalise(fwd[i] + bwd[i])


# ---------------------------------------------------------------------------
# brute force over all joint states
# ---------------------------------------------------------------------------


def log_joint(g) -> np.ndarray:
    """Unnormalised log potential of every joint state, one axis per variable."""
    names = [v.name for v in g.variables]
    sizes = [v.size for v in g.variables]
    if math.prod(sizes) > 2**22:
        raise ValueError("brute-force sweep limited to 2**22 states")
    out = np.zeros(sizes)
    for f in g.factors:
        axes = [names.index(a.name) for a in f.args]
        lt = np.log(np.asarray(f.table, dtype=np.float64)).reshape(
            [a.size for a in f.args]
        )
        order = np.argsort(axes)
        lt = lt.transpose(order)
        shape = [1] * len(names)
        for ax in order:
            shape[axes[ax]] = sizes[axes[ax]]
        out = out + lt.reshape(shape)
    return out


def cd_distance(lp1: np.ndarray, lp2: np.ndarray) -> float:
    """Chan-Darwiche distance from two log joints (normalisers cancel)."""
    diff = lp2 - lp1
    return float(diff.max() - diff.min())


def single_evidence_scan(
    g, lp: np.ndarray
) -> dict[tuple[str, str, str], np.ndarray]:
    """Every marginal and single-evidence conditional of a small model.

    Keys are (query variable, evidence variable, evidence value), with empty
    strings for marginals; values are the normalised distributions.
    """
    names = [v.name for v in g.variables]
    p = np.exp(lp - lp.max())
    out: dict[tuple[str, str, str], np.ndarray] = {}
    n = len(names)
    for qi, q in enumerate(names):
        others = tuple(k for k in range(n) if k != qi)
        marg = p.sum(axis=others)
        out[(q, "", "")] = marg / marg.sum()
        for ei, e in enumerate(names):
            if ei == qi:
                continue
            rest = tuple(k for k in range(n) if k not in (qi, ei))
            joint = p.sum(axis=rest)  # axes (min(qi, ei), max(qi, ei))
            if ei < qi:
                joint = joint.T
            for vi, value in enumerate(g.variables[ei].range):
                col = joint[:, vi]
                out[(q, e, value)] = col / col.sum()
    return out
