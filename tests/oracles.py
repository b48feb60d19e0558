"""Independent reference implementations used as test oracles.

Everything here deliberately avoids the production code paths: distances
are re-derived from definitions, clustering is the naive cubic scan, and
probabilities come from pure-Python enumeration over assignments.
"""

from __future__ import annotations

import itertools

import numpy as np

from fglift.model import FactorGraph, joint_potential, row_index


def def3_equivalent(t1, t2, eps: float) -> bool:
    """Literal two-sided interval check of eps-equivalence, row by row."""
    a = np.asarray(t1, dtype=np.float64).reshape(-1)
    b = np.asarray(t2, dtype=np.float64).reshape(-1)
    assert a.size == b.size
    for x, y in zip(a, b):
        if not (y * (1 - eps) <= x <= y * (1 + eps)):
            return False
        if not (x * (1 - eps) <= y <= x * (1 + eps)):
            return False
    return True


def naive_odeed(t1, t2) -> float:
    """Row-by-row maximum of |x - y| / min(x, y)."""
    a = np.asarray(t1, dtype=np.float64).reshape(-1)
    b = np.asarray(t2, dtype=np.float64).reshape(-1)
    return max(abs(x - y) / min(x, y) for x, y in zip(a, b))


def naive_complete_linkage(square: np.ndarray) -> list[tuple[int, int, float]]:
    """Cubic reference clustering: full lexicographic scan per merge.

    Returns (i, j, eps) records with i < j; stops when only infinite
    distances remain. Ties break towards the smallest (i, j) pair.
    """
    m = square.shape[0]
    d = square.astype(np.float64).copy()
    active = list(range(m))
    merges: list[tuple[int, int, float]] = []
    while len(active) > 1:
        best = None
        for ai, i in enumerate(active):
            for j in active[ai + 1 :]:
                if best is None or d[i, j] < best[0]:
                    best = (d[i, j], i, j)
        eps, i, j = best
        if not np.isfinite(eps):
            break
        merges.append((i, j, float(eps)))
        for k in active:
            if k in (i, j):
                continue
            d[i, k] = d[k, i] = max(d[i, k], d[j, k])
        active.remove(j)
    return merges


def naive_level_partitions(m: int, merges) -> list[list[tuple[int, ...]]]:
    """Groups at every level, rebuilt from the raw (i, j) merge list.

    Level L applies the first L merges to singletons with a fresh union-find
    and lists its blocks as sorted tuples ordered by smallest member.
    """
    out = []
    for level in range(len(merges) + 1):
        parent = list(range(m))

        def find(x: int) -> int:
            while parent[x] != x:
                x = parent[x]
            return x

        for i, j in merges[:level]:
            parent[find(j)] = find(i)
        blocks: dict[int, list[int]] = {}
        for k in range(m):
            blocks.setdefault(find(k), []).append(k)
        out.append(sorted(tuple(b) for b in blocks.values()))
    return out


def assignments(g: FactorGraph):
    """All total assignments of a graph, as dicts."""
    names = [v.name for v in g.variables]
    ranges = [v.range for v in g.variables]
    for combo in itertools.product(*ranges):
        yield dict(zip(names, combo))


def brute_partition_function(g: FactorGraph) -> float:
    return sum(joint_potential(g, r) for r in assignments(g))


def brute_marginal(g: FactorGraph, q: str, evidence=None) -> np.ndarray:
    """Conditional distribution of ``q`` by summing joint potentials."""
    evidence = dict(evidence or {})
    var = g.variable(q)
    mass = np.zeros(var.size)
    for r in assignments(g):
        if any(r[k] != v for k, v in evidence.items()):
            continue
        mass[var.index_of(r[q])] += joint_potential(g, r)
    return mass / mass.sum()


def brute_dcd(g: FactorGraph, g2: FactorGraph) -> float:
    """Log-ratio sweep over all assignments of both normalised models."""
    z1 = brute_partition_function(g)
    z2 = brute_partition_function(g2)
    ratios = [
        np.log((joint_potential(g2, r) / z2) / (joint_potential(g, r) / z1))
        for r in assignments(g)
    ]
    return max(ratios) - min(ratios)


def per_factor_lookup(g: FactorGraph, r) -> float:
    """Joint potential via independent per-factor row lookups."""
    out = 1.0
    for f in g.factors:
        out *= float(f.table[row_index(f, r)])
    return out


def factor_orbits(g: FactorGraph) -> list[tuple[int, ...]]:
    """Automorphism orbits of factors under positional variable bijections.

    Enumerates every range-preserving variable permutation and keeps those
    that map each factor's argument tuple onto another factor with an
    identical table. Requires argument tuples to be unique per factor.
    Exponential; small graphs only.
    """
    names = [v.name for v in g.variables]
    ranges = {v.name: v.range for v in g.variables}
    by_args = {tuple(a.name for a in f.args): k for k, f in enumerate(g.factors)}
    assert len(by_args) == g.m, "orbit oracle requires unique argument tuples"

    parent = list(range(g.m))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for perm in itertools.permutations(names):
        sigma = dict(zip(names, perm))
        if any(ranges[a] != ranges[sigma[a]] for a in names):
            continue
        mapping = {}
        for k, f in enumerate(g.factors):
            kk = by_args.get(tuple(sigma[a.name] for a in f.args))
            if kk is None or not np.array_equal(f.table, g.factors[kk].table):
                mapping = None
                break
            mapping[k] = kk
        if mapping:
            for k, kk in mapping.items():
                ri, rj = find(k), find(kk)
                if ri != rj:
                    parent[max(ri, rj)] = min(ri, rj)

    blocks: dict[int, list[int]] = {}
    for k in range(g.m):
        blocks.setdefault(find(k), []).append(k)
    return sorted(tuple(b) for b in blocks.values())


def _log_sum_exp(x: np.ndarray, axis: int) -> np.ndarray:
    top = np.max(x, axis=axis, keepdims=True)
    out = top + np.log(np.sum(np.exp(x - top), axis=axis, keepdims=True))
    return np.squeeze(out, axis=axis)


def _normalise_logs(lp: np.ndarray) -> np.ndarray:
    w = np.exp(lp - lp.max())
    return w / w.sum()


def log_star_hub_belief(g: FactorGraph, hub: str) -> np.ndarray:
    """Unnormalised log marginal of a star model's hub, in closed form.

    Each factor holds the hub once and otherwise leaves private to it, so
    the hub's log belief is the sum over factors of each log table's
    log-sum-exp over its leaf axes. Its log-sum-exp is log Z.
    """
    seen: set[str] = set()
    belief = np.zeros(g.variable(hub).size)
    for f in g.factors:
        names = [a.name for a in f.args]
        leaves = [nm for nm in names if nm != hub]
        if len(leaves) != len(names) - 1 or seen.intersection(leaves):
            raise ValueError(f"factor {f.name!r} breaks the star pattern")
        seen.update(leaves)
        lt = np.log(np.asarray(f.table, dtype=np.float64))
        lt = np.moveaxis(lt.reshape([a.size for a in f.args]), names.index(hub), 0)
        belief += _log_sum_exp(lt.reshape(lt.shape[0], -1), axis=1)
    return belief


def log_star_hub_marginal(g: FactorGraph, hub: str) -> np.ndarray:
    """Hub marginal of a star model from its closed-form log belief."""
    return _normalise_logs(log_star_hub_belief(g, hub))


def log_chain_marginal(g: FactorGraph, q: str) -> np.ndarray:
    """Marginal of ``q`` on a pairwise chain by log-domain forward-backward.

    Factor k must span variables k and k + 1 in declaration order.
    """
    names = [v.name for v in g.variables]
    links = []
    for k, f in enumerate(g.factors):
        if [a.name for a in f.args] != names[k : k + 2] or len(names) != g.m + 1:
            raise ValueError(f"factor {f.name!r} is not chain link {k + 1}")
        lt = np.log(np.asarray(f.table, dtype=np.float64))
        links.append(lt.reshape(f.args[0].size, f.args[1].size))
    i = names.index(q)
    forward = np.zeros(g.variables[0].size)
    for lt in links[:i]:
        forward = _log_sum_exp(forward[:, None] + lt, axis=0)
    backward = np.zeros(g.variables[-1].size)
    for lt in reversed(links[i:]):
        backward = _log_sum_exp(lt + backward[None, :], axis=1)
    return _normalise_logs(forward + backward)
