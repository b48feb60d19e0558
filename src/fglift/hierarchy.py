"""Complete-linkage merge ordering over a pairwise distance matrix.

Starting from singletons, the two active groups with the smallest pairwise
distance are merged repeatedly. After merging rows i < j, row i's distances
are replaced by the entry-wise maximum of rows i and j and row j is
deactivated, so a recorded merge distance is always the *largest* pairwise
distance inside the new group (complete linkage). The recorded distances
form a non-decreasing ladder eps_1 <= eps_2 <= ... and every prefix of the
merge sequence induces a partition of the factors, nested across levels.

Groups whose factors are structurally incomparable have distance +inf and
are never merged; the result is then a forest and the ladder is shorter than
m - 1. Ties in the arg-min are broken towards the lexicographically smallest
index pair under exact float comparison, which makes the ordering fully
deterministic.

Merged nodes are numbered m + 1, m + 2, ... in merge order (1-based, after
the m leaves) in the serialised nested-list form, mirroring the convention
used by the level selector downstream.

Each merge's ``i`` and ``j`` are the smallest leaves of the two groups it
joins, and ``i`` stays the smallest leaf of the result. Because the levels
are nested, one forward sweep over the merge list gives every level:
:meth:`MergeTree.replay` is that sweep, and every per-level view (level
partitions, internal-node leaf sets, the exported level listing, the
report and the compression tree check) reads it rather than replaying the
merges itself.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import islice
from typing import Iterator

import numpy as np

from .errors import LevelOutOfRange, SchemaError
from .metric import DistanceMatrix


@dataclass(frozen=True)
class Merge:
    """One merge step: active representatives ``i < j`` (0-based) at ``eps``.

    ``node_id`` is the 1-based identifier ``m + level`` of the new internal
    node; the representative of the merged group is ``i``, which is always
    the smallest leaf index of the group.
    """

    i: int
    j: int
    eps: float
    node_id: int


@dataclass(frozen=True)
class MergeTree:
    """Ordered merge sequence over ``m`` leaves; a forest when merges stop early."""

    m: int
    merges: tuple[Merge, ...]

    @property
    def num_levels(self) -> int:
        return len(self.merges)

    @property
    def epsilons(self) -> tuple[float, ...]:
        """The merge-distance ladder, one value per level."""
        return tuple(mg.eps for mg in self.merges)

    def replay(self) -> Iterator[dict[int, tuple[int, ...]]]:
        """Groups after 0, 1, ..., ``num_levels`` merges, one dict per level.

        Each dict maps a group's smallest leaf to its sorted leaves (0-based),
        in ascending key order. It is one dict updated in place per level.
        """
        groups = {k: (k,) for k in range(self.m)}
        yield groups
        for mg in self.merges:
            groups[mg.i] = tuple(sorted(groups[mg.i] + groups.pop(mg.j)))
            yield groups

    def leaf_sets(self) -> list[frozenset[int]]:
        """Leaf set of every internal node, in merge order (0-based leaves)."""
        levels = islice(self.replay(), 1, None)
        return [frozenset(groups[mg.i]) for mg, groups in zip(self.merges, levels)]

    def _fold(self, leaf, join) -> list:
        """Fold the merges into one value per tree, in ascending root node id.

        ``leaf(k)`` gives leaf k's value, ``join(mg, left, right)`` merge mg's;
        a merge re-inserts its key last, which keeps the dict in root order.
        """
        node: dict = {}
        for mg in self.merges:
            left = node.pop(mg.i) if mg.i in node else leaf(mg.i)
            right = node.pop(mg.j) if mg.j in node else leaf(mg.j)
            node[mg.i] = join(mg, left, right)
        return list(node.values())

    def nested(self) -> list:
        """Nested-list form with 1-based leaf ids and node ids ``m + level``.

        Each merge contributes a triple ``[left, right, node_id]`` where the
        sides are either 1-based leaf ids or earlier triples. Top-level
        entries (one per tree in the forest; never-merged leaves excluded)
        are ordered by root node id.
        """
        return self._fold(
            lambda k: k + 1, lambda mg, left, right: [left, right, mg.node_id]
        )


@dataclass(frozen=True)
class LevelPartition:
    """Disjoint factor-index groups induced by cutting after ``level`` merges."""

    level: int
    groups: tuple[tuple[int, ...], ...]

    @property
    def num_groups(self) -> int:
        return len(self.groups)

    @property
    def max_group_size(self) -> int:
        return max(len(grp) for grp in self.groups)


def build_hierarchy(dm: DistanceMatrix) -> tuple[MergeTree, tuple[float, ...]]:
    """Run the merge ordering on a distance matrix.

    Returns the merge tree and its distance ladder. The working matrix is
    updated in place over an active index set (no resizing); a cached
    per-row minimum keeps the arg-min scan linear per iteration. Cached row
    minima only go stale when their arg-min column was merged or removed,
    because the complete-linkage update never decreases an entry.
    """
    m = dm.m
    if m <= 1:
        return MergeTree(m, ()), ()

    work = dm.square()
    np.fill_diagonal(work, np.inf)
    active = np.ones(m, dtype=bool)
    row_min = work.min(axis=1)
    row_arg = work.argmin(axis=1)

    merges = []
    for level in range(1, m):
        act_idx = np.flatnonzero(active)
        pos = int(np.argmin(row_min[act_idx]))
        i = int(act_idx[pos])
        eps = float(row_min[i])
        if not np.isfinite(eps):
            break  # only incompatible groups remain
        j = int(row_arg[i])
        if j < i:
            i, j = j, i

        merges.append(Merge(i, j, eps, m + level))

        # Complete-linkage row update; deactivate j.
        np.maximum(work[i], work[j], out=work[i])
        work[:, i] = work[i]
        work[i, i] = np.inf
        active[j] = False
        work[j, :] = np.inf
        work[:, j] = np.inf
        row_min[j] = np.inf

        row = work[i]
        row_min[i] = row.min()
        row_arg[i] = row.argmin()
        stale = np.flatnonzero(active & ((row_arg == i) | (row_arg == j)))
        for k in stale:
            if k == i:
                continue
            row = work[k]
            row_min[k] = row.min()
            row_arg[k] = row.argmin()

    tree = MergeTree(m, tuple(merges))
    return tree, tree.epsilons


def partition_at_level(h: MergeTree, level: int) -> LevelPartition:
    """Groups after applying the first ``level`` merges; the rest stay singletons."""
    if not 0 <= level <= h.num_levels:
        raise LevelOutOfRange(
            f"level {level} outside [0, {h.num_levels}]"
        )
    groups = next(islice(h.replay(), level, None))
    return LevelPartition(level, tuple(groups.values()))


def level_for_epsilon(h: MergeTree, eps: float) -> int:
    """Largest level whose merge distance is <= ``eps`` (0 if none)."""
    if eps < 0:
        raise ValueError("eps must be non-negative")
    return bisect_right(h.epsilons, eps)


def export_tree(h: MergeTree) -> dict:
    """Serialise a merge tree to its document form.

    The document carries the leaf count, the ladder, the forest (a list of
    root nodes; leaves appear as ``{"leaf": id}`` with 1-based ids) and every
    level's groups. ``parse_tree`` inverts it exactly; the level listing is
    derived from the forest and is not read back.
    """
    levels = []
    for level, (eps, groups) in enumerate(zip((0.0, *h.epsilons), h.replay())):
        one_based = [[k + 1 for k in grp] for grp in groups.values()]
        levels.append({"level": level, "eps": eps, "groups": one_based})
    roots = h._fold(
        lambda k: {"leaf": k + 1},
        lambda mg, left, right: {
            "id": mg.node_id,
            "eps": mg.eps,
            "children": [left, right],
        },
    )
    # The last level's singletons are the leaves that were never merged.
    roots.extend({"leaf": grp[0]} for grp in one_based if len(grp) == 1)
    return {
        "m": h.m,
        "epsilons": list(h.epsilons),
        "tree": roots,
        "levels": levels,
    }


def parse_tree(doc: dict) -> MergeTree:
    """Rebuild a merge tree from its document form.

    Raises :class:`SchemaError` unless the forest describes a valid merge
    sequence: every leaf at most once, every child node's id below its
    parent's, node ids consecutive from ``m + 1`` and a non-decreasing
    ladder in node id order. The ``epsilons`` and ``levels`` fields are
    derived output and are not read.
    """
    try:
        m = int(doc["m"])
        roots = doc["tree"]
    except (KeyError, TypeError) as exc:
        raise SchemaError(f"hierarchy document lacks field {exc}") from None

    records: list[tuple[int, int, int, float]] = []
    seen: set[int] = set()

    def walk(node: dict, parent_id: float) -> int:
        """Return the smallest 0-based leaf id of the subtree."""
        if "leaf" in node:
            leaf = int(node["leaf"]) - 1
            if not 0 <= leaf < m:
                raise SchemaError(f"leaf id {node['leaf']} outside 1..{m}")
            if leaf in seen:
                raise SchemaError(f"leaf id {node['leaf']} appears more than once")
            seen.add(leaf)
            return leaf
        try:
            node_id = int(node["id"])
            eps = float(node["eps"])
            left, right = node["children"]
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaError(f"malformed hierarchy node: {exc}") from None
        if node_id >= parent_id:
            raise SchemaError(
                f"hierarchy node {node_id} is a child of node {parent_id}; "
                f"children must have smaller ids"
            )
        a, b = walk(left, node_id), walk(right, node_id)
        if a > b:
            a, b = b, a
        records.append((node_id, a, b, eps))
        return a

    for root in roots:
        walk(root, math.inf)
    records.sort()
    merges = []
    for pos, (node_id, a, b, eps) in enumerate(records, start=1):
        if node_id != m + pos:
            raise SchemaError(
                f"hierarchy node ids must be consecutive from {m + 1}; "
                f"found {node_id}"
            )
        if merges and eps < merges[-1].eps:
            raise SchemaError(
                f"hierarchy ladder decreases at node {node_id}: "
                f"{eps!r} after {merges[-1].eps!r}"
            )
        merges.append(Merge(a, b, eps, node_id))
    return MergeTree(m, tuple(merges))
