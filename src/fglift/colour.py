"""Grouping factors by colour refinement and replacing groups by their mean.

Compression proceeds in three phases. Phase I loads candidate groups from a
merge-tree level. Phase II seeds one colour per group and runs positional
colour refinement on the bipartite graph until a fixpoint: a variable's
colour is derived from its range size and the multiset of (adjacent factor
colour, argument position) pairs, a factor's colour from its own previous
colour plus the tuple of its argument colours in order. Refinement can only
split groups whose members sit in structurally different neighbourhoods,
never merge distinct seeds. Phase III replaces every grouped factor's table
by the entry-wise arithmetic mean of its group, the least-squares
representative, which stays within the group's merge distance of every
member.

A plain mode that seeds colours by exact table equality (classical symmetry
detection) is available by combining :func:`table_equality_colours` with
:func:`acp_refine`. :func:`greedy_eps_grouping` is a deliberately
order-sensitive one-pass baseline: it demonstrates the grouping instability
that the hierarchical ordering removes, and is reported, never relied on.

Colour ids are canonical integers assigned by first occurrence of each
colour signature, so results are deterministic across runs and platforms
(no reliance on randomised hashing).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Sequence

import numpy as np

from .errors import EmptyGroup, HierarchyMismatch, LengthMismatch
from .hierarchy import LevelPartition, MergeTree, partition_at_level
from .metric import _pairwise_rows, max_pairwise
from .model import Factor, FactorGraph, signature


@dataclass(frozen=True)
class Grouping:
    """A partition of factor indices with the colours that produced it.

    ``factor_colours[k]`` is the index of k's block in ``blocks``.
    ``variable_colours`` maps variable names to their fixpoint colour; it is
    ``None`` for groupings that did not run refinement (greedy baseline,
    parsed files).
    """

    blocks: tuple[tuple[int, ...], ...]
    factor_colours: tuple[int, ...]
    variable_colours: dict[str, int] | None = None

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)


@dataclass(frozen=True)
class CompressedModel:
    """A factor graph whose grouped factors share mean potential tables.

    ``hierarchy_blocks`` are the groups loaded from the merge-tree level
    before refinement; ``grouping`` holds the final (possibly finer) blocks.
    ``eps`` is the merge distance of the level the model was built from
    (0 for level 0). All factors inside one block carry the *same* table
    object, so equality of their potentials is bit-exact by construction.
    """

    base: FactorGraph
    grouping: Grouping
    shared_tables: tuple[np.ndarray, ...]
    level: int
    eps: float
    hierarchy_blocks: tuple[tuple[int, ...], ...] | None = None


def mean_table(tables: Sequence[np.ndarray] | Sequence[Sequence[float]]) -> np.ndarray:
    """Entry-wise arithmetic mean of equally sized potential tables."""
    if len(tables) == 0:
        raise EmptyGroup("cannot average an empty group of tables")
    arrays = [np.asarray(t, dtype=np.float64).reshape(-1) for t in tables]
    length = arrays[0].size
    for a in arrays[1:]:
        if a.size != length:
            raise LengthMismatch(
                f"cannot average tables of length {length} and {a.size}"
            )
    out = np.stack(arrays).mean(axis=0)
    out.setflags(write=False)
    return out


def table_equality_colours(g: FactorGraph) -> tuple[int, ...]:
    """Seed colours grouping factors with bit-identical tables and signatures."""
    seen: dict[Hashable, int] = {}
    return tuple(
        seen.setdefault((signature(f), f.table.tobytes()), len(seen))
        for f in g.factors
    )


def _canonical(values: list) -> list[int]:
    """Relabel arbitrary hashables as ints by first occurrence."""
    seen: dict = {}
    return [seen.setdefault(v, len(seen)) for v in values]


def acp_refine(
    g: FactorGraph, initial_factor_colours: Sequence[Hashable]
) -> Grouping:
    """Iterate positional colour refinement to a fixpoint.

    Initial colours must respect compatibility signatures (equal colour
    implies equal signature); the fixpoint factor partition refines the
    initial one.
    """
    if len(initial_factor_colours) != g.m:
        raise ValueError("one initial colour per factor required")
    fac_col = _canonical(list(initial_factor_colours))
    sig_of_col: dict[int, object] = {}
    for k, f in enumerate(g.factors):
        s = signature(f)
        if sig_of_col.setdefault(fac_col[k], s) != s:
            raise ValueError(
                "initial colours must respect compatibility signatures"
            )

    adjacency: dict[str, list[tuple[int, int]]] = {v.name: [] for v in g.variables}
    for k, f in enumerate(g.factors):
        for pos, arg in enumerate(f.args):
            adjacency[arg.name].append((k, pos))

    var_names = [v.name for v in g.variables]
    while True:
        var_col = _canonical(
            [
                (
                    g.variable(name).size,
                    tuple(sorted((fac_col[k], pos) for k, pos in adjacency[name])),
                )
                for name in var_names
            ]
        )
        col_of_var = dict(zip(var_names, var_col))
        new_fac = _canonical(
            [
                (fac_col[k], tuple(col_of_var[a.name] for a in f.args))
                for k, f in enumerate(g.factors)
            ]
        )
        if new_fac == fac_col:
            break
        fac_col = new_fac

    members: dict[int, list[int]] = {}
    for k, c in enumerate(fac_col):
        members.setdefault(c, []).append(k)
    blocks = tuple(
        tuple(b) for b in sorted(members.values(), key=lambda b: b[0])
    )
    index_of = {blk[0]: pos for pos, blk in enumerate(blocks)}
    factor_colours = tuple(index_of[members[c][0]] for c in fac_col)
    return Grouping(blocks, factor_colours, dict(zip(var_names, var_col)))


def greedy_eps_grouping(g: FactorGraph, eps: float) -> Grouping:
    """One-pass baseline: join the first block that is entirely within ``eps``.

    Factors are scanned in index order; order sensitivity is intentional.
    """
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    blocks: list[list[int]] = []
    sigs = [signature(f) for f in g.factors]
    for k, f in enumerate(g.factors):
        for blk in blocks:
            if sigs[blk[0]] != sigs[k]:
                continue
            tables = np.stack([f.table, *(g.factors[b].table for b in blk)])
            # row 0 of the kernel: distances from f to every member
            if _pairwise_rows(tables, 0, 1).max() <= eps:
                blk.append(k)
                break
        else:
            blocks.append([k])
    frozen = tuple(tuple(b) for b in blocks)
    colours = [0] * g.m
    for pos, blk in enumerate(frozen):
        for k in blk:
            colours[k] = pos
    return Grouping(frozen, tuple(colours), None)


def _check_tree_matches(g: FactorGraph, h: MergeTree, cut: LevelPartition) -> None:
    """Verify the cut's groups are consistent with the graph.

    Every non-singleton group must hold factors of one compatibility class
    and reproduce, exactly, the merge distance of the node that completed it
    (the maximum pairwise distance over its members). A hierarchy built from
    a different graph fails this check.
    """
    if h.m != g.m:
        raise HierarchyMismatch(
            f"hierarchy over {h.m} factors applied to a graph with {g.m}"
        )
    group_eps = {mg.i: mg.eps for mg in h.merges[: cut.level]}
    for blk in cut.groups:
        if len(blk) < 2:
            continue
        names = tuple(k + 1 for k in blk)
        if len({signature(g.factors[k]) for k in blk}) > 1:
            raise HierarchyMismatch(
                f"group {names} mixes compatibility classes; "
                f"the hierarchy was not built from this graph"
            )
        worst = max_pairwise(np.stack([g.factors[k].table for k in blk]))
        if worst != group_eps[blk[0]]:
            raise HierarchyMismatch(
                f"group {names} has pairwise distance "
                f"{worst!r}, hierarchy recorded {group_eps[blk[0]]!r}; "
                f"the hierarchy was not built from this graph"
            )


def hacp_compress(g: FactorGraph, h: MergeTree, level: int) -> CompressedModel:
    """Compress a graph at one hierarchy level.

    Phase I cuts the merge tree after ``level`` merges, Phase II refines the
    induced colours (splitting groups whose members differ structurally),
    Phase III swaps every block's tables for their shared mean.
    """
    cut = partition_at_level(h, level)
    _check_tree_matches(g, h, cut)

    seed = [0] * g.m
    for pos, blk in enumerate(cut.groups):
        for k in blk:
            seed[k] = pos
    grouping = acp_refine(g, seed)

    shared = tuple(
        mean_table([g.factors[k].table for k in blk]) for blk in grouping.blocks
    )
    new_factors = [
        Factor(f.name, f.args, shared[grouping.factor_colours[k]])
        for k, f in enumerate(g.factors)
    ]
    base = FactorGraph(g.variables, tuple(new_factors))
    eps = 0.0 if level == 0 else h.merges[level - 1].eps
    return CompressedModel(base, grouping, shared, level, eps, cut.groups)
