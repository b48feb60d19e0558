"""Pairwise distance between potential tables and the ODEED matrix.

The one-dimensional epsilon-equivalence distance (ODEED) between two strictly
positive vectors of equal length is

    d(t1, t2) = max_k |t1[k] - t2[k]| / min(t1[k], t2[k]),

the worst relative deviation over rows, measured against the smaller entry.
It is non-negative, symmetric, zero exactly for identical vectors, and
invariant under positive scaling of both vectors, but it is *not* a metric:
the triangle inequality fails. Its value is the smallest eps for which the
two vectors are eps-equivalent, i.e. entry-wise within a factor (1 +- eps)
of each other in both directions.

Distances are computed once per factor pair, eagerly, and stored in an
upper-triangular matrix. Pairs whose tables are structurally incomparable
(different :class:`~fglift.model.CompatibilitySignature`) get distance +inf
rather than an error, so one matrix can describe a heterogeneous graph.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import LengthMismatch, NonPositivePotential
from .model import FactorGraph, signature


def _as_positive_vector(t: Sequence[float] | np.ndarray) -> np.ndarray:
    v = np.asarray(t, dtype=np.float64).reshape(-1)
    if v.size and not (v > 0.0).all():
        raise NonPositivePotential("potential vectors must be strictly positive")
    return v


def odeed(t1: Sequence[float] | np.ndarray, t2: Sequence[float] | np.ndarray) -> float:
    """Worst-row relative deviation between two positive vectors."""
    a = _as_positive_vector(t1)
    b = _as_positive_vector(t2)
    if a.size != b.size:
        raise LengthMismatch(
            f"cannot compare tables of length {a.size} and {b.size}"
        )
    if a.size == 0:
        return 0.0
    return float((np.abs(a - b) / np.minimum(a, b)).max())


def eps_equivalent(
    t1: Sequence[float] | np.ndarray,
    t2: Sequence[float] | np.ndarray,
    eps: float,
) -> bool:
    """True iff the vectors lie within a (1 +- eps) band of each other.

    Evaluated as ``odeed(t1, t2) <= eps``; the distance is exactly the
    smallest admissible eps, so this single comparison is equivalent to the
    two interval containments checked row by row.
    """
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    return odeed(t1, t2) <= eps


@dataclass(frozen=True)
class DistanceMatrix:
    """Upper-triangular pairwise ODEED values for ``m`` factors.

    ``entries`` is condensed row-major storage of the strict upper triangle
    (length m(m-1)/2); ``class_ids`` assigns each factor its compatibility
    class, numbered by first occurrence. Entries across classes are +inf.
    """

    m: int
    entries: np.ndarray
    class_ids: np.ndarray

    def __post_init__(self) -> None:
        expected = self.m * (self.m - 1) // 2
        if self.entries.size != expected:
            raise ValueError(
                f"condensed storage for m={self.m} needs {expected} entries, "
                f"got {self.entries.size}"
            )
        if self.class_ids.size != self.m:
            raise ValueError("one class id per factor required")

    @classmethod
    def from_entries(
        cls,
        m: int,
        entries: Sequence[float] | np.ndarray,
        class_ids: Sequence[int] | np.ndarray | None = None,
    ) -> "DistanceMatrix":
        """Wrap precomputed condensed entries (used for synthetic matrices)."""
        ent = np.asarray(entries, dtype=np.float64).reshape(-1).copy()
        cid = (
            np.zeros(m, dtype=np.int64)
            if class_ids is None
            else np.asarray(class_ids, dtype=np.int64).copy()
        )
        dm = cls(m, ent, cid)
        rows, cols = np.triu_indices(m, 1)
        bad = np.flatnonzero(np.isfinite(ent) != (cid[rows] == cid[cols]))
        if bad.size:
            i, j = rows[bad[0]], cols[bad[0]]
            raise ValueError(
                f"entry ({i},{j}) must be finite iff the factors share "
                f"a compatibility class"
            )
        ent.setflags(write=False)
        cid.setflags(write=False)
        return dm

    def index(self, i: int, j: int | np.ndarray) -> int | np.ndarray:
        """Condensed position of the pair (i, j), i < j.

        ``j`` may be an integer array of columns, giving one position each.
        """
        if not (0 <= i and np.all(i < j) and np.all(j < self.m)):
            raise IndexError(f"pair ({i},{j}) outside strict upper triangle")
        return self.m * i - i * (i + 1) // 2 + (j - i - 1)

    def get(self, i: int, j: int) -> float:
        """Distance between factors i and j (0 on the diagonal)."""
        if i == j:
            return 0.0
        if i > j:
            i, j = j, i
        return float(self.entries[self.index(i, j)])

    def pairs(self) -> Iterator[tuple[int, int]]:
        """Every pair i < j, in condensed storage order."""
        rows, cols = np.triu_indices(self.m, 1)
        return zip(rows.tolist(), cols.tolist())

    def square(self) -> np.ndarray:
        """Full symmetric matrix with a zero diagonal."""
        sq = np.zeros((self.m, self.m), dtype=np.float64)
        sq[np.triu_indices(self.m, 1)] = self.entries
        return np.maximum(sq, sq.T)


#: Rows per broadcastable work unit; large enough that one unit's ufunc
#: work dwarfs dispatch overhead (and releases the GIL when threaded).
_ROW_BLOCK = 64


def _row_spans(n: int) -> list[tuple[int, int]]:
    """``[start, stop)`` blocks of ``_ROW_BLOCK`` rows covering rows 0..n-2."""
    return [(lo, min(lo + _ROW_BLOCK, n - 1)) for lo in range(0, n - 1, _ROW_BLOCK)]


def _pairwise_rows(tables: np.ndarray, start: int, stop: int) -> np.ndarray:
    """Distances from each row in [start, stop) to every row after ``start``.

    Row ``a - start`` of the result holds, from column ``a - start`` on, the
    distances from row ``a`` to each later row.
    """
    block = tables[start:stop, None, :]
    tail = tables[None, start + 1 :, :]
    return (np.abs(block - tail) / np.minimum(block, tail)).max(axis=2)


def max_pairwise(tables: np.ndarray) -> float:
    """Largest pairwise ODEED among the rows of ``tables``.

    Bit-equal to the largest :func:`distance_matrix` entry over the same
    tables (one kernel); chunked by ``_ROW_BLOCK`` rows to bound memory.
    """
    blocks = (_pairwise_rows(tables, lo, hi) for lo, hi in _row_spans(len(tables)))
    return float(max((d.max() for d in blocks), default=0.0))


def distance_matrix(g: FactorGraph, *, threads: int = 1) -> DistanceMatrix:
    """Eagerly compute all pairwise ODEED values for a graph's factors.

    Entries within one compatibility class are computed vectorised per row;
    with ``threads > 1`` the rows are split across a thread pool. Each entry
    is independent, so the result is bit-identical to sequential evaluation.
    """
    m = g.m
    sigs = [signature(f) for f in g.factors]
    class_of: dict = {}
    class_ids = np.empty(m, dtype=np.int64)
    for k, s in enumerate(sigs):
        class_ids[k] = class_of.setdefault(s, len(class_of))

    entries = np.full(m * (m - 1) // 2, np.inf, dtype=np.float64)
    dm = DistanceMatrix(m, entries, class_ids)

    for cid in range(len(class_of)):
        members = np.flatnonzero(class_ids == cid)
        if members.size < 2:
            continue
        tables = np.stack([g.factors[k].table for k in members])

        # Condensed positions for (gi, gj) pairs are not contiguous when the
        # class is interleaved with others, so scatter by explicit index.
        def _scatter(lo: int, d: np.ndarray) -> None:
            for a in range(lo, lo + d.shape[0]):
                gi = int(members[a])
                entries[dm.index(gi, members[a + 1 :])] = d[a - lo, a - lo :]

        spans = _row_spans(tables.shape[0])
        if threads > 1 and len(spans) > 1:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                futs = [
                    (lo, pool.submit(_pairwise_rows, tables, lo, hi))
                    for lo, hi in spans
                ]
                for lo, fut in futs:
                    _scatter(lo, fut.result())
        else:
            for lo, hi in spans:
                _scatter(lo, _pairwise_rows(tables, lo, hi))

    entries.setflags(write=False)
    class_ids.setflags(write=False)
    return dm
