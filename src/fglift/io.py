"""Canonical document formats: model JSON, hierarchy JSON, report CSV.

The model document is

    { "variables": [ { "name": str, "range": [str, ...] }, ... ],
      "factors":   [ { "name": str, "args": [str, ...],
                       "table": [number, ...] }, ... ] }

with tables flat in row order, last argument varying fastest. Numbers are
written with the shortest decimal representation that round-trips a float64,
so ``parse(write(x)) == x`` bit-exactly and serialisation is deterministic:
the same in-memory value always produces byte-identical output.

A compressed model document extends the model document with a ``grouping``
field ``{"level": int, "eps": number, "blocks": [[factor name, ...], ...]}``.
Hierarchy documents are produced by :func:`fglift.hierarchy.export_tree`;
ids in files are 1-based.

Report CSVs use "." as the decimal separator and 9 significant digits;
optional cells are left blank.
"""

from __future__ import annotations

import csv
import io as _io
import json
from dataclasses import dataclass
from itertools import accumulate
from pathlib import Path
from typing import Sequence

from . import hierarchy as _hierarchy
from .bounds import dcd_bound_sharp, dcd_bounds_loose, pmax_bound
from .colour import CompressedModel, Grouping
from .errors import SchemaError
from .metric import DistanceMatrix
from .model import FactorGraph, RandomVariable, build_graph


def fmt9(x: float) -> str:
    """Format with 9 significant digits, '.' decimal separator."""
    return format(float(x), ".9g")


# ---------------------------------------------------------------------------
# model documents
# ---------------------------------------------------------------------------


def model_to_document(g: FactorGraph) -> dict:
    return {
        "variables": [
            {"name": v.name, "range": list(v.range)} for v in g.variables
        ],
        "factors": [
            {
                "name": f.name,
                "args": [a.name for a in f.args],
                "table": [float(x) for x in f.table],
            }
            for f in g.factors
        ],
    }


def parse_model(doc: dict, *, clamp_zeros: bool = False) -> FactorGraph:
    """Validate a model document and build the graph.

    All structural problems raise :class:`SchemaError` (or one of its
    subclasses) naming the offending entity.
    """
    if not isinstance(doc, dict):
        raise SchemaError("model document must be a JSON object")
    for key in ("variables", "factors"):
        if key not in doc or not isinstance(doc[key], list):
            raise SchemaError(f"model document needs a {key!r} list")
    variables = []
    for pos, item in enumerate(doc["variables"]):
        try:
            variables.append(
                RandomVariable(str(item["name"]), tuple(str(x) for x in item["range"]))
            )
        except (KeyError, TypeError) as exc:
            raise SchemaError(f"variable #{pos}: malformed entry ({exc})") from None
    factors = []
    for pos, item in enumerate(doc["factors"]):
        try:
            factors.append(
                (
                    str(item["name"]),
                    [str(a) for a in item["args"]],
                    [float(x) for x in item["table"]],
                )
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaError(f"factor #{pos}: malformed entry ({exc})") from None
    return build_graph(variables, factors, clamp_zeros=clamp_zeros)


def dumps(doc: dict) -> str:
    """Canonical JSON text: 2-space indent, insertion order, trailing newline."""
    return json.dumps(doc, indent=2) + "\n"


def write_model(g: FactorGraph, path: str | Path) -> None:
    Path(path).write_text(dumps(model_to_document(g)))


def read_model(path: str | Path, *, clamp_zeros: bool = False) -> FactorGraph:
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: invalid JSON ({exc})") from None
    return parse_model(doc, clamp_zeros=clamp_zeros)


# ---------------------------------------------------------------------------
# hierarchy documents
# ---------------------------------------------------------------------------


def write_hierarchy(tree: _hierarchy.MergeTree, path: str | Path) -> None:
    Path(path).write_text(dumps(_hierarchy.export_tree(tree)))


def read_hierarchy(path: str | Path) -> _hierarchy.MergeTree:
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: invalid JSON ({exc})") from None
    return _hierarchy.parse_tree(doc)


# ---------------------------------------------------------------------------
# compressed model documents
# ---------------------------------------------------------------------------


def compressed_to_document(cm: CompressedModel) -> dict:
    doc = model_to_document(cm.base)
    doc["grouping"] = {
        "level": cm.level,
        "eps": cm.eps,
        "blocks": [
            [cm.base.factors[k].name for k in blk] for blk in cm.grouping.blocks
        ],
    }
    return doc


def parse_compressed(doc: dict) -> CompressedModel:
    base = parse_model(doc)
    try:
        grouping = doc["grouping"]
        level = int(grouping["level"])
        eps = float(grouping["eps"])
        name_blocks = grouping["blocks"]
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"grouping field malformed ({exc})") from None
    index_of = {f.name: k for k, f in enumerate(base.factors)}
    blocks = []
    for blk in name_blocks:
        try:
            blocks.append(tuple(sorted(index_of[name] for name in blk)))
        except KeyError as exc:
            raise SchemaError(f"grouping references unknown factor {exc}") from None
    covered = sorted(k for blk in blocks for k in blk)
    if covered != list(range(base.m)):
        raise SchemaError("grouping blocks must partition the factors")
    blocks = tuple(sorted(blocks, key=lambda b: b[0]))
    colours = [0] * base.m
    for pos, blk in enumerate(blocks):
        for k in blk:
            colours[k] = pos
    shared = tuple(base.factors[blk[0]].table for blk in blocks)
    return CompressedModel(
        base, Grouping(blocks, tuple(colours), None), shared, level, eps, None
    )


def write_compressed(cm: CompressedModel, path: str | Path) -> None:
    Path(path).write_text(dumps(compressed_to_document(cm)))


def read_compressed(path: str | Path) -> CompressedModel:
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: invalid JSON ({exc})") from None
    return parse_compressed(doc)


# ---------------------------------------------------------------------------
# per-level report CSV
# ---------------------------------------------------------------------------

REPORT_COLUMNS = (
    "level",
    "eps",
    "num_groups",
    "max_group_size",
    "d2",
    "d3",
    "d4",
    "pmax_d2",
    "measured_dcd",
    "measured_pmax",
)


@dataclass(frozen=True)
class ReportRow:
    """One hierarchy level's grouping stats and bound values.

    ``d3``/``d4`` are ``None`` when eps is outside their domain (eps >= 1);
    measured fields are ``None`` when no measurement ran (for instance when
    the state space exceeded the enumeration budget).
    """

    level: int
    eps: float
    num_groups: int
    max_group_size: int
    d2: float
    d3: float | None
    d4: float | None
    pmax_d2: float
    measured_dcd: float | None = None
    measured_pmax: float | None = None


def hierarchy_report_rows(tree: _hierarchy.MergeTree) -> list[ReportRow]:
    """Grouping stats plus bound values for every level of a tree."""
    # Each merge joins two groups, so level L has m - L groups, and the
    # largest group is the running maximum of the merged groups' sizes.
    largest = accumulate((len(s) for s in tree.leaf_sets()), max, initial=1)
    rows = []
    for level, (eps, max_size) in enumerate(zip((0.0, *tree.epsilons), largest)):
        d3, d4 = (None, None) if eps >= 1.0 else dcd_bounds_loose(eps, tree.m)
        rows.append(
            ReportRow(
                level,
                eps,
                tree.m - level,
                max_size,
                dcd_bound_sharp(eps, tree.m),
                d3,
                d4,
                pmax_bound(dcd_bound_sharp(eps, tree.m)),
            )
        )
    return rows


def report_to_csv(rows: Sequence[ReportRow]) -> str:
    out = _io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(REPORT_COLUMNS)
    for row in rows:
        writer.writerow(
            [
                row.level,
                fmt9(row.eps),
                row.num_groups,
                row.max_group_size,
                fmt9(row.d2),
                "" if row.d3 is None else fmt9(row.d3),
                "" if row.d4 is None else fmt9(row.d4),
                fmt9(row.pmax_d2),
                "" if row.measured_dcd is None else fmt9(row.measured_dcd),
                "" if row.measured_pmax is None else fmt9(row.measured_pmax),
            ]
        )
    return out.getvalue()


def parse_report_csv(text: str) -> list[ReportRow]:
    reader = csv.reader(_io.StringIO(text))
    header = next(reader, None)
    if header != list(REPORT_COLUMNS):
        raise SchemaError(f"report header mismatch: {header}")
    rows = []
    for rec in reader:
        opt = lambda s: None if s == "" else float(s)
        rows.append(
            ReportRow(
                int(rec[0]),
                float(rec[1]),
                int(rec[2]),
                int(rec[3]),
                float(rec[4]),
                opt(rec[5]),
                opt(rec[6]),
                float(rec[7]),
                opt(rec[8]),
                opt(rec[9]),
            )
        )
    return rows


def write_report(rows: Sequence[ReportRow], path: str | Path) -> None:
    Path(path).write_text(report_to_csv(rows))


# ---------------------------------------------------------------------------
# distance matrix dump
# ---------------------------------------------------------------------------


def distance_matrix_to_csv(dm: DistanceMatrix) -> str:
    """Rows ``i,j,distance`` (1-based), infinities as the literal ``inf``."""
    out = _io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["i", "j", "distance"])
    writer.writerows(
        (i + 1, j + 1, repr(value))  # repr(inf) is "inf"
        for (i, j), value in zip(dm.pairs(), dm.entries.tolist())
    )
    return out.getvalue()
