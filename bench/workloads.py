"""The four benchmark workloads: set-up, one round of operations, checks.

A workload's ``setup`` builds everything its operations read, from the seed
alone, and returns a state object. ``round`` lists one whole round of
operations; the runner repeats rounds until the run's time is spent, so
every run attempts the same mix. Each operation's ``check`` compares its
output with the oracles in ``oracle.py`` or with a property the method
must have, and raises ``CheckFailed`` on any mismatch.

All inputs are planted models with noise 0.05. With that noise every
within-group distance is at most 1.05/0.95 - 1 (about 0.105) and every
cross-group distance at least 1.8*0.95/(1.2*1.05) - 1 (about 0.36), so the
planted groups are exactly one level of the hierarchy for every seed.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import fglift
import fglift.cli
import fglift.io as fio

import oracle

NOISE = 0.05


class CheckFailed(Exception):
    """An operation's output disagrees with its oracle."""


class OpFailed(Exception):
    """An operation ended with an error or a non-zero exit code."""


def require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], None]


def planted(seed: int, groups: int, per_group: int, dim: int, topology: str):
    g, truth = fglift.planted_model(
        fglift.PlantedSpec(
            seed=seed,
            num_groups=groups,
            factors_per_group=per_group,
            table_dim=dim,
            topology=topology,
            noise=NOISE,
        )
    )
    index = {f.name: k for k, f in enumerate(g.factors)}
    return g, sorted(tuple(sorted(index[n] for n in grp)) for grp in truth)


def run_cli(argv: list[str]) -> str:
    """Run the command line in-process; returns what it printed."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = fglift.cli.main(argv)
    if rc != 0:
        raise OpFailed(f"fglift {argv[0]} exited with code {rc}")
    return out.getvalue()


def tables_of(g) -> np.ndarray:
    return np.stack([np.asarray(f.table, dtype=np.float64) for f in g.factors])


def level_labels(m: int, pairs) -> list[int]:
    """Block labels (smallest member) after the given merges."""
    uf = oracle.UnionFind(m)
    for i, j in pairs:
        uf.union(i, j)
    return uf.labels()


# ---------------------------------------------------------------------------
# order-star: build, export and report the hierarchy through the CLI
# ---------------------------------------------------------------------------


@dataclass
class OrderState:
    work: Path
    g: object
    truth: list
    model: Path


class OrderStar:
    """``fglift order`` on the C9 star: 20 groups x 50 factors, 16-row tables."""

    name = "order-star"
    groups, per_group, dim = 20, 50, 16

    def setup(self, seed: int, work: Path) -> OrderState:
        g, truth = planted(seed, self.groups, self.per_group, self.dim, "star")
        model = work / "order-model.json"
        fio.write_model(g, model)
        return OrderState(work, g, truth, model)

    def round(self, st: OrderState) -> list[Op]:
        hier, report = st.work / "order-hier.json", st.work / "order-report.csv"
        argv = ["order", "--model", str(st.model), "--out", str(hier),
                "--report", str(report)]
        return [Op("order", lambda: run_cli(argv),
                   lambda out: self.check(st, out, hier, report))]

    def check(self, st: OrderState, printed: str, hier: Path, report: Path) -> None:
        m = st.g.m
        doc = json.loads(hier.read_text())
        parsed = fglift.parse_tree(doc)
        merges = oracle.tree_merges(doc)
        ladder = [eps for _, eps, _, _ in merges]
        require(doc["m"] == m and len(merges) == m - 1, "hierarchy is not one tree over m leaves")
        require([nid for nid, *_ in merges] == list(range(m + 1, 2 * m)), "node ids not consecutive")
        require(doc["epsilons"] == ladder, "ladder differs from the tree's merge distances")
        require(list(parsed.epsilons) == ladder, "parsed hierarchy has another ladder")
        require(all(a <= b for a, b in zip(ladder, ladder[1:])), "ladder decreases")

        # Merge distances against the ODEED formula; level groups against
        # this benchmark's own union-find sweep.
        tables = tables_of(st.g)
        uf = oracle.UnionFind(m)
        worst_in: dict[int, float] = {k: 0.0 for k in range(m)}
        label = list(range(m))
        levels = doc["levels"]
        require(len(levels) == m, "hierarchy lists the wrong number of levels")
        for level, entry in enumerate(levels):
            if level:
                _, eps, left, right = merges[level - 1]
                ra, rb = uf.find(left[0]), uf.find(right[0])
                require(ra != rb, f"merge {level} joins a group with itself")
                worst = max(worst_in[ra], worst_in[rb],
                            oracle.odeed_cross(tables[left], tables[right]))
                require(worst == eps, f"merge {level}: eps {eps!r}, recomputed {worst!r}")
                uf.union(ra, rb)
                worst_in[uf.find(ra)] = worst
                low = min(label[left[0]], label[right[0]])
                for k in left + right:
                    label[k] = low
            require(entry["level"] == level, f"level {level} out of order")
            require(entry["eps"] == (ladder[level - 1] if level else 0.0), f"level {level}: wrong eps")
            groups = entry["groups"]
            require(len(groups) == m - level, f"level {level} has {len(groups)} groups, not m - L")
            doc_label = [0] * m
            for grp in groups:
                low = min(grp) - 1
                for k in grp:
                    doc_label[k - 1] = low
            require(doc_label == label, f"level {level}: groups differ from the union-find sweep")
            if level == m - self.groups:
                require(oracle.groups_of(label) == st.truth, "planted level is not the planted groups")

        rows = list(csv.reader(io.StringIO(report.read_text())))
        require(rows[0][:5] == ["level", "eps", "num_groups", "max_group_size", "d2"], "report header")
        require(len(rows) == m + 1, "report has the wrong number of rows")
        sizes = [1]
        for _, _, left, right in merges:
            sizes.append(max(sizes[-1], len(left) + len(right)))
        for level, row in enumerate(rows[1:]):
            eps = ladder[level - 1] if level else 0.0
            require(int(row[0]) == level and int(row[2]) == m - level, f"report row {level}")
            require(int(row[3]) == sizes[level], f"report row {level}: max group size")
            require(oracle.close(float(row[1]), eps, 1e-8), f"report row {level}: eps")
            require(oracle.close(float(row[4]), oracle.d2(eps, m), 1e-8, 1e-300),
                    f"report row {level}: d2 {row[4]} vs closed form {oracle.d2(eps, m)!r}")

        lines = printed.splitlines()
        require(lines[0] == f"m={m} levels={m - 1}" and len(lines) == m + 1, "printout header")
        for level, line in enumerate(lines[1:]):
            require(line.startswith(f"level {level}: ") and line.endswith(f" groups={m - level}"),
                    f"printout line {level}: {line!r}")


# ---------------------------------------------------------------------------
# compress-sweep: compress at several tolerances after the hierarchy exists
# ---------------------------------------------------------------------------

#: Two fine levels, then two tolerances inside the gap between within-group
#: (<= 0.105) and cross-group (>= 0.36) distances: both select the planted
#: level, so the work is the same for every seed. A tolerance that merges
#: planted groups would not be: over ten seeds, 1.1 leaves 14 to 20 groups.
SWEEP_TOLERANCES = (0.02, 0.05, 0.2, 0.3)


@dataclass
class SweepModel:
    name: str
    g: object
    truth: list
    tree: object
    labels: dict = field(default_factory=dict)


@dataclass
class SweepState:
    work: Path
    models: list


class CompressSweep:
    """Choose eps after the fact: one hierarchy, several compressions."""

    name = "compress-sweep"
    models = (("star", 16, 0), ("chain", 4, 1))
    groups, per_group = 20, 50

    def setup(self, seed: int, work: Path) -> SweepState:
        models = []
        for topology, dim, offset in self.models:
            g, truth = planted(seed + offset, self.groups, self.per_group, dim, topology)
            path = work / f"sweep-{topology}.json"
            fio.write_model(g, path)
            g = fio.read_model(path)
            tree, _ = fglift.build_hierarchy(fglift.distance_matrix(g))
            models.append(SweepModel(topology, g, truth, tree))
        return SweepState(work, models)

    def round(self, st: SweepState) -> list[Op]:
        return [Op("sweep", lambda: self.sweep(st), lambda out: self.check(st.models, out))]

    def sweep(self, st: SweepState) -> list:
        out = []
        for sm in st.models:
            m = sm.g.m
            for tol in SWEEP_TOLERANCES:
                level = fglift.level_for_epsilon(sm.tree, tol)
                cm = fglift.hacp_compress(sm.g, sm.tree, level)
                b = fglift.bound_chain(cm.eps, m)
                bounds = (b.d2, b.d3, b.d4, b.pmax_d2)
                path = st.work / f"sweep-{sm.name}-{tol}.json"
                fio.write_compressed(cm, path)
                out.append((sm, tol, cm, bounds, path))
        return out

    def check(self, models: list, out: list) -> None:
        require(len(out) == len(models) * len(SWEEP_TOLERANCES), "sweep lost a compression")
        for sm, tol, cm, bounds, path in out:
            m, ladder = sm.g.m, sm.tree.epsilons
            where = f"{sm.name} tol={tol}"
            level = sum(e <= tol for e in ladder)
            require(cm.level == level, f"{where}: level {cm.level}, expected {level}")
            require(cm.eps == (ladder[level - 1] if level else 0.0), f"{where}: eps")
            if level not in sm.labels:
                sm.labels[level] = level_labels(m, [(mg.i, mg.j) for mg in sm.tree.merges[:level]])
            label = sm.labels[level]
            covered = sorted(k for blk in cm.grouping.blocks for k in blk)
            require(covered == list(range(m)), f"{where}: blocks do not partition the factors")
            tables = tables_of(sm.g)
            for b, blk in enumerate(cm.grouping.blocks):
                require(len({label[k] for k in blk}) == 1, f"{where}: block {b} spans hierarchy groups")
                shared = np.asarray(cm.shared_tables[b])
                require(all(np.array_equal(cm.base.factors[k].table, shared) for k in blk),
                        f"{where}: block {b} members do not share its table")
                t = tables[list(blk)]
                require(np.allclose(shared, t.sum(axis=0) / len(blk), rtol=1e-12, atol=0.0),
                        f"{where}: block {b} table is not its members' mean")
                gap = np.abs(t - shared) - cm.eps * np.minimum(t, shared) * (1 + 1e-12)
                require(bool((gap <= 0).all()), f"{where}: block {b} leaves the (1 +- eps) band")
            if sm.name == "star" and tol >= 0.2:
                require(sorted(cm.grouping.blocks) == sm.truth, f"{where}: not the planted blocks")
            d2 = oracle.d2(cm.eps, m)
            expect = (d2, oracle.d3(cm.eps, m), oracle.d4(cm.eps, m), oracle.pmax(d2))
            require(all(oracle.close(a, b, 1e-12) for a, b in zip(bounds, expect)),
                f"{where}: bounds {bounds} vs closed forms {expect}")
            doc = json.loads(path.read_text())
            names = [f.name for f in sm.g.factors]
            require(doc["grouping"]["level"] == level and doc["grouping"]["eps"] == cm.eps
                    and doc["grouping"]["blocks"] == [[names[k] for k in blk] for blk in cm.grouping.blocks],
                    f"{where}: written document disagrees with the model")


# ---------------------------------------------------------------------------
# query-ve: exact queries by variable elimination, plus the lifted hub query
# ---------------------------------------------------------------------------


@dataclass
class QueryState:
    star: object
    chain: object
    star_cm: object
    chain_cm: object
    expected: dict = field(default_factory=dict)
    ve_hub: np.ndarray | None = None


class QueryVE:
    """VE marginals and single-evidence conditionals on m = 200 models."""

    name = "query-ve"
    groups, per_group, dim = 4, 50, 4

    def setup(self, seed: int, work: Path) -> QueryState:
        built = []
        for topology, offset in (("star", 0), ("chain", 1)):
            g, _ = planted(seed + offset, self.groups, self.per_group, self.dim, topology)
            path = work / f"query-{topology}.json"
            fio.write_model(g, path)
            g = fio.read_model(path)
            tree, _ = fglift.build_hierarchy(fglift.distance_matrix(g))
            built += [g, fglift.hacp_compress(g, tree, g.m - self.groups)]
        return QueryState(built[0], built[2], built[1], built[3])

    def round(self, st: QueryState) -> list[Op]:
        mid = f"V{self.groups * self.per_group // 2 + 1}"
        before = f"V{self.groups * self.per_group // 2}"
        cases = []
        for kind, g, q, ev in (
            ("star", st.star, "Q", {"L1_1": "false"}),
            ("chain", st.chain, mid, {before: "false"}),
        ):
            cm = st.star_cm if kind == "star" else st.chain_cm
            for tag, model in (("original", g), ("compressed", cm.base)):
                for evidence in ({}, ev):
                    cases.append((kind, tag, model, q, evidence))
        ops = [
            Op(f"{kind} {tag} {q}|{evidence}",
               lambda model=model, q=q, evidence=evidence: fglift.query(model, q, evidence),
               lambda res, case=(kind, tag, model, q, evidence): self.check(st, case, res))
            for kind, tag, model, q, evidence in cases
        ]
        ops.append(Op("lifted hub", lambda: fglift.lifted_marginal(st.star_cm, "Q"),
                      lambda res: self.check_lifted(st, res)))
        return ops

    def check(self, st: QueryState, case, res) -> None:
        kind, tag, model, q, evidence = case
        key = (kind, tag, q, tuple(sorted(evidence.items())))
        if key not in st.expected:
            exact = oracle.star_marginal if kind == "star" else oracle.chain_marginal
            st.expected[key] = exact(model, q, evidence)
        p = np.asarray(res.probabilities)
        if key == ("star", "compressed", "Q", ()):
            st.ve_hub = p
        require(bool(np.isfinite(p).all()), f"{key}: answer {p} is not finite")
        require(np.allclose(p, st.expected[key], rtol=1e-9, atol=0.0),
                f"{key}: answer {p} vs oracle {st.expected[key]}")

    def check_lifted(self, st: QueryState, res) -> None:
        p = np.asarray(res.probabilities)
        key = ("star", "compressed", "Q", ())
        require(np.allclose(p, st.expected[key], rtol=1e-9, atol=0.0), f"lifted hub {p} vs oracle")
        require(bool(np.abs(p - st.ve_hub).max() <= 1e-12), f"lifted hub {p} vs VE {st.ve_hub}")


# ---------------------------------------------------------------------------
# eval-star: measured distance and the single-evidence deviation scan
# ---------------------------------------------------------------------------


@dataclass
class EvalState:
    work: Path
    g: object
    model: Path
    levels: dict
    oracle: dict = field(default_factory=dict)


class EvalStar:
    """``fglift eval --evidence-budget 1`` on a 17-variable star."""

    name = "eval-star"
    groups, per_group, dim = 4, 4, 4
    #: Fine, within the planted groups, the planted level, fully merged.
    levels = (1, 8, 12, 15)

    def setup(self, seed: int, work: Path) -> EvalState:
        g, _ = planted(seed, self.groups, self.per_group, self.dim, "star")
        model = work / "eval-model.json"
        fio.write_model(g, model)
        g = fio.read_model(model)
        tree, _ = fglift.build_hierarchy(fglift.distance_matrix(g))
        levels = {}
        for level in self.levels:
            cm = fglift.hacp_compress(g, tree, level)
            path = work / f"eval-L{level}.json"
            fio.write_compressed(cm, path)
            levels[level] = (cm, path)
        return EvalState(work, g, model, levels)

    def round(self, st: EvalState) -> list[Op]:
        ops = []
        for level, (_, path) in st.levels.items():
            out = st.work / f"eval-L{level}.csv"
            argv = ["eval", "--model", str(st.model), "--compressed", str(path),
                    "--evidence-budget", "1", "--out", str(out)]
            ops.append(Op(f"eval L={level}", lambda argv=argv: run_cli(argv),
                          lambda _, level=level, out=out: self.check(st, level, out)))
        return ops

    def scan(self, st: EvalState, level: int):
        if level not in st.oracle:
            if "original" not in st.oracle:
                lp = oracle.log_joint(st.g)
                st.oracle["original"] = (lp, oracle.single_evidence_scan(st.g, lp))
            lp0, _ = st.oracle["original"]
            cm = st.levels[level][0]
            lp = oracle.log_joint(cm.base)
            st.oracle[level] = (oracle.cd_distance(lp0, lp),
                                oracle.single_evidence_scan(cm.base, lp))
        return st.oracle["original"][1], st.oracle[level]

    def check(self, st: EvalState, level: int, out: Path) -> None:
        base, (dist, comp) = self.scan(st, level)
        cm = st.levels[level][0]
        m = st.g.m
        rows = list(csv.reader(io.StringIO(out.read_text())))
        require(rows[0] == ["query_var", "evidence", "p_original", "p_compressed", "abs_dev"], "eval header")
        footer = {row[0]: row[1] for row in rows if len(row) == 2}
        scanned = [row for row in rows[1:] if len(row) == 5]
        require(len(scanned) == len(base), f"L={level}: {len(scanned)} scanned queries, expected {len(base)}")
        seen = set()
        worst = 0.0
        for qv, ev, p, pc, dev in scanned:
            q, value = qv.split("=")
            e, e_value = ev.split("=") if ev else ("", "")
            key = (q, e, e_value)
            require(key not in seen and key in base, f"L={level}: unexpected query {key}")
            seen.add(key)
            vi = st.g.variable(q).range.index(value)
            gaps = np.abs(base[key] - comp[key])
            worst = max(worst, float(gaps.max()))
            require(abs(float(p) - base[key][vi]) <= 1e-8 and abs(float(pc) - comp[key][vi]) <= 1e-8
                    and abs(float(dev) - gaps.max()) <= 1e-8,
                    f"L={level} {key}: row {p},{pc},{dev} vs {base[key]},{comp[key]}")
            for pv, pcv in zip(base[key], comp[key]):
                low, high = oracle.cd_interval(pv, dist)
                require(low - 1e-12 <= pcv <= high + 1e-12,
                        f"L={level} {key}: {pcv} outside CD interval [{low}, {high}]")
        d2 = oracle.d2(cm.eps, m)
        require(oracle.close(float(footer["measured_dcd"]), dist, 1e-8, 1e-12),
                f"L={level}: measured_dcd {footer['measured_dcd']} vs brute force {dist!r}")
        require(oracle.close(float(footer["measured_pmax"]), worst, 1e-8, 1e-12),
                f"L={level}: measured_pmax {footer['measured_pmax']} vs {worst!r}")
        require(oracle.close(float(footer["bound_d2"]), d2, 1e-8), f"L={level}: bound_d2")
        require(dist <= d2 + 1e-12, f"L={level}: D {dist!r} exceeds d2 {d2!r}")
        require(worst <= oracle.pmax(dist) + 1e-12, f"L={level}: pmax {worst!r} exceeds tanh(D/4)")
        require(int(footer["m"]) == m, f"L={level}: footer m")


WORKLOADS = {w.name: w for w in (OrderStar(), CompressSweep(), QueryVE(), EvalStar())}
