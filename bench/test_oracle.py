"""The benchmark's own oracles against the program's enumeration route.

Run with ``python3 -m pytest bench``. The last test runs every workload in
quick mode (one set-up, one round, every check on).
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fglift
import oracle
from workloads import planted

RUN = Path(__file__).resolve().parent / "run.py"


def enum(g, q, evidence=None):
    return fglift.query(g, q, evidence or {}, method="enum").probabilities


@pytest.mark.parametrize("dim", [4, 8])
def test_star_marginals_match_enumeration(dim):
    g, _ = planted(3, 2, 3, dim, "star")
    leaf, other = "L2_1", "L5_1"
    cases = [("Q", {}), ("Q", {leaf: "false"}), (leaf, {}), (leaf, {"Q": "true"}),
             (leaf, {other: "false"}), ("Q", {leaf: "true", other: "false"})]
    for q, ev in cases:
        np.testing.assert_allclose(oracle.star_marginal(g, q, ev), enum(g, q, ev), rtol=1e-12)


def test_chain_marginals_match_enumeration():
    g, _ = planted(4, 3, 3, 4, "chain")
    for q, ev in [("V1", {}), ("V5", {}), ("V10", {}), ("V5", {"V4": "false"}),
                  ("V5", {"V9": "true"}), ("V1", {"V10": "false", "V2": "true"})]:
        np.testing.assert_allclose(oracle.chain_marginal(g, q, ev), enum(g, q, ev), rtol=1e-12)


def test_brute_force_scan_and_distance_match_the_program():
    g, _ = planted(5, 2, 3, 4, "star")
    tree, _ = fglift.build_hierarchy(fglift.distance_matrix(g))
    cm = fglift.hacp_compress(g, tree, tree.num_levels)
    lp, lp2 = oracle.log_joint(g), oracle.log_joint(cm.base)
    assert oracle.cd_distance(lp, lp2) == pytest.approx(fglift.dcd_distance(g, cm.base), rel=1e-12)
    scan = oracle.single_evidence_scan(g, lp)
    assert len(scan) == g.n * (1 + 2 * (g.n - 1))
    for (q, e, value), p in scan.items():
        np.testing.assert_allclose(p, enum(g, q, {e: value} if e else {}), rtol=1e-12)


def test_distances_tree_and_bounds_match_the_program():
    g, truth = planted(6, 3, 4, 4, "star")
    tables = np.stack([f.table for f in g.factors])
    assert oracle.odeed_cross(tables[:1], tables[1:2]) == fglift.odeed(tables[0], tables[1])
    tree, _ = fglift.build_hierarchy(fglift.distance_matrix(g))
    doc = fglift.export_tree(tree)
    merges = oracle.tree_merges(doc)
    assert [(min(a + b), e) for _, e, a, b in merges] == [(mg.i, mg.eps) for mg in tree.merges]
    uf = oracle.UnionFind(g.m)
    for level, (_, _, a, b) in enumerate(merges, start=1):
        uf.union(a[0], b[0])
        assert oracle.groups_of(uf.labels()) == list(fglift.partition_at_level(tree, level).groups)
    for eps, m in [(0.0, 5), (0.01, 2), (0.3, 100), (0.9, 2000)]:
        chain = fglift.bound_chain(eps, m)
        assert oracle.d2(eps, m) == pytest.approx(chain.d2, rel=1e-12, abs=1e-300)
        assert oracle.d3(eps, m) == pytest.approx(chain.d3, rel=1e-12, abs=1e-300)
        assert oracle.d4(eps, m) == pytest.approx(chain.d4, rel=1e-12, abs=1e-300)
        assert oracle.pmax(chain.d2) == pytest.approx(chain.pmax_d2, rel=1e-12, abs=1e-300)
    for p, d in [(0.3, 0.0), (0.3, 0.5), (0.99, 2.0)]:
        assert oracle.cd_interval(p, d) == pytest.approx(fglift.cd_interval(p, d), rel=1e-12)
    assert math.isclose(oracle.pmax(1.0), fglift.pmax_bound(1.0), rel_tol=1e-12)


@pytest.mark.parametrize("workload", ["order-star", "compress-sweep", "query-ve", "eval-star"])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_quick_mode_passes_every_check(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--quick", "--trace", trace],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
