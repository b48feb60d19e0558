from __future__ import annotations

import json

import pytest

from fglift import (
    RandomVariable,
    build_graph,
    build_hierarchy,
    distance_matrix,
    partition_at_level,
)
from fglift import cli
from fglift.cli import main
from fglift.inference import DeviationReport
from fglift.io import fmt9, read_compressed, read_hierarchy, read_model, write_model

from conftest import BOOL
from oracles import naive_level_partitions


@pytest.fixture
def model_path(tmp_path):
    path = tmp_path / "model.json"
    code = main(
        [
            "gen",
            "--out",
            str(path),
            "--seed",
            "7",
            "--groups",
            "3",
            "--per-group",
            "3",
            "--noise",
            "0.02",
            "--topology",
            "star",
        ]
    )
    assert code == 0
    return path


def test_gen_writes_model_and_sidecar(model_path, tmp_path):
    g = read_model(model_path)
    assert g.m == 9
    sidecar = json.loads((tmp_path / "model.json.groups.json").read_text())
    assert [len(b) for b in sidecar["blocks"]] == [3, 3, 3]


def two_class_model(rng, m):
    """m one-variable factors, over a boolean or over a three-state variable."""
    variables = [RandomVariable("A", BOOL), RandomVariable("B", ("x", "y", "z"))]
    factors = []
    for k in range(m):
        var = variables[k % 2 if k < 2 else int(rng.integers(0, 2))]
        factors.append((f"f{k}", [var.name], rng.uniform(1.0, 2.0, var.size)))
    return build_graph(variables, factors)


def test_order_printout_matches_oracle(tmp_path, capsys, rng):
    model, hier = tmp_path / "model.json", tmp_path / "hier.json"
    for _ in range(10):
        g = two_class_model(rng, int(rng.integers(2, 14)))
        write_model(g, model)
        assert main(["order", "--model", str(model), "--out", str(hier)]) == 0
        printed = capsys.readouterr().out.splitlines()
        tree = read_hierarchy(hier)
        expected = naive_level_partitions(
            g.m, [(mg.i, mg.j) for mg in tree.merges]
        )
        assert printed == [f"m={g.m} levels={tree.num_levels}"] + [
            f"level {level}: eps={fmt9(eps)} groups={len(groups)}"
            for level, (eps, groups) in enumerate(
                zip((0.0, *tree.epsilons), expected)
            )
        ]


def test_compress_foreign_hierarchy_exit_code(tmp_path, capsys):
    from test_colour import mixed_class_graph

    built_from, applied_to = tmp_path / "built.json", tmp_path / "other.json"
    hier, out = tmp_path / "hier.json", tmp_path / "out.json"
    write_model(mixed_class_graph(), built_from)
    write_model(mixed_class_graph("XCD", ["X"], [1.0, 2.0, 3.0, 4.0]), applied_to)
    assert main(["order", "--model", str(built_from), "--out", str(hier)]) == 0
    argv = ["compress", "--model", str(applied_to), "--hierarchy", str(hier),
            "--level", "1", "--out", str(out)]
    assert main(argv) == 1
    assert "compatibility classes" in capsys.readouterr().err


def test_gen_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        assert main(["gen", "--out", str(out), "--seed", "3"]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_order_compress_eval_pipeline(model_path, tmp_path, capsys):
    hier = tmp_path / "hier.json"
    report = tmp_path / "report.csv"
    assert (
        main(
            [
                "order",
                "--model",
                str(model_path),
                "--out",
                str(hier),
                "--report",
                str(report),
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "level 0" in out
    assert report.read_text().startswith("level,eps")

    tree = read_hierarchy(hier)
    g = read_model(model_path)
    expected_tree, _ = build_hierarchy(distance_matrix(g))
    assert tree == expected_tree

    compressed = tmp_path / "compressed.json"
    assert (
        main(
            [
                "compress",
                "--model",
                str(model_path),
                "--hierarchy",
                str(hier),
                "--level",
                "4",
                "--out",
                str(compressed),
            ]
        )
        == 0
    )
    cm = read_compressed(compressed)
    assert cm.level == 4
    part = partition_at_level(tree, 4)
    doc = json.loads(compressed.read_text())
    name_blocks = sorted(tuple(sorted(b)) for b in doc["grouping"]["blocks"])
    expected = sorted(
        tuple(sorted(g.factors[k].name for k in grp)) for grp in part.groups
    )
    assert name_blocks == expected

    out_csv = tmp_path / "eval.csv"
    assert (
        main(
            [
                "eval",
                "--model",
                str(model_path),
                "--compressed",
                str(compressed),
                "--out",
                str(out_csv),
                "--evidence-budget",
                "1",
            ]
        )
        == 0
    )
    text = out_csv.read_text()
    assert text.startswith("query_var,evidence,p_original,p_compressed,abs_dev")
    assert "measured_dcd," in text
    assert "bound_d2," in text


def test_eval_level_zero_measures_zero(model_path, tmp_path):
    hier = tmp_path / "hier.json"
    compressed = tmp_path / "c0.json"
    main(["order", "--model", str(model_path), "--out", str(hier)])
    main(
        [
            "compress",
            "--model",
            str(model_path),
            "--hierarchy",
            str(hier),
            "--level",
            "0",
            "--out",
            str(compressed),
        ]
    )
    out_csv = tmp_path / "eval.csv"
    code = main(
        [
            "eval",
            "--model",
            str(model_path),
            "--compressed",
            str(compressed),
            "--out",
            str(out_csv),
        ]
    )
    assert code == 0
    footer = dict(
        line.split(",", 1)
        for line in out_csv.read_text().strip().splitlines()[1:]
        if line.count(",") == 1
    )
    assert float(footer["measured_dcd"]) == 0.0
    assert float(footer["measured_pmax"]) == 0.0


@pytest.mark.parametrize("dcd, pmax", [(float("nan"), 0.0), (0.0, float("nan"))])
def test_eval_nan_is_a_violation(model_path, tmp_path, monkeypatch, dcd, pmax):
    # no scanned queries, so only the distance and pmax checks can fire
    hier = tmp_path / "hier.json"
    compressed = tmp_path / "c.json"
    main(["order", "--model", str(model_path), "--out", str(hier)])
    main(
        [
            "compress",
            "--model",
            str(model_path),
            "--hierarchy",
            str(hier),
            "--level",
            "3",
            "--out",
            str(compressed),
        ]
    )
    monkeypatch.setattr(
        cli, "max_query_deviation", lambda *a, **k: DeviationReport(dcd, pmax, None)
    )
    code = main(
        [
            "eval",
            "--model",
            str(model_path),
            "--compressed",
            str(compressed),
            "--out",
            str(tmp_path / "eval.csv"),
        ]
    )
    assert code == 4


def test_compress_eps_selector(model_path, tmp_path):
    hier = tmp_path / "hier.json"
    main(["order", "--model", str(model_path), "--out", str(hier)])
    tree = read_hierarchy(hier)
    eps = tree.epsilons[2]
    compressed = tmp_path / "c.json"
    assert (
        main(
            [
                "compress",
                "--model",
                str(model_path),
                "--hierarchy",
                str(hier),
                "--eps",
                repr(eps),
                "--out",
                str(compressed),
            ]
        )
        == 0
    )
    assert read_compressed(compressed).level == 3


def test_compress_target_pdelta_selector(model_path, tmp_path):
    hier = tmp_path / "hier.json"
    main(["order", "--model", str(model_path), "--out", str(hier)])
    compressed = tmp_path / "c.json"
    assert (
        main(
            [
                "compress",
                "--model",
                str(model_path),
                "--hierarchy",
                str(hier),
                "--target-pdelta",
                "0.5",
                "--out",
                str(compressed),
            ]
        )
        == 0
    )
    # selection rule: largest level whose merge distance stays at or below
    # min(eps1(p*, m), 1 - 1e-9)
    from fglift import eps_for_target

    tree = read_hierarchy(hier)
    cm = read_compressed(compressed)
    g = read_model(model_path)
    cap = min(eps_for_target(0.5, g.m), 1 - 1e-9)
    assert cm.level == sum(1 for e in tree.epsilons if e <= cap)
    assert cm.level == 6


def test_bounds_eps_grid(tmp_path):
    out = tmp_path / "bounds.csv"
    assert (
        main(
            ["bounds", "--eps-grid", "0.1", "--m-list", "2", "--out", str(out)]
        )
        == 0
    )
    header, row = out.read_text().strip().splitlines()
    assert header == "eps,m,d2,d3,d4,pmax_d2,pmax_d3,pmax_d4"
    fields = row.split(",")
    assert float(fields[2]) == pytest.approx(0.190620, abs=5e-7)


def test_bounds_pdelta_grid(capsys):
    assert main(["bounds", "--pdelta-grid", "0.5", "--m-list", "2"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0] == "pdelta,m,eps1"
    assert float(out[1].split(",")[2]) == pytest.approx(2.0, rel=1e-9)


def test_schema_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"variables": [], "factors": "nope"}')
    hier = tmp_path / "h.json"
    assert main(["order", "--model", str(bad), "--out", str(hier)]) == 2
    assert "schema error" in capsys.readouterr().err


def test_budget_exit_code(model_path, tmp_path):
    hier = tmp_path / "hier.json"
    compressed = tmp_path / "c.json"
    main(["order", "--model", str(model_path), "--out", str(hier)])
    main(
        [
            "compress",
            "--model",
            str(model_path),
            "--hierarchy",
            str(hier),
            "--level",
            "0",
            "--out",
            str(compressed),
        ]
    )
    code = main(
        [
            "eval",
            "--model",
            str(model_path),
            "--compressed",
            str(compressed),
            "--enum-budget",
            "8",
        ]
    )
    assert code == 3
