from __future__ import annotations

import json

import pytest

from fglift import (
    build_hierarchy,
    distance_matrix,
    hacp_compress,
)
from fglift.errors import SchemaError
from fglift.io import (
    ReportRow,
    compressed_to_document,
    dumps,
    fmt9,
    hierarchy_report_rows,
    model_to_document,
    parse_compressed,
    parse_model,
    parse_report_csv,
    read_hierarchy,
    read_model,
    report_to_csv,
    write_hierarchy,
    write_model,
)

from conftest import random_graph

FIG1_DOC = {
    "variables": [
        {"name": "A", "range": ["true", "false"]},
        {"name": "B", "range": ["true", "false"]},
        {"name": "C", "range": ["true", "false"]},
    ],
    "factors": [
        {"name": "phi1", "args": ["A", "B"], "table": [2.0, 1.0, 3.0, 4.0]},
        {"name": "phi2", "args": ["C", "B"], "table": [2.0, 1.0, 3.0, 4.0]},
    ],
}


class TestModelDocuments:
    def test_parse_fig1(self):
        g = parse_model(FIG1_DOC)
        assert g.m == 2
        assert set(g.edges()) == {
            ("A", "phi1"),
            ("B", "phi1"),
            ("B", "phi2"),
            ("C", "phi2"),
        }

    def test_write_parse_identity_on_canonical(self):
        g = parse_model(FIG1_DOC)
        assert model_to_document(g) == FIG1_DOC
        assert dumps(model_to_document(g)) == dumps(FIG1_DOC)

    def test_roundtrip_preserves_floats_bitwise(self, rng):
        g = random_graph(rng, n_vars=5, n_factors=4)
        doc = model_to_document(g)
        again = parse_model(json.loads(dumps(doc)))
        for f1, f2 in zip(g.factors, again.factors):
            assert f1.table.tobytes() == f2.table.tobytes()

    def test_deterministic_serialisation(self, rng):
        g = random_graph(rng, n_vars=5, n_factors=4)
        assert dumps(model_to_document(g)) == dumps(model_to_document(g))

    def test_schema_error_names_factor(self):
        doc = json.loads(dumps(FIG1_DOC))
        doc["factors"][0]["table"] = [1.0, 2.0, 3.0]
        with pytest.raises(SchemaError, match="phi1"):
            parse_model(doc)

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda d: d.pop("variables"),
            lambda d: d["variables"].append({"name": "X"}),
            lambda d: d["factors"].append({"name": "x", "args": ["A"]}),
            lambda d: d["factors"][0].__setitem__("table", "oops"),
            lambda d: d["factors"][0].__setitem__("args", ["Zed", "B"]),
        ],
    )
    def test_malformed_documents_raise_schema_error(self, mutate):
        doc = json.loads(dumps(FIG1_DOC))
        mutate(doc)
        with pytest.raises(SchemaError):
            parse_model(doc)

    def test_file_roundtrip(self, tmp_path, rng):
        g = random_graph(rng, n_vars=4, n_factors=3)
        path = tmp_path / "model.json"
        write_model(g, path)
        again = read_model(path)
        assert model_to_document(again) == model_to_document(g)

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(SchemaError):
            read_model(path)


class TestHierarchyFiles:
    def test_file_roundtrip(self, tmp_path, rng):
        g = random_graph(rng, n_vars=4, n_factors=6, max_arity=2)
        tree, _ = build_hierarchy(distance_matrix(g))
        path = tmp_path / "hier.json"
        write_hierarchy(tree, path)
        assert read_hierarchy(path) == tree


class TestCompressedDocuments:
    def test_roundtrip(self, rng):
        g = random_graph(rng, n_vars=4, n_factors=5, max_arity=2)
        tree, _ = build_hierarchy(distance_matrix(g))
        cm = hacp_compress(g, tree, tree.num_levels)
        doc = compressed_to_document(cm)
        again = parse_compressed(json.loads(dumps(doc)))
        assert again.level == cm.level
        assert again.eps == cm.eps
        assert again.grouping.blocks == cm.grouping.blocks
        for f1, f2 in zip(cm.base.factors, again.base.factors):
            assert f1.table.tobytes() == f2.table.tobytes()

    def test_blocks_must_partition(self):
        doc = json.loads(dumps(FIG1_DOC))
        doc["grouping"] = {"level": 1, "eps": 0.0, "blocks": [["phi1"]]}
        with pytest.raises(SchemaError):
            parse_compressed(doc)


class TestReportCsv:
    def test_fig2_shaped_rows(self):
        from test_hierarchy import ten_factor_matrix

        tree, _ = build_hierarchy(ten_factor_matrix())
        rows = hierarchy_report_rows(tree)
        assert [r.num_groups for r in rows] == list(range(10, 0, -1))
        assert [r.max_group_size for r in rows] == [1, 2, 2, 2, 4, 4, 4, 7, 7, 10]
        text = report_to_csv(rows)
        assert text.startswith(
            "level,eps,num_groups,max_group_size,d2,d3,d4,pmax_d2,"
            "measured_dcd,measured_pmax\n"
        )

    def test_group_stats_match_oracle(self, rng):
        from test_hierarchy import oracle_levels, oracle_trees

        for tree in oracle_trees(rng):
            rows = hierarchy_report_rows(tree)
            expected = oracle_levels(tree)
            assert [r.num_groups for r in rows] == [len(p) for p in expected]
            assert [r.max_group_size for r in rows] == [
                max(map(len, p)) for p in expected
            ]

    def test_empty_rows_header_only(self):
        assert report_to_csv([]).strip() == ",".join(
            (
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
        )

    def test_roundtrip_within_representation_limit(self, rng):
        rows = [
            ReportRow(
                level=k,
                eps=float(rng.uniform(0, 0.9)),
                num_groups=10 - k,
                max_group_size=k + 1,
                d2=float(rng.uniform(0, 5)),
                d3=float(rng.uniform(0, 5)),
                d4=None if k == 2 else float(rng.uniform(0, 5)),
                pmax_d2=float(rng.uniform(0, 1)),
                measured_dcd=None if k % 2 else float(rng.uniform(0, 1)),
                measured_pmax=None,
            )
            for k in range(5)
        ]
        parsed = parse_report_csv(report_to_csv(rows))
        assert len(parsed) == 5
        for a, b in zip(rows, parsed):
            assert a.level == b.level and a.num_groups == b.num_groups
            # 9 significant digits bound the relative error by half an ulp
            # in the ninth digit
            assert b.eps == pytest.approx(a.eps, rel=5e-9, abs=5e-9)
            assert b.d2 == pytest.approx(a.d2, rel=5e-9)
            assert (a.d4 is None) == (b.d4 is None)
            assert (a.measured_dcd is None) == (b.measured_dcd is None)

    def test_header_mismatch(self):
        with pytest.raises(SchemaError):
            parse_report_csv("a,b,c\n1,2,3\n")

    def test_fmt9(self):
        assert fmt9(0.1) == "0.1"
        assert fmt9(1 / 3) == "0.333333333"
        assert fmt9(123456789012.0) == "1.23456789e+11"
