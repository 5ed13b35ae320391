import json
import math

import pytest

from treeverse.analytics import (binary_bound, bound_table_binary,
                                 bound_table_ternary, edge_gap_summary,
                                 reproduce_counterexample, ternary_bound)
from treeverse.balanced_trees import typed_ternary
from treeverse.graph_gen import generate, underlying


def test_ternary_bound_small_values():
    assert ternary_bound(3) == pytest.approx(14 / 3 * 3 * 1 + 600)
    assert ternary_bound(9) == pytest.approx(14 / 3 * 9 * 2 + 1800)
    assert ternary_bound(0) == 0.0
    assert ternary_bound(1) == 200.0


def test_bound_table_ternary_k1():
    report = bound_table_ternary(1)
    row = report.rows[0]
    assert (row.n, row.edges_total) == (3, 3)
    assert row.slack > 0
    assert report.ok


def test_bound_table_ternary_k2_edges():
    report = bound_table_ternary(2)
    row = [r for r in report.rows if r.k == 2][0]
    direct = underlying(generate(typed_ternary(2).tree, 2)).edge_count
    assert row.edges_total == direct == 36
    assert row.edges_total <= 14 / 3 * 9 * 2 + 1800


def test_bound_table_ternary_prefix_sweep():
    report = bound_table_ternary(3, prefix_sweep=True)
    ks = {r.k for r in report.rows}
    assert ks == {1, 2, 3}
    for k in (2, 3):
        rows = [r for r in report.rows if r.k == k]
        assert len(rows) >= min(20, 3 ** k - 3 ** (k - 1))
        assert any(r.n == 3 ** k for r in rows)
        for r in rows:
            assert 3 ** (k - 1) < r.n <= 3 ** k
    assert report.ok


def test_bound_table_binary():
    report = bound_table_binary(4)
    full = {r.k: r for r in report.rows if r.family == "binary-full"}
    assert full[0].edges_total == 0
    assert full[2].edges_total == 21
    assert binary_bound(7, 2, True) == 56
    assert report.ok
    prefix_rows = [r for r in report.rows if r.family == "binary-prefix"]
    assert prefix_rows and all(r.slack >= 0 for r in prefix_rows)


def test_bound_report_serialization_roundtrip():
    report = bound_table_ternary(2, prefix_sweep=True)
    parsed = json.loads(report.to_json())
    assert len(parsed) == len(report.rows)
    for row, back in zip(report.rows, parsed):
        assert back["edges_total"] == row.edges_total
        assert back["n"] == row.n
        assert math.isclose(back["slack"], row.slack)
    csv_lines = report.to_csv().splitlines()
    assert len(csv_lines) == len(report.rows) + 1
    head = csv_lines[0].split(",")
    for row, line in zip(report.rows, csv_lines[1:]):
        rec = dict(zip(head, line.split(",")))
        assert int(rec["edges_total"]) == row.edges_total
        assert int(rec["n"]) == row.n


def test_counterexample_report():
    rep = reproduce_counterexample()
    assert rep.ok
    assert rep.missing_edges == [(5, 10), (6, 10), (7, 10)]
    assert rep.six_prefix_complete == {2: True, 3: True, 4: True, 5: True}
    # the corrected rules close the gap on this slice; reported, not asserted
    assert isinstance(rep.corrected_slice_missing, list)


def test_edge_gap():
    rep1 = edge_gap_summary(1)
    assert rep1.gap == 0 and rep1.ok
    rep2 = edge_gap_summary(2)
    assert rep2.ok and rep2.gap <= 32 * 9
    rep5 = edge_gap_summary(5)
    assert rep5.ok and rep5.gap <= 32 * 243


def test_guards():
    with pytest.raises(ValueError):
        bound_table_ternary(10)
    with pytest.raises(ValueError):
        bound_table_binary(12)
    with pytest.raises(ValueError):
        edge_gap_summary(9)


def test_reports_are_deterministic():
    a = bound_table_ternary(3, prefix_sweep=True)
    b = bound_table_ternary(3, prefix_sweep=True)
    assert a.to_csv() == b.to_csv()
    assert a.to_json() == b.to_json()
    assert bound_table_binary(4).to_csv() == bound_table_binary(4).to_csv()
