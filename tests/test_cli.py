import json

import pytest

from treeverse.cli import main
from treeverse.tree_core import from_parens, parse_tree


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_gen_tree_roundtrips(capsys):
    code, out = run(capsys, "gen-tree", "--family", "binary", "--k", "2")
    assert code == 0
    assert from_parens(out).n == 7

    code, out = run(capsys, "gen-tree", "--family", "ternary-typed", "--k", "2",
                    "--encoding", "parents")
    assert code == 0
    assert parse_tree(out).n == 9


def test_gen_graph_json(capsys):
    code, out = run(capsys, "gen-graph", "--family", "binary", "--k", "2",
                    "--r", "0")
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 7 and len(payload["edges"]) == 21


def test_gen_graph_dot(capsys):
    code, out = run(capsys, "gen-graph", "--family", "binary", "--k", "1",
                    "--format", "dot")
    assert code == 0
    assert out.startswith("graph") and "--" in out


def test_gen_graph_legacy_prefix(capsys):
    code, out = run(capsys, "gen-graph", "--legacy", "--k", "3",
                    "--prefix", "11")
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 11


def test_embed_command(tmp_path, capsys):
    guest = tmp_path / "guest.tree"
    guest.write_text("(()()()())\n")
    code, out = run(capsys, "embed", "--host-family", "ternary-typed",
                    "--k", "2", "--guest", str(guest), "--x1", "0")
    assert code == 0
    assert "phi1_ok=True" in out

    code, out = run(capsys, "embed", "--host-family", "ternary-typed",
                    "--k", "2", "--guest", str(guest), "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["admissible_complement"] is True


def test_verify_command(capsys):
    code, out = run(capsys, "verify", "--family", "ternary-typed", "--k", "2")
    assert code == 0 and out.startswith("OK")


def test_verify_interval_small(capsys):
    code, out = run(capsys, "verify", "--family", "binary", "--k", "1",
                    "--interval")
    assert code == 0


def test_bounds_command(capsys):
    code, out = run(capsys, "bounds", "--family", "binary", "--k-max", "3",
                    "--format", "csv")
    assert code == 0
    assert out.splitlines()[0].startswith("family,")


def test_counterexample_command(capsys):
    code, out = run(capsys, "counterexample")
    assert code == 0
    assert "[(5, 10), (6, 10), (7, 10)]" in out


def test_gap_command(capsys):
    code, out = run(capsys, "gap", "--k", "2")
    assert code == 0 and "ok=True" in out


def test_balance_command(capsys):
    code, out = run(capsys, "balance", "--family", "ternary-typed", "--k", "4")
    assert code == 0


def test_decompose_command(tmp_path, capsys):
    tree = tmp_path / "t.tree"
    tree.write_text("((()()())(()()()))\n")
    code, out = run(capsys, "decompose", "--tree", str(tree), "--x", "3")
    assert code == 0 and "pivot=" in out
    code, out = run(capsys, "decompose", "--tree", str(tree), "--x", "4",
                    "--y", "2")
    assert code == 0
    assert "kind=feasible" in out or "kind=critical" in out


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bounds"])  # missing required arguments
    assert exc.value.code == 2


def test_domain_error_exit_code(capsys):
    code, _ = run(capsys, "gap", "--k", "99")
    assert code == 2


def test_family_k_guards_refuse_before_building(capsys, monkeypatch):
    import treeverse.cli as cli

    code, out = run(capsys, "gen-tree", "--family", "binary", "--k", "11")
    assert code == 0 and from_parens(out).n == 4095

    def never(*args, **kwargs):
        raise AssertionError("a tree above the guard was built")

    monkeypatch.setattr(cli, "perfect_binary", never)
    monkeypatch.setattr(cli, "typed_ternary", never)
    for argv in (["gen-tree", "--family", "binary", "--k", "12"],
                 ["gen-tree", "--family", "ternary-typed", "--k", "10"],
                 ["gen-graph", "--legacy", "--k", "12"],
                 ["verify", "--family", "legacy", "--k", "12"],
                 ["balance", "--family", "binary", "--k", "12"]):
        assert main(argv) == 2, argv
        assert "guard" in capsys.readouterr().err


def test_verify_checks_size_before_generating(capsys, monkeypatch):
    import treeverse.cli as cli

    def never(*args, **kwargs):
        raise AssertionError("graph generated above the oracle guard")

    monkeypatch.setattr(cli, "generate", never)
    for argv in (["verify", "--family", "binary", "--k", "3"],
                 ["verify", "--family", "legacy", "--k", "3", "--interval"]):
        assert main(argv) == 2, argv
        assert "guard: n=15" in capsys.readouterr().err
