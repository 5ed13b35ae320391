import argparse
import hashlib
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import treeverse

from treeverse.balanced_trees import perfect_binary, typed_ternary
from treeverse.cli import main
from treeverse.graph_gen import generate, to_dot, to_json
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


def test_gen_graph_refuses_a_prefix_outside_the_graph(capsys):
    code = main(["gen-graph", "--family", "binary", "--k", "2", "--prefix", "8"])
    assert code == 2
    assert capsys.readouterr().err == "error: prefix size 8 out of range 1..7\n"


def test_gen_graph_prefix_prints_the_prefix_tree_graph(capsys, monkeypatch):
    """`--prefix m` prints the graph of the prefix tree, through the same
    export as a whole graph, and generates no graph larger than m."""
    import treeverse.cli as cli

    sizes = []

    def recording(tree, radius, legacy=False):
        sizes.append(tree.n)
        return generate(tree, radius, legacy=legacy)

    monkeypatch.setattr(cli, "generate", recording)
    for family, tree in (("binary", perfect_binary(3)),
                         ("ternary-typed", typed_ternary(2).tree)):
        for r in range(4):
            for legacy in (False, True):
                for m in range(1, tree.n + 1):
                    argv = ["gen-graph", "--family", family, "--k",
                            str(max(tree.levels)), "--r", str(r),
                            "--prefix", str(m)] + ["--legacy"] * legacy
                    sizes.clear()
                    code, out = run(capsys, *argv)
                    assert code == 0
                    want = generate(tree.prefix(m), r, legacy)
                    assert out == to_json(want) + "\n"
                    assert sizes == [m]
    code, out = run(capsys, "gen-graph", "--k", "3", "--prefix", "11",
                    "--legacy", "--format", "dot")
    assert code == 0
    assert out == to_dot(generate(perfect_binary(3).prefix(11), 0,
                                  legacy=True)) + "\n"
    assert main(["gen-graph", "--k", "3", "--prefix", "0"]) == 2
    assert capsys.readouterr().err == \
        "error: prefix size 0 out of range 1..15\n"


def test_gen_graph_legacy_honours_family_radius_and_tree(tmp_path, capsys):
    code, out = run(capsys, "gen-graph", "--legacy", "--k", "2", "--r", "2",
                    "--family", "ternary-typed")
    assert code == 0
    assert out == to_json(generate(typed_ternary(2).tree, 2, legacy=True)) + "\n"

    tree = tmp_path / "t.tree"
    tree.write_text("((()())(()()))\n")
    code, out = run(capsys, "gen-graph", "--legacy", "--tree", str(tree),
                    "--r", "1")
    assert code == 0
    assert out == to_json(generate(parse_tree(tree.read_text()), 1,
                                   legacy=True)) + "\n"


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


def test_verify_prints_the_oracle_witness(capsys, monkeypatch):
    from treeverse import oracle

    witness = from_parens("(()(()))")
    monkeypatch.setattr(oracle, "is_universal",
                        lambda graph, **kw: (False, witness))
    monkeypatch.setattr(oracle, "is_interval_universal",
                        lambda graph, **kw: (False, (2, 4, witness)))
    code, out = run(capsys, "verify", "--family", "ternary-typed", "--k", "2")
    assert (code, out) == (1, "FAIL tree=(()(()))\n")
    code, out = run(capsys, "verify", "--family", "binary", "--k", "1",
                    "--interval")
    assert (code, out) == (1, "FAIL interval offset=2 size=4 tree=(()(()))\n")


def test_verify_refuses_jobs_below_one(capsys):
    for jobs in ("0", "-2"):
        code = main(["verify", "--family", "binary", "--k", "1", "--jobs",
                     jobs])
        assert code == 2
        assert capsys.readouterr().err == \
            f"error: jobs must be at least 1, got {jobs}\n"


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
    assert out == "balanced (ratio=2, gap=1)\n"


def test_balance_reports_a_cousin_ratio_violation(tmp_path, capsys):
    # root children of sizes 1 and 5: 2 * 1 <= 5
    tree = tmp_path / "lopsided.tree"
    tree.write_text("(()(()()()()))\n")
    code, out = run(capsys, "balance", "--tree", str(tree))
    assert code == 1
    assert "violation cousin_ratio: vertices (2, 1)" in out.splitlines()


def test_decompose_command(tmp_path, capsys):
    tree = tmp_path / "t.tree"
    tree.write_text("((()()())(()()()))\n")
    code, out = run(capsys, "decompose", "--tree", str(tree), "--x", "3")
    assert code == 0 and "pivot=" in out
    code, out = run(capsys, "decompose", "--tree", str(tree), "--x", "4",
                    "--y", "2")
    assert code == 0
    assert "kind=feasible" in out or "kind=critical" in out
    # for x <= y the critical window [x+y-2, 2x-3] is empty
    code, out = run(capsys, "decompose", "--tree", str(tree), "--x", "3",
                    "--y", "4")
    assert code == 0
    assert out == ("pivot=1 kind=feasible union=2\n"
                   "  component: [2]\n  component: [3]\n")


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bounds"])  # missing required arguments
    assert exc.value.code == 2


def test_domain_error_exit_code(tmp_path, capsys):
    code, _ = run(capsys, "gap", "--k", "99")
    assert code == 2

    tree = tmp_path / "bad.csv"
    tree.write_text("0,x\n")
    assert main(["decompose", "--tree", str(tree), "--x", "1"]) == 2
    assert capsys.readouterr().err == \
        "error: parent id 'x' is not an integer\n"


def test_main_builds_one_parser_and_keeps_no_state_between_calls(
        capsys, monkeypatch):
    import treeverse.cli as cli

    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    cli.build_parser.cache_clear()
    plain = run(capsys, "gen-graph", "--k", "2")
    assert plain == (0, to_json(generate(perfect_binary(2), 0)) + "\n")
    assert len(built) == 10   # the top-level parser and nine subcommands
    built.clear()

    # a flag set on one call is not carried into the next
    assert run(capsys, "gen-graph", "--legacy", "--k", "2") == \
        (0, to_json(generate(perfect_binary(2), 0, legacy=True)) + "\n")
    assert run(capsys, "gen-graph", "--k", "2") == plain

    # neither a usage error nor an `error:` exit changes the next call
    argv = ("bounds", "--family", "binary", "--k-max", "3")
    before = run(capsys, *argv)
    with pytest.raises(SystemExit) as exc:
        main(["bounds", "--family", "nope", "--k-max", "3"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert run(capsys, *argv) == before
    assert main(["gen-tree", "--family", "binary", "--k", "99"]) == 2
    assert capsys.readouterr().err.startswith("error: guard:")
    assert run(capsys, *argv) == before
    assert built == []


# Wraps the parser constructor, then imports the CLI and calls it once.
IMPORT_THEN_CALL = textwrap.dedent("""
    import argparse, contextlib, io
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    argparse.ArgumentParser.__init__ = counting
    import treeverse.cli
    on_import = len(built)
    with contextlib.redirect_stdout(io.StringIO()):
        code = treeverse.cli.main(["gap", "--k", "2"])
    print(on_import, len(built), code)
""")


def test_importing_the_cli_builds_no_parser():
    src = str(Path(treeverse.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", IMPORT_THEN_CALL],
                          capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0 10 0\n"


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


def test_gen_graph_counts_pairs_before_generating(tmp_path, capsys,
                                                 monkeypatch):
    import treeverse.cli as cli

    def never(*args, **kwargs):
        raise AssertionError("graph generated above the pair cap")

    monkeypatch.setattr(cli, "generate", never)
    path = tmp_path / "path.csv"
    path.write_text(",".join(map(str, range(1499))) + "\n")
    assert parse_tree(path.read_text()).n == 1500
    assert main(["gen-graph", "--tree", str(path), "--r", "2"]) == 2
    assert capsys.readouterr().err == ("error: guard: the graph has 1124250 "
                                       "pairs, above the cap of 927699\n")
    assert main(["gen-graph", "--family", "ternary-typed", "--k", "9",
                 "--r", "3"]) == 2
    assert "1713279 pairs" in capsys.readouterr().err

    # a star's vertices all share the root's radius spans, so the count is
    # linear in n, with at most one upward-pair test per vertex
    import treeverse.graph_gen as graph_gen

    calls = []
    upward = graph_gen._new_upward_pair

    def counted(*args):
        calls.append(args)
        return upward(*args)

    monkeypatch.setattr(graph_gen, "_new_upward_pair", counted)
    n = 40_000
    star = tmp_path / "star.csv"
    star.write_text(",".join(["0"] * (n - 1)) + "\n")
    assert main(["gen-graph", "--tree", str(star), "--r", "2"]) == 2
    assert capsys.readouterr().err == ("error: guard: the graph has 799980000 "
                                       "pairs, above the cap of 927699\n")
    assert len(calls) <= n


def test_verify_checks_size_before_generating(capsys, monkeypatch):
    import treeverse.cli as cli

    def never(*args, **kwargs):
        raise AssertionError("graph generated above the oracle guard")

    monkeypatch.setattr(cli, "generate", never)
    for argv in (["verify", "--family", "binary", "--k", "3"],
                 ["verify", "--family", "legacy", "--k", "3", "--interval"]):
        assert main(argv) == 2, argv
        assert "guard: n=15" in capsys.readouterr().err


# sha256 of stdout, recorded while prefix counts were read from the arcs of
# `generate`; the JSON carries `edges_by_type`, which the CSV does not
PINNED_COUNT_OUTPUTS_SHA256 = {
    ("bounds", "--family", "ternary-typed", "--k-max", "6", "--prefix-sweep",
     "--format", "json"):
        "dd7d322ffc3698f9a38d5ad282751d186c58ff28d04325ca093e2706a3a2b106",
    ("bounds", "--family", "binary", "--k-max", "8", "--format", "json"):
        "235aa6b9bc3614e2c83e2670b695d3e454375eb9e61489d20f79f645dfc42a12",
    ("gap", "--k", "6"):
        "99c4b8c6a43d0daa7dc288492ef9d12bb5df700005a356f397df648ae88eebd2",
}


def test_count_outputs_match_the_pinned_hashes(capsys):
    for argv, want in PINNED_COUNT_OUTPUTS_SHA256.items():
        code, out = run(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == want, argv
