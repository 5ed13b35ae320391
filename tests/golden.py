"""The golden corpus: every `treeverse` argv whose output is pinned, and the
runner that records and replays them.

`tests/golden.json` holds one entry per argv: the exit code, the sha256 of
stdout and of stderr, and one short digest per line of each, so a failing
replay can name the first line that differs.  Each argv runs in-process
through `cli.main`, from the repository root, so the tree files under
`tests/data/` are named by relative paths and no absolute path reaches an
output.  `tests/test_cli.py` replays the corpus; rewrite it with

    python tests/golden.py --record

after a change that alters an output on purpose, and list each changed argv
in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CORPUS = Path(__file__).with_name("golden.json")

DATA = "tests/data/"
TREE = DATA + "decompose.tree"
GUEST = DATA + "guest.tree"
GUEST9 = DATA + "guest9.csv"

ARGVS = [
    # gen-tree
    ["gen-tree", "--family", "binary", "--k", "2"],
    ["gen-tree", "--family", "ternary-typed", "--k", "2", "--encoding",
     "parents"],
    ["gen-tree", "--family", "binary", "--k", "12"],
    ["gen-tree", "--family", "ternary-typed", "--k", "10"],
    # gen-graph
    ["gen-graph", "--family", "binary", "--k", "2", "--r", "0"],
    ["gen-graph", "--family", "binary", "--k", "1", "--format", "dot"],
    ["gen-graph", "--legacy", "--k", "3", "--prefix", "11"],
    ["gen-graph", "--family", "ternary-typed", "--k", "2", "--r", "2"],
    ["gen-graph", "--tree", TREE, "--r", "1", "--legacy"],
    ["gen-graph", "--tree", DATA + "empty.tree"],
    ["gen-graph", "--family", "binary", "--k", "2", "--prefix", "8"],
    ["gen-graph", "--family", "binary", "--k", "2", "--r", "-1"],
    ["gen-graph", "--legacy", "--k", "12"],
    ["gen-graph", "--tree", DATA + "star1400.csv"],
    # decompose
    ["decompose", "--tree", TREE, "--x", "3"],
    ["decompose", "--tree", TREE, "--x", "4", "--y", "2"],
    ["decompose", "--tree", TREE, "--x", "3", "--y", "4"],
    ["decompose", "--tree", TREE, "--u", "20", "--x", "3"],
    ["decompose", "--tree", TREE, "--x", "0"],
    ["decompose", "--tree", TREE, "--x", "3", "--y", "1"],
    ["decompose", "--tree", TREE, "--x", "12"],
    ["decompose", "--tree", DATA + "bad.csv", "--x", "1"],
    ["decompose", "--tree", DATA + "missing.tree", "--x", "1"],
    # embed
    ["embed", "--k", "2", "--guest", GUEST, "--x1", "0"],
    ["embed", "--k", "2", "--guest", GUEST, "--json"],
    ["embed", "--k", "3", "--guest", GUEST9, "--x1", "3", "--x2", "5"],
    ["embed", "--host-family", "binary", "--k", "3", "--guest", GUEST9,
     "--x1", "2"],
    ["embed", "--k", "10", "--guest", GUEST],
    ["embed", "--k", "1", "--guest", GUEST9],
    ["embed", "--k", "2", "--guest", GUEST, "--x1", "9"],
    ["embed", "--k", "2", "--guest", GUEST, "--x2", "-1"],
    # verify
    ["verify", "--family", "ternary-typed", "--k", "2"],
    ["verify", "--family", "binary", "--k", "1", "--interval"],
    ["verify", "--family", "legacy", "--k", "2", "--interval"],
    ["verify", "--family", "binary", "--k", "3"],
    ["verify", "--family", "ternary-typed", "--k", "3", "--interval"],
    # bounds
    ["bounds", "--family", "ternary-typed", "--k-max", "6", "--prefix-sweep",
     "--format", "json"],
    ["bounds", "--family", "binary", "--k-max", "8", "--format", "json"],
    ["bounds", "--family", "binary", "--k-max", "3", "--format", "csv"],
    ["bounds", "--family", "ternary-typed", "--k-max", "3"],
    ["bounds", "--family", "ternary-typed", "--k-max", "10"],
    ["bounds", "--family", "binary", "--k-max", "12"],
    # counterexample
    ["counterexample"],
    # gap
    ["gap", "--k", "2"],
    ["gap", "--k", "6"],
    ["gap", "--k", "9"],
    # balance
    ["balance", "--family", "ternary-typed", "--k", "4"],
    ["balance", "--tree", DATA + "lopsided.tree"],
    ["balance", "--family", "binary", "--k", "12"],
    # a usage error: argparse exits before any command runs
    ["bounds"],
]


def run_argv(argv: list[str]) -> tuple[int, str, str]:
    """The exit code, stdout and stderr of `cli.main(argv)` run from the
    repository root; a usage error's `SystemExit` gives the code."""
    from treeverse.cli import main

    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = exc.code
    finally:
        os.chdir(cwd)
    return code, out.getvalue(), err.getvalue()


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def golden_entry(argv: list[str]) -> dict:
    """The corpus entry of one argv, from a fresh run."""
    code, out, err = run_argv(argv)
    return {"argv": argv, "exit": code,
            "stdout": sha256(out), "stderr": sha256(err),
            "stdout_lines": [sha256(line)[:8] for line in out.splitlines()],
            "stderr_lines": [sha256(line)[:8] for line in err.splitlines()]}


def golden_mismatch(entry: dict) -> str | None:
    """None when a fresh run of the entry's argv matches it; otherwise what
    differs: the exit code, or the first differing line of a stream."""
    code, out, err = run_argv(entry["argv"])
    if code != entry["exit"]:
        return f"exit {code}, recorded {entry['exit']}"
    for name, text in (("stdout", out), ("stderr", err)):
        if sha256(text) == entry[name]:
            continue
        lines = text.splitlines()
        recorded = entry[f"{name}_lines"]
        for i, line in enumerate(lines):
            if i >= len(recorded) or sha256(line)[:8] != recorded[i]:
                return f"{name} line {i + 1} differs: {line!r}"
        return (f"{name} has {len(lines)} lines, recorded "
                f"{len(recorded)}, or differs in its line ends")
    return None


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/golden.py --record")
    sys.path.insert(0, str(ROOT / "src"))
    entries = [golden_entry(argv) for argv in ARGVS]
    # one entry a line, so a changed output changes one line of the file
    CORPUS.write_text("[\n" + ",\n".join(map(json.dumps, entries)) + "\n]\n")
    print(f"recorded {len(entries)} argvs in {CORPUS.relative_to(ROOT)}")
