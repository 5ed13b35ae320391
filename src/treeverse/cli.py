"""Command-line surface tying the package together.

Exit codes: 0 on success (bounds hold / graph universal / embedding valid),
1 when a check finds a violation, 2 on usage errors (argparse default).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from . import analytics, graph_gen, oracle, tree_core
from .balanced_trees import perfect_binary, typed_ternary, validate_balance
from .decomposition import find_bounded_components, find_feasible_or_critical
from .embedder import embed
from .graph_gen import generate, underlying
from .tree_core import RootedTree


FAMILY_K_GUARDS = {"binary": analytics.BINARY_K_GUARD,
                   "ternary-typed": analytics.TERNARY_K_GUARD}
# the pairs of the radius-2 graph of typed_ternary(9), the largest family
# graph at radius <= 2
GEN_GRAPH_PAIR_CAP = 927_699


def _family_tree(family: str, k: int) -> RootedTree:
    """The family tree of depth k, refused before it is built when k is above
    the depth the bound tables stop at."""
    if k > FAMILY_K_GUARDS[family]:
        raise ValueError(f"guard: --k {k} exceeds {FAMILY_K_GUARDS[family]} "
                         f"for the {family} family")
    if family == "binary":
        return perfect_binary(k)
    return typed_ternary(k).tree


def _load_tree(path: str) -> RootedTree:
    return tree_core.parse_tree(Path(path).read_text())


def cmd_gen_tree(args) -> int:
    tree = _family_tree(args.family, args.k)
    if args.encoding == "parents":
        print(tree_core.to_parent_csv(tree))
    else:
        print(tree_core.to_parens(tree))
    return 0


def cmd_gen_graph(args) -> int:
    tree = (_load_tree(args.tree) if args.tree
            else _family_tree(args.family, args.k))
    if args.prefix is not None:
        # a prefix's induced graph is the graph of the prefix tree
        tree = tree.prefix(args.prefix)
    pairs = graph_gen.prefix_counts(tree, args.r, args.legacy).pairs[tree.n]
    if pairs > GEN_GRAPH_PAIR_CAP:
        raise ValueError(f"guard: the graph has {pairs} pairs, above the cap "
                         f"of {GEN_GRAPH_PAIR_CAP}")
    dig = generate(tree, args.r, legacy=args.legacy)
    print(graph_gen.to_dot(dig) if args.format == "dot"
          else graph_gen.to_json(dig))
    return 0


def cmd_decompose(args) -> int:
    tree = _load_tree(args.tree)
    if args.y is None:
        coll = find_bounded_components(tree, args.u, args.x)
        kind = "bounded"
    else:
        coll, kind = find_feasible_or_critical(tree, args.u, args.x, args.y)
    print(f"pivot={coll.w} kind={kind} union={coll.union_size}")
    for comp in coll.components:
        print("  component:", sorted(comp))
    return 0


def cmd_embed(args) -> int:
    host = _family_tree(args.host_family, args.k)
    guest = _load_tree(args.guest)
    # embed raises unless the map passes `verify_embedding`, so it is valid
    emb = embed(host, guest, args.x1, args.x2)
    if args.json:
        print(json.dumps({
            "mapping": {str(g): h for g, h in sorted(emb.mapping.items())},
            "admissible_complement": emb.admissible_complement,
            "phi1_ok": emb.phi1_ok,
            "phi2_applicable": emb.phi2_applicable,
            "phi2_ok": emb.phi2_ok,
        }, indent=2))
    else:
        for g in sorted(emb.mapping):
            print(f"{g} -> {emb.mapping[g]}")
        print(f"admissible_complement={emb.admissible_complement} "
              f"phi1_ok={emb.phi1_ok} phi2_applicable={emb.phi2_applicable} "
              f"phi2_ok={emb.phi2_ok}")
    return 0


def cmd_verify(args) -> int:
    legacy = args.family == "legacy"
    tree = _family_tree("binary" if legacy else args.family, args.k)
    oracle.check_size(tree.n, args.interval, args.unsafe_large)
    graph = underlying(generate(tree, 2 if args.family == "ternary-typed" else 0,
                                legacy=legacy))
    if args.interval:
        ok, witness = oracle.is_interval_universal(
            graph, unsafe_large=args.unsafe_large, jobs=args.jobs)
        if not ok:
            i, m, tree = witness
            print(f"FAIL interval offset={i} size={m} "
                  f"tree={tree_core.to_parens(tree)}")
            return 1
        print(f"OK interval-universal n={graph.n}")
        return 0
    ok, tree = oracle.is_universal(graph, unsafe_large=args.unsafe_large,
                                   jobs=args.jobs)
    if not ok:
        print(f"FAIL tree={tree_core.to_parens(tree)}")
        return 1
    print(f"OK universal n={graph.n}")
    return 0


def cmd_bounds(args) -> int:
    if args.family == "binary":
        report = analytics.bound_table_binary(args.k_max)
    else:
        report = analytics.bound_table_ternary(args.k_max,
                                               prefix_sweep=args.prefix_sweep)
    if args.format == "json":
        print(report.to_json())
    elif args.format == "csv":
        print(report.to_csv())
    else:
        print(f"{'family':<15}{'k':>3}{'n':>7}{'edges':>9}{'bound':>13}{'slack':>13}")
        for r in report.rows:
            print(f"{r.family:<15}{r.k:>3}{r.n:>7}{r.edges_total:>9}"
                  f"{r.bound_value:>13.1f}{r.slack:>13.1f}")
    return 0 if report.ok else 1


def cmd_counterexample(args) -> int:
    rep = analytics.reproduce_counterexample()
    print("legacy 11-prefix, slice of the last six vertices:")
    print("  missing edges:", rep.missing_edges)
    print("  expected:     ", rep.expected_missing)
    print("six-vertex admissible graphs complete (legacy levels 2..5):",
          rep.six_prefix_complete)
    print("same slice under corrected rules, missing edges (reported only):",
          rep.corrected_slice_missing)
    print("ok:", rep.ok)
    return 0 if rep.ok else 1


def cmd_gap(args) -> int:
    rep = analytics.edge_gap_summary(args.k)
    print(f"k={rep.k} n={rep.n} edges_r2={rep.edges_r2} edges_r0={rep.edges_r0} "
          f"gap={rep.gap} bound={rep.gap_bound} ok={rep.ok}")
    return 0 if rep.ok else 1


def cmd_balance(args) -> int:
    tree = (_load_tree(args.tree) if args.tree
            else _family_tree(args.family, args.k))
    report = validate_balance(tree)
    if report.ok:
        print("balanced (ratio=2, gap=1)")
        return 0
    for axiom, witness in report.violations[:20]:
        print(f"violation {axiom}: vertices {witness}")
    return 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `treeverse` parser, built on the first call and then reused:
    parsing keeps no state in it, and building it costs more than a small
    command's own work."""
    p = argparse.ArgumentParser(prog="treeverse")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("gen-tree", help="emit a family tree in text format")
    sp.add_argument("--family", choices=["binary", "ternary-typed"], required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--encoding", choices=["parens", "parents"], default="parens")
    sp.set_defaults(func=cmd_gen_tree)

    sp = sub.add_parser("gen-graph", help="emit a generated graph (DOT or JSON)")
    sp.add_argument("--family", choices=["binary", "ternary-typed"],
                    default="binary")
    sp.add_argument("--tree", help="tree file instead of a family")
    sp.add_argument("--k", type=int, default=0)
    sp.add_argument("--r", type=int, default=0)
    sp.add_argument("--legacy", action="store_true",
                    help="use the weaker sibling-based third rule")
    sp.add_argument("--prefix", type=int, help="induce on a preorder prefix")
    sp.add_argument("--format", choices=["dot", "json"], default="json")
    sp.set_defaults(func=cmd_gen_graph)

    sp = sub.add_parser("decompose", help="component collections of a tree file")
    sp.add_argument("--tree", required=True)
    sp.add_argument("--u", type=int, default=0, help="protected vertex")
    sp.add_argument("--x", type=int, required=True)
    sp.add_argument("--y", type=int)
    sp.set_defaults(func=cmd_decompose)

    sp = sub.add_parser("embed", help="embed a guest tree into a family host")
    sp.add_argument("--host-family", choices=["binary", "ternary-typed"],
                    default="ternary-typed")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--guest", required=True)
    sp.add_argument("--x1", type=int, default=0)
    sp.add_argument("--x2", type=int)
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_embed)

    sp = sub.add_parser("verify", help="exhaustive universality check")
    sp.add_argument("--family", choices=["binary", "ternary-typed", "legacy"],
                    required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--interval", action="store_true")
    sp.add_argument("--jobs", type=int, default=1, help="slower than --jobs 1 "
                    "unless --unsafe-large admits a graph past about 15 vertices")
    sp.add_argument("--unsafe-large", action="store_true",
                    help="override the exhaustive-search size guards")
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("bounds", help="edge-count bound tables")
    sp.add_argument("--family", choices=["binary", "ternary-typed"],
                    required=True)
    sp.add_argument("--k-max", type=int, required=True)
    sp.add_argument("--prefix-sweep", action="store_true")
    sp.add_argument("--format", choices=["csv", "json", "table"],
                    default="table")
    sp.set_defaults(func=cmd_bounds)

    sp = sub.add_parser("counterexample",
                        help="replay the legacy generator's 11-vertex failure")
    sp.set_defaults(func=cmd_counterexample)

    sp = sub.add_parser("gap", help="radius-2 edge surcharge on the ternary family")
    sp.add_argument("--k", type=int, required=True)
    sp.set_defaults(func=cmd_gap)

    sp = sub.add_parser("balance", help="check the balance axioms of a tree")
    sp.add_argument("--family", choices=["binary", "ternary-typed"],
                    default="ternary-typed")
    sp.add_argument("--k", type=int, default=3)
    sp.add_argument("--tree")
    sp.set_defaults(func=cmd_balance)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
