"""Sparse universal graphs for trees: generators, constructive embeddings,
and exhaustive verification."""

from .tree_core import (RootedTree, Forest, TreeError, build_tree,
                        nearest_left_cousin, ith_ancestor, to_parens,
                        from_parens, to_parent_csv, from_parent_csv, parse_tree)
from .graph_gen import (GeneratedDigraph, UndirectedGraph, generate,
                        underlying, prefix_counts, merged_tree, to_dot, to_json)
from .balanced_trees import (TypedTree, BalanceReport, perfect_binary,
                             typed_ternary, descendant_count, validate_balance)
from .decomposition import (ComponentCollection, DecompositionBugError,
                            classify, find_bounded_components,
                            find_feasible_or_critical)
from .embedder import (Embedding, EmbeddingBugError, embed, verify_embedding,
                       host_graph_for, phi2_window)
from .oracle import (CanonicalTreeSet, enumerate_free_trees, brute_embed,
                     is_universal, is_interval_universal, degree_witness,
                     free_tree_automorphisms, vertex_orbit_reps)
from .analytics import (BoundReport, BoundRow, bound_table_ternary,
                        bound_table_binary, reproduce_counterexample,
                        edge_gap_summary)

__version__ = "0.1.0"
