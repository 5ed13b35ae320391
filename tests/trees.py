"""Tree builders shared by the test modules, so that no test module imports
another."""

from treeverse.balanced_trees import validate_balance
from treeverse.tree_core import RootedTree, from_parens


def path_tree(n):
    return RootedTree([[u + 1] if u + 1 < n else [] for u in range(n)])


def star_tree(n):
    return RootedTree([list(range(1, n))] + [[] for _ in range(n - 1)])


def ordered_trees(n):
    """Every ordered rooted tree on n vertices, in parenthesis form."""
    def forests(m):
        if m == 0:
            yield ""
        for first in range(1, m + 1):
            for head in ordered_trees(first):
                for rest in forests(m - first):
                    yield head + rest
    for inner in forests(n - 1):
        yield "(" + inner + ")"


def balanced_hosts(max_n):
    """Every (2,1)-balanced ordered host with at most max_n vertices, in
    every child order."""
    return [h for n in range(1, max_n + 1)
            for h in map(from_parens, ordered_trees(n))
            if validate_balance(h).ok]
