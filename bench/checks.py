"""Checks of the program's outputs, computed apart from the program.

Nothing here imports `treeverse`.  Trees arrive as per-vertex child lists in
DFS preorder, embeddings as plain dicts and bound tables as CSV or as the
command's plain table, and every check returns a list of problems (empty
when the output is right), so the checks keep working under `python -O`.
"""

from __future__ import annotations

import math

# OEIS A000055: free trees on n unlabeled vertices, n = 0, 1, 2, ...
A000055 = (1, 1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551, 1301, 3159, 7741)

BOUND_HEADER = "family,k,n,edges_total,bound_value,slack"
BOUND_TEXT_HEADER = ["family", "k", "n", "edges", "bound", "slack"]
# Depths at which every bound row is also recounted pair by pair (O(n^2)).
OWN_COUNT_MAX_K = {"ternary-typed": 5, "binary": 7}


class RuleReading:
    """The four generation rules at a given radius, read from a rooted tree.

    `children` lists each vertex's children left to right, with vertices
    numbered in DFS preorder.  Arc u -> w exists when w is
      1. a proper descendant of u;
      2. inside the subtree of a left sibling of u;
      3. inside the subtree of the nearest-left cousin of u's parent;
      4. a descendant at most `radius` levels below u's radius-th ancestor
         (clamped at the root) or below that ancestor's nearest-left cousin.
    Two vertices are adjacent when an arc joins them in either direction.
    """

    def __init__(self, children, radius: int):
        n = len(children)
        parent = [-1] * n
        for u, kids in enumerate(children):
            for c in kids:
                if not (u < c < n) or parent[c] != -1:
                    raise ValueError("child lists are not a tree in preorder")
                parent[c] = u
        if any(parent[u] == -1 for u in range(1, n)):
            raise ValueError("child lists are not a single tree")
        level = [0] * n
        for u in range(1, n):
            level[u] = level[parent[u]] + 1
        size = [1] * n
        for u in range(n - 1, 0, -1):
            size[parent[u]] += size[u]
        left_cousin = [-1] * n
        last_on_level: dict = {}
        for u in range(n):
            left_cousin[u] = last_on_level.get(level[u], -1)
            last_on_level[level[u]] = u
        for u, kids in enumerate(children):
            expect = u + 1
            for c in kids:
                if c != expect:
                    raise ValueError("child lists are not in preorder")
                expect = c + size[c]
        self.n = n
        self.radius = radius
        self.children = [tuple(k) for k in children]
        self.parent = parent
        self.level = level
        self.size = size
        self.left_cousin = left_cousin
        self.anchors = [self._anchors(u) for u in range(n)]

    def _anchors(self, u: int) -> tuple:
        if self.radius == 0:
            return ()
        a = u
        for _ in range(self.radius):
            if self.parent[a] == -1:
                break
            a = self.parent[a]
        lc = self.left_cousin[a]
        return (a,) if lc == -1 else (a, lc)

    def arc(self, u: int, w: int) -> bool:
        if u == w:
            return False
        if u < w < u + self.size[u]:
            return True
        p = self.parent[u]
        if p != -1:
            if p < w < u:
                return True
            lc = self.left_cousin[p]
            if lc != -1 and lc <= w < lc + self.size[lc]:
                return True
        for t in self.anchors[u]:
            if t < w < t + self.size[t] and \
                    self.level[w] - self.level[t] <= self.radius:
                return True
        return False

    def adjacent(self, a: int, b: int) -> bool:
        return self.arc(a, b) or self.arc(b, a)

    def prefix_edge_counts(self) -> list:
        """cum[m] = number of adjacent pairs inside the preorder prefix of size m."""
        cum = [0] * (self.n + 1)
        for b in range(self.n):
            cum[b + 1] = cum[b] + sum(1 for a in range(b) if self.adjacent(a, b))
        return cum

    def second_marker_window(self, guest_size: int) -> bool:
        """The documented window in which the second marker sits at level <= 2:
        the root has two children and size(last child) <= guest size <= n-2,
        with size(last child) >= 2."""
        if len(self.children[0]) != 2:
            return False
        x = self.size[self.children[0][-1]]
        return 2 <= x <= guest_size <= self.n - 2


# -- tree families, built apart from balanced_trees ------------------------


def typed_ternary_children(k: int) -> list:
    """Child lists of the typed ternary tree of depth k: a type-1 vertex gets
    children typed (1, 2), a type-2 vertex (1, 2, 1, 2)."""
    children: list = []
    stack = [(None, 1, 0)]
    while stack:
        parent, vtype, lvl = stack.pop()
        u = len(children)
        children.append([])
        if parent is not None:
            children[parent].append(u)
        if lvl < k:
            kinds = (1, 2) if vtype == 1 else (1, 2, 1, 2)
            stack.extend((u, t, lvl + 1) for t in reversed(kinds))
    return children


def perfect_binary_children(k: int) -> list:
    children: list = []
    stack = [(None, 0)]
    while stack:
        parent, lvl = stack.pop()
        u = len(children)
        children.append([])
        if parent is not None:
            children[parent].append(u)
        if lvl < k:
            stack.extend([(u, lvl + 1), (u, lvl + 1)])
    return children


# -- embed-* -------------------------------------------------------------


def check_embedding(host: RuleReading, guest_children, mapping: dict,
                    x1: int, x2: int) -> list:
    """The mapping is total and injective, its image is the host's preorder
    suffix, every guest edge lands on an adjacent host pair, x1 sits at the
    image's minimum level, and x2 at level <= 2 inside the second-marker
    window."""
    m, n = len(guest_children), host.n
    if set(mapping) != set(range(m)):
        return ["mapping is not total on the guest"]
    image = [mapping[v] for v in range(m)]
    if len(set(image)) != m:
        return ["mapping is not injective"]
    if set(image) != set(range(n - m, n)):
        return ["image is not the host's preorder suffix"]
    problems = []
    for u, kids in enumerate(guest_children):
        for c in kids:
            if not host.adjacent(mapping[u], mapping[c]):
                problems.append(f"guest edge {u}-{c} lands on non-adjacent "
                                f"host pair {mapping[u]}-{mapping[c]}")
    min_level = min(host.level[h] for h in image)
    if host.level[mapping[x1]] != min_level:
        problems.append(f"x1 at level {host.level[mapping[x1]]}, "
                        f"image minimum is {min_level}")
    if host.second_marker_window(m) and host.level[mapping[x2]] > 2:
        problems.append(f"x2 at level {host.level[mapping[x2]]} inside the "
                        "second-marker window")
    return problems


# -- bounds --------------------------------------------------------------


def ternary_bound(n: int) -> float:
    """(14/3) n log3 n + 200 n."""
    return (14 / 3) * n * math.log(n, 3) + 200 * n


def binary_bound(n: int, full_level: bool) -> float:
    """(7/2) n log2 n plus n on full levels, 4n on other prefixes."""
    return 3.5 * n * math.log2(n) + (n if full_level else 4 * n)


def expected_bound_rows(family: str, k_max: int) -> dict:
    """(row family, k) -> host size, for every table the command must print."""
    if family == "binary":
        out = {("binary-full", k): 2 ** (k + 1) - 1 for k in range(k_max + 1)}
        out.update({("binary-prefix", k): 2 ** (k + 1) - 1
                    for k in range(1, k_max + 1)})
        return out
    return {("ternary-typed", k): 3 ** k for k in range(1, k_max + 1)}


class BoundsChecker:
    """Checks `treeverse bounds --format csv` output; recounts the cheap
    depths pair by pair with `RuleReading`, caching the counts per depth."""

    def __init__(self):
        self._cum: dict = {}

    def own_counts(self, family: str, k: int):
        if k > OWN_COUNT_MAX_K[family]:
            return None
        key = (family, k)
        if key not in self._cum:
            if family == "binary":
                reading = RuleReading(perfect_binary_children(k), 0)
            else:
                reading = RuleReading(typed_ternary_children(k), 2)
            self._cum[key] = reading.prefix_edge_counts()
        return self._cum[key]

    def check(self, text: str, family: str, k_max: int, sweep: bool,
              fmt: str = "csv") -> list:
        """`fmt` is the command's `--format`: "csv" or "table"."""
        lines = text.strip().splitlines()
        if fmt == "csv":
            header_ok = bool(lines) and lines[0] == BOUND_HEADER
            split = lambda line: line.split(",")  # noqa: E731
        else:
            header_ok = bool(lines) and lines[0].split() == BOUND_TEXT_HEADER
            split = str.split
        if not header_ok:
            return [f"{fmt} header missing or changed"]
        groups: dict = {}
        try:
            for line in lines[1:]:
                fam, k, n, edges, _bound, _slack = split(line)
                groups.setdefault((fam, int(k)), []).append((int(n), int(edges)))
        except ValueError:
            return [f"malformed row {line!r}"]
        expected = expected_bound_rows(family, k_max)
        if set(groups) != set(expected):
            return [f"tables {sorted(groups)} != expected {sorted(expected)}"]
        problems = []
        for (fam, k), rows in sorted(groups.items()):
            host_n = expected[(fam, k)]
            if rows[-1][0] != host_n or rows[0][0] < 1:
                problems.append(f"{fam} k={k}: prefixes do not end at {host_n}")
            if fam == "binary-full" or (fam == "ternary-typed" and not sweep):
                if len(rows) != 1:
                    problems.append(f"{fam} k={k}: expected one row")
            for (n0, e0), (n1, e1) in zip(rows, rows[1:]):
                if n1 <= n0 or e1 < e0:
                    problems.append(f"{fam} k={k}: count decreases from "
                                    f"n={n0} to n={n1}")
            own = self.own_counts("binary" if fam.startswith("binary") else fam, k)
            for n, edges in rows:
                if fam == "ternary-typed":
                    bound = ternary_bound(n)
                else:
                    bound = binary_bound(n, fam == "binary-full")
                if edges > bound:
                    problems.append(f"{fam} k={k} n={n}: {edges} edges over "
                                    f"the bound {bound:.1f}")
                if own is not None and own[n] != edges:
                    problems.append(f"{fam} k={k} n={n}: {edges} edges, own "
                                    f"count {own[n]}")
        return problems


# -- verify --------------------------------------------------------------


def check_tree_counts(counts: dict) -> list:
    """counts[m] = number of free trees the program enumerated on m vertices."""
    return [f"{c} free trees on {m} vertices, A000055 says {A000055[m]}"
            for m, c in sorted(counts.items()) if A000055[m] != c]


def check_universal(result) -> list:
    ok, witness = result
    if ok is not True or witness is not None:
        return ["a graph the construction promises universal was rejected"]
    return []


def check_degree_witness(result, graph_max_degree: int, n: int) -> list:
    """The graph has no vertex of degree n-1, so it must be rejected with a
    witness tree on n vertices that has a vertex of larger degree."""
    ok, witness = result
    if ok is not False or witness is None:
        return ["a graph without a vertex of full degree was accepted"]
    kids = witness.children
    if len(kids) != n:
        return [f"witness has {len(kids)} vertices, expected {n}"]
    top = max(len(kids[v]) + (v != 0) for v in range(n))
    if top <= graph_max_degree:
        return [f"witness maximum degree {top} does not exceed the graph's "
                f"{graph_max_degree}"]
    return []
