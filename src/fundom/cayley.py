"""The generator graph on a representative list, in PSL2(Z).

Vertices are the PSL2-normalized matrices of the list; two vertices are
adjacent when one is the other times S, T or T^-1.  Connectivity of
this graph certifies connectivity of the corresponding union of
translated triangles.

The neighbours of m = (a, b, c, d) are found on plain ints, in the order
m*S = (b, -a, d, -c), m*T = (a, a + b, c, c + d), m*T^-1 = (a, b - a,
c, d - c).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .cosets import CosetList
from .words import GroupWord, Mat2, S_MAT, psl_normalize, psl_sign


class DuplicateVertex(ValueError):
    """Two representatives normalize to the same PSL2 element."""


@dataclass
class CayleyGraph:
    words: list[GroupWord]
    mats: list[Mat2]  # PSL2-normalized
    adj: list[list[int]]

    def __len__(self):
        return len(self.mats)

    def default_root(self) -> int:
        """First vertex equal to S in PSL2, else vertex 0."""
        s_key = psl_normalize(S_MAT).entries()
        for i, m in enumerate(self.mats):
            if m.entries() == s_key:
                return i
        return 0


@dataclass
class SpanningTree:
    root: int
    parent: dict[int, int]  # vertex -> parent vertex, root excluded

    def edges(self):
        return [(p, v) for v, p in self.parent.items()]

    def depth(self) -> int:
        """Longest root path; iterative, so any height works."""
        depths = {self.root: 0}
        for v in self.parent:
            path = []
            while v not in depths:
                path.append(v)
                v = self.parent[v]
            for u in reversed(path):
                depths[u] = depths[v] + 1
                v = u
        return max(depths.values())


def build_graph(coset_list: CosetList) -> CayleyGraph:
    """Adjacency by hashing each vertex times S, T, T^-1 against the
    vertex set; O(n) instead of pairwise testing."""
    mats = []
    index = {}
    for w, m in zip(coset_list.reps, coset_list.mats):
        nm = psl_normalize(m)
        key = nm.entries()
        if key in index:
            raise DuplicateVertex(
                f"{w} and {coset_list.reps[index[key]]} coincide in PSL2"
            )
        index[key] = len(mats)
        mats.append(nm)
    adj = [[] for _ in mats]
    for i, (a, b, c, d) in enumerate(index):  # keys in vertex order
        for a2, b2, c2, d2 in (
            (b, -a, d, -c), (a, a + b, c, c + d), (a, b - a, c, d - c)
        ):
            s = psl_sign(a2, b2, c2, d2)
            j = index.get((s * a2, s * b2, s * c2, s * d2))
            if j is not None and j != i and j not in adj[i]:
                adj[i].append(j)
    return CayleyGraph(list(coset_list.reps), mats, adj)


def is_connected(g: CayleyGraph) -> bool:
    if len(g) == 0:
        return True
    return len(_bfs(g, 0).parent) == len(g) - 1


def spanning_tree(g: CayleyGraph, root: int | None = None) -> SpanningTree:
    """BFS tree of the root's component, deterministic in list order."""
    if root is None:
        root = g.default_root()
    return _bfs(g, root)


def _bfs(g: CayleyGraph, root: int) -> SpanningTree:
    parent: dict[int, int] = {}
    seen = {root}
    queue = deque([root])
    while queue:
        v = queue.popleft()
        for w in sorted(g.adj[v]):
            if w not in seen:
                seen.add(w)
                parent[w] = v
                queue.append(w)
    return SpanningTree(root, parent)


def to_dot(
    g: CayleyGraph, tree: SpanningTree | None = None, tree_only: bool = False
) -> str:
    """DOT rendering with word labels; tree edges drawn bold."""
    lines = ["graph cayley {"]
    for i, w in enumerate(g.words):
        lines.append(f'  v{i} [label="{w}"];')
    tree_edges = set()
    if tree is not None:
        tree_edges = {frozenset(e) for e in tree.edges()}
    for i in range(len(g)):
        for j in g.adj[i]:
            if j <= i:
                continue
            in_tree = frozenset((i, j)) in tree_edges
            if tree_only and not in_tree:
                continue
            style = ' [style=bold]' if in_tree and not tree_only else ""
            lines.append(f"  v{i} -- v{j}{style};")
    lines.append("}")
    return "\n".join(lines) + "\n"
