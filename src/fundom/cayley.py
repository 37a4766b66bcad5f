"""The generator graph on a representative list, in PSL2(Z).

Vertices are the PSL2-normalized matrices of the list, as 4-tuples
(a, b, c, d); two vertices are adjacent when one is the other times S,
T or T^-1.  Connectivity of this graph certifies connectivity of the
corresponding union of translated triangles.

The neighbours of m = (a, b, c, d) are found on plain ints, in the order
m*S = (b, -a, d, -c), m*T = (a, a + b, c, c + d), m*T^-1 = (a, b - a,
c, d - c).  For a normalized m, m*T and m*T^-1 keep (c, d) and so stay
normalized, and m*S is normalized exactly when d > 0.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cosets import CosetList
from .words import GroupWord


class DuplicateVertex(ValueError):
    """Two representatives normalize to the same PSL2 element."""


_S_KEY = (0, -1, 1, 0)  # S, PSL2-normalized


@dataclass
class CayleyGraph:
    words: list[GroupWord]
    keys: list[tuple]  # PSL2-normalized (a, b, c, d)
    adj: list[list[int]]

    def __len__(self):
        return len(self.keys)

    def default_root(self) -> int:
        """First vertex equal to S in PSL2, else vertex 0."""
        try:
            return self.keys.index(_S_KEY)
        except ValueError:
            return 0


@dataclass
class SpanningTree:
    root: int
    parent: dict[int, int]  # vertex -> parent vertex, root excluded

    def edges(self):
        return [(p, v) for v, p in self.parent.items()]

    def depth(self) -> int:
        """Longest root path; iterative, so any height works.

        In BFS order every parent comes before its children, so one
        pass suffices; other orders walk up to a vertex of known depth.
        """
        depths = {self.root: 0}
        for v, p in self.parent.items():
            if p in depths:
                depths[v] = depths[p] + 1
                continue
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
    # psl_sign: as det = 1, the sign of c, or of d when c = 0
    keys = [
        (m.a, m.b, m.c, m.d) if (m.c or m.d) > 0
        else (-m.a, -m.b, -m.c, -m.d)
        for m in coset_list.mats
    ]
    index = dict(zip(keys, range(len(keys))))
    if len(index) < len(keys):
        _raise_duplicate(coset_list.reps, keys)
    get = index.get
    s_nbr = [
        get((b, -a, d, -c) if d > 0 else (-b, a, -d, c))
        for a, b, c, d in keys
    ]
    t_nbr = [get((a, a + b, c, c + d)) for a, b, c, d in keys]
    # S, T and T^-1 move every element of PSL2(Z), and to three
    # different elements, so no list gets a loop or a repeat.  The lists
    # take S, T, T^-1 neighbours in that order; the T^-1 neighbour of
    # i*T is i.
    adj = [[] if j is None else [j] for j in s_nbr]
    for nbrs, j in zip(adj, t_nbr):
        if j is not None:
            nbrs.append(j)
    for i, j in enumerate(t_nbr):
        if j is not None:
            adj[j].append(i)
    return CayleyGraph(list(coset_list.reps), keys, adj)


def _raise_duplicate(words, keys):
    first = {}
    for w, key in zip(words, keys):
        if key in first:
            raise DuplicateVertex(f"{w} and {first[key]} coincide in PSL2")
        first[key] = w


def is_connected(g: CayleyGraph) -> bool:
    """Flood fill from vertex 0."""
    n = len(g)
    if n == 0:
        return True
    adj = g.adj
    seen = bytearray(n)
    seen[0] = 1
    stack = [0]
    reached = 1
    while stack:
        for w in adj[stack.pop()]:
            if not seen[w]:
                seen[w] = 1
                reached += 1
                stack.append(w)
    return reached == n


def spanning_tree(g: CayleyGraph, root: int | None = None) -> SpanningTree:
    """BFS tree of the root's component, deterministic in list order."""
    if root is None:
        root = g.default_root()
    return _bfs(g, root)


def _bfs(g: CayleyGraph, root: int) -> SpanningTree:
    parent: dict[int, int] = {}
    seen = bytearray(len(g))
    seen[root] = 1
    queue = [root]
    for v in queue:  # the loop reaches the vertices appended to queue
        for w in sorted(g.adj[v]):
            if not seen[w]:
                seen[w] = 1
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
