"""The generator graph on a representative list, in PSL2(Z).

Vertices are the PSL2-normalized matrices of the list, as 4-tuples
(a, b, c, d); two vertices are adjacent when one is the other times S,
T or T^-1.  Connectivity of this graph certifies connectivity of the
corresponding union of translated triangles.

The neighbours of m = (a, b, c, d) are found on plain ints, in the order
m*S = (b, -a, d, -c), m*T = (a, a + b, c, c + d), m*T^-1 = (a, b - a,
c, d - c).  For a normalized m, m*T and m*T^-1 keep (c, d) and so stay
normalized, and m*S is normalized exactly when d > 0.  S, T and T^-1
move every element of PSL2(Z), and to three different elements, so the
graph has no loops and no repeated edges.
"""

from __future__ import annotations

from functools import cached_property

from .cosets import CosetList
from .words import GroupWord


class DuplicateVertex(ValueError):
    """Two representatives normalize to the same PSL2 element."""


_S_KEY = (0, -1, 1, 0)  # S, PSL2-normalized


class CayleyGraph:
    """The S, T and T^-1 neighbours of vertex i are s_nbr[i], t_nbr[i]
    and u_nbr[i], each -1 when that product is not in the list."""

    def __init__(self, coset_list: CosetList, keys: list[tuple],
                 s_nbr: list[int], t_nbr: list[int], u_nbr: list[int]):
        self.coset_list = coset_list
        self.keys = keys  # PSL2-normalized
        self.s_nbr, self.t_nbr, self.u_nbr = s_nbr, t_nbr, u_nbr

    @property
    def words(self) -> list[GroupWord]:
        """The word of each vertex, read from the list only when asked:
        a Theta(N) list builds its words on first read."""
        return self.coset_list.reps

    def __len__(self):
        return len(self.keys)

    @cached_property
    def adj(self) -> list[list[int]]:
        """The neighbours of each vertex, in S, T, T^-1 order."""
        return [
            [j for j in nbrs if j >= 0]
            for nbrs in zip(self.s_nbr, self.t_nbr, self.u_nbr)
        ]


class SpanningTree:
    __slots__ = ("root", "parent")

    def __init__(self, root: int, parent: dict[int, int]):
        self.root = root
        self.parent = parent  # vertex -> parent vertex, root excluded

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
    # as det = 1, the first nonzero of (c, d, a, b) is c, or d when
    # c = 0; a Mat2 with that entry positive is its own key
    keys = [
        m if (m[2] or m[3]) > 0 else (-m[0], -m[1], -m[2], -m[3])
        for m in coset_list.mats
    ]
    index = dict(zip(keys, range(len(keys))))
    if len(index) < len(keys):
        _raise_duplicate(coset_list.reps, keys)
    get = index.get
    s_nbr = [
        get((b, -a, d, -c) if d > 0 else (-b, a, -d, c), -1)
        for a, b, c, d in keys
    ]
    t_nbr = [get((a, a + b, c, c + d), -1) for a, b, c, d in keys]
    # the T^-1 neighbour of i*T is i
    u_nbr = [-1] * len(keys)
    for i, j in enumerate(t_nbr):
        if j >= 0:
            u_nbr[j] = i
    return CayleyGraph(coset_list, keys, s_nbr, t_nbr, u_nbr)


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
    s_nbr, t_nbr, u_nbr = g.s_nbr, g.t_nbr, g.u_nbr
    seen = bytearray(n + 1)
    seen[-1] = 1  # -1, "no neighbour", counts as seen
    seen[0] = 1
    stack = [0]
    push = stack.append
    while stack:
        v = stack.pop()
        w = s_nbr[v]
        if not seen[w]:
            seen[w] = 1
            push(w)
        w = t_nbr[v]
        if not seen[w]:
            seen[w] = 1
            push(w)
        w = u_nbr[v]
        if not seen[w]:
            seen[w] = 1
            push(w)
    return 0 not in seen


def spanning_tree(g: CayleyGraph) -> SpanningTree:
    """BFS tree of the root's component, deterministic in list order.
    The root is the first vertex equal to S in PSL2, else vertex 0; an
    empty graph gives a tree with no edges."""
    if not len(g):
        return SpanningTree(0, {})
    try:
        root = g.keys.index(_S_KEY)
    except ValueError:
        root = 0
    s_nbr, t_nbr, u_nbr = g.s_nbr, g.t_nbr, g.u_nbr
    parent: dict[int, int] = {}
    seen = bytearray(len(g) + 1)
    seen[-1] = 1  # -1, "no neighbour", counts as seen
    seen[root] = 1
    queue = [root]
    push = queue.append
    for v in queue:  # the loop reaches the vertices appended to queue
        # the neighbours in index order, by three compare-and-swaps
        x, y, z = s_nbr[v], t_nbr[v], u_nbr[v]
        if x > y:
            x, y = y, x
        if y > z:
            y, z = z, y
            if x > y:
                x, y = y, x
        if not seen[x]:
            seen[x] = 1
            parent[x] = v
            push(x)
        if not seen[y]:
            seen[y] = 1
            parent[y] = v
            push(y)
        if not seen[z]:
            seen[z] = 1
            parent[z] = v
            push(z)
    return SpanningTree(root, parent)


def to_dot(g: CayleyGraph, tree: SpanningTree, tree_only: bool = False) -> str:
    """DOT rendering with word labels; tree edges drawn bold."""
    lines = ["graph cayley {"]
    for i, w in enumerate(g.words):
        lines.append(f'  v{i} [label="{w}"];')
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
