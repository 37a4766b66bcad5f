import pytest

from fundom.cayley import (
    DuplicateVertex,
    SpanningTree,
    build_graph,
    is_connected,
    spanning_tree,
    to_dot,
)
from fundom.cosets import (
    CosetList,
    Group,
    build,
    theta0,
    theta1,
    theta_full,
)
from fundom.residues import Level
from fundom.words import S_MAT, T_MAT, Mat2, evaluate

from oracles import gamma1_quotient_reps, make_word, psl_normalize, st


def list_of(words, n=6, group=Group.GAMMA0):
    """A list of word strings, or of reference words as their strings."""
    return CosetList(Level(n), group, list(map(str, words)))


def test_single_edge():
    g = build_graph(list_of([make_word(("S",)), st(1)]))
    assert g.adj == [[1], [0]]


def test_isolated_vertices():
    g = build_graph(list_of([make_word(("S",)), st(2)]))
    assert g.adj == [[], []]
    assert not is_connected(g)


def test_duplicate_vertex_raises():
    s = make_word(("S",))
    neg_s = s * s * s  # S^3 = -S, same PSL2 element
    with pytest.raises(DuplicateVertex):
        build_graph(list_of([s, neg_s]))


def test_adjacency_symmetric():
    for n in (6, 8, 13):
        g = build_graph(theta0(Level(n)))
        for i, nbrs in enumerate(g.adj):
            assert i not in nbrs  # no self loops
            for j in nbrs:
                assert i in g.adj[j]


def test_theta0_connected():
    for n in range(2, 31):
        g = build_graph(theta0(Level(n)))
        assert len(g) == len(theta0(Level(n)))
        assert is_connected(g)


def test_theta1_8_connected():
    assert is_connected(build_graph(theta1(Level(8))))


def test_bare_quotient_list_disconnected():
    reps = gamma1_quotient_reps(Level(8))
    g = build_graph(list_of(reps, n=8, group=Group.GAMMA1))
    assert len(g) == 2
    assert not is_connected(g)


def test_spanning_tree_theta0_6():
    g = build_graph(theta0(Level(6)))
    tree = spanning_tree(g)
    assert str(g.words[tree.root]) == "S"
    assert len(tree.parent) == 11  # 12 vertices, 11 tree edges
    assert len({frozenset(e) for e in tree.parent.items()}) == 11


def test_default_root_is_s_else_vertex_0():
    def root(words):
        return spanning_tree(build_graph(list_of(words))).root

    assert root([st(1), make_word(("S",))]) == 1
    assert root([st(1), make_word(("S",), sign=-1)]) == 1
    assert root([st(1), st(2)]) == 0


def test_spanning_tree_singleton():
    g = build_graph(list_of([make_word(("S",))]))
    tree = spanning_tree(g)
    assert tree.parent == {} and tree.root == 0


def test_spanning_tree_depth_bound():
    lvl = Level(30)
    g = build_graph(theta0(lvl))
    tree = spanning_tree(g)
    mt_max = 3  # max M_j at N = 30
    assert tree.depth() <= lvl.n1 + 1 + mt_max + 1


def test_spanning_tree_depth_of_deep_path():
    # a 5000-long path listed deepest-first, past any recursion limit
    tree = SpanningTree(0, {v: v - 1 for v in range(5000, 0, -1)})
    assert tree.depth() == 5000
    branched = SpanningTree(0, {3: 2, 2: 0, 1: 0, 4: 1, 5: 2})
    assert branched.depth() == 2
    # the same shapes with every parent listed before its children
    bfs_path = SpanningTree(0, {v: v - 1 for v in range(1, 5001)})
    assert bfs_path.depth() == 5000
    bfs_branched = SpanningTree(0, {1: 0, 2: 0, 4: 1, 5: 2, 3: 2})
    assert bfs_branched.depth() == 2


def _walked_depth(tree):
    """Depth of each vertex by walking up to the root."""
    depth = {}
    for v in tree.parent:
        d, u = 0, v
        while u != tree.root:
            u, d = tree.parent[u], d + 1
        depth[v] = d
    return max(depth.values(), default=0)


@pytest.mark.parametrize(
    "group, n", [(Group.GAMMA0, 30), (Group.GAMMA1, 21), (Group.GAMMA_FULL, 9)]
)
def test_depth_of_bfs_tree_matches_walk(group, n):
    tree = spanning_tree(build_graph(build(Level(n), group)))
    assert tree.depth() == _walked_depth(tree)


def _reference_adj(lst):
    """Adjacency by Mat2 products with S, T, T^-1 and psl_normalize."""
    mats = [psl_normalize(evaluate(w)) for w in lst.reps]
    index = {m.entries(): i for i, m in enumerate(mats)}
    adj = []
    for i, m in enumerate(mats):
        nbrs = []
        for gen in (S_MAT, T_MAT, Mat2(1, -1, 0, 1)):
            j = index.get(psl_normalize(m * gen).entries())
            if j is not None and j != i and j not in nbrs:
                nbrs.append(j)
        adj.append(nbrs)
    return adj


@pytest.mark.parametrize(
    "group, n",
    [(Group.GAMMA0, n) for n in (2, 6, 30, 64)]
    + [(Group.GAMMA1, n) for n in (2, 8, 21, 30)]
    + [(Group.GAMMA_FULL, n) for n in (2, 6, 9, 12)],
)
def test_adjacency_matches_matrix_products(group, n):
    lst = build(Level(n), group)
    g = build_graph(lst)
    assert g.adj == _reference_adj(lst)
    assert g.keys == [psl_normalize(evaluate(w)).entries() for w in lst.reps]
    assert all(type(k) in (tuple, Mat2) and len(k) == 4 for k in g.keys)
    assert (g.s_nbr, g.t_nbr, g.u_nbr) == _reference_nbrs(lst)
    for i in range(len(g)):
        if g.t_nbr[i] >= 0:
            assert g.u_nbr[g.t_nbr[i]] == i
        if g.s_nbr[i] >= 0:
            assert g.s_nbr[g.s_nbr[i]] == i  # S^2 = -I is I in PSL2


def _reference_nbrs(lst):
    """The S, T and T^-1 neighbour of every vertex, -1 for none, by
    Mat2 products and psl_normalize."""
    mats = [psl_normalize(evaluate(w)) for w in lst.reps]
    index = {m: i for i, m in enumerate(mats)}
    return tuple(
        [index.get(psl_normalize(m * gen), -1) for m in mats]
        for gen in (S_MAT, T_MAT, T_MAT.inverse())
    )


def test_adj_is_built_once_per_graph():
    g = build_graph(theta1(Level(12)))
    adj = g.adj
    assert [g.adj[i] for i in range(len(g))] == adj
    assert g.adj is adj


def _reached_by_bfs(g):
    """Vertices reached from vertex 0, by a plain set-based BFS."""
    seen, frontier = {0}, [0]
    while frontier:
        frontier = [w for v in frontier for w in g.adj[v] if w not in seen]
        seen.update(frontier)
    return seen


@pytest.mark.parametrize(
    "lst",
    [
        theta0(Level(30)),
        theta1(Level(12)),
        build(Level(6), Group.GAMMA_FULL),
        list_of(gamma1_quotient_reps(Level(8)), n=8, group=Group.GAMMA1),
        list_of(gamma1_quotient_reps(Level(13)), n=13, group=Group.GAMMA1),
        list_of(theta0(Level(12)).reps[::2], n=12),
        list_of([make_word(("S",)), st(2), st(3)]),
        list_of([st(2), st(3), make_word(("S",))]),
        list_of([]),
    ],
    ids=[
        "theta0-30", "theta1-12", "thetaN-6", "quotient-8", "quotient-13",
        "half-theta0-12", "S-ST2-ST3", "ST2-ST3-S", "empty",
    ],
)
def test_is_connected_agrees_with_bfs(lst):
    g = build_graph(lst)
    reached = len(_reached_by_bfs(g)) if len(g) else 0
    assert is_connected(g) == (reached == len(g))


def test_spanning_tree_of_empty_graph():
    tree = spanning_tree(build_graph(list_of([])))
    assert tree.parent == {}
    assert tree.depth() == 0


def test_one_checked_matrix_per_word(monkeypatch):
    lst = build(Level(12), Group.GAMMA1)
    words = lst.reps + [str(make_word(("S",), sign=-1)), str(make_word())]
    built = []
    check = Mat2.__new__

    def counting(cls, *entries):
        built.append(entries)
        return check(cls, *entries)

    monkeypatch.setattr(Mat2, "__new__", counting)
    for w in words:
        evaluate(w)
    assert len(built) == len(words)
    built.clear()
    lst._mats = None
    assert len(lst.mats) == len(lst)
    assert built == []  # the list's matrices are plain tuples
    g = build_graph(lst)
    # half of these keys are negated representatives, and still no
    # matrix is built for them
    assert any(k != m for k, m in zip(g.keys, lst.mats))
    assert built == []


def test_explicit_paper_paths_exist():
    from fundom.projline import m_table

    lvl = Level(14)
    g = build_graph(theta0(lvl))
    index = {str(w): i for i, w in enumerate(g.words)}

    def adjacent(w1, w2):
        return index[w2] in g.adj[index[w1]]

    # (ST^-N1, ..., S, ..., ST^N2) is a path
    for i in range(-lvl.n1, lvl.n2):
        assert adjacent(str(st(i)), str(st(i + 1)))
    # (ST^j S, ST^j ST, ..., ST^j ST^Mj) is a path hanging off ST^j
    for j, mj in m_table(lvl).entries.items():
        assert adjacent(str(st(j)), str(st(j) * st(0)))
        for m in range(mj):
            assert adjacent(str(st(j) * st(m)), str(st(j) * st(m + 1)))


def test_spanning_tree_is_tree():
    g = build_graph(theta1(Level(8)))
    tree = spanning_tree(g)
    assert len(tree.parent) == len(g) - 1
    # every non-root vertex has exactly one parent and edges are graph edges
    for v, p in tree.parent.items():
        assert p in g.adj[v]


def test_to_dot():
    g = build_graph(theta0(Level(6)))
    tree = spanning_tree(g)
    dot = to_dot(g, tree)
    assert dot.startswith("graph cayley {")
    assert 'label="ST^3ST"' in dot
    assert "[style=bold]" in dot
    tree_only = to_dot(g, tree, tree_only=True)
    assert tree_only.count(" -- ") == 11


@pytest.mark.parametrize(
    "lst",
    [theta0(Level(30)), theta1(Level(12)), build(Level(6), Group.GAMMA_FULL),
     list_of(theta0(Level(12)).reps[::2], n=12)],
    ids=["theta0-30", "theta1-12", "thetaN-6", "half-theta0-12"],
)
def test_dot_draws_exactly_the_tree_edges_bold(lst):
    g = build_graph(lst)
    tree = spanning_tree(g)
    edges = {frozenset(e) for e in tree.parent.items()}
    drawn = {}
    for line in to_dot(g, tree).splitlines():
        if " -- " in line:
            i, _, rest = line.strip().partition(" -- ")
            j = rest.split(" ")[0].rstrip(";")
            drawn[frozenset((int(i[1:]), int(j[1:])))] = "bold" in rest
    assert {e for e, bold in drawn.items() if bold} == edges
    assert len(drawn) == sum(map(len, g.adj)) // 2
    tree_only = to_dot(g, tree, tree_only=True)
    assert tree_only.count(" -- ") == len(edges)


def test_graph_words_are_the_lists_words_read_when_needed():
    lst = theta_full(Level(6))
    g = build_graph(lst)
    assert lst._reps is None  # building the graph read no word
    assert g.words is lst.reps
    dot = to_dot(g, spanning_tree(g))
    assert dot.count("label=") == len(lst) == 72
