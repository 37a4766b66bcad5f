import json
import math

import pytest

import fundom
from fundom.cosets import CosetList, Group, build, theta0, verify
from fundom.domain import (
    RHO,
    RenderOptions,
    cusp_class_rep,
    cusp_equivalent,
    cusp_table,
    cusp_tables_csv,
    cusp_tables_text,
    cusp_width,
    render_json,
    render_svg,
    triangle_vertices,
)
from fundom.residues import Level
from fundom.words import Cusp, cusp, evaluate, mobius_cusp, parse_word

from oracles import (
    cusps_of,
    list_cusp_classes,
    make_word,
    matrix_search_witness,
    oracle_cusp_equivalent,
    oracle_width,
    render_json_doc,
    st,
    word_identity,
)

L30 = Level(30)


def test_triangle_of_identity():
    m = evaluate(str(word_identity()))
    v1, v2, vc = triangle_vertices(m)
    assert abs(v1 - RHO) < 1e-12
    assert abs(v2 - RHO * RHO) < 1e-12
    assert vc is None
    assert mobius_cusp(m) == Cusp(1, 0)


def test_triangle_of_s():
    m = evaluate(str(make_word(("S",))))
    assert mobius_cusp(m) == Cusp(0, 1)
    assert triangle_vertices(m)[2] == 0
    # S maps rho to -1/rho = rho^2 - 1 ... check numerically
    z = triangle_vertices(m)[0]
    assert abs(z - (-1 / RHO)) < 1e-12


def test_triangle_cusp_minus_one_over_j():
    for j in (2, 3, -2, 5):
        m = evaluate(str(st(j) * st(1)))
        assert mobius_cusp(m) == cusp(-1, j)
        assert triangle_vertices(m)[2] == -1 / j


def test_triangle_vertices_distinct():
    for m in theta0(Level(6)).mats:
        zs = triangle_vertices(m)
        finite = [z for z in zs if z is not None]
        for i in range(len(finite)):
            for k in range(i + 1, len(finite)):
                assert abs(finite[i] - finite[k]) > 1e-9


def test_cusps_of_theta0():
    lst = theta0(L30)
    cusps = cusps_of(lst)
    assert cusps.count(cusp(-1, 3)) == 4  # M_3 + 1
    assert cusps.count(Cusp(0, 1)) == 30  # one per ST^i
    assert cusps.count(Cusp(1, 0)) == 1  # j = 0 (the word SS)


def test_cusp_equivalent_paper_examples():
    assert cusp_equivalent(cusp(-1, 4), cusp(1, 2), L30)
    assert cusp_equivalent(cusp(-1, 5), cusp(1, 5), L30)
    assert not cusp_equivalent(cusp(-1, 5), cusp(1, 2), L30)
    for c in (cusp(-1, 7), Cusp(1, 0), Cusp(0, 1)):
        assert cusp_equivalent(c, c, L30)


def test_cusp_rep_table_n30():
    # the paper's "cusp rep" row, keyed by j
    expected = {
        2: "1/2", 3: "1/3", 4: "1/2", 5: "1/5", 6: "1/6", 8: "1/2",
        9: "1/3", 10: "1/10", 12: "1/6", 14: "1/2", 15: "1/15",
        -14: "1/2", -12: "1/6", -10: "1/10", -9: "1/3", -8: "1/2",
        -6: "1/6", -5: "1/5", -4: "1/2", -3: "1/3", -2: "1/2",
    }
    for j, rep in expected.items():
        assert str(cusp_class_rep(cusp(-1, j), L30)) == rep


def test_cusp_table_n30():
    table = cusp_table(L30)
    got = {str(cl.rep): cl.width for cl in table.classes}
    assert got == {
        "1/2": 15, "1/3": 10, "1/5": 6, "1/6": 5, "1/10": 3,
        "1/15": 2, "oo": 1, "0/1": 30,
    }
    assert table.total_width() == 72


def test_cusp_table_order_follows_paper():
    reps = [str(cl.rep) for cl in cusp_table(L30).classes]
    assert reps == ["1/2", "1/3", "1/5", "1/6", "1/10", "1/15", "oo", "0/1"]


def test_cusp_table_n4():
    table = cusp_table(Level(4))
    got = {str(cl.rep): cl.width for cl in table.classes}
    assert got == {"oo": 1, "0/1": 4, "1/2": 1}


def test_cusp_table_matches_the_list_it_summarises():
    for n in range(2, 201):
        lvl = Level(n)
        table = cusp_table(lvl)
        got = {cl.rep: (cl.width, cl.members) for cl in table.classes}
        assert got == list_cusp_classes(lvl), n
        members = [c for cl in table.classes for c in cl.members]
        assert len(members) == len(set(members))
        assert set(members) == set(cusps_of(theta0(lvl))), n


def test_cusp_table_builds_theta0_once(monkeypatch):
    # the benchmark's traced run expects a cosets.theta0 call nested
    # under cusp_table, so the table is taken from the list it summarises
    calls = []

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return wrapped

    for module in (fundom.cosets, fundom.words, fundom.domain):
        for name in ("theta0", "evaluate"):
            if hasattr(module, name):
                fn = getattr(module, name)
                monkeypatch.setattr(module, name, counting(name, fn))
    table = cusp_table(Level(84))
    assert table.total_width() == 192
    assert calls.count("theta0") == 1


@pytest.mark.parametrize("tables", [cusp_tables_text, cusp_tables_csv])
def test_cusp_tables_build_the_m_table_once(tables, monkeypatch):
    calls = []
    real = fundom.projline.m_table

    def counting(level):
        calls.append(level.n)
        return real(level)

    for module in (fundom.projline, fundom.cosets, fundom.domain):
        if hasattr(module, "m_table"):
            monkeypatch.setattr(module, "m_table", counting)
    expected = tables(Level(120))
    monkeypatch.undo()
    assert calls == [120]
    assert tables(Level(120)) == expected


def test_width_examples():
    assert cusp_width(Cusp(1, 0), L30) == 1
    assert cusp_width(Cusp(0, 1), L30) == 30
    for n in (4, 6, 8, 30):
        lvl = Level(n)
        assert cusp_width(Cusp(1, 0), lvl) == 1
        assert cusp_width(Cusp(0, 1), lvl) == n


def test_width_against_stabilizer_oracle():
    for n in (2, 4, 6, 8, 12, 30):
        lvl = Level(n)
        seen = set(cusps_of(theta0(lvl))) | {Cusp(1, 0)}
        for c in seen:
            assert cusp_width(c, lvl) == oracle_width(c, lvl)


def test_equivalence_against_double_coset_oracle():
    for n in range(2, 31):
        lvl = Level(n)
        seen = sorted(set(cusps_of(theta0(lvl))) | {Cusp(1, 0)})
        for c1 in seen:
            for c2 in seen:
                assert cusp_equivalent(c1, c2, lvl) == oracle_cusp_equivalent(
                    c1, c2, lvl
                ), (n, c1, c2)


def test_equivalence_witnessed_by_matrix_search():
    # positive pairs from the N=30 table have small witnesses in
    # Gamma_0(30); grow the bound until each one is found
    pairs = [
        (cusp(-1, 4), cusp(1, 2)),
        (cusp(-1, 9), cusp(1, 3)),
        (cusp(-1, 15), cusp(1, 15)),
        (cusp(-1, 12), cusp(1, 6)),
    ]
    for c1, c2 in pairs:
        witness = None
        for bound in (8, 32, 128, 256):
            witness = matrix_search_witness(c1, c2, L30, bound)
            if witness is not None:
                break
        assert witness is not None, (c1, c2)
        assert witness.c % 30 == 0


def test_class_multiplicities_sum_to_width():
    # per class, the number of Theta_0 cusps landing in it equals its
    # width; this is the paper's M_j + 1 bookkeeping
    for n in (6, 8, 12, 30):
        lvl = Level(n)
        table = cusp_table(lvl)
        cusps = cusps_of(theta0(lvl))
        for cl in table.classes:
            count = sum(
                1 for c in cusps if cusp_equivalent(c, cl.rep, lvl)
            )
            assert count == cl.width, (n, str(cl.rep))


def test_widths_sum_to_index():
    from fundom.projline import psi

    for n in (2, 4, 6, 8, 12, 30):
        lvl = Level(n)
        assert cusp_table(lvl).total_width() == psi(lvl)


def test_render_svg_counts_and_determinism():
    lst = theta0(Level(6))
    verify(lst)
    svg1 = render_svg(lst, RenderOptions(labels=True))
    svg2 = render_svg(lst, RenderOptions(labels=True))
    assert svg1 == svg2
    assert svg1.count("<path ") == 12
    assert svg1.count("<text ") == 12
    assert "ST^3ST" in svg1


def test_render_options_reject_a_bad_y_max():
    for y_max in (math.nan, math.inf, -math.inf, -1.0, 0.0, 1e308):
        with pytest.raises(ValueError):
            RenderOptions(y_max=y_max)
    assert RenderOptions(y_max=1e-3).y_max == 1e-3


def test_render_svg_single_triangle():
    from fundom.cosets import CosetList, Group

    lst = CosetList(Level(6), Group.GAMMA0, [str(word_identity())])
    svg = render_svg(lst)
    assert svg.count("<path ") == 1


def test_render_svg_n30():
    lst = theta0(L30)
    assert render_svg(lst).count("<path ") == 72


def test_render_json_schema():
    lst = theta0(Level(6))
    doc = json.loads(render_json(lst))
    assert doc["N"] == 6 and doc["group"] == "gamma0"
    assert len(doc["triangles"]) == 12
    for rec in doc["triangles"]:
        assert set(rec) == {"word", "cusp", "vertices"}
        assert len(rec["vertices"]) == 3
        for v in rec["vertices"]:
            if v["type"] == "cusp":
                assert set(v) == {"type", "p", "q"}
            else:
                assert set(v) == {"type", "matrix", "base"}
                assert v["base"] in ("rho", "rho2")


@pytest.mark.parametrize("group", list(Group))
def test_render_json_is_the_standard_encoders_text(group):
    for n in range(2, 13):
        lst = build(Level(n), group)
        assert render_json(lst) == json.dumps(render_json_doc(lst), indent=1)


@pytest.mark.parametrize("words", [[], ["-ST^2"], ["I", "-I", "T^-12S"]])
def test_render_json_of_short_lists_is_the_standard_encoders_text(words):
    lst = CosetList(Level(7), Group.GAMMA1, [parse_word(w) for w in words])
    want = json.dumps(render_json_doc(lst), indent=1)
    assert render_json(lst) == want
    if not words:
        assert '"triangles": []' in want


def test_render_json_n30_count():
    doc = json.loads(render_json(theta0(L30)))
    assert len(doc["triangles"]) == 72


def test_adjacent_triangles_share_edge():
    # adjacent graph vertices give triangles sharing two vertices
    from fundom.cayley import build_graph

    lvl = Level(6)
    lst = theta0(lvl)
    g = build_graph(lst)
    tris = [triangle_vertices(m) for m in lst.mats]

    def vertex_set(zs):
        out = set()
        for z in zs:
            out.add("oo" if z is None else (round(z.real, 9), round(z.imag, 9)))
        return out

    for i in range(len(g)):
        for j in g.adj[i]:
            shared = vertex_set(tris[i]) & vertex_set(tris[j])
            assert len(shared) == 2, (str(g.words[i]), str(g.words[j]))


def test_cusp_tables_text_n30():
    text = cusp_tables_text(L30)
    assert "3\t-1/3\t4\t1/3" in text
    assert "1/2\t15" in text
    assert "total\t72" in text
    csv = cusp_tables_csv(L30)
    assert "3,-1/3,4,1/3" in csv
    assert "1/2,15,," in csv


def test_unlabelled_svg_reads_no_word():
    lst = build(Level(6), Group.GAMMA_FULL)
    svg = render_svg(lst)
    assert lst._reps is None
    labelled = render_svg(lst, RenderOptions(labels=True))
    assert labelled.count("<text ") == len(lst) == 72
    # the labels are the only difference
    kept = [line for line in labelled.splitlines() if "<text " not in line]
    assert kept == svg.splitlines()
