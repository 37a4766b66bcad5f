from math import gcd

import pytest

from fundom import projline
from fundom.cosets import theta0, verify
from fundom.domain import cusp_table
from fundom.projline import (
    NotInH,
    NotOnProjLine,
    PointKind,
    big_m,
    enumerate_p1,
    m_distribution,
    m_table,
    normalize,
    psi,
)
from fundom.residues import Level

from oracles import brute_p1_classes

L30 = Level(30)

# the 20 classes of P^1(Z/30Z) with both coordinates nonunits:
# (M, preferred pair, one member used to reach it)
H30_TABLE = [
    (1, (-2, -3), (2, 3)),
    (2, (-2, -5), (2, 5)),
    (1, (4, 3), (2, 9)),
    (1, (-14, 15), (2, 15)),
    (1, (-8, -9), (2, -9)),
    (1, (-4, -5), (2, -5)),
    (2, (-4, -9), (2, -3)),
    (1, (3, 2), (3, 2)),
    (1, (-3, -4), (3, 4)),
    (2, (3, 5), (3, 5)),
    (3, (3, 8), (3, 8)),
    (1, (-9, -10), (3, 10)),
    (1, (9, 8), (3, -14)),
    (3, (5, 14), (5, 2)),
    (2, (5, 9), (5, 3)),
    (1, (5, 4), (5, 4)),
    (1, (-5, -6), (5, 6)),
    (1, (6, 5), (6, 5)),
    (1, (10, 9), (10, 3)),
    (1, (15, 14), (15, 2)),
]


def test_normalize_examples():
    p = normalize(2, 3, L30)
    assert (p.a.value, p.b.value) == (-2, -3)
    p = normalize(5, 2, L30)
    assert (p.a.value, p.b.value) == (5, 14)
    p = normalize(7, 0, L30)
    assert (p.a.value, p.b.value) == (1, 0)
    assert p.kind is PointKind.AFFINE


def test_normalize_rejects_non_classes():
    with pytest.raises(NotOnProjLine):
        normalize(2, 4, Level(6))
    with pytest.raises(NotOnProjLine):
        normalize(0, 0, Level(5))


def test_big_m_examples():
    assert big_m(3, 8, L30) == 3
    assert big_m(2, 5, L30) == 2
    assert big_m(4, -1, L30) == 0


def test_big_m_rejects_affine():
    with pytest.raises(NotInH):
        big_m(7, 3, L30)


def test_h30_golden_table():
    for m, pr, member in H30_TABLE:
        p = normalize(*member, L30)
        assert (p.a.value, p.b.value) == pr
        assert big_m(*member, L30) == m
        assert p.kind is PointKind.INFINITY


def test_m_table_n6_n8():
    assert m_table(Level(6)).entries == {-2: 1, 0: 0, 2: 0, 3: 1}
    assert m_table(Level(8)).entries == {-2: 0, 0: 0, 2: 0, 4: 0}


def test_m_table_n30():
    expected: dict[int, int] = {}
    for j in (-12, -10, -6, 0, 2, 8, 12, 14):
        expected[j] = 0
    for j in (-14, -9, -8, -5, -3, 4, 6, 9, 10, 15):
        expected[j] = 1
    for j in (-4, -2):
        expected[j] = 2
    for j in (3, 5):
        expected[j] = 3
    assert m_table(L30).entries == dict(sorted(expected.items()))


def test_enumerate_p1_counts():
    points = enumerate_p1(L30)
    assert len(points) == 72
    both_nonunit = [
        p
        for p in points
        if p.kind is PointKind.INFINITY and gcd(p.b.value, 30) > 1
    ]
    assert len(both_nonunit) == 20
    affine = [p for p in points if p.kind is PointKind.AFFINE]
    assert len(affine) == 30


def test_enumerate_p1_small_against_brute_force():
    for n in range(2, 16):
        points = enumerate_p1(Level(n))
        classes = brute_p1_classes(n)
        assert len(points) == len(classes)
        # each stored pair belongs to exactly one brute-force orbit
        for p in points:
            pair = (p.a.value % n, p.b.value % n)
            assert sum(1 for orbit in classes if pair in orbit) == 1


def test_enumerate_p1_n2():
    pairs = {
        (p.a.value, p.b.value) for p in enumerate_p1(Level(2))
    }
    assert pairs == {(1, 0), (1, 1), (0, 1)}


def _prime_factors(n):
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def test_psi_formula_agreement():
    for n in range(2, 40):
        formula = n
        for p in _prime_factors(n):
            formula = formula * (p + 1) // p
        assert psi(Level(n)) == formula


def test_m_distribution_examples():
    # full table of the 20 doubly-nonunit classes of N=30, counted by M
    dist = m_distribution(L30)
    restricted = {m: c for m, c in dist.items() if m > 0}
    assert restricted == {1: 14, 2: 4, 3: 2}
    assert sum(restricted.values()) == 20
    assert m_distribution(Level(8)) == {0: 4}
    assert max(m_distribution(Level(15))) <= 1


def test_defining_identity():
    for n in (6, 8, 12, 30):
        lvl = Level(n)
        for p in enumerate_p1(lvl):
            if p.kind is PointKind.INFINITY:
                j, ell = p.a.value, p.b.value
                assert (big_m(j, ell, lvl) * j - ell) % n == 1 % n


def test_gap_free_property():
    for n in range(2, 61):
        lvl = Level(n)
        mt = m_table(lvl)
        for j, mj in mt.entries.items():
            found = set()
            for ell in range(-lvl.n1, lvl.n2 + 1):
                try:
                    p = normalize(j, ell, lvl)
                except NotOnProjLine:
                    continue
                if p.a.value == j and p.b.value == ell:
                    found.add(big_m(j, ell, lvl))
            assert found == set(range(mj + 1))


def test_mtable_getitem_reduces():
    mt = m_table(Level(6))
    assert mt[4] == mt[-2]


def test_one_class_scan_per_level():
    level = Level(84)
    projline._classes.cache_clear()
    psi(level)
    m_table(level)
    m_distribution(level)
    verify(theta0(level))
    cusp_table(level)
    assert projline._classes.cache_info().misses == 1


def test_returned_tables_are_fresh():
    level = Level(30)
    mt = m_table(level)
    expected = dict(mt.entries)
    mt.entries[3] = 99
    mt.entries.clear()
    assert m_table(level).entries == expected
    dist = m_distribution(level)
    expected = dict(dist)
    dist[1] = -5
    assert m_distribution(level) == expected
    points = enumerate_p1(level)
    points.pop()
    assert len(enumerate_p1(level)) == 72
