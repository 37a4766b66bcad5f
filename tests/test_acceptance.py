"""Acceptance suite.

Each test enforces one exit criterion at its stated tolerance (all are
exact integer checks; the timed ones also enforce their runtime
budget) and prints a single pass line.
"""

import random
import time
from math import gcd

from fundom.cayley import build_graph, is_connected
from fundom.cosets import (
    CosetList,
    Group,
    theta0,
    theta1,
    theta_full,
    verify,
)
from fundom.domain import cusp_class_rep, cusp_equivalent, cusp_table, cusp_width
from fundom.projline import big_m, m_table, normalize
from fundom.residues import Level, inv_mod
from fundom.words import Cusp, IDENTITY, cusp, evaluate

from oracles import (
    cusps_of,
    gamma1_quotient_reps,
    in_gamma0,
    in_gammaN,
    in_pm_gamma1,
    make_word,
    oracle_cusp_equivalent,
    oracle_width,
    st,
    tokens_of,
)
from test_projline import H30_TABLE

L30 = Level(30)


def _timed(budget_s):
    start = time.perf_counter()

    def done(label):
        elapsed = time.perf_counter() - start
        assert elapsed < budget_s, f"{label}: {elapsed:.2f}s over budget"
        print(f"PASS {label} ({elapsed:.2f}s)")

    return done


def test_criterion_1_index_reproduction():
    done = _timed(1.0)
    lst = theta0(L30)
    assert len(lst) == 72
    sub = [w for w in lst.reps if sum(t == ("S",) for t in tokens_of(w)) == 2]
    assert len(sub) == 42
    done("criterion 1: |Theta_0(30)| = 72 with 42 ST^jST^m words")


def test_criterion_2_m_tables():
    done = _timed(1.0)
    assert m_table(Level(6)).entries == {-2: 1, 0: 0, 2: 0, 3: 1}
    expected30 = {}
    for j in (-12, -10, -6, 0, 2, 8, 12, 14):
        expected30[j] = 0
    for j in (-14, -9, -8, -5, -3, 4, 6, 9, 10, 15):
        expected30[j] = 1
    for j in (-4, -2):
        expected30[j] = 2
    for j in (3, 5):
        expected30[j] = 3
    assert m_table(L30).entries == dict(sorted(expected30.items()))
    done("criterion 2: M_j tables for N=6 and N=30")


def test_criterion_3_h_class_table_n30():
    done = _timed(1.0)
    assert len(H30_TABLE) == 20
    for m, pr, member in H30_TABLE:
        p = normalize(*member, L30)
        assert p == pr
        assert big_m(*member, L30) == m
    done("criterion 3: 20-row H-class table for N=30")


def test_criterion_4_gamma1_8_structure():
    done = _timed(1.0)
    reps = [str(w) for w in gamma1_quotient_reps(Level(8))]
    assert reps == ["I", "ST^-3ST^-3S"]
    kinv = inv_mod(-3, Level(8))
    assert kinv == -3
    tildes = [Level(8).reduce(kinv + j) for j in (-2, 0, 2, 4)]
    assert tildes == [3, -3, -1, 1]
    done("criterion 4: Gamma_1(8) quotient reps and tilde exponents")


def test_criterion_5_cusp_tables_n30():
    done = _timed(1.0)
    table = cusp_table(L30)
    assert {str(cl.rep): cl.width for cl in table.classes} == {
        "1/2": 15, "1/3": 10, "1/5": 6, "1/6": 5, "1/10": 3,
        "1/15": 2, "oo": 1, "0/1": 30,
    }
    assert table.total_width() == 72
    mult_and_rep = {
        2: (1, "1/2"), 3: (4, "1/3"), 4: (2, "1/2"), 5: (4, "1/5"),
        6: (2, "1/6"), 8: (1, "1/2"), 9: (2, "1/3"), 10: (2, "1/10"),
        12: (1, "1/6"), 14: (1, "1/2"), 15: (2, "1/15"),
        -14: (2, "1/2"), -12: (1, "1/6"), -10: (1, "1/10"),
        -9: (2, "1/3"), -8: (2, "1/2"), -6: (1, "1/6"), -5: (2, "1/5"),
        -4: (3, "1/2"), -3: (2, "1/3"), -2: (3, "1/2"),
    }
    mt = m_table(L30)
    all_cusps = cusps_of(theta0(L30))
    for j, (mult, rep) in mult_and_rep.items():
        assert mt[j] + 1 == mult
        assert all_cusps.count(cusp(-1, j)) == mult
        assert str(cusp_class_rep(cusp(-1, j), L30)) == rep
    done("criterion 5: N=30 cusp multiplicity and width tables")


SWEEP = range(2, 101)
FULL_CAP = 40


def _sweep_lists():
    for n in SWEEP:
        lvl = Level(n)
        yield theta0(lvl)
        yield theta1(lvl)
        if n <= FULL_CAP:
            yield theta_full(lvl)


def test_criterion_6_connectivity_sweep():
    done = _timed(120.0)
    for lst in _sweep_lists():
        assert is_connected(build_graph(lst)), (
            lst.group,
            lst.level.n,
        )
    done("criterion 6: connectivity for 2 <= N <= 100 (Gamma(N) to 40)")


def test_criterion_7_coset_verification_sweep():
    done = _timed(300.0)
    for lst in _sweep_lists():
        report = verify(lst)
        assert report.ok and report.count == report.expected
    done("criterion 7: coset completeness/distinctness sweep")


def test_criterion_8_negative_control_rep10():
    done = _timed(1.0)
    reps = gamma1_quotient_reps(Level(8))
    lst = CosetList(Level(8), Group.GAMMA1, reps)
    assert not is_connected(build_graph(lst))
    done("criterion 8: bare quotient list for N=8 is disconnected")


def test_criterion_9_property_suites():
    done = _timed(300.0)
    rng = random.Random(20260825)
    # unit invariance of normalize and M over 10^4 random samples
    checked = 0
    while checked < 10**4:
        n = rng.randint(2, 80)
        lvl = Level(n)
        a, b = rng.randint(-n, n), rng.randint(-n, n)
        if gcd(gcd(a, b), n) != 1:
            continue
        units = [u for u in range(1, n) if gcd(u, n) == 1]
        u = rng.choice(units)
        assert normalize(a, b, lvl) == normalize(u * a, u * b, lvl)
        if gcd(a, n) > 1:
            assert big_m(a, b, lvl) == big_m(u * a, u * b, lvl)
            assert big_m(a, b, lvl) < n
        checked += 1
    # gap-free property for all (j, m < M_j), N <= 100
    for n in SWEEP:
        lvl = Level(n)
        for j, mj in m_table(lvl).entries.items():
            realized = set()
            for ell in range(-lvl.n1, lvl.n2 + 1):
                if gcd(gcd(j, ell), n) != 1:
                    continue
                p = normalize(j, ell, lvl)
                if p == (j, ell):
                    realized.add(big_m(j, ell, lvl))
            assert realized == set(range(mj + 1)), (n, j)
    # prime-power M = 0 and two-prime-factor M <= 1, N <= 200
    for n in range(2, 201):
        k = _distinct_prime_factors(n)
        if k > 2:
            continue
        lvl = Level(n)
        for a in range(n):
            if gcd(a, n) == 1:
                continue
            for b in range(n):
                if gcd(gcd(a, b), n) != 1:
                    continue
                m = big_m(a, b, lvl)
                assert m < n
                assert m == 0 if k == 1 else m <= 1, (n, a, b)
    # generator relations and membership chain
    s = make_word(("S",))
    assert evaluate(str(s * s)) == IDENTITY.neg()
    stw = s * make_word(("T", 1))
    assert evaluate(str(stw * stw * stw)) == IDENTITY.neg()
    for n in (2, 6, 8, 12):
        lvl = Level(n)
        for w in theta_full(Level(2)).reps + [
            str(make_word(("T", n))),
            str(make_word(("T", 2 * n))),
            str(st(n)),
        ]:
            m = evaluate(w)
            if in_gammaN(m, lvl):
                assert in_pm_gamma1(m, lvl)
            if in_pm_gamma1(m, lvl):
                assert in_gamma0(m, lvl)
    done("criterion 9: algebraic property suites")


def _distinct_prime_factors(n):
    count = 0
    p = 2
    while p * p <= n:
        if n % p == 0:
            count += 1
            while n % p == 0:
                n //= p
        p += 1
    return count + (1 if n > 1 else 0)


def test_criterion_10_cusp_oracle_equivalence():
    done = _timed(300.0)
    for n in range(2, 31):
        lvl = Level(n)
        seen = sorted(set(cusps_of(theta0(lvl))) | {Cusp(1, 0)})
        for c in seen:
            assert cusp_width(c, lvl) == oracle_width(c, lvl), (n, c)
        for c1 in seen:
            for c2 in seen:
                assert cusp_equivalent(c1, c2, lvl) == oracle_cusp_equivalent(
                    c1, c2, lvl
                ), (n, c1, c2)
    done("criterion 10: cusp equivalence and width match the oracles")
