import pytest

from fundom.cosets import (
    CosetList,
    Group,
    VerificationFailed,
    build,
    gamma1_quotient_reps,
    theta0,
    theta1,
    theta_full,
    verify,
)
from fundom.projline import big_m, enumerate_p1, normalize
from fundom.residues import Level
from fundom.words import evaluate, mobius_cusp, parse_word

from oracles import in_gamma0, in_gammaN, in_pm_gamma1, row_map


def words_of(lst):
    return [str(w) for w in lst.reps]


def test_theta0_n6():
    lst = theta0(Level(6))
    assert len(lst) == 12
    assert words_of(lst) == [
        "ST^-2", "ST^-1", "S", "ST", "ST^2", "ST^3",
        "ST^-2S", "ST^-2ST", "SS", "ST^2S", "ST^3S", "ST^3ST",
    ]


def test_theta0_n30_counts():
    lst = theta0(Level(30))
    assert len(lst) == 72
    two_s = [w for w in lst.reps if sum(t == ("S",) for t in w.tokens) == 2]
    assert len(two_s) == 42


def test_theta0_n2():
    assert words_of(theta0(Level(2))) == ["S", "ST", "SS"]


def test_theta0_bijection_onto_p1():
    for n in (2, 6, 11, 30):
        lvl = Level(n)
        lst = theta0(lvl)
        images = set()
        for m in lst.mats:
            p = normalize(m.c, m.d, lvl)
            images.add((p.a.value, p.b.value))
        expected = {
            (p.a.value, p.b.value) for p in enumerate_p1(lvl)
        }
        assert images == expected
        assert len(images) == len(lst)


def test_theta0_rows_are_preferred_with_matching_m():
    lvl = Level(30)
    for w in theta0(lvl).reps:
        tokens = w.tokens
        if sum(t == ("S",) for t in tokens) != 2:
            continue
        j = tokens[1][1] if tokens[1][0] == "T" else 0
        m = tokens[-1][1] if tokens[-1][0] == "T" else 0
        mat = evaluate(w)
        c, d = row_map(mat, lvl)
        p = normalize(c.value, d.value, lvl)
        assert (p.a.value, p.b.value) == (c.value, d.value)
        assert big_m(c.value, d.value, lvl) == m
        assert c.value == lvl.reduce(j)


def test_gamma1_quotient_reps():
    assert [str(w) for w in gamma1_quotient_reps(Level(8))] == [
        "I",
        "ST^-3ST^-3S",
    ]
    assert [str(w) for w in gamma1_quotient_reps(Level(6))] == ["I"]
    assert [str(w) for w in gamma1_quotient_reps(Level(5))] == [
        "I",
        "ST^-2ST^2S",
    ]


def test_gamma1_quotient_reps_land_in_gamma0():
    for n in (5, 8, 12, 30):
        lvl = Level(n)
        reps = gamma1_quotient_reps(lvl)
        mats = [evaluate(w) for w in reps]
        for m in mats:
            assert in_gamma0(m, lvl)
        # pairwise distinct modulo (+-I) Gamma_1(N)
        for i, mi in enumerate(mats):
            for j, mj in enumerate(mats):
                quotient = mi * mj.inverse()
                assert in_pm_gamma1(quotient, lvl) == (i == j)


def test_theta1_n6_equals_theta0():
    assert words_of(theta1(Level(6))) == words_of(theta0(Level(6)))


def test_theta1_n8_tilde_words():
    names = words_of(theta1(Level(8)))
    for w in ("ST^-3ST^3S", "ST^-3ST^-3S", "ST^-3ST^-1S", "ST^-3ST^1S"):
        # T^1 prints as plain T
        assert w.replace("T^1S", "TS") in names
    assert len(names) == 24


def test_theta1_contains_theta0_as_prefix():
    for n in (5, 8, 30):
        t0, t1 = theta0(Level(n)), theta1(Level(n))
        assert words_of(t1)[: len(t0)] == words_of(t0)


def test_theta1_index_count():
    # |Theta_1| = psi(N) * max(1, phi(N)/2), the index of (+-I)Gamma_1
    from math import gcd

    def phi(n):
        return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)

    for n in (2, 3, 5, 6, 8, 12):
        lvl = Level(n)
        expected = len(enumerate_p1(lvl)) * max(1, phi(n) // 2)
        assert len(theta1(lvl)) == expected


def test_theta1_product_structure():
    # every third/fourth family word is a quotient rep times a Theta_0
    # word, up to sign, in the pm-Gamma_1 sense
    lvl = Level(8)
    t1 = theta1(lvl)
    t0_mats = [evaluate(w) for w in theta0(lvl).reps]
    q_mats = [evaluate(w) for w in gamma1_quotient_reps(lvl)]
    for m in t1.mats:
        assert any(
            in_pm_gamma1(m * (q * t).inverse(), lvl)
            for q in q_mats
            for t in t0_mats
        )


def test_theta_full_counts():
    assert len(theta_full(Level(2))) == 6
    assert len(theta_full(Level(3))) == 12
    for n in (2, 3, 5, 8):
        lvl = Level(n)
        assert len(theta_full(lvl)) == n * len(theta1(lvl))


def test_theta_full_n2_pairwise_distinct():
    lvl = Level(2)
    mats = theta_full(lvl).mats
    for i, mi in enumerate(mats):
        for j, mj in enumerate(mats):
            q = mi * mj.inverse()
            in_quot = in_gammaN(q, lvl) or in_gammaN(q.neg(), lvl)
            assert in_quot == (i == j)


def test_verify_passes():
    report = verify(theta0(Level(30)))
    assert report.ok and report.count == 72
    lst = theta0(Level(30))
    verify(lst)
    assert lst.verified


def test_verify_sweep_small():
    for n in range(2, 25):
        assert verify(theta0(Level(n))).ok


def test_verify_catches_duplicates():
    lst = theta0(Level(6))
    lst.reps[3] = lst.reps[2]
    lst._mats = None
    with pytest.raises(VerificationFailed) as err:
        verify(lst)
    assert err.value.report.duplicates
    assert not lst.verified


def test_verify_catches_omission():
    lst = theta0(Level(6))
    full = CosetList(lst.level, lst.group, lst.reps[:-1])
    with pytest.raises(VerificationFailed) as err:
        verify(full)
    assert err.value.report.missing


def test_verify_agrees_with_pairwise_membership():
    # hash keys must separate cosets exactly as the membership tests do
    for n in (4, 5, 6):
        lvl = Level(n)
        t1 = theta1(lvl)
        for i, mi in enumerate(t1.mats):
            for j, mj in enumerate(t1.mats):
                assert in_pm_gamma1(mi * mj.inverse(), lvl) == (i == j)
        tf = theta_full(lvl)
        for i, mi in enumerate(tf.mats[:40]):
            for j, mj in enumerate(tf.mats[:40]):
                q = mi * mj.inverse()
                in_quot = in_gammaN(q, lvl) or in_gammaN(q.neg(), lvl)
                assert in_quot == (i == j)


def test_json_roundtrip():
    lst = theta0(Level(6))
    verify(lst)
    text = lst.to_json()
    back = CosetList.from_json(text)
    assert words_of(back) == words_of(lst)
    assert back.level == lst.level and back.group == lst.group
    assert not back.verified  # verification is never trusted from disk
    import json

    doc = json.loads(text)
    assert doc["verified"] is True
    rec = doc["reps"][0]
    assert set(rec) == {"word", "matrix", "cusp"}
    m = evaluate(parse_word(rec["word"]))
    assert rec["matrix"] == [[m.a, m.b], [m.c, m.d]]
    assert rec["cusp"] == str(mobius_cusp(m))


def test_build_dispatch():
    lvl = Level(5)
    assert words_of(build(lvl, Group.GAMMA0)) == words_of(theta0(lvl))
    assert words_of(build(lvl, Group.GAMMA1)) == words_of(theta1(lvl))
    assert words_of(build(lvl, Group.GAMMA_FULL)) == words_of(theta_full(lvl))
