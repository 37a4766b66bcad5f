import pytest

from fundom.residues import Level
from fundom.words import (
    Cusp,
    GroupWord,
    IDENTITY,
    Mat2,
    S_MAT,
    T_MAT,
    cusp,
    evaluate,
    in_gamma0,
    in_gammaN,
    in_pm_gamma1,
    make_word,
    mobius_cusp,
    parse_cusp,
    parse_word,
    psl_normalize,
    row_map,
    st,
    word_identity,
)

L6 = Level(6)
L8 = Level(8)


def test_evaluate_sti():
    for i in (-3, 0, 1, 5):
        assert evaluate(st(i)) == Mat2(0, -1, 1, i)


def test_evaluate_stjstm():
    for j, m in ((3, 1), (-2, 0), (0, 0), (5, 2)):
        assert evaluate(st(j) * st(m)) == Mat2(-1, -m, j, m * j - 1)


def test_evaluate_quotient_word():
    # S T^k S T^{k^-1} S with k = -3, k^-1 = -3 mod 8
    k, kinv = -3, -3
    w = st(k) * st(kinv) * make_word(("S",))
    assert evaluate(w) == Mat2(-kinv, 1, kinv * k - 1, -k)


def test_word_merging_and_signs():
    assert st(0) == make_word(("S",))
    w = make_word(("T", 2), ("T", -2), ("S",))
    assert w.tokens == (("S",),)
    neg = GroupWord((("S",),), sign=-1)
    assert evaluate(neg) == S_MAT.neg()


def test_word_serialization_roundtrip():
    words = [
        word_identity(),
        st(1),
        st(-3) * st(3) * make_word(("S",)),
        make_word(("S",), ("S",), ("T", 2)),
        GroupWord((("T", -7),), sign=-1),
    ]
    for w in words:
        assert parse_word(str(w)) == w
    assert str(word_identity()) == "I"
    assert str(st(-3) * st(3) * make_word(("S",))) == "ST^-3ST^3S"
    assert str(make_word(("S",), ("S",))) == "SS"


def test_evaluate_is_homomorphism():
    ws = [st(2), st(-1) * st(3), make_word(("S",)), word_identity()]
    for w1 in ws:
        for w2 in ws:
            assert evaluate(w1 * w2) == evaluate(w1) * evaluate(w2)


def test_generator_relations():
    s = make_word(("S",))
    assert evaluate(s * s) == IDENTITY.neg()
    stw = s * make_word(("T", 1))
    assert evaluate(stw * stw * stw) == IDENTITY.neg()


def test_determinant_enforced():
    with pytest.raises(ValueError):
        Mat2(1, 0, 0, 2)


def test_row_map():
    assert tuple(r.value for r in row_map(evaluate(st(2)), L6)) == (1, 2)
    m = evaluate(st(3) * st(1))
    assert tuple(r.value for r in row_map(m, L6)) == (3, 2)
    assert tuple(r.value for r in row_map(IDENTITY, L6)) == (0, 1)


def test_mobius_cusp():
    assert mobius_cusp(evaluate(st(3) * st(1))) == cusp(-1, 3)
    assert mobius_cusp(IDENTITY) == Cusp(1, 0)
    assert mobius_cusp(S_MAT) == Cusp(0, 1)


def test_cusp_normalization():
    assert cusp(2, -4) == Cusp(-1, 2)
    assert cusp(-3, 0) == Cusp(1, 0)
    assert str(cusp(-1, 2)) == "-1/2"
    assert parse_cusp("oo") == Cusp(1, 0)
    assert parse_cusp("-1/2") == Cusp(-1, 2)
    with pytest.raises(ValueError):
        Cusp(0, 0)
    with pytest.raises(ValueError):
        Cusp(2, 4)


def test_memberships():
    assert in_gamma0(IDENTITY, L6)
    k, kinv = -3, -3
    g = evaluate(st(k) * st(kinv) * make_word(("S",)))
    assert in_gamma0(g, L8)
    assert not in_pm_gamma1(g, L8)  # d = 3 is not +-1 mod 8
    assert not in_gamma0(S_MAT, L6)
    # STSTS = -T^-1 lies in (+-I)Gamma_1(N) for every N
    m = evaluate(parse_word("STSTS"))
    assert m == Mat2(-1, 1, 0, -1)
    for n in (2, 6, 8, 30):
        assert in_pm_gamma1(m, Level(n))
    assert in_pm_gamma1(IDENTITY.neg(), L8)
    assert in_gammaN(evaluate(make_word(("T", 8))), L8)
    assert not in_gammaN(T_MAT, L8)


def test_membership_chain():
    lvl = Level(12)
    samples = [
        evaluate(w)
        for w in (
            word_identity(),
            st(12),
            st(1),
            st(-5) * st(5) * make_word(("S",)),
            make_word(("T", 12)),
            make_word(("T", 24)),
            make_word(("S",), ("S",)),
        )
    ]
    for m in samples:
        if in_gammaN(m, lvl):
            assert in_pm_gamma1(m, lvl)
        if in_pm_gamma1(m, lvl):
            assert in_gamma0(m, lvl)


def test_psl_normalize():
    assert psl_normalize(IDENTITY).entries() == psl_normalize(IDENTITY.neg()).entries()
    assert psl_normalize(S_MAT).entries() == (0, -1, 1, 0)
    assert psl_normalize(Mat2(0, 1, -1, 0)).entries() == (0, -1, 1, 0)
    for m in (S_MAT, T_MAT, evaluate(st(3) * st(2))):
        assert psl_normalize(m).entries() == psl_normalize(m.neg()).entries()
