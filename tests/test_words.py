import copy
import pickle

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
    make_word,
    mobius_cusp,
    parse_word,
    st,
)

from oracles import (
    in_gamma0,
    in_gammaN,
    in_pm_gamma1,
    parse_cusp,
    psl_normalize,
    row_map,
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


def test_group_word_normalizes_unmerged_tokens():
    raw = (("T", 2), ("T", -2), ("S",), ("T", 0), ("T", 1), ("T", 2))
    w = GroupWord(raw, sign=-1)
    assert w.tokens == (("S",), ("T", 3))
    assert w == make_word(("S",), ("T", 3), sign=-1)
    assert GroupWord([("T", 0)]) == word_identity()
    assert hash(GroupWord([("S",), ("T", 1)])) == hash(st(1))
    with pytest.raises(ValueError):
        GroupWord((("S",),), sign=2)


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


@pytest.mark.parametrize(
    "text, pos", [("T^", 1), ("Sx", 1), ("T^-", 1), ("ST^3Q", 4),
                  ("-Sx", 1), (" S T", 1),
                  # exponents are ASCII digits only
                  ("ST^٣", 2), ("T^１２", 1)],
)
def test_parse_word_names_where_a_bad_word_stops(text, pos):
    with pytest.raises(ValueError) as exc:
        parse_word(text)
    assert str(exc.value) == f"bad word string {text!r} at position {pos}"


def test_parse_word_of_no_tokens_is_the_identity():
    assert parse_word("") == word_identity()
    assert parse_word("-") == make_word(sign=-1)
    assert str(parse_word("-")) == "-I"


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


def test_mat2_is_a_checked_tuple():
    t = (1001, 1000, 1, 1)
    m = Mat2(*t)
    assert m == t and hash(m) == hash(t) and tuple(m) == t
    assert (m.a, m.b, m.c, m.d) == t
    assert repr(m) == "Mat2(a=1001, b=1000, c=1, d=1)"
    assert str(m) == "[[1001,1000],[1,1]]"
    assert m.entries() == t and type(m.entries()) is tuple
    with pytest.raises(AttributeError):
        m.a = 5
    # no per-instance dict, and no namedtuple-style way round __new__
    assert not hasattr(m, "__dict__")
    assert not hasattr(Mat2, "_make") and not hasattr(Mat2, "_replace")
    with pytest.raises(ValueError, match="determinant is not 1"):
        Mat2(1, 2, 3, 4)


def test_mat2_operations_stay_checked_matrices():
    m = Mat2(2, 3, 1, 2)
    for out, want in (
        (m * S_MAT, (3, -2, 2, -1)),
        (m * m.inverse(), (1, 0, 0, 1)),
        (m.inverse(), (2, -3, -1, 2)),
        (m.neg(), (-2, -3, -1, -2)),
    ):
        assert type(out) is Mat2 and out == want


_COPIERS = [copy.copy, copy.deepcopy] + [
    lambda m, p=p: pickle.loads(pickle.dumps(m, protocol=p))
    for p in range(pickle.HIGHEST_PROTOCOL + 1)
]
_COPIER_IDS = ["copy", "deepcopy"] + [
    f"pickle-{p}" for p in range(pickle.HIGHEST_PROTOCOL + 1)
]


@pytest.mark.parametrize("copier", _COPIERS, ids=_COPIER_IDS)
def test_mat2_copies_round_trip(copier):
    m = Mat2(1001, 1000, 1, 1)
    out = copier(m)
    assert type(out) is Mat2 and out == m


@pytest.mark.parametrize("copier", _COPIERS, ids=_COPIER_IDS)
def test_mat2_copies_go_through_the_check(copier):
    # a tuple forged past __new__ with determinant 2
    forged = tuple.__new__(Mat2, (1002, 1000, 1, 1))
    with pytest.raises(ValueError, match="determinant is not 1"):
        copier(forged)


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_mat2_unpickling_checks_the_determinant(protocol):
    # edit the entry 1001 of a pickled Mat2 into 1002 (determinant 2)
    data = pickle.dumps(Mat2(1001, 1000, 1, 1), protocol=protocol)
    old, new = (
        (b"1001", b"1002") if protocol == 0
        else ((1001).to_bytes(2, "little"), (1002).to_bytes(2, "little"))
    )
    assert data.count(old) == 1
    with pytest.raises(ValueError, match="determinant is not 1"):
        pickle.loads(data.replace(old, new))


def test_mat2_products_of_a_forged_matrix_are_checked():
    forged = tuple.__new__(Mat2, (1, 2, 3, 4))
    for make in (
        lambda: forged * IDENTITY,
        lambda: IDENTITY * forged,
        forged.inverse,
        forged.neg,
    ):
        with pytest.raises(ValueError, match="determinant is not 1"):
            make()


def test_row_map():
    assert row_map(evaluate(st(2)), L6) == (1, 2)
    m = evaluate(st(3) * st(1))
    assert row_map(m, L6) == (3, 2)
    assert row_map(IDENTITY, L6) == (0, 1)


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


# a value, its fields in order and its repr
_VALUES = [
    (Level(6), (6,), "Level(n=6)"),
    (Cusp(-1, 2), (-1, 2), "Cusp(p=-1, q=2)"),
    (
        GroupWord([("S",), ("T", 2)], sign=-1),
        ((("S",), ("T", 2)), -1),
        "GroupWord(tokens=(('S',), ('T', 2)), sign=-1)",
    ),
]


@pytest.mark.parametrize(
    "value, fields, text", _VALUES, ids=["Level", "Cusp", "GroupWord"]
)
def test_value_types_are_immutable_records_of_their_fields(
    value, fields, text
):
    cls = type(value)
    twin = cls(*fields)
    assert twin == value and twin is not value
    assert hash(twin) == hash(value) == hash(fields)
    assert value != fields  # equal only to values of its class
    assert repr(value) == text
    for name in cls.__slots__:
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))
    with pytest.raises(AttributeError):
        value.other = 1
    assert not hasattr(value, "__dict__")
    for copier in _COPIERS:
        out = copier(value)
        assert type(out) is cls and out == value


def test_levels_and_cusps_sort_by_their_fields():
    levels = [Level(30), Level(2), Level(9)]
    assert sorted(levels) == [Level(2), Level(9), Level(30)]
    assert max(levels) == Level(30) and min(levels) == Level(2)
    cusps = [Cusp(1, 3), Cusp(0, 1), Cusp(1, 0), Cusp(-1, 3), Cusp(-1, 2)]
    # by (p, q), not by value: -1/2 < -1/3 < 0 < 1/0 < 1/3
    assert sorted(cusps) == [
        Cusp(-1, 2), Cusp(-1, 3), Cusp(0, 1), Cusp(1, 0), Cusp(1, 3)
    ]
    with pytest.raises(TypeError):
        sorted([Level(2), Cusp(0, 1)])


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: Level(1), "level must be >= 2, got 1"),
        (lambda: Level(6.0), "level must be an int, got 6.0"),
        (lambda: Cusp(0, 0), r"bad cusp \(0, 0\)"),
        (lambda: Cusp(1, -2), r"bad cusp \(1, -2\)"),
        (lambda: Cusp(2, 4), r"cusp \(2, 4\) not in lowest terms"),
        (lambda: Cusp(-1, 0), "infinity must be stored as 1/0"),
        (lambda: GroupWord((("S",),), sign=0), r"sign must be \+-1"),
    ],
)
def test_value_types_reject_bad_fields(make, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        make()


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


def test_psl_normalize_keeps_normalized_matrix():
    for m in (S_MAT, T_MAT, IDENTITY, evaluate(st(3) * st(2))):
        n = psl_normalize(m)
        assert psl_normalize(n) is n
    m = Mat2(0, 1, -1, 0)
    assert psl_normalize(m) is not m


def test_psl_normalize():
    assert psl_normalize(IDENTITY).entries() == psl_normalize(IDENTITY.neg()).entries()
    assert psl_normalize(S_MAT).entries() == (0, -1, 1, 0)
    assert psl_normalize(Mat2(0, 1, -1, 0)).entries() == (0, -1, 1, 0)
    for m in (S_MAT, T_MAT, evaluate(st(3) * st(2))):
        assert psl_normalize(m).entries() == psl_normalize(m.neg()).entries()
