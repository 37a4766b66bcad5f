from math import gcd

from hypothesis import given, settings, strategies as stst

from fundom.projline import big_m, m_table, normalize
from fundom.residues import Level, inv_mod
from fundom.words import (
    IDENTITY,
    S_MAT,
    GroupWord,
    Mat2,
    evaluate,
    make_word,
    parse_word,
    st,
)

from oracles import (
    coset_key,
    gcd_with_level,
    in_gamma0,
    in_gammaN,
    in_pm_gamma1,
    psl_normalize,
)

levels = stst.integers(min_value=2, max_value=120).map(Level)


@given(levels, stst.integers(-10**6, 10**6))
def test_sym_rep_in_window_and_congruent(level, x):
    r = level.reduce(x)
    assert -level.n1 <= r <= level.n2
    assert (r - x) % level.n == 0


@given(levels, stst.integers(-10**4, 10**4))
def test_inverse_of_units(level, x):
    r = level.reduce(x)
    if gcd(r, level.n) == 1:
        product = r * inv_mod(r, level)
        assert level.reduce(product) == level.reduce(1)
        assert inv_mod(x, level) == inv_mod(r, level)
    else:
        assert gcd_with_level(r, level) > 1


@settings(max_examples=300)
@given(
    levels,
    stst.integers(-200, 200),
    stst.integers(-200, 200),
    stst.integers(-200, 200),
)
def test_unit_invariance(level, a, b, u):
    n = level.n
    if gcd(gcd(a, b), n) != 1 or gcd(u, n) != 1:
        return
    p1 = normalize(a, b, level)
    p2 = normalize(u * a, u * b, level)
    assert p1 == p2
    if gcd(a, n) > 1:
        assert big_m(a, b, level) == big_m(u * a, u * b, level)


@given(levels)
def test_big_m_bounded_by_level(level):
    for j, mj in m_table(level).entries.items():
        assert 0 <= mj < level.n


def test_prime_power_m_zero():
    for n in range(2, 201):
        base = _prime_power_base(n)
        if base is None:
            continue
        assert all(m == 0 for m in m_table(Level(n)).entries.values())


def test_two_prime_factors_m_at_most_one():
    for n in range(2, 201):
        if _distinct_prime_count(n) == 2:
            assert all(m <= 1 for m in m_table(Level(n)).entries.values())


def _prime_power_base(n):
    for p in range(2, n + 1):
        if n % p == 0:
            while n % p == 0:
                n //= p
            return p if n == 1 else None
    return None


def _distinct_prime_count(n):
    count = 0
    p = 2
    while p * p <= n:
        if n % p == 0:
            count += 1
            while n % p == 0:
                n //= p
        p += 1
    return count + (1 if n > 1 else 0)


# unmerged tokens, T^0 included; GroupWord merges them
raw_tokens = stst.lists(
    stst.one_of(
        stst.just(("S",)),
        stst.integers(-6, 6).map(lambda e: ("T", e)),
    ),
    max_size=8,
)
words = raw_tokens.map(lambda toks: make_word(*toks))


@given(raw_tokens, stst.sampled_from((1, -1)))
def test_evaluate_matches_generator_product(tokens, sign):
    m = IDENTITY
    for tok in tokens:
        m = m * (S_MAT if tok[0] == "S" else Mat2(1, tok[1], 0, 1))
    expected = m if sign == 1 else m.neg()
    assert evaluate(GroupWord(tuple(tokens), sign)) == expected


signed_words = stst.builds(
    lambda toks, sign: GroupWord(tuple(toks), sign),
    raw_tokens,
    stst.sampled_from((1, -1)),
)


@given(
    signed_words,
    signed_words,
    stst.integers(-6, 6),
    stst.one_of(stst.none(), stst.integers(-6, 6)),
)
def test_product_is_the_merged_concatenation(x, y, a, b):
    # x T^a times T^b y puts a T^a T^b pair on the seam (b = None: T^-a,
    # which cancels); x times y is the plain case
    seamed_x = GroupWord(x.tokens + (("T", a),), x.sign)
    seamed_y = GroupWord((("T", -a if b is None else b),) + y.tokens, y.sign)
    for left, right in ((x, y), (seamed_x, seamed_y), (x, seamed_y)):
        product = left * right
        sign = left.sign * right.sign
        expected = GroupWord(left.tokens + right.tokens, sign)
        assert product == expected
        assert type(product.tokens) is tuple
        assert hash(product) == hash(expected)


@given(words, words)
def test_homomorphism(w1, w2):
    assert evaluate(w1 * w2) == evaluate(w1) * evaluate(w2)


@given(words)
def test_determinant_one(w):
    m = evaluate(w)
    assert m.a * m.d - m.b * m.c == 1


@given(words)
def test_serialization_roundtrip(w):
    assert parse_word(str(w)) == w


@given(words)
def test_psl_idempotent_and_sign_blind(w):
    m = evaluate(w)
    assert psl_normalize(m).entries() == psl_normalize(m.neg()).entries()
    again = psl_normalize(psl_normalize(m))
    assert again.entries() == psl_normalize(m).entries()


@given(levels, words)
def test_membership_chain(level, w):
    m = evaluate(w)
    if in_gammaN(m, level):
        assert in_pm_gamma1(m, level)
    if in_pm_gamma1(m, level):
        assert in_gamma0(m, level)


@given(levels, words)
def test_coset_keys_match_membership(level, w):
    # the verification keys and the membership predicates agree
    from fundom.cosets import Group

    m = evaluate(w)
    g = evaluate(st(1) * make_word(("S",)))  # an arbitrary fixed element
    prod = m * g
    same0 = coset_key(m, level, Group.GAMMA0) == coset_key(
        prod, level, Group.GAMMA0
    )
    assert same0 == in_gamma0(m * prod.inverse(), level)
    same1 = coset_key(m, level, Group.GAMMA1) == coset_key(
        prod, level, Group.GAMMA1
    )
    assert same1 == in_pm_gamma1(m * prod.inverse(), level)
    q = m * prod.inverse()
    samef = coset_key(m, level, Group.GAMMA_FULL) == coset_key(
        prod, level, Group.GAMMA_FULL
    )
    assert samef == (in_gammaN(q, level) or in_gammaN(q.neg(), level))
