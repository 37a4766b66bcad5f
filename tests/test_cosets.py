import gc
import json
import tracemalloc

import pytest

from fundom import cosets, projline
from fundom.cayley import build_graph, is_connected, spanning_tree
from fundom.cosets import (
    CosetList,
    Group,
    VerificationFailed,
    build,
    theta0,
    theta1,
    theta_full,
    verify,
)
from fundom.domain import cusp_table, render_svg
from fundom.projline import big_m, enumerate_p1, normalize
from fundom.residues import Level, inv_mod
from fundom.words import (
    cusp,
    cusp_fields,
    evaluate,
    fold,
    mobius_cusp,
    parse_word,
)

from oracles import (
    GroupWord,
    brute_p1_classes,
    coset_key,
    gamma1_quotient_reps,
    in_gamma0,
    in_gammaN,
    in_pm_gamma1,
    list_json_doc,
    make_word,
    row_map,
    st,
    streamed_keys,
    tokens_of,
    unit_rows,
    word_of,
)


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
    two_s = [w for w in lst.reps if sum(t == ("S",) for t in tokens_of(w)) == 2]
    assert len(two_s) == 42


def test_theta0_n2():
    assert words_of(theta0(Level(2))) == ["S", "ST", "SS"]


def test_theta0_bijection_onto_p1():
    for n in (2, 6, 11, 30):
        lvl = Level(n)
        lst = theta0(lvl)
        images = set()
        for w in lst.reps:
            m = evaluate(w)
            images.add(normalize(m.c, m.d, lvl))
        expected = set(enumerate_p1(lvl))
        assert images == expected
        assert len(images) == len(lst)


def test_theta0_rows_are_preferred_with_matching_m():
    lvl = Level(30)
    for w in theta0(lvl).reps:
        tokens = tokens_of(w)
        if sum(t == ("S",) for t in tokens) != 2:
            continue
        j = tokens[1][1] if tokens[1][0] == "T" else 0
        m = tokens[-1][1] if tokens[-1][0] == "T" else 0
        mat = evaluate(w)
        c, d = row_map(mat, lvl)
        p = normalize(c, d, lvl)
        assert p == (c, d)
        assert big_m(c, d, lvl) == m
        assert c == lvl.reduce(j)


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
    for m in map(evaluate, t1.reps):
        assert any(
            in_pm_gamma1(m * (q * t).inverse(), lvl)
            for q in q_mats
            for t in t0_mats
        )


@pytest.mark.parametrize(
    "group, n", [(Group.GAMMA0, 30), (Group.GAMMA1, 12), (Group.GAMMA_FULL, 6)]
)
def test_list_matrices_are_plain_tuples(group, n):
    lst = build(Level(n), group)
    assert len(lst.mats) == len(lst)
    for w, m in zip(lst.reps, lst.mats):
        assert type(m) is tuple
        assert m == tuple(evaluate(w))
    gc.collect()
    assert not any(map(gc.is_tracked, lst.mats))


def test_theta_full_counts():
    assert len(theta_full(Level(2))) == 6
    assert len(theta_full(Level(3))) == 12
    for n in (2, 3, 5, 8):
        lvl = Level(n)
        assert len(theta_full(lvl)) == n * len(theta1(lvl))


def test_theta_full_n2_pairwise_distinct():
    lvl = Level(2)
    mats = [evaluate(w) for w in theta_full(lvl).reps]
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


REPORT_CASES = [(Group.GAMMA0, 6), (Group.GAMMA1, 8), (Group.GAMMA_FULL, 5)]


def _key_mod_n(m, group, n):
    """The coset key of Gamma_1 / Gamma(N), read off the entries mod N
    up to a global sign."""
    ent = (m.c, m.d) if group is Group.GAMMA1 else m.entries()
    return min(tuple(x % n for x in ent), tuple(-x % n for x in ent))


def _failure_report(lst):
    with pytest.raises(VerificationFailed) as err:
        verify(lst)
    assert not lst.verified
    return err.value.report


@pytest.mark.parametrize("group, n", REPORT_CASES)
def test_report_names_the_one_missing_coset(group, n):
    full = build(Level(n), group)
    i = len(full) // 2
    dropped = evaluate(full.reps[i])
    lst = CosetList(full.level, group, full.reps[:i] + full.reps[i + 1:])
    report = _failure_report(lst)
    assert (report.count, report.expected) == (len(full) - 1, len(full))
    assert report.duplicates == []
    assert len(report.missing) == 1
    key = report.missing[0]
    if group is Group.GAMMA0:
        # the missing pair lies in the orbit of the dropped bottom row
        row = (dropped.c % n, dropped.d % n)
        (orbit,) = [o for o in brute_p1_classes(n) if row in o]
        assert (key[0] % n, key[1] % n) in orbit
    else:
        assert key == _key_mod_n(dropped, group, n)


@pytest.mark.parametrize("group, n", REPORT_CASES)
def test_report_names_both_words_of_a_duplicate(group, n):
    lst = build(Level(n), group)
    w = lst.reps[len(lst) // 2]
    # T^N lies in all three groups, so T^N w is a new word in w's coset
    twin = str(make_word(("T", n)) * word_of(w))
    assert str(twin) != str(w)
    lst.reps.append(twin)
    report = _failure_report(lst)
    assert report.missing == []
    assert len(report.duplicates) == 1
    first, second, key = report.duplicates[0]
    assert (first, second) == (w, twin)
    m = evaluate(w)
    if group is Group.GAMMA0:
        assert key == normalize(m.c, m.d, Level(n))
    else:
        assert key == _key_mod_n(m, group, n)


def test_report_text():
    full = theta0(Level(6))
    report = _failure_report(CosetList(full.level, full.group, full.reps[1:]))
    assert str(report) == (
        "gamma0 N=6: FAIL, 11 reps, 12 cosets\n  missing coset (1, -2)"
    )
    lst = theta_full(Level(5))
    lst.reps.append(str(make_word(("T", 5)) * word_of(lst.reps[len(lst) // 2])))
    assert str(_failure_report(lst)) == (
        "gammaN N=5: FAIL, 61 reps, 60 cosets\n"
        "  duplicate coset (1, 3, 2, 2): ST^-2ST^-2 vs T^5ST^-2ST^-2"
    )


@pytest.mark.parametrize("count", [20, 30])
def test_report_names_at_most_missing_named_duplicates(count):
    lst = theta0(Level(30))
    firsts = lst.reps[:count]
    # T^30 w lies in w's coset of Gamma_0(30), as another word
    lst.reps.extend(str(make_word(("T", 30)) * word_of(w)) for w in firsts)
    report = _failure_report(lst)
    assert report.duplicate_count == count
    assert len(report.duplicates) == min(count, cosets.MISSING_NAMED)
    lines = str(report).splitlines()
    assert lines[0] == f"gamma0 N=30: FAIL, {72 + count} reps, 72 cosets"
    named = [f"  duplicate coset {key}: {w1} vs {w2}"
             for w1, w2, key in report.duplicates]
    assert [w1 for w1, _, _ in report.duplicates] == firsts[:len(named)]
    if count <= cosets.MISSING_NAMED:
        assert lines[1:] == named  # the text of a report before the cap
    else:
        assert lines[1:] == named + [f"  {count} duplicates in all"]


def test_report_of_a_short_list_names_the_smallest_missing():
    n = 5
    lst = CosetList(Level(n), Group.GAMMA_FULL, [parse_word("S")])
    report = _failure_report(lst)
    # SL2(Z/5Z) up to sign, by brute force
    everything = {
        min((a, b, c, d), (-a % n, -b % n, -c % n, -d % n))
        for a in range(n) for b in range(n) for c in range(n)
        for d in range(n) if (a * d - b * c) % n == 1
    }
    s_key = _key_mod_n(evaluate(lst.reps[0]), Group.GAMMA_FULL, n)
    missing = sorted(everything - {s_key})
    assert report.expected == len(everything) == 60
    assert report.missing_count == len(missing) == 59
    assert report.missing == missing[: cosets.MISSING_NAMED]
    assert str(report).splitlines()[-1] == "  59 cosets missing in all"


def test_verify_of_a_short_list_streams_the_coset_space():
    # a one-word Gamma(60) list misses 69,119 cosets; naming 20 of them
    # must not hold the coset space in memory
    lst = CosetList(Level(60), Group.GAMMA_FULL, [parse_word("S")])
    tracemalloc.start()
    try:
        report = _failure_report(lst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (report.expected, report.missing_count) == (69120, 69119)
    assert len(str(report).splitlines()) == 2 + cosets.MISSING_NAMED
    assert peak < 1_000_000


@pytest.mark.parametrize("group", [Group.GAMMA1, Group.GAMMA_FULL])
def test_all_keys_ascend_through_the_streamed_keys(group):
    for n in range(2, 31):
        level = Level(n)
        want = sorted(streamed_keys(level, group))
        assert list(cosets._all_keys(level, group)) == want, n


@pytest.mark.parametrize(
    "n, group",
    [(3000, Group.GAMMA1), (100, Group.GAMMA_FULL), (720, Group.GAMMA0)],
)
def test_verify_stops_at_the_last_missing_coset_it_names(
    monkeypatch, n, group
):
    # a one-word list: the keys below the 20 smallest missing ones are
    # at most the word's own, so the walk pulls at most 21 of them
    pulled = []
    all_keys = cosets._all_keys

    def counting(level, grp):
        for key in all_keys(level, grp):
            pulled.append(key)
            yield key

    monkeypatch.setattr(cosets, "_all_keys", counting)
    lst = CosetList(Level(n), group, [parse_word("S")])
    report = _failure_report(lst)
    s_key = coset_key((0, -1, 1, 0), lst.level, group)
    assert len(pulled) <= cosets.MISSING_NAMED + 1
    assert report.missing == [k for k in pulled if k != s_key]
    assert report.missing_count == report.expected - 1


def test_expected_count_equals_the_streamed_rows():
    for n in range(2, 201):
        level = Level(n)
        rows = sum(1 for _ in unit_rows(level))
        half = rows if n == 2 else rows // 2
        assert cosets._expected_count(level, Group.GAMMA1) == half, n
        assert cosets._expected_count(level, Group.GAMMA_FULL) == n * half, n


def test_verify_agrees_with_pairwise_membership():
    # hash keys must separate cosets exactly as the membership tests do
    for n in (4, 5, 6):
        lvl = Level(n)
        t1 = theta1(lvl)
        t1_mats = [evaluate(w) for w in t1.reps]
        for i, mi in enumerate(t1_mats):
            for j, mj in enumerate(t1_mats):
                assert in_pm_gamma1(mi * mj.inverse(), lvl) == (i == j)
        tf = theta_full(lvl)
        tf_mats = [evaluate(w) for w in tf.reps[:40]]
        for i, mi in enumerate(tf_mats):
            for j, mj in enumerate(tf_mats):
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


@pytest.mark.parametrize("group", list(Group))
def test_list_json_is_the_standard_encoders_text(group):
    for n in range(2, 13):
        lst = build(Level(n), group)
        for verified in (False, True):
            lst.verified = verified
            want = json.dumps(list_json_doc(lst), indent=1)
            assert lst.to_json() == want, (n, verified)


@pytest.mark.parametrize("words", [[], ["-ST^2"], ["I", "-I", "T^-12S"]])
def test_list_json_of_short_lists_is_the_standard_encoders_text(words):
    lst = CosetList(Level(7), Group.GAMMA1, [parse_word(w) for w in words])
    want = json.dumps(list_json_doc(lst), indent=1)
    assert lst.to_json() == want
    if not words:
        assert '"reps": [],' in want


def test_build_dispatch():
    lvl = Level(5)
    assert words_of(build(lvl, Group.GAMMA0)) == words_of(theta0(lvl))
    assert words_of(build(lvl, Group.GAMMA1)) == words_of(theta1(lvl))
    assert words_of(build(lvl, Group.GAMMA_FULL)) == words_of(theta_full(lvl))


def _theta1_by_formula(level):
    """Theta_1 by its defining formula, each word built and merged
    from its full token list."""
    def word(*exps):  # S T^e1 S T^e2 ...
        return GroupWord(tuple(t for e in exps for t in (("S",), ("T", e))))

    mt = projline.m_table(level).entries
    reps = [word(i) for i in level.residues()]
    reps += [word(j, m) for j, mj in mt.items() for m in range(mj + 1)]
    for k in cosets._unit_ks(level):
        x0 = inv_mod(k, level)
        reps += [word(k, i) for i in level.residues()]
        reps += [
            word(k, level.reduce(x0 + j), m)
            for j, mj in mt.items()
            for m in range(mj + 1)
        ]
    return reps


def test_theta_words_match_their_defining_formula():
    for n in list(range(2, 61)) + [64]:
        lvl = Level(n)
        expected = [str(w) for w in _theta1_by_formula(lvl)]
        t0 = theta0(lvl).reps
        assert all(type(w) is str for w in t0)
        assert t0 == expected[: len(t0)]
        assert theta1(lvl).reps == expected
    for n in range(2, 25):
        lvl = Level(n)
        expected = [
            str(GroupWord((("T", ell),) + w.tokens))
            for ell in lvl.residues()
            for w in _theta1_by_formula(lvl)
        ]
        assert theta_full(lvl).reps == expected, n


def test_theta_builders_take_m_past_the_window(monkeypatch):
    # M_j <= N2 holds for every N < 400 but is not proven; a larger
    # M_j must still give its words S T^j S T^m
    lvl = Level(12)
    real = projline.m_table(lvl)
    j0 = next(iter(real.entries))
    big = {j: (lvl.n2 + 3 if j == j0 else m) for j, m in real.entries.items()}
    monkeypatch.setattr(
        projline, "m_table", lambda level: projline.MTable(level, big)
    )
    for builder in (theta0, theta1):
        reps = builder(lvl).reps
        for m in range(lvl.n2 + 4):
            assert str(st(j0) * st(m)) in reps


def test_coset_keys_equal_the_min_of_both_signs():
    # every 4-tuple mod N, also with negative representatives
    for n in range(2, 10):
        lvl = Level(n)
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    for d in range(n):
                        neg = tuple((-x) % n for x in (a, b, c, d))
                        full = min((a, b, c, d), neg)
                        row = min((c, d), neg[2:])
                        # plain 4-tuples stand in for matrices of
                        # any determinant, not only 1
                        for m in (
                            (a, b, c, d),
                            (a - n, b - 2 * n, c - n, d + n),
                        ):
                            assert coset_key(m, lvl, Group.GAMMA_FULL) == full
                            assert coset_key(m, lvl, Group.GAMMA1) == row


# ---------------------------------------------------------------------------
# Theta(N) built from Theta_1(N): matrices by arithmetic, words when read


def test_shifted_mats_equal_the_folded_words():
    for n in range(2, 31):
        lst = theta_full(Level(n))
        mats = lst.mats
        assert lst._reps is None  # derived from Theta_1, no word built
        assert all(type(m) is tuple for m in mats)
        assert mats == list(map(fold, theta_full(Level(n)).reps)), n


def test_len_of_theta_full_is_the_number_of_words():
    for n in range(2, 31):
        lst = theta_full(Level(n))
        count = len(lst)
        assert lst._reps is None
        assert count == len(lst.reps) == len(lst), n


def _count_word_formatting(monkeypatch) -> list:
    """Record every T^e the builders format: each word writes at least
    one, so an empty record means no word was formatted."""
    calls = []
    t_power = cosets.t_power

    def counting(e):
        calls.append(e)
        return t_power(e)

    monkeypatch.setattr(cosets, "t_power", counting)
    return calls


def test_verify_and_connectivity_of_theta_full_build_no_word(monkeypatch):
    lst = theta_full(Level(60))
    calls = _count_word_formatting(monkeypatch)
    assert verify(lst).ok
    assert is_connected(build_graph(lst))
    assert calls == []
    assert lst._reps is None


def test_mats_and_reps_in_either_order():
    for builder in (theta0, theta1, theta_full):
        for n in (2, 5, 12, 18):
            mats_first = builder(Level(n))
            mats = mats_first.mats
            reps = mats_first.reps
            reps_first = builder(Level(n))
            assert reps_first.reps == reps
            assert reps_first.mats == mats
            # the source is dropped once the words exist
            assert mats_first._source is None


def test_duplicate_appended_to_read_words_names_both():
    n = 7
    lst = theta_full(Level(n))
    words = lst.reps
    w = words[100]
    twin = str(make_word(("T", n)) * word_of(w))
    words.append(twin)
    report = _failure_report(lst)
    assert report.count == len(words)
    assert [d[:2] for d in report.duplicates] == [(w, twin)]
    key = _key_mod_n(evaluate(w), Group.GAMMA_FULL, n)
    assert report.duplicates[0][2] == key


# ---------------------------------------------------------------------------
# Theta_0(N) and Theta_1(N): matrices by closed forms, words when read

# the levels of the benchmark's gamma0-composite workload
GAMMA0_COMPOSITE_LEVELS = (120, 125, 126, 128, 131, 132, 140, 144, 150, 156,
                           160, 168, 180, 210, 240)


@pytest.mark.parametrize("builder", [theta0, theta1])
def test_closed_form_mats_equal_the_folded_words(builder):
    for n in [*range(2, 61), *GAMMA0_COMPOSITE_LEVELS]:
        lst = builder(Level(n))
        mats = lst.mats
        assert lst._reps is None  # closed forms, no word built
        assert all(type(m) is tuple for m in mats)
        assert mats == list(map(fold, builder(Level(n)).reps)), n


@pytest.mark.parametrize("builder", [theta0, theta1, theta_full])
def test_len_builds_nothing(builder):
    for n in range(2, 31):
        lst = builder(Level(n))
        count = len(lst)
        assert lst._reps is None and lst._mats is None
        assert count == len(lst.mats) == len(lst.reps), n


@pytest.mark.parametrize("builder, n", [(theta0, 240), (theta1, 168)])
def test_paths_of_theta0_and_theta1_build_no_word(builder, n, monkeypatch):
    lst = builder(Level(n))
    calls = _count_word_formatting(monkeypatch)
    assert verify(lst).ok
    graph = build_graph(lst)
    assert is_connected(graph)
    assert len(spanning_tree(graph).parent) == len(lst) - 1
    assert render_svg(lst).count("<path ") == len(lst)
    assert cusp_table(Level(n)).classes
    assert calls == []
    assert lst._reps is None


def test_cusp_fields_equal_the_cusps_they_print():
    for lst in (theta0(Level(60)), theta1(Level(30)), theta_full(Level(12))):
        for a, _, c, _ in lst.mats:
            cz = cusp(a, c)
            assert cusp_fields(a, c) == (str(cz), cz.p, cz.q)
