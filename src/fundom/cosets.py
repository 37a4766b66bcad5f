"""Coset representative lists for Gamma_0(N), Gamma_1(N), Gamma(N).

The three lists are built from the preferred representatives of
P^1(Z/NZ):

  Theta_0: S T^i for i in the symmetric window, and S T^j S T^m for
           each nonunit j and 0 <= m <= M_j;
  Theta_1: Theta_0, then the products (S T^k S T^{k^-1} S) * Theta_0
           rewritten as S T^k S T^i and S T^k S T^x S T^m with
           x = (k^-1 + j)~, for each unit class k in [-N1, -2];
  Theta(N): T^l * Theta_1 for l in the symmetric window.

The builders read the level's M table once and build no word: while
`reps` is unread, a list's matrices come from closed forms (S T^i is
(0, -1, 1, i), S T^j S T^m is (-1, -m, j, jm - 1), and Theta(N) applies
T^l to Theta_1's by arithmetic), and the words are built on first read.

Every list can be verified directly: completeness and distinctness are
counted against the actual coset spaces, never read off index formulas.
"""

from __future__ import annotations

import json
from collections import Counter
from enum import Enum
from itertools import filterfalse, islice, product
from json.encoder import encode_basestring_ascii as json_quote
from math import gcd

from . import projline
from .residues import Level, inv_mod
from .words import (
    GroupWord,
    cusp_fields,
    fold,
    make_word,
    parse_word,
    st,
)


class Group(Enum):
    GAMMA0 = "gamma0"
    GAMMA1 = "gamma1"
    GAMMA_FULL = "gammaN"


class VerificationFailed(Exception):
    def __init__(self, report):
        super().__init__(str(report))
        self.report = report


def dumps_with_records(doc: dict, key: str, record: dict, rows) -> str:
    """json.dumps(doc, indent=1), with the list doc[key], given as [],
    holding one record per row: `record` with its "%d" and "%s" strings
    filled from the row, by ints and by JSON-quoted strings.

    The records come from one %-format template and are joined, since
    json's encoder falls back to pure Python whenever an indent is set.
    """
    template = json.dumps(record, indent=1)
    template = template.replace('"%d"', "%d").replace('"%s"', "%s")
    # each line of an item of a list at depth 1 sits two spaces in
    template = "  " + template.replace("\n", "\n  ")
    head, _, tail = json.dumps(doc, indent=1).partition(f'"{key}": []')
    body = ",\n".join([template % row for row in rows])
    items = f"[\n{body}\n ]" if body else "[]"
    return f'{head}"{key}": {items}{tail}'


class CosetList:
    """A representative list.  A list from the builders starts from a
    `_Source`: its matrices come from closed forms while `reps` is
    unread, and its words are built on first read."""

    __slots__ = ("level", "group", "verified", "_reps", "_mats", "_source")

    def __init__(self, level: Level, group: Group, reps: list[GroupWord]):
        self.level, self.group, self._reps = level, group, reps
        self.verified = False
        self._mats: list[tuple] | None = None
        self._source: _Source | None = None

    @property
    def reps(self) -> list[GroupWord]:
        """The words; a built list makes them on first read."""
        if self._reps is None:
            self._reps = self._source.words()
            self._source = None
        return self._reps

    @property
    def mats(self) -> list[tuple]:
        """The matrix of each word as a plain tuple (a, b, c, d), each
        determinant checked once when the list is first read: by `fold`
        once the words exist, and by algebra for the closed forms."""
        if self._mats is None:
            if self._reps is None:
                self._mats = self._source.mats()
            else:
                self._mats = list(map(fold, self._reps))
        return self._mats

    def __len__(self):
        if self._reps is None:
            return self._source.size
        return len(self._reps)

    def to_json(self) -> str:
        # mats first: a built list still has them from closed forms
        rows = (
            (json_quote(str(w)), a, b, c, d, json_quote(cusp_fields(a, c)[0]))
            for (a, b, c, d), w in zip(self.mats, self.reps)
        )
        doc = {
            "N": self.level.n,
            "group": self.group.value,
            "reps": [],
            "verified": self.verified,
        }
        record = {
            "word": "%s",
            "matrix": [["%d", "%d"], ["%d", "%d"]],
            "cusp": "%s",
        }
        return dumps_with_records(doc, "reps", record, rows)

    @classmethod
    def from_json(cls, text: str) -> "CosetList":
        doc = json.loads(text)
        return cls(
            level=Level(doc["N"]),
            group=Group(doc["group"]),
            reps=[parse_word(r["word"]) for r in doc["reps"]],
        )


class _Source:
    """How a built list of `size` representatives makes its words, and
    its matrices while the words are unread."""

    __slots__ = ("size", "words", "mats")

    def __init__(self, size: int, words, mats):
        self.size, self.words, self.mats = size, words, mats


def _built(level: Level, group: Group, size: int, words, mats) -> CosetList:
    lst = CosetList(level, group, None)
    lst._source = _Source(size, words, mats)
    return lst


def _unit_ks(level: Level):
    """Representatives k in [-N1, -2] of the unit classes mod +-1,
    excluding the class of 1 (represented by the identity word)."""
    return [
        k for k in range(-level.n1, -1) if gcd(k, level.n) == 1
    ]


def _theta0_size(level: Level, entries: dict) -> int:
    # the window's S T^i, then M_j + 1 words per nonunit j
    return level.n + sum(entries.values()) + len(entries)


def _st_words(level: Level, entries: dict) -> dict[int, GroupWord]:
    """The words S T^i for i in the window and for 0 <= i <= max M_j,
    keyed by i: every S T^i the Theta builders use, built once."""
    top = max(level.n2, max(entries.values(), default=0))
    return {i: st(i) for i in range(-level.n1, top + 1)}


def _theta0_words(
    level: Level, entries: dict, sts: dict[int, GroupWord]
) -> list[GroupWord]:
    reps = [sts[i] for i in level.residues()]
    for j, mj in entries.items():  # nonunit j
        sj = sts[j]
        reps += [sj * sts[m] for m in range(mj + 1)]
    return reps


def _theta0_mats(level: Level, entries: dict) -> list[tuple]:
    # S T^i = (0, -1, 1, i) and S T^j S T^m = (-1, -m, j, jm - 1)
    mats = [(0, -1, 1, i) for i in level.residues()]
    for j, mj in entries.items():
        mats += [(-1, -m, j, j * m - 1) for m in range(mj + 1)]
    return mats


def theta0(level: Level) -> CosetList:
    entries = projline.m_table(level).entries
    return _built(
        level, Group.GAMMA0, _theta0_size(level, entries),
        lambda: _theta0_words(level, entries, _st_words(level, entries)),
        lambda: _theta0_mats(level, entries),
    )


def _theta1_words(level: Level, entries: dict, ks: list) -> list[GroupWord]:
    sts = _st_words(level, entries)
    reps = _theta0_words(level, entries, sts)
    window = level.residues()
    for k in ks:
        kinv = inv_mod(k, level)
        sk = sts[k]
        reps += [sk * sts[i] for i in window]
        for j, mj in entries.items():
            skx = sk * sts[level.reduce(kinv + j)]
            reps += [skx * sts[m] for m in range(mj + 1)]
    return reps


def _theta1_mats(level: Level, entries: dict, ks: list) -> list[tuple]:
    # S T^k S T^i = (-1, -i, k, ki - 1), and
    # S T^k S T^x S T^m = (-x, 1 - mx, kx - 1, m(kx - 1) - k)
    mats = _theta0_mats(level, entries)
    window = level.residues()
    for k in ks:
        kinv = inv_mod(k, level)
        mats += [(-1, -i, k, k * i - 1) for i in window]
        for j, mj in entries.items():
            x = level.reduce(kinv + j)
            kx = k * x - 1
            mats += [(-x, 1 - m * x, kx, m * kx - k) for m in range(mj + 1)]
    return mats


def theta1(level: Level) -> CosetList:
    entries = projline.m_table(level).entries
    ks = _unit_ks(level)
    return _built(
        level, Group.GAMMA1, _theta0_size(level, entries) * (1 + len(ks)),
        lambda: _theta1_words(level, entries, ks),
        lambda: _theta1_mats(level, entries, ks),
    )


def theta_full(level: Level) -> CosetList:
    # T^l * Theta_1 for each l of the window in turn
    inner = theta1(level)
    shifts = level.residues()

    def words():
        ts = [make_word(("T", ell)) for ell in shifts]
        inner_reps = inner.reps
        return [t * w for t in ts for w in inner_reps]

    def mats():
        # T^l (a, b, c, d) = (a + lc, b + ld, c, d) keeps the determinant
        return [
            (a + ell * c, b + ell * d, c, d)
            for ell in shifts
            for a, b, c, d in inner.mats
        ]

    return _built(level, Group.GAMMA_FULL, level.n * len(inner), words, mats)


def build(level: Level, group: Group) -> CosetList:
    if group is Group.GAMMA0:
        return theta0(level)
    if group is Group.GAMMA1:
        return theta1(level)
    return theta_full(level)


# ---------------------------------------------------------------------------
# verification


def _coset_keys(mats, level: Level, group: Group) -> list:
    """The invariant separating the cosets, for each (a, b, c, d) of a
    list of matrices.

    Two matrices lie in the same right coset of Gamma_0(N) iff their
    bottom rows give the same class of P^1(Z/NZ); of (+-I)Gamma_1(N)
    iff their bottom rows agree mod N up to a global sign; of
    (+-I)Gamma(N) iff all entries agree mod N up to a global sign.
    The signed keys are the smaller of the reduced entries and of their
    negations; the first entry x with x != -x mod N settles which.
    """
    n = level.n
    if group is Group.GAMMA0:
        return [projline.normalize(c, d, level) for _, _, c, d in mats]
    # x = -x mod N exactly when 2x is 0 or N; then a later entry decides
    keys = []
    append = keys.append
    if group is Group.GAMMA1:
        for _, _, c, d in mats:
            c %= n
            if 0 < c + c < n:
                append((c, d % n))
            elif c + c > n:
                append((n - c, -d % n))
            else:
                append((c, min(d % n, -d % n)))
        return keys
    for a, b, c, d in mats:
        a %= n
        if 0 < a + a < n:
            append((a, b % n, c % n, d % n))
        elif a + a > n:
            append((n - a, -b % n, -c % n, -d % n))
        else:
            append(min((a, b % n, c % n, d % n), (a, -b % n, -c % n, -d % n)))
    return keys


def _expected_count(level: Level, group: Group) -> int:
    """Size of the coset space, counted directly.

    For Gamma_0 this is |P^1(Z/NZ)|.  For (+-I)Gamma_1 it is the number
    of bottom rows (c,d) mod N with gcd(c,d,N)=1, up to sign (no row is
    fixed by the sign flip once N > 2).  For (+-I)Gamma(N) each such
    row extends to exactly N matrices in SL2(Z/NZ).
    """
    if group is Group.GAMMA0:
        return len(projline.enumerate_p1(level))
    # gcd(c, d, N) = gcd(g, d) for g = gcd(c, N), which has period g in
    # d: each g counts the d of one period, N/g times over
    n = level.n
    rows = sum(
        k * n // g * sum(1 for d in range(g) if gcd(d, g) == 1)
        for g, k in Counter(gcd(c, n) for c in range(n)).items()
    )
    half = rows if n == 2 else rows // 2
    return half if group is Group.GAMMA1 else n * half


MISSING_NAMED = 20  # a report names at most this many missing cosets


class VerificationReport:
    """`missing` holds the smallest missing keys, at most MISSING_NAMED
    of them, and is filled only when the list has no duplicates."""

    __slots__ = ("level", "group", "count", "expected", "duplicates", "missing")

    def __init__(self, level: Level, group: Group, count: int, expected: int,
                 duplicates: list, missing: list):
        self.level, self.group, self.count = level, group, count
        self.expected, self.duplicates, self.missing = (
            expected, duplicates, missing)

    @property
    def ok(self) -> bool:
        return not self.duplicates and not self.missing

    @property
    def missing_count(self) -> int:
        # with no duplicates, each rep is a distinct coset
        return 0 if self.duplicates else self.expected - self.count

    def __str__(self):
        status = "pass" if self.ok else "FAIL"
        msg = (
            f"{self.group.value} N={self.level.n}: {status}, "
            f"{self.count} reps, {self.expected} cosets"
        )
        for w1, w2, key in self.duplicates:
            msg += f"\n  duplicate coset {key}: {w1} vs {w2}"
        for key in self.missing:
            msg += f"\n  missing coset {key}"
        if self.missing_count > len(self.missing):
            msg += f"\n  {self.missing_count} cosets missing in all"
        return msg


def verify(coset_list: CosetList) -> VerificationReport:
    """Check completeness and pairwise distinctness of a list.

    Raises VerificationFailed (carrying the report) on any collision or
    omission; marks the list verified and returns the report otherwise.
    """
    level, group = coset_list.level, coset_list.group
    keys = _coset_keys(coset_list.mats, level, group)
    seen = dict.fromkeys(keys)
    duplicates = []
    if len(seen) < len(keys):
        # only a failing list reads its words, to name the duplicates
        first = {}
        for w, key in zip(coset_list.reps, keys):
            if key in first:
                duplicates.append((first[key], w, key))
            else:
                first[key] = w
    expected = _expected_count(level, group)
    missing = []
    if len(seen) != expected and not duplicates:
        # the coset space streams in ascending order, so the walk stops
        # at the last omission it names
        missing = list(islice(
            filterfalse(seen.__contains__, _all_keys(level, group)),
            MISSING_NAMED,
        ))
    report = VerificationReport(
        level, group, len(coset_list), expected, duplicates, missing
    )
    if not report.ok:
        raise VerificationFailed(report)
    coset_list.verified = True
    return report


def _all_keys(level: Level, group: Group):
    """The key of every coset, each once, as an ascending stream.

    A Gamma_1 or Gamma(N) key is the smaller of a reduced row or matrix
    and its negation, so its first entry x runs over [0, N/2]; where
    x = -x mod N (x = 0 or 2x = N), only the keys not above their
    negations remain.
    """
    n = level.n
    if group is Group.GAMMA0:
        yield from sorted(projline.enumerate_p1(level))
        return
    if group is Group.GAMMA1:
        for c in range(n // 2 + 1):
            self_negative = c + c in (0, n)
            for d in range(n):
                if gcd(gcd(c, d), n) == 1 and (
                    not self_negative or d <= -d % n
                ):
                    yield (c, d)
        return
    for a in range(n // 2 + 1):
        self_negative = a + a in (0, n)
        # a d = 1 + b c mod N has g = gcd(a, N) solutions d, one per
        # step N/g, or none
        g = gcd(a, n)
        step = n // g
        inv = pow(a // g, -1, step)
        for b, c in product(range(n), repeat=2):
            r = 1 + b * c
            if r % g:
                continue
            for d in range(r // g * inv % step, n, step):
                if not self_negative or (b, c, d) <= (-b % n, -c % n, -d % n):
                    yield (a, b, c, d)
