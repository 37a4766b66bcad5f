"""Coset representative lists for Gamma_0(N), Gamma_1(N), Gamma(N).

The three lists are built from the preferred representatives of
P^1(Z/NZ):

  Theta_0: S T^i for i in the symmetric window, and S T^j S T^m for
           each nonunit j and 0 <= m <= M_j;
  Theta_1: Theta_0, then the products (S T^k S T^{k^-1} S) * Theta_0
           rewritten as S T^k S T^i and S T^k S T^x S T^m with
           x = (k^-1 + j)~, for each unit class k in [-N1, -2];
  Theta(N): T^l * Theta_1 for l in the symmetric window.

Every list can be verified directly: completeness and distinctness are
counted against the actual coset spaces, never read off index formulas.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from math import gcd

from . import projline
from .residues import Level, inv_mod, sym_rep
from .words import (
    GroupWord,
    Mat2,
    evaluate,
    make_word,
    mobius_cusp,
    parse_word,
    st,
    word_identity,
)


class Group(Enum):
    GAMMA0 = "gamma0"
    GAMMA1 = "gamma1"
    GAMMA_FULL = "gammaN"


class VerificationFailed(Exception):
    def __init__(self, report):
        super().__init__(str(report))
        self.report = report


@dataclass
class CosetList:
    level: Level
    group: Group
    reps: list[GroupWord]
    verified: bool = False
    _mats: list[Mat2] | None = field(default=None, repr=False)

    @property
    def mats(self) -> list[Mat2]:
        if self._mats is None:
            self._mats = [evaluate(w) for w in self.reps]
        return self._mats

    def __len__(self):
        return len(self.reps)

    def to_json(self) -> str:
        records = [
            {
                "word": str(w),
                "matrix": [[m.a, m.b], [m.c, m.d]],
                "cusp": str(mobius_cusp(m)),
            }
            for w, m in zip(self.reps, self.mats)
        ]
        doc = {
            "N": self.level.n,
            "group": self.group.value,
            "reps": records,
            "verified": self.verified,
        }
        return json.dumps(doc, indent=1)

    @classmethod
    def from_json(cls, text: str) -> "CosetList":
        doc = json.loads(text)
        return cls(
            level=Level(doc["N"]),
            group=Group(doc["group"]),
            reps=[parse_word(r["word"]) for r in doc["reps"]],
            verified=False,
        )


def _unit_ks(level: Level):
    """Representatives k in [-N1, -2] of the unit classes mod +-1,
    excluding the class of 1 (represented by the identity word)."""
    return [
        k for k in range(-level.n1, -1) if gcd(k, level.n) == 1
    ]


def theta0(level: Level) -> CosetList:
    reps = [st(i) for i in range(-level.n1, level.n2 + 1)]
    for j, mj in projline.m_table(level).entries.items():  # nonunit j
        for m in range(mj + 1):
            reps.append(st(j) * st(m))
    return CosetList(level, Group.GAMMA0, reps)


def gamma1_quotient_reps(level: Level) -> list[GroupWord]:
    """Words I and S T^k S T^{k^-1} S representing the quotient of
    Gamma_0(N) by (+-I) Gamma_1(N)."""
    reps = [word_identity()]
    for k in _unit_ks(level):
        kinv = inv_mod(sym_rep(k, level)).value
        reps.append(st(k) * st(kinv) * make_word(("S",)))
    return reps


def theta1(level: Level) -> CosetList:
    mt = projline.m_table(level)
    reps = list(theta0(level).reps)
    for k in _unit_ks(level):
        kinv = inv_mod(sym_rep(k, level)).value
        for i in range(-level.n1, level.n2 + 1):
            reps.append(st(k) * st(i))
        for j, mj in mt.entries.items():
            x = level.reduce(kinv + j)
            for m in range(mj + 1):
                reps.append(st(k) * st(x) * st(m))
    return CosetList(level, Group.GAMMA1, reps)


def theta_full(level: Level) -> CosetList:
    inner = theta1(level).reps
    reps = [
        make_word(("T", ell)) * w
        for ell in range(-level.n1, level.n2 + 1)
        for w in inner
    ]
    return CosetList(level, Group.GAMMA_FULL, reps)


def build(level: Level, group: Group) -> CosetList:
    if group is Group.GAMMA0:
        return theta0(level)
    if group is Group.GAMMA1:
        return theta1(level)
    return theta_full(level)


# ---------------------------------------------------------------------------
# verification


def _unit_rows(level: Level):
    n = level.n
    return [
        (c, d)
        for c in range(n)
        for d in range(n)
        if gcd(gcd(c, d), n) == 1
    ]


def _coset_key(m: Mat2, level: Level, group: Group):
    """Invariant separating the cosets.

    Two matrices lie in the same right coset of Gamma_0(N) iff their
    bottom rows give the same class of P^1(Z/NZ); of (+-I)Gamma_1(N)
    iff their bottom rows agree mod N up to a global sign; of
    (+-I)Gamma(N) iff all entries agree mod N up to a global sign.
    """
    n = level.n
    if group is Group.GAMMA0:
        p = projline.normalize(m.c, m.d, level)
        return (p.a.value, p.b.value)
    if group is Group.GAMMA1:
        row = (m.c % n, m.d % n)
        return min(row, ((-m.c) % n, (-m.d) % n))
    ent = tuple(x % n for x in m.entries())
    return min(ent, tuple((-x) % n for x in m.entries()))


def _expected_count(level: Level, group: Group) -> int:
    """Size of the coset space, counted directly.

    For Gamma_0 this is |P^1(Z/NZ)|.  For (+-I)Gamma_1 it is the number
    of bottom rows (c,d) mod N with gcd(c,d,N)=1, up to sign (no row is
    fixed by the sign flip once N > 2).  For (+-I)Gamma(N) each such
    row extends to exactly N matrices in SL2(Z/NZ).
    """
    if group is Group.GAMMA0:
        return len(projline.enumerate_p1(level))
    rows = len(_unit_rows(level))
    half = rows if level.n == 2 else rows // 2
    return half if group is Group.GAMMA1 else level.n * half


@dataclass
class VerificationReport:
    level: Level
    group: Group
    count: int
    expected: int
    duplicates: list
    missing: list

    @property
    def ok(self) -> bool:
        return not self.duplicates and not self.missing

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
        return msg


def verify(coset_list: CosetList) -> VerificationReport:
    """Check completeness and pairwise distinctness of a list.

    Raises VerificationFailed (carrying the report) on any collision or
    omission; marks the list verified and returns the report otherwise.
    """
    level, group = coset_list.level, coset_list.group
    seen: dict = {}
    duplicates = []
    for w, m in zip(coset_list.reps, coset_list.mats):
        key = _coset_key(m, level, group)
        if key in seen:
            duplicates.append((seen[key], w, key))
        else:
            seen[key] = w
    expected = _expected_count(level, group)
    missing = []
    if len(seen) != expected and not duplicates:
        # enumerate the coset space to name the omissions
        missing = sorted(_all_keys(level, group) - set(seen))
    report = VerificationReport(
        level, group, len(coset_list.reps), expected, duplicates, missing
    )
    if not report.ok:
        raise VerificationFailed(report)
    coset_list.verified = True
    return report


def _all_keys(level: Level, group: Group):
    n = level.n
    if group is Group.GAMMA0:
        return {
            (p.a.value, p.b.value) for p in projline.enumerate_p1(level)
        }
    keys = set()
    for c, d in _unit_rows(level):
        if group is Group.GAMMA1:
            keys.add(min((c, d), ((-c) % n, (-d) % n)))
        else:
            # all N completions of the bottom row to SL2(Z/NZ)
            m0 = _some_lift(c, d, n)
            for t in range(n):
                a, b = (m0.a + t * c) % n, (m0.b + t * d) % n
                ent = (a, b, c % n, d % n)
                keys.add(min(ent, tuple((-x) % n for x in ent)))
    return keys


def _some_lift(c: int, d: int, n: int) -> Mat2:
    """Some integer matrix of determinant 1 whose bottom row is
    congruent to (c, d) mod N; requires gcd(c, d, N) = 1."""
    cc = c if c != 0 else n
    dd = d
    while gcd(cc, dd) != 1:
        dd += n
    a = pow(dd, -1, abs(cc))
    b = (a * dd - 1) // cc
    return Mat2(a, b, cc, dd)
