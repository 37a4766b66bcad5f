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

import heapq
import json
from dataclasses import dataclass, field
from enum import Enum
from math import gcd

from . import projline
from .residues import Level, inv_mod
from .words import (
    GroupWord,
    Mat2,
    cusp,
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


@dataclass
class CosetList:
    level: Level
    group: Group
    reps: list[GroupWord]
    verified: bool = False
    _mats: list[tuple] | None = field(default=None, repr=False)

    @property
    def mats(self) -> list[tuple]:
        """The matrix of each word as a plain tuple (a, b, c, d), each
        determinant checked once when the list is first read."""
        if self._mats is None:
            self._mats = list(map(fold, self.reps))
        return self._mats

    def __len__(self):
        return len(self.reps)

    def to_json(self) -> str:
        records = [
            {
                "word": str(w),
                "matrix": [[a, b], [c, d]],
                "cusp": str(cusp(a, c)),
            }
            for w, (a, b, c, d) in zip(self.reps, self.mats)
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


def _st_words(level: Level, mt: projline.MTable) -> dict[int, GroupWord]:
    """The words S T^i for i in the window and for 0 <= i <= max M_j,
    keyed by i: every S T^i the Theta builders use, built once."""
    top = max(level.n2, max(mt.entries.values(), default=0))
    return {i: st(i) for i in range(-level.n1, top + 1)}


def _theta0_reps(
    level: Level, mt: projline.MTable, sts: dict[int, GroupWord]
) -> list[GroupWord]:
    reps = [sts[i] for i in level.residues()]
    for j, mj in mt.entries.items():  # nonunit j
        sj = sts[j]
        reps += [sj * sts[m] for m in range(mj + 1)]
    return reps


def theta0(level: Level) -> CosetList:
    mt = projline.m_table(level)
    reps = _theta0_reps(level, mt, _st_words(level, mt))
    return CosetList(level, Group.GAMMA0, reps)


def theta1(level: Level) -> CosetList:
    mt = projline.m_table(level)
    sts = _st_words(level, mt)
    reps = _theta0_reps(level, mt, sts)
    window = level.residues()
    for k in _unit_ks(level):
        kinv = inv_mod(k, level)
        sk = sts[k]
        reps += [sk * sts[i] for i in window]
        for j, mj in mt.entries.items():
            skx = sk * sts[level.reduce(kinv + j)]
            reps += [skx * sts[m] for m in range(mj + 1)]
    return CosetList(level, Group.GAMMA1, reps)


def theta_full(level: Level) -> CosetList:
    inner = theta1(level).reps
    shifts = [make_word(("T", ell)) for ell in level.residues()]
    reps = [t * w for t in shifts for w in inner]
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
    """The rows (c, d) mod N with gcd(c, d, N) = 1, as a stream."""
    n = level.n
    return (
        (c, d)
        for c in range(n)
        for d in range(n)
        if gcd(gcd(c, d), n) == 1
    )


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
    rows = sum(1 for _ in _unit_rows(level))
    half = rows if level.n == 2 else rows // 2
    return half if group is Group.GAMMA1 else level.n * half


MISSING_NAMED = 20  # a report names at most this many missing cosets


@dataclass
class VerificationReport:
    """`missing` holds the smallest missing keys, at most MISSING_NAMED
    of them, and is filled only when the list has no duplicates."""

    level: Level
    group: Group
    count: int
    expected: int
    duplicates: list
    missing: list

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
    seen: dict = {}
    duplicates = []
    for w, key in zip(coset_list.reps, keys):
        if key in seen:
            duplicates.append((seen[key], w, key))
        else:
            seen[key] = w
    expected = _expected_count(level, group)
    missing = []
    if len(seen) != expected and not duplicates:
        # stream the coset space to name the smallest omissions
        missing = heapq.nsmallest(
            MISSING_NAMED,
            (k for k in _all_keys(level, group) if k not in seen),
        )
    report = VerificationReport(
        level, group, len(coset_list.reps), expected, duplicates, missing
    )
    if not report.ok:
        raise VerificationFailed(report)
    coset_list.verified = True
    return report


def _all_keys(level: Level, group: Group):
    """The key of every coset, each once, as a stream."""
    n = level.n
    if group is Group.GAMMA0:
        yield from projline.enumerate_p1(level)
        return
    for c, d in _unit_rows(level):
        if (c, d) > (-c % n, -d % n):
            continue  # the row (-c, -d) gives the same cosets
        if group is Group.GAMMA1:
            yield from _coset_keys([(0, 0, c, d)], level, group)
        else:
            # all N completions of the bottom row to SL2(Z/NZ)
            a, b, _, _ = _some_lift(c, d, n)
            yield from _coset_keys(
                [(a + t * c, b + t * d, c, d) for t in range(n)], level, group
            )


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
