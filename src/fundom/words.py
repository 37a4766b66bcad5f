"""Words in the generators S, T of SL2(Z), their matrices, and cusps.

A word is a signed product of tokens S and T^e.  Evaluation lands in
SL2(Z) with arbitrary-precision entries; silent overflow is impossible.
The serialization format is e.g. "ST^-3ST^3S", with "I" for the empty
word and an optional leading "-".
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from math import gcd

from .residues import Level, Residue, sym_rep

# tokens are ("S",) or ("T", e) with e != 0


@dataclass(frozen=True)
class Mat2:
    """2x2 integer matrix of determinant 1."""

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        if self.a * self.d - self.b * self.c != 1:
            raise ValueError(f"determinant is not 1: {self}")

    def __mul__(self, other: "Mat2") -> "Mat2":
        return Mat2(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse(self) -> "Mat2":
        return Mat2(self.d, -self.b, -self.c, self.a)

    def neg(self) -> "Mat2":
        return Mat2(-self.a, -self.b, -self.c, -self.d)

    def entries(self):
        return (self.a, self.b, self.c, self.d)

    def __str__(self):
        return f"[[{self.a},{self.b}],[{self.c},{self.d}]]"


IDENTITY = Mat2(1, 0, 0, 1)
S_MAT = Mat2(0, -1, 1, 0)
T_MAT = Mat2(1, 1, 0, 1)


def t_power(e: int) -> Mat2:
    return Mat2(1, e, 0, 1)


def _merge(tokens):
    out = []
    for tok in tokens:
        if tok[0] == "T":
            if tok[1] == 0:
                continue
            if out and out[-1][0] == "T":
                e = out[-1][1] + tok[1]
                out.pop()
                if e != 0:
                    out.append(("T", e))
                continue
        out.append(tok)
    return tuple(out)


@dataclass(frozen=True)
class GroupWord:
    """A signed word in S and T^e; consecutive T tokens are merged."""

    tokens: tuple
    sign: int = 1

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValueError("sign must be +-1")
        if self.tokens != _merge(self.tokens):
            raise ValueError("tokens not in merged form; use make_word")

    def __mul__(self, other: "GroupWord") -> "GroupWord":
        return GroupWord(
            _merge(self.tokens + other.tokens), self.sign * other.sign
        )

    def __str__(self):
        body = "".join(
            "S" if t[0] == "S" else ("T" if t[1] == 1 else f"T^{t[1]}")
            for t in self.tokens
        )
        if not body:
            body = "I"
        return ("-" if self.sign < 0 else "") + body


def make_word(*tokens, sign: int = 1) -> GroupWord:
    return GroupWord(_merge(tokens), sign)


def word_s() -> GroupWord:
    return make_word(("S",))


def word_t(e: int) -> GroupWord:
    return make_word(("T", e))


def word_identity() -> GroupWord:
    return make_word()


def st(i: int) -> GroupWord:
    """The word S T^i."""
    return make_word(("S",), ("T", i))


_TOKEN_RE = re.compile(r"S|T(?:\^(-?\d+))?")


def parse_word(s: str) -> GroupWord:
    """Inverse of str(); accepts e.g. 'ST^-3ST^3S', 'I', '-T^2'."""
    text = s.strip()
    sign = 1
    if text.startswith("-"):
        sign = -1
        text = text[1:]
    if text == "I":
        return make_word(sign=sign)
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise ValueError(f"bad word string {s!r} at position {pos}")
        if m.group(0) == "S":
            tokens.append(("S",))
        else:
            e = int(m.group(1)) if m.group(1) is not None else 1
            tokens.append(("T", e))
        pos = m.end()
    return make_word(*tokens, sign=sign)


def evaluate(w: GroupWord) -> Mat2:
    """The matrix of a word: product of generators, times the sign."""
    m = IDENTITY
    for tok in w.tokens:
        m = m * (S_MAT if tok[0] == "S" else t_power(tok[1]))
    return m if w.sign == 1 else m.neg()


def row_map(m: Mat2, level: Level) -> tuple[Residue, Residue]:
    """Bottom row (c, d) reduced mod N, in symmetric form."""
    return (sym_rep(m.c, level), sym_rep(m.d, level))


# ---------------------------------------------------------------------------
# cusps


@dataclass(frozen=True, order=True)
class Cusp:
    """A point of Q union {oo}, reduced, with q >= 0 and oo = 1/0."""

    p: int
    q: int

    def __post_init__(self):
        if (self.p, self.q) == (0, 0) or self.q < 0:
            raise ValueError(f"bad cusp ({self.p}, {self.q})")
        if gcd(self.p, self.q) != 1:
            raise ValueError(f"cusp ({self.p}, {self.q}) not in lowest terms")
        if self.q == 0 and self.p != 1:
            raise ValueError("infinity must be stored as 1/0")

    @property
    def is_infinity(self) -> bool:
        return self.q == 0

    def __str__(self):
        return "oo" if self.q == 0 else f"{self.p}/{self.q}"


INFINITY = Cusp(1, 0)


def cusp(p: int, q: int) -> Cusp:
    """The cusp p/q in canonical reduced form."""
    if q == 0:
        if p == 0:
            raise ValueError("0/0 is not a cusp")
        return INFINITY
    g = gcd(p, q)
    p, q = p // g, q // g
    if q < 0:
        p, q = -p, -q
    return Cusp(p, q)


def mobius_cusp(m: Mat2) -> Cusp:
    """Image of infinity under m, i.e. a/c."""
    return cusp(m.a, m.c)


def parse_cusp(s: str) -> Cusp:
    if s in ("oo", "inf", "infinity"):
        return INFINITY
    p, _, q = s.partition("/")
    return cusp(int(p), int(q) if q else 1)


# ---------------------------------------------------------------------------
# membership tests for the congruence subgroups


def in_gamma0(m: Mat2, level: Level) -> bool:
    return m.c % level.n == 0


def in_pm_gamma1(m: Mat2, level: Level) -> bool:
    """Membership in (+-I) Gamma_1(N)."""
    n = level.n
    if m.c % n != 0:
        return False
    return (m.a % n == 1 and m.d % n == 1) or (
        m.a % n == n - 1 and m.d % n == n - 1
    )


def in_gammaN(m: Mat2, level: Level) -> bool:
    n = level.n
    return (
        m.a % n == 1 and m.d % n == 1 and m.b % n == 0 and m.c % n == 0
    )


# ---------------------------------------------------------------------------
# PSL2 normalization


def psl_normalize(m: Mat2) -> Mat2:
    """m or -m, whichever has the first nonzero of (c, d, a, b) positive."""
    for x in (m.c, m.d, m.a, m.b):
        if x > 0:
            return m
        if x < 0:
            return m.neg()
    raise AssertionError("zero matrix cannot have determinant 1")
