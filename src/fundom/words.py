"""Words in the generators S, T of SL2(Z), their matrices, and cusps.

A word is a signed product of tokens S and T^e.  Evaluation lands in
SL2(Z) with arbitrary-precision entries; silent overflow is impossible.
The serialization format is e.g. "ST^-3ST^3S", with "I" for the empty
word and an optional leading "-".

`fold` multiplies a word out on four plain ints and returns the plain
tuple (a, b, c, d), its determinant checked once; `CosetList.mats`
holds these (a Theta(N) list shifts Theta_1's).  A `Mat2` is a tuple
(a, b, c, d) that checks its determinant when it is built, for
matrices that come in from outside: `evaluate` returns the word's
matrix as one `Mat2`.
"""

from __future__ import annotations

import re
from math import gcd
from operator import itemgetter

from .residues import Frozen


# globals are found faster than attributes of a class
_tuple_new = tuple.__new__
_object_new = object.__new__
_object_setattr = object.__setattr__


class Mat2(tuple):
    """2x2 integer matrix of determinant 1, as the tuple (a, b, c, d).

    The determinant is checked in `__new__`, and every way of building
    a `Mat2` goes through it: products, `inverse`, `neg`, copies and
    unpickling (`__reduce__` rebuilds by calling the class).
    """

    __slots__ = ()

    def __new__(cls, a: int, b: int, c: int, d: int) -> "Mat2":
        if a * d - b * c != 1:
            raise ValueError(f"determinant is not 1: [[{a},{b}],[{c},{d}]]")
        return _tuple_new(cls, (a, b, c, d))

    a = property(itemgetter(0))
    b = property(itemgetter(1))
    c = property(itemgetter(2))
    d = property(itemgetter(3))

    def __reduce__(self):
        return (type(self), tuple(self))

    def __repr__(self):
        return "Mat2(a={}, b={}, c={}, d={})".format(*self)

    def __mul__(self, other: "Mat2") -> "Mat2":
        a, b, c, d = self
        e, f, g, h = other
        return Mat2(a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)

    def inverse(self) -> "Mat2":
        a, b, c, d = self
        return Mat2(d, -b, -c, a)

    def neg(self) -> "Mat2":
        a, b, c, d = self
        return Mat2(-a, -b, -c, -d)

    def entries(self) -> tuple:
        return tuple(self)

    def __str__(self):
        return "[[{},{}],[{},{}]]".format(*self)


IDENTITY = Mat2(1, 0, 0, 1)
S_MAT = Mat2(0, -1, 1, 0)
T_MAT = Mat2(1, 1, 0, 1)


# tokens are ("S",) or ("T", e) with e != 0


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


class GroupWord(Frozen):
    """A signed word in S and T^e; its tokens are merged when built."""

    __slots__ = ("tokens", "sign")

    def __init__(self, tokens, sign: int = 1):
        if sign not in (1, -1):
            raise ValueError("sign must be +-1")
        _object_setattr(self, "tokens", _merge(tokens))
        _object_setattr(self, "sign", sign)

    def __mul__(self, other: "GroupWord") -> "GroupWord":
        # Both factors are merged, so only the seam can hold a T^e T^f
        # pair; the tokens around it are S, so nothing merges further.
        left, right = self.tokens, other.tokens
        if left and right and left[-1][0] == "T" == right[0][0]:
            e = left[-1][1] + right[0][1]
            seam = (("T", e),) if e else ()
            tokens = left[:-1] + seam + right[1:]
        else:
            tokens = left + right
        word = _object_new(GroupWord)
        _object_setattr(word, "tokens", tokens)
        _object_setattr(word, "sign", self.sign * other.sign)
        return word

    def __str__(self):
        body = "".join(
            "S" if t[0] == "S" else ("T" if t[1] == 1 else f"T^{t[1]}")
            for t in self.tokens
        )
        if not body:
            body = "I"
        return ("-" if self.sign < 0 else "") + body


def make_word(*tokens, sign: int = 1) -> GroupWord:
    return GroupWord(tokens, sign)


def st(i: int) -> GroupWord:
    """The word S T^i."""
    return make_word(("S",), ("T", i))


# [0-9], not \d: \d matches every Unicode digit, and int() reads them
_WORD_RE = re.compile(r"(?:S|T(?:\^-?[0-9]+)?)*")
_TOKEN_RE = re.compile(r"(S)|T(?:\^(-?[0-9]+))?")


def parse_word(s: str) -> GroupWord:
    """Inverse of str(); accepts e.g. 'ST^-3ST^3S', 'I', '-T^2'."""
    text = s.strip()
    sign = 1
    if text.startswith("-"):
        sign = -1
        text = text[1:]
    if text == "I":
        return make_word(sign=sign)
    # the longest run of whole tokens ends where a token-by-token scan
    # would stop
    pos = _WORD_RE.match(text).end()
    if pos != len(text):
        raise ValueError(f"bad word string {s!r} at position {pos}")
    tokens = [
        ("S",) if is_s else ("T", int(e) if e else 1)
        for is_s, e in _TOKEN_RE.findall(text)
    ]
    return GroupWord(tokens, sign)


def fold(w: GroupWord) -> tuple:
    """The matrix of a word, product of generators times the sign, as
    the plain tuple (a, b, c, d); raises ValueError unless ad - bc = 1."""
    a, b, c, d = 1, 0, 0, 1
    for tok in w.tokens:
        if tok[0] == "S":
            a, b, c, d = b, -a, d, -c
        else:
            b, d = b + tok[1] * a, d + tok[1] * c
    if a * d - b * c != 1:
        raise ValueError(f"determinant is not 1: [[{a},{b}],[{c},{d}]]")
    if w.sign < 0:
        return (-a, -b, -c, -d)
    return (a, b, c, d)


def evaluate(w: GroupWord) -> Mat2:
    """The matrix of a word as one checked `Mat2`."""
    return Mat2(*fold(w))


# ---------------------------------------------------------------------------
# cusps


class Cusp(Frozen):
    """A point of Q union {oo}, reduced, with q >= 0 and oo = 1/0;
    ordered by the pair (p, q)."""

    __slots__ = ("p", "q")

    def __init__(self, p: int, q: int):
        if (p, q) == (0, 0) or q < 0:
            raise ValueError(f"bad cusp ({p}, {q})")
        if gcd(p, q) != 1:
            raise ValueError(f"cusp ({p}, {q}) not in lowest terms")
        if q == 0 and p != 1:
            raise ValueError("infinity must be stored as 1/0")
        _object_setattr(self, "p", p)
        _object_setattr(self, "q", q)

    def __lt__(self, other):
        if type(other) is not Cusp:
            return NotImplemented
        return (self.p, self.q) < (other.p, other.q)

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


def cusp_fields(a: int, c: int) -> tuple[str, int, int]:
    """str(cusp(a, c)) and the cusp's p and q, for a and c coprime, as
    in the first column of a matrix of determinant 1: only the sign and
    oo (c = 0) need handling, so no gcd is taken and no Cusp built."""
    if c > 0:
        return f"{a}/{c}", a, c
    if c:
        return f"{-a}/{-c}", -a, -c
    return "oo", 1, 0


def mobius_cusp(m) -> Cusp:
    """Image of infinity under the matrix m = (a, b, c, d), i.e. a/c."""
    return cusp(m[0], m[2])

