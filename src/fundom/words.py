"""Words in the generators S, T of SL2(Z), their matrices, and cusps.

A word is a string: a signed product of tokens S and T^e such as
"ST^-3ST^3S", with "I" for the empty word and an optional leading "-".
In its canonical form, which the builders write and `parse_word`
returns, adjacent T powers are merged, T^0 is dropped and T^1 is
written "T".  Evaluation lands in SL2(Z) with arbitrary-precision
entries; silent overflow is impossible.

`fold` multiplies a word string out on four plain ints and returns
the plain tuple (a, b, c, d), its determinant checked once;
`CosetList.mats` holds these, or a built list's closed forms.  A
`Mat2` is a tuple (a, b, c, d) that checks its determinant when it is
built, for matrices that come in from outside: `evaluate` returns the
word's matrix as one `Mat2`.
"""

from __future__ import annotations

import re
from math import gcd
from operator import itemgetter

from .residues import Frozen


# globals are found faster than attributes of a class
_tuple_new = tuple.__new__
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


def t_power(e: int) -> str:
    """T^e as a word writes it: "" for e = 0, "T" for e = 1."""
    return "" if e == 0 else "T" if e == 1 else f"T^{e}"


# [0-9], not \d: \d matches every Unicode digit, and int() reads them
_WORD_RE = re.compile(r"(?:S|T(?:\^-?[0-9]+)?)*")


def _runs(s: str) -> tuple[int, list[str]]:
    """The sign of a word string and its runs of T tokens, split at
    each S; raises ValueError, naming the position, on a bad string."""
    text = s.strip()
    sign = 1
    if text.startswith("-"):
        sign = -1
        text = text[1:]
    if text == "I":
        return sign, [""]
    # the longest run of whole tokens ends where a token-by-token scan
    # would stop
    pos = _WORD_RE.match(text).end()
    if pos != len(text):
        raise ValueError(f"bad word string {s!r} at position {pos}")
    return sign, text.split("S")


def _power(run: str) -> int:
    """The exponent of a run of T tokens: "", "T", "T^-3", or unmerged
    tokens such as "T^2TT^0"."""
    return sum(map(int, run.replace("T^", " ").replace("T", " 1").split()))


def parse_word(s: str) -> str:
    """The canonical string of a word such as 'ST^-3ST^3S', 'I' or
    '-T^2': T powers merged, T^0 dropped, T^1 written T, "I" for the
    empty word and a leading "-" kept."""
    sign, runs = _runs(s)
    body = "S".join([t_power(_power(run)) for run in runs]) or "I"
    return "-" + body if sign < 0 else body


def fold(s: str) -> tuple:
    """The matrix of a word string, product of generators times the
    sign, as the plain tuple (a, b, c, d); raises ValueError on a
    string `parse_word` refuses, or unless ad - bc = 1."""
    sign, runs = _runs(s)
    a, b, c, d = 1, _power(runs[0]), 0, 1
    for run in runs[1:]:
        # times S, then times T^e
        e = _power(run)
        a, b, c, d = b, e * b - a, d, e * d - c
    if a * d - b * c != 1:
        raise ValueError(f"determinant is not 1: [[{a},{b}],[{c},{d}]]")
    if sign < 0:
        return (-a, -b, -c, -d)
    return (a, b, c, d)


def evaluate(s: str) -> Mat2:
    """The matrix of a word string as one checked `Mat2`."""
    return Mat2(*fold(s))


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

