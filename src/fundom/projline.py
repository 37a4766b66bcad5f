"""The projective line P^1(Z/NZ) and its preferred representatives.

A class (a:b) with gcd(a,b,N)=1 is affine when gcd(a,N)=1 and at
infinity otherwise.  Affine classes store (1, a^-1 b).  Classes at
infinity store the unit-scaled pair (j, l) pinned down by M(j:l)*j - l
= 1 mod N, where M(a:b) is the least m >= 0 with m*a - b a unit.

Each level's classes are found once, by one scan, and kept as a tuple
of plain ints that `enumerate_p1`, `psi`, `m_table` and `m_distribution`
read.  The cache keeps the last _CACHED_LEVELS levels only.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from math import gcd

from .residues import Level, Residue

_CACHED_LEVELS = 8


class NotOnProjLine(ValueError):
    """gcd(a, b, N) > 1: the pair defines no class on P^1(Z/NZ)."""


class NotInH(ValueError):
    """M is only defined on the classes at infinity."""


class PointKind(Enum):
    AFFINE = "affine"
    INFINITY = "infinity"


@dataclass(frozen=True, order=True)
class ProjPoint:
    """A class of P^1(Z/NZ) held by its preferred representative.

    Structural equality of the stored pair is class equality.
    """

    level: Level
    a: Residue
    b: Residue
    kind: PointKind


def _check_class(a: int, b: int, n: int):
    if gcd(gcd(a, b), n) != 1:
        raise NotOnProjLine(f"gcd({a}, {b}, {n}) > 1")


# class kinds in the cached table; affine sorts first, as in PointKind
_AFFINE, _INFINITY = 0, 1
_KINDS = (PointKind.AFFINE, PointKind.INFINITY)


def _preferred(a: int, b: int, level: Level) -> tuple:
    """(kind, a', b', M) for the class (a:b), given gcd(a, b, N) = 1;
    M is -1 for an affine class, where it is undefined.

    The sequence m*a - b mod N has period dividing N, so a unit shows
    up before m reaches N or never; never is impossible for a class of
    P^1, which we enforce as an internal invariant.
    """
    n = level.n
    if gcd(a, n) == 1:
        return (_AFFINE, 1, level.reduce(pow(a, -1, n) * b), -1)
    for m in range(n):
        if gcd(m * a - b, n) == 1:
            cinv = pow(m * a - b, -1, n)
            r = level.reduce
            return (_INFINITY, r(a * cinv), r(b * cinv), m)
    raise AssertionError(f"no unit m*{a}-{b} mod {n}; broken invariant")


@lru_cache(maxsize=_CACHED_LEVELS)
def _classes(level: Level) -> tuple:
    """Every class of P^1(Z/NZ) once, as (kind, a, b, M), in the order
    of `enumerate_p1`.

    The affine classes are the (1:b): (a:b) with a unit a is (1:a^-1 b).
    The classes at infinity come from one scan of the pairs (a, b) with
    a nonunit.  All rows a with the same g = gcd(a, N) meet the same
    classes, so only the first is scanned.  Within it a class is the
    pairs (a, v*b) for the units v = 1 mod N/g; all are marked seen when
    the first is normalized, so M is found once per class.
    """
    n = level.n
    window = range(-level.n1, level.n2 + 1)
    at_infinity, scanned = [], set()
    for a in window:
        g = gcd(a, n)
        if g == 1 or g in scanned:
            continue
        scanned.add(g)
        stabilizer = [v for v in range(1, n, n // g) if gcd(v, n) == 1]
        seen = bytearray(n)
        for b in window:
            if seen[b % n] or gcd(g, b) != 1:
                continue
            at_infinity.append(_preferred(a, b, level))
            for v in stabilizer:
                seen[v * b % n] = 1
    affine = [(_AFFINE, 1, b, -1) for b in window]
    return tuple(affine + sorted(at_infinity))


def _point(level: Level, kind: int, a: int, b: int, m: int) -> ProjPoint:
    return ProjPoint(level, Residue(level, a), Residue(level, b), _KINDS[kind])


def big_m(a: int, b: int, level: Level) -> int:
    """Least m >= 0 with m*a - b a unit mod N; defined on H only."""
    n = level.n
    _check_class(a, b, n)
    if gcd(a, n) == 1:
        raise NotInH(f"({a}:{b}) is affine mod {n}")
    return _preferred(a, b, level)[3]


def normalize(a: int, b: int, level: Level) -> ProjPoint:
    """The preferred representative of the class (a:b)."""
    _check_class(a, b, level.n)
    return _point(level, *_preferred(a, b, level))


@dataclass(frozen=True)
class MTable:
    """j -> M_j over the nonunits j, where M_j is the max of M over the
    H classes whose preferred first coordinate is j."""

    level: Level
    entries: dict

    def __getitem__(self, j: int) -> int:
        return self.entries[self.level.reduce(j)]


def m_table(level: Level) -> MTable:
    entries: dict[int, int] = {}
    for kind, j, _, m in _classes(level):
        if kind == _INFINITY:
            entries[j] = max(entries.get(j, 0), m)
    return MTable(level, entries)


def enumerate_p1(level: Level) -> list[ProjPoint]:
    """All classes of P^1(Z/NZ), affine part first, each exactly once."""
    return [_point(level, *cls) for cls in _classes(level)]


def psi(level: Level) -> int:
    """Index [Gamma(1):Gamma_0(N)], counted as |P^1(Z/NZ)|."""
    return len(_classes(level))


def m_distribution(level: Level) -> dict[int, int]:
    """Histogram of M over all classes at infinity."""
    hist = Counter(m for kind, _, _, m in _classes(level) if kind == _INFINITY)
    return dict(sorted(hist.items()))
