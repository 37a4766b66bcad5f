"""Exact arithmetic mod N with the symmetric residue convention.

Residues are always stored by their unique representative in the window
[-N1, N2], where N1 = floor((N-1)/2) and N2 = floor(N/2).  The window is
centered around zero so that downstream pictures come out centered too.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd


class NotAUnit(ValueError):
    """Raised when a modular inverse is requested for a nonunit."""


@dataclass(frozen=True, order=True)
class Level:
    """The modulus N >= 2 together with its symmetric window bounds."""

    n: int

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"level must be >= 2, got {self.n}")

    @property
    def n1(self) -> int:
        return (self.n - 1) // 2

    @property
    def n2(self) -> int:
        return self.n // 2

    def reduce(self, x: int) -> int:
        """Symmetric representative of x mod N, in [-N1, N2]."""
        r = x % self.n
        return r if r <= self.n2 else r - self.n

    def residues(self):
        """All residues at this level, in ascending window order."""
        return [Residue(self, v) for v in range(-self.n1, self.n2 + 1)]


@dataclass(frozen=True, order=True)
class Residue:
    level: Level
    value: int

    def __post_init__(self):
        if not -self.level.n1 <= self.value <= self.level.n2:
            raise ValueError(
                f"{self.value} outside symmetric window for N={self.level.n}"
            )

    def __int__(self) -> int:
        return self.value


def sym_rep(x: int, level: Level) -> Residue:
    """The residue of x mod N in symmetric form."""
    return Residue(level, level.reduce(x))


def gcd_with_level(a: Residue) -> int:
    """gcd(a, N) as a positive integer in [1, N]; gcd(0, N) = N."""
    g = gcd(a.value, a.level.n)
    return g if g != 0 else a.level.n


def is_unit(a: Residue) -> bool:
    return gcd_with_level(a) == 1


def inv_mod(a: Residue) -> Residue:
    """Inverse of a unit mod N, in symmetric form."""
    if not is_unit(a):
        raise NotAUnit(f"{a.value} is not a unit mod {a.level.n}")
    return sym_rep(pow(a.value, -1, a.level.n), a.level)
