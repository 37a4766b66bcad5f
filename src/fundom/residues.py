"""Exact arithmetic mod N with the symmetric residue convention.

A residue mod N is a plain int, taken as its unique representative in
the window [-N1, N2], where N1 = floor((N-1)/2) and N2 = floor(N/2).
The window is centered around zero so that downstream pictures come
out centered too.  `Level` owns the convention: `reduce` maps an int
into the window and `residues` lists the window.
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
        if type(self.n) is not int:
            raise ValueError(f"level must be an int, got {self.n!r}")
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

    def residues(self) -> range:
        """All residues at this level, in ascending window order."""
        return range(-self.n1, self.n2 + 1)


def inv_mod(a: int, level: Level) -> int:
    """Inverse of a unit mod N, in symmetric form."""
    if gcd(a, level.n) != 1:
        raise NotAUnit(f"{a} is not a unit mod {level.n}")
    return level.reduce(pow(a, -1, level.n))
