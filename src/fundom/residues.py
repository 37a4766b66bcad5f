"""Exact arithmetic mod N with the symmetric residue convention.

A residue mod N is a plain int, taken as its unique representative in
the window [-N1, N2], where N1 = floor((N-1)/2) and N2 = floor(N/2).
The window is centered around zero so that downstream pictures come
out centered too.  `Level` owns the convention: `reduce` maps an int
into the window and `residues` lists the window.
"""

from __future__ import annotations

from math import gcd
from operator import attrgetter


class NotAUnit(ValueError):
    """Raised when a modular inverse is requested for a nonunit."""


class Frozen:
    """Base of the immutable value types.  Their fields are their
    __slots__, set once in __init__ through object.__setattr__.  They
    compare, hash and print by the tuple of their fields, and a copy or
    an unpickled value is built by calling the class again."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # one getter of the field tuple per class; attrgetter of one
        # name gives the bare value, so that one is wrapped
        get = attrgetter(*cls.__slots__)
        if len(cls.__slots__) == 1:
            cls._fields_of = staticmethod(lambda self: (get(self),))
        else:
            cls._fields_of = staticmethod(get)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __reduce__(self):
        return (type(self), self._fields_of(self))

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._fields_of(self) == self._fields_of(other)

    def __hash__(self):
        return hash(self._fields_of(self))

    def __repr__(self):
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__name__}({args})"


class Level(Frozen):
    """The modulus N >= 2 together with its symmetric window bounds;
    ordered by N."""

    __slots__ = ("n",)

    def __init__(self, n: int):
        if type(n) is not int:
            raise ValueError(f"level must be an int, got {n!r}")
        if n < 2:
            raise ValueError(f"level must be >= 2, got {n}")
        object.__setattr__(self, "n", n)

    def __lt__(self, other):
        return self.n < other.n if type(other) is Level else NotImplemented

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
