"""Exact rational vectors indexed by the vertices of a plumbing tree.

A cycle is stored as an integer vector over a single positive denominator,
normalised so that equality and hashing are structural.  All arithmetic is
exact; nothing in this package ever touches floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable


@dataclass(frozen=True)
class RationalCycle:
    """Immutable exact rational vector.

    >>> x = RationalCycle((3, 2, 1), 4)
    >>> x + x
    RationalCycle(num=(3, 2, 1), den=2)
    >>> str(x)
    '(3/4, 1/2, 1/4)'
    """

    num: tuple[int, ...]
    den: int = 1

    def __post_init__(self) -> None:
        if self.den == 0:
            raise ZeroDivisionError("cycle denominator must be nonzero")
        num, den = self.num, self.den
        if den < 0:
            num, den = tuple(-a for a in num), -den
        g = den
        for a in num:
            g = gcd(g, a)
            if g == 1:
                break
        if g > 1:
            num = tuple(a // g for a in num)
            den //= g
        object.__setattr__(self, "num", tuple(num))
        object.__setattr__(self, "den", den)

    @classmethod
    def from_fractions(cls, fracs: Iterable[Fraction | int]) -> "RationalCycle":
        fr = [Fraction(f) for f in fracs]
        den = 1
        for f in fr:
            den = den * f.denominator // gcd(den, f.denominator)
        return cls(tuple(int(f * den) for f in fr), den)

    def __len__(self) -> int:
        return len(self.num)

    def coeff(self, i: int) -> Fraction:
        return Fraction(self.num[i], self.den)

    def fractions(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(a, self.den) for a in self.num)

    def scaled(self, d: int) -> tuple[int, ...]:
        """Coordinates multiplied by ``d``; requires ``den | d``."""
        if d % self.den:
            raise ValueError(f"cycle with denominator {self.den} does not lie in (1/{d})-lattice")
        f = d // self.den
        return tuple(a * f for a in self.num)

    def __add__(self, other: "RationalCycle") -> "RationalCycle":
        a, b = self, other
        den = a.den * b.den // gcd(a.den, b.den)
        fa, fb = den // a.den, den // b.den
        return RationalCycle(tuple(x * fa + y * fb for x, y in zip(a.num, b.num, strict=True)), den)

    def __sub__(self, other: "RationalCycle") -> "RationalCycle":
        return self + (-other)

    def __neg__(self) -> "RationalCycle":
        return RationalCycle(tuple(-a for a in self.num), self.den)

    def __mul__(self, c: int | Fraction) -> "RationalCycle":
        c = Fraction(c)
        return RationalCycle(tuple(a * c.numerator for a in self.num), self.den * c.denominator)

    __rmul__ = __mul__

    def leq(self, other: "RationalCycle") -> bool:
        """Coefficientwise partial order ``self <= other``."""
        d = other - self
        return all(a >= 0 for a in d.num)

    def geq(self, other: "RationalCycle") -> bool:
        return other.leq(self)

    def floor_part(self) -> "RationalCycle":
        return RationalCycle(tuple(a // self.den for a in self.num), 1)

    def frac_part(self) -> "RationalCycle":
        """Coordinatewise fractional part, each coordinate in [0, 1)."""
        return RationalCycle(tuple(a % self.den for a in self.num), self.den)

    @property
    def is_integral(self) -> bool:
        return self.den == 1

    @property
    def is_effective(self) -> bool:
        return all(a >= 0 for a in self.num)

    @property
    def is_zero(self) -> bool:
        return not any(self.num)

    def __str__(self) -> str:
        return "(" + ", ".join(str(Fraction(a, self.den)) for a in self.num) + ")"


def zero_cycle(n: int) -> RationalCycle:
    return RationalCycle((0,) * n, 1)


def basis_cycle(n: int, i: int) -> RationalCycle:
    return RationalCycle(tuple(1 if j == i else 0 for j in range(n)), 1)
