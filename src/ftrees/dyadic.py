"""Exact dyadic rational arithmetic.

A dyadic rational is an integer divided by a power of two.  Traces of
diagonal projections, Kraft sums and the d_tau metric all live in this
ring, so every value in the library is computed here exactly and printed
in lowest terms as ``k/2^e``.
"""

from __future__ import annotations

from functools import total_ordering
from typing import Union

from ._frozen import Frozen


@total_ordering
class Dyadic(Frozen):
    """numerator / 2**exponent, stored in lowest terms (exponent >= 0)."""

    numerator: int
    exponent: int

    def __init__(self, numerator: int, exponent: int = 0) -> None:
        for value in (numerator, exponent):
            if not isinstance(value, int):
                raise TypeError(f"numerator and exponent must be integers, not {value!r}")
        if exponent < 0:
            numerator <<= -exponent
            exponent = 0
        if numerator:
            shift = min(exponent, (numerator & -numerator).bit_length() - 1)
            numerator >>= shift
            exponent -= shift
        else:
            exponent = 0
        self.__dict__.update(numerator=numerator, exponent=exponent)

    @classmethod
    def _coerce(cls, value: Union["Dyadic", int]) -> "Dyadic":
        if isinstance(value, Dyadic):
            return value
        if isinstance(value, int):
            return cls(value)
        raise TypeError(f"cannot interpret {value!r} as a dyadic rational")

    def _align(self, other: Union["Dyadic", int]) -> tuple[int, int, int]:
        """(a, b, e) with self = a / 2**e and other = b / 2**e."""
        other = self._coerce(other)
        e = max(self.exponent, other.exponent)
        return self.numerator << (e - self.exponent), other.numerator << (e - other.exponent), e

    def __add__(self, other: Union["Dyadic", int]) -> "Dyadic":
        a, b, e = self._align(other)
        return Dyadic(a + b, e)

    __radd__ = __add__

    def __sub__(self, other: Union["Dyadic", int]) -> "Dyadic":
        return self + (-self._coerce(other))

    def __rsub__(self, other: Union["Dyadic", int]) -> "Dyadic":
        return self._coerce(other) + (-self)

    def __neg__(self) -> "Dyadic":
        return Dyadic(-self.numerator, self.exponent)

    def __abs__(self) -> "Dyadic":
        return Dyadic(abs(self.numerator), self.exponent)

    def __mul__(self, other: Union["Dyadic", int]) -> "Dyadic":
        other = self._coerce(other)
        return Dyadic(self.numerator * other.numerator, self.exponent + other.exponent)

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (Dyadic, int)):
            return NotImplemented
        a, b, _ = self._align(other)
        return a == b

    def __hash__(self) -> int:
        # equal to an int exactly when integral, so hash like that int
        if self.exponent == 0:
            return hash(self.numerator)
        return hash((self.numerator, self.exponent))

    def __lt__(self, other: Union["Dyadic", int]) -> bool:
        a, b, _ = self._align(other)
        return a < b

    def scaled(self, e: int) -> int:
        """self * 2**e as an exact integer; raises if not integral."""
        if e < self.exponent:
            raise ValueError(f"{self} * 2^{e} is not an integer")
        return self.numerator << (e - self.exponent)

    def __str__(self) -> str:
        if self.exponent == 0:
            return str(self.numerator)
        return f"{self.numerator}/{1 << self.exponent}"

    def __repr__(self) -> str:
        return f"Dyadic({self.numerator}, {self.exponent})"
