"""Exact dyadic rational arithmetic.

A dyadic rational is an integer divided by a power of two.  Traces of
diagonal projections, Kraft sums and the d_tau metric all live in this
ring, so every value in the library is computed here exactly and printed
in lowest terms as ``k/2^e``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union


@dataclass(frozen=True, slots=True)
class Dyadic:
    """numerator / 2**exponent, stored in lowest terms (exponent >= 0)."""

    numerator: int
    exponent: int

    def __init__(self, numerator: int, exponent: int = 0) -> None:
        if exponent < 0:
            numerator <<= -exponent
            exponent = 0
        if numerator:
            shift = min(exponent, (numerator & -numerator).bit_length() - 1)
            numerator >>= shift
            exponent -= shift
        else:
            exponent = 0
        object.__setattr__(self, "numerator", numerator)
        object.__setattr__(self, "exponent", exponent)

    @classmethod
    def _coerce(cls, value: Union["Dyadic", int]) -> "Dyadic":
        if isinstance(value, Dyadic):
            return value
        if isinstance(value, int):
            return cls(value)
        raise TypeError(f"cannot interpret {value!r} as a dyadic rational")

    def __add__(self, other: Union["Dyadic", int]) -> "Dyadic":
        other = self._coerce(other)
        e = max(self.exponent, other.exponent)
        num = (self.numerator << (e - self.exponent)) + (
            other.numerator << (e - other.exponent)
        )
        return Dyadic(num, e)

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

    def _cmp_key(self, other: Union["Dyadic", int]) -> tuple[int, int]:
        other = self._coerce(other)
        e = max(self.exponent, other.exponent)
        return (
            self.numerator << (e - self.exponent),
            other.numerator << (e - other.exponent),
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (Dyadic, int)):
            return NotImplemented
        a, b = self._cmp_key(other)
        return a == b

    def __hash__(self) -> int:
        # equal to an int exactly when integral, so hash like that int
        if self.exponent == 0:
            return hash(self.numerator)
        return hash((self.numerator, self.exponent))

    def __lt__(self, other: Union["Dyadic", int]) -> bool:
        a, b = self._cmp_key(other)
        return a < b

    def __le__(self, other: Union["Dyadic", int]) -> bool:
        a, b = self._cmp_key(other)
        return a <= b

    def __gt__(self, other: Union["Dyadic", int]) -> bool:
        a, b = self._cmp_key(other)
        return a > b

    def __ge__(self, other: Union["Dyadic", int]) -> bool:
        a, b = self._cmp_key(other)
        return a >= b

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


def half_power(e: int) -> Dyadic:
    """2**-e for e >= 0."""
    return Dyadic(1, e)
