"""Scalar coefficient helpers.

A scalar is either an exact rational (fractions.Fraction, with int accepted
as shorthand) or a double-precision float.  There is no wrapper class: the
"mode" of a value is its type, and Fraction already guarantees the normalized
representation (gcd 1, positive denominator).  Arithmetic between an exact
value and a float produces a float; that coercion point is the one and only
mode downgrade, and is_exact() lets callers record it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

Scalar = Union[Fraction, int, float]


def is_exact(x: Scalar) -> bool:
    return isinstance(x, (Fraction, int))


def mode(*values: Scalar) -> str:
    """Joint mode of a collection of scalars: 'exact' only if every one is."""
    return "exact" if all(is_exact(v) for v in values) else "float"


def parse_rational(text: str) -> Fraction:
    """Parse a string like '-1/9' or '3' into an exact Fraction."""
    return Fraction(text.strip())


def as_int(x: Scalar) -> int | None:
    """The exact integer value of x, or None if x is not an integer."""
    if isinstance(x, int):
        return x
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else None
    if isinstance(x, float):
        return int(x) if x.is_integer() else None
    return None
