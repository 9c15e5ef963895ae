"""Scalar coefficient helpers.

A scalar is either an exact rational (fractions.Fraction, with int accepted
as shorthand) or a double-precision float.  There is no wrapper class: the
"mode" of a value is its type, and every Fraction is in lowest terms (gcd
1, positive denominator).  Arithmetic between an exact value and a float
produces a float; that coercion point is the one and only mode downgrade,
and is_exact() lets callers record it.

The hot loops of the monomial kernels (operators, solver) combine values
as reduced (numerator, denominator) int pairs instead, in both modes: a
float is the dyadic rational float.as_integer_ratio() gives, so a float
input is read exactly, as an exact one is.  ratio, pair_mul and pair_add
take the gcd steps of Fraction's own reduced arithmetic (Henrici; Knuth,
TAOCP Vol. 2, 4.5.1), so every intermediate stays in lowest terms with a
positive denominator, and each stored coefficient is rounded once: to a
Fraction (pair_fraction) when every input was exact, to the nearest float
(pair_float) otherwise.  The invariant lets a large pair reach its
Fraction through the public numbers.Rational protocol, which copies
numerator and denominator as they are, instead of through Fraction(n, d),
whose gcd would only prove the reduction again.
"""

from __future__ import annotations

import numbers
from fractions import Fraction
from math import gcd, inf
from typing import Union

Scalar = Union[Fraction, int, float]
Pair = tuple[int, int]


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


def ratio(n: int, d: int) -> Pair:
    """n/d (d != 0) as a reduced pair: gcd 1, positive denominator."""
    g = gcd(n, d)
    if d < 0:
        g = -g
    return n // g, d // g


def pair_mul(a: Pair, b: Pair) -> Pair:
    """a * b of reduced pairs, reduced by the cross gcds."""
    na, da = a
    nb, db = b
    g1 = gcd(na, db)
    if g1 > 1:
        na //= g1
        db //= g1
    g2 = gcd(nb, da)
    if g2 > 1:
        nb //= g2
        da //= g2
    return na * nb, da * db


def pair_add(a: Pair, b: Pair) -> Pair:
    """a + b of reduced pairs, reduced: only a factor of g = gcd(da, db)
    can divide the new numerator t against the new denominator."""
    na, da = a
    nb, db = b
    g = gcd(da, db)
    if g == 1:
        return na * db + da * nb, da * db
    s = da // g
    t = na * (db // g) + nb * s
    g2 = gcd(t, g)
    if g2 == 1:
        return t, s * db
    return t // g2, s * (db // g2)


class _Reduced:
    """A reduced pair as a numbers.Rational: the protocol requires
    numerator and denominator in lowest terms, and Fraction(r) copies them
    as they are."""
    __slots__ = ("numerator", "denominator")

    def __init__(self, n: int, d: int):
        self.numerator = n
        self.denominator = d


numbers.Rational.register(_Reduced)

# below this size Fraction(n, d) and its gcd cost less than the
# numbers.Rational check of the handover (CPython 3.11: about 1 against
# 1.4 us at 64 bits, and 2.3 against 1.4 us at 256)
_SMALL = 1 << 128


def pair_fraction(v: Pair) -> Fraction:
    """The Fraction of a reduced pair (gcd 1, positive denominator), equal
    to Fraction(*v) in numerator, denominator, type and hash.  Once |n|
    or d reaches 2^128 the pair is copied unchecked, so a pair that is not
    reduced would make a Fraction that is not either."""
    n, d = v
    if d < _SMALL and -_SMALL < n < _SMALL:
        return Fraction(n, d)
    return Fraction(_Reduced(n, d))


def pair_float(v: Pair) -> float:
    """The float nearest n/d (int true division rounds correctly), and
    +-inf where that leaves the float range, as float arithmetic gives."""
    n, d = v
    try:
        return n / d
    except OverflowError:
        return inf if n > 0 else -inf
