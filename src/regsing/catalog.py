"""Reference series for the special functions the solver reproduces.

Everything here is built from classical coefficient formulas (Pochhammer
symbols, harmonic numbers) or the classical recurrences of the logarithmic
case (log_second_recurrence), never from the operator pipeline, so that
agreement tests against the solver are non-circular.  The computing
modules (logseries, problem, operators, solver, mellin) read nothing here
but ParameterError and struve_prefactor, and compute every coefficient
through the operator A; the CLI's compare command and the tests hold these
series against them.

Normalizations used (chosen so the coefficients stay rational):

  bessel_j_series(nu)        sum_k (-1)^k z^{2k} / (k! (1+nu)_k 4^k)
                             = Gamma(1+nu) (z/2)^{-nu} J_nu(z)
  struve_series(nu, scaled)  scaled: sum_v (-1)^v z^{2v+1+nu} 4^{-v}
                                     / ((2nu+1) (3/2)_v (3/2+nu)_v);
                             the Struve function is prefactor * scaled with
                             prefactor = 2^{1-nu}/(sqrt(pi) Gamma(1/2+nu))
  bessel_log_second_series(n) the second solution of the Bessel equation for
                             integer order, in the pipeline normalization
                             (seed z^{-2n}/(-2n), or log z when n = 0)
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import islice

from .logseries import LogSeries
from .scalars import Scalar, as_int, is_exact


class ParameterError(ValueError):
    """Family parameters outside the admissible domain."""


def pochhammer(x: Scalar, n: int) -> Scalar:
    """(x)_n = x (x+1) ... (x+n-1), with (x)_0 = 1."""
    if n < 0:
        raise ValueError("pochhammer order must be >= 0")
    out = Fraction(1) if is_exact(x) else 1.0
    for j in range(n):
        out *= x + j
    return out


def harmonic(n: int) -> Fraction:
    """H_n = 1 + 1/2 + ... + 1/n, H_0 = 0."""
    return sum((Fraction(1, j) for j in range(1, n + 1)), Fraction(0))


def _require_not_nonpositive_integer(x: Scalar, name: str) -> None:
    k = as_int(x)
    if k is not None and k <= 0:
        raise ParameterError(f"{name} = {x} is a non-positive integer")


def hyp1f1_series(a: Scalar, c: Scalar, order: int) -> LogSeries:
    """Coefficients (a)_n / ((c)_n n!)."""
    _require_not_nonpositive_integer(c, "c")
    coeffs = {}
    term = Fraction(1) if is_exact(a) and is_exact(c) else 1.0
    for n in range(order + 1):
        coeffs[(n, 0)] = term
        term = term * (a + n) / ((c + n) * (n + 1))
    return LogSeries(0, order, coeffs)


def hyp2f1_series(a: Scalar, b: Scalar, c: Scalar, order: int) -> LogSeries:
    """Coefficients (a)_n (b)_n / ((c)_n n!)."""
    _require_not_nonpositive_integer(c, "c")
    coeffs = {}
    term = Fraction(1) if all(map(is_exact, (a, b, c))) else 1.0
    for n in range(order + 1):
        coeffs[(n, 0)] = term
        term = term * (a + n) * (b + n) / ((c + n) * (n + 1))
    return LogSeries(0, order, coeffs)


def bessel_j_series(nu: Scalar, order: int) -> LogSeries:
    """sum_k (-1)^k z^{2k}/(k! (1+nu)_k 4^k) = Gamma(1+nu)(z/2)^{-nu} J_nu(z)."""
    k = as_int(nu)
    if k is not None and k < 0:
        raise ParameterError(f"nu = {nu} is a negative integer")
    coeffs = {}
    term = Fraction(1) if is_exact(nu) else 1.0
    k = 0
    while 2 * k <= order:
        coeffs[(2 * k, 0)] = term
        term = -term / (4 * (k + 1) * (nu + k + 1))
        k += 1
    return LogSeries(0, order, coeffs)


def struve_prefactor(nu: Scalar) -> float:
    """H_nu = struve_prefactor(nu) * struve_series(nu, scaled=True)."""
    return 2.0 ** (1 - float(nu)) / (math.sqrt(math.pi) * math.gamma(0.5 + float(nu)))


def struve_series(nu: Scalar, order: int, scaled: bool = True) -> LogSeries:
    """Particular solution of the driven Bessel equation (the Struve series).

    scaled=True keeps the coefficients rational (see module docstring);
    scaled=False returns the classical H_nu coefficients
    (-1)^v / (Gamma(3/2+v) Gamma(3/2+nu+v)) * 2^-(2v+1+nu) as floats.
    """
    if 2 * nu == -1:
        raise ParameterError("nu = -1/2 is outside this normalization")
    k = as_int(nu + Fraction(3, 2)) if is_exact(nu) else None
    if k is not None and k <= 0:
        raise ParameterError(f"nu = {nu}: series coefficients hit a pole")
    coeffs = {}
    term = 1 / (Fraction(2) * nu + 1) if is_exact(nu) else 1.0 / (2 * float(nu) + 1)
    v = 0
    while 2 * v <= order:
        coeffs[(2 * v, 0)] = term
        term = -term / (4 * (Fraction(3, 2) + v) * (Fraction(3, 2) + nu + v))
        v += 1
    series = LogSeries(1 + nu, order, coeffs)
    if scaled:
        return series
    pref = struve_prefactor(nu)
    return LogSeries(1 + nu, order,
                     {mk: pref * float(c) for mk, c in coeffs.items()})


def log_second_c1(n: int, m: int) -> Fraction:
    """Log-stream coefficient: c1(m) = 1/(4^n n! m! (m+n)!)."""
    return Fraction(1, 4**n * math.factorial(n) * math.factorial(m) * math.factorial(m + n))


def log_second_c2(n: int, m: int) -> Fraction:
    """Power-stream mate: c2(m) = -c1(m) (H_m - H_n + H_{m+n})/2."""
    return -log_second_c1(n, m) * (harmonic(m) - harmonic(n) + harmonic(m + n)) / 2


def log_second_recurrence(n: int):
    """The endless pairs (c1(m), c2(m)), m = 0, 1, 2, ..., of the log-case
    recurrences, iterated from the base step c1(0) = 1/(4^n n!^2), c2(0) = 0:

        c1(m+1) = c1(m)/((1+m)(1+m+n))
        c2(m+1) = c2(m)/((1+m)(1+m+n)) - c1(m)(2+2m+n)/(2(1+m)^2(1+m+n)^2)
    """
    c1 = Fraction(1, 4**n * math.factorial(n) ** 2)
    c2 = Fraction(0)
    m = 0
    while True:
        yield c1, c2
        den = (1 + m) * (1 + m + n)
        c2 = (c2 - c1 * Fraction(2 + 2 * m + n, 2 * den)) / den
        c1 = c1 / den
        m += 1


def log_second_recurrence_streams(n: int, m_max: int) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """The streams (c1(0..m_max), c2(0..m_max)) of log_second_recurrence."""
    c1s, c2s = zip(*islice(log_second_recurrence(n), max(m_max, 0) + 1))
    return c1s, c2s


def bessel_log_second_series(n: int, order: int) -> LogSeries:
    """Second Bessel solution for integer order n >= 0, pipeline normalization.

    Base exponent -2n.  Head (j < n): coefficients of z^{-2n+2j} are
    (-1)^j / ((-2n) 4^j j! (1-n)_j); for n = 0 there is no head and the seed
    is log z.  Tail (m >= 0): the z^{2m} slot carries
    (-1)^m 4^{-m} (c1(m) log z + c2(m)).
    """
    if n < 0:
        raise ParameterError("integer order n must be >= 0")
    sigma = -2 * n
    coeffs: dict[tuple[int, int], Scalar] = {}
    for j in range(n):
        idx = 2 * j
        if idx > order:
            break
        c = Fraction((-1) ** j, -2 * n) / (4**j * math.factorial(j)) / pochhammer(Fraction(1 - n), j)
        coeffs[(idx, 0)] = c
    m = 0
    while 2 * (m + n) <= order:
        idx = 2 * (m + n)
        sign = (-1) ** m
        coeffs[(idx, 1)] = sign * Fraction(1, 4**m) * log_second_c1(n, m)
        c2 = log_second_c2(n, m)
        if c2 != 0:
            coeffs[(idx, 0)] = sign * Fraction(1, 4**m) * c2
        m += 1
    return LogSeries(sigma, order, coeffs)
