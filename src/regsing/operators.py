"""The integral operator L, its integration-constant kernel f0, and the
integro-differential operator A.

    L g = int z^-alpha ( int z^alpha g dz ) dz
    A f = L( sum_{o>=1} z^{o-2} (a2_o z^2 f'' + a1_o z f' + a0_o f) )

over the conjugated slots (o, a2, a1, a0) of the OperatorSpec.

L is a right inverse of f -> f'' + (alpha/z) f', so the transformed equation
of the problem module becomes (1 + A) f = L(z^{w-2-lambda} F) + f0.  The
monomial images of L, with the log bookkeeping of the resonant cases:

    L z^p            = z^{p+2} / ((p+2)(alpha+p+1))      generic
    L z^{-2}         = log(z) / (alpha-1)                (alpha != 1)
    L z^{-2}         = log(z)^2 / 2                      (alpha = 1)
    L z^{-1-alpha}   = z^{1-alpha} (log(z)/(1-alpha) - 1/(1-alpha)^2)
    L z^m log z      = z^{m+2} (log(z)/((m+2)(alpha+m+1))
                       - (alpha+2m+3)/((m+2)^2 (alpha+m+1)^2))

One kernel computes L, for A and for L alike.  Index slot o by i = o - 1,
so that it is z^{i-1} (a2_i z^2 f'' + a1_i z f' + a0_i f).  For
f = z^s log^k z, slot i is z^{s-1+i} times the log vector

    log^k     a2_i s(s-1) + a1_i s + a0_i
    log^{k-1} k (a2_i (2s-1) + a1_i)
    log^{k-2} a2_i k(k-1)

and L maps z^e log^j z through two integrations, at p + 1 = e + 1 + alpha
and at p + 1 = e + 2 (by parts; a log power rises where p + 1 = 0).  With no
logs and no resonance this is

    A z^s = sum_i (a1_i s + a0_i + a2_i s(s-1)) z^{s+i+1} / ((s+i+alpha)(s+i+1)).

L itself is the same kernel with the single slot (1, 0, 0, 1), whose
integrand is f, at z^s.  Every factor is a small rational built from s, k,
alpha and the slots.  The kernel evaluates these images in plain integers,
as one reduced scale pair (w, d) per output term (scalars.ratio, the one
place it reduces them), and the caller multiplies each scale by the
(large) input coefficient once, so no intermediate series is built.  At
k = 0 off both resonances (99% of the slot images of the benchmark's
small solves, 80% of its order-400/800 solves, all of its float solves)
the kernel divides the log^0 entry of the vector by the two integrations'
factors at once, one term per slot; a log power or a resonance takes the
general path of the log vector and its two integrations.  It does so in
one arithmetic for both modes, int pairs kept in lowest terms with a
positive denominator (scalars.ratio, pair_mul, pair_add): a float is a
dyadic rational, so sigma, alpha, the slots and the input coefficients
are all read exactly.
Each output coefficient is rounded once, to a Fraction handed its pair as
it is, without a second gcd (scalars.pair_fraction), when the spec, the
base and every input are exact, and to the nearest float (pair_float)
otherwise; a float result is the exact image of the dyadic input,
correctly rounded.

In exact-rational mode every monomial has a well-defined image.  Float mode
decides each log branch on the float exponent p of the integrand: the log
branch at p == -1, the power branch otherwise, and SingularTerm when
0 < |p + 1| < 1e-12, where the branch cannot be decided reliably.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .logseries import (
    AccuracyError,
    LogSeries,
    euler_image,
    integrate_log_vector,
    linear_combine,
)
from .problem import OperatorSpec
from .scalars import Scalar, is_exact, pair_add, pair_float, pair_fraction, pair_mul, ratio


class SingularTerm(ArithmeticError):
    """Float-mode exponent within 1e-12 of a resonance: the log-vs-power
    branch cannot be decided, which signals a wrong index or an equation
    violating the regular-singularity hypothesis."""


_L_SLOTS = (1, ((1, 0, 0, 1),))


def apply_L(spec: OperatorSpec, f: LogSeries) -> LogSeries:
    """L f, term-exact, raising the base exponent by 2: the monomial kernel
    over the single slot (1, 0, 0, 1), with the integrand at z^s."""
    return _image(spec, f, _L_SLOTS, 1)


def make_f0(spec: OperatorSpec, c0: Scalar, c1: Scalar, order: int) -> LogSeries:
    """Kernel of L: f0 = c0 + c1 * int z^-alpha dz.

    alpha != 1: f0 = c0 + c1 z^{1-alpha}/(1-alpha); alpha = 1: c0 + c1 log z.
    A zero seed leaves no term (a LogSeries drops zero coefficients), so a
    single seed is one monomial at any alpha; both seeds raise
    NonIntegerExponentGap where 1 - alpha is not an integer.
    """
    a = spec.alpha
    if a == 1:
        return LogSeries(0, order, {(0, 0): c0, (0, 1): c1})
    if not is_exact(a) and abs(a - 1) < 1e-12:
        raise SingularTerm(f"alpha {a} within 1e-12 of 1: f0 branch undecidable")
    head = LogSeries.monomial(c0, 0, order)
    if c1 == 0:
        return head
    tail = LogSeries.monomial(c1 / (1 - a), 1 - a, order)
    return tail if c0 == 0 else linear_combine(1, head, 1, tail)


def apply_A(spec: OperatorSpec, f: LogSeries) -> LogSeries:
    """A f = L( sum_o z^{o-2} (a2_o z^2 f'' + a1_o z f' + a0_o f) ),
    based at f.sigma + 1 with horizon f.order; terms above it are dropped:
    the monomial kernel over the spec's integer slots, with the integrand of
    slot i at z^{s-1+i}."""
    return _image(spec, f, spec.integer_slots, 0)


def _image(spec: OperatorSpec, f: LogSeries, integer_slots, lift: int) -> LogSeries:
    """f through the kernel, based at f.sigma + 1 + lift, each coefficient
    rounded once; AccuracyError where a float one leaves the float range."""
    image = _kernel(spec, f.sigma, f.order, integer_slots, lift)
    out = _sum_images(image, ((key, c.as_integer_ratio()) for key, c in f.coeffs.items()))
    if spec.mode == "exact" and f.mode == "exact":
        return LogSeries(f.sigma + (1 + lift), f.order,
                         {key: pair_fraction(v) for key, v in out.items()})
    coeffs = {key: pair_float(v) for key, v in out.items()}
    for key, c in coeffs.items():
        if not math.isfinite(c):
            raise AccuracyError(f"image coefficient {key} = {c} overflows a float")
    return LogSeries(f.sigma + (1 + lift), f.order, coeffs)


def _sum_images(image, terms) -> dict:
    """sum over terms ((m, k), c) of c times image(m, k), per output key,
    with c, every scale and every sum a reduced pair; the sums that vanish
    are dropped."""
    out = {}
    for (m, k), c in terms:
        for key, scale in image(m, k):
            t = pair_mul(c, scale)
            there = out.get(key)
            out[key] = t if there is None else pair_add(there, t)
    return {key: v for key, v in out.items() if v[0]}


def _kernel(spec: OperatorSpec, sigma: Scalar, order: int, integer_slots, lift: int):
    """The image under L of the slots, per monomial z^s log^k z, s = sigma + m:
    image(m, k) lists ((m + i, j), (w, d)) for the terms (w/d) z^{s+1+lift+i}
    log^j z of each slot i whose integrand sits at z^{s-1+lift+i}, rows above
    `order` dropped.  Each scale (w, d) is a reduced pair, w != 0, that the
    caller multiplies into reduced pairs (_sum_images).  At k = 0, off both
    resonances, a slot's image is the closed form of the module docstring,
    one term ((m + i, 0), v[0] / (den pq1 pq2)), with v = euler_image(...)
    and p + 1 = pq1/q and pq2/q at the two integrations; a log power or a
    resonance takes the general path (integrate_log_vector twice).  Unless
    the spec and sigma are exact, each branch is decided on the float
    exponent p of its integrand first (_float_branch)."""
    den, slots = integer_slots
    exact = spec.mode == "exact" and is_exact(sigma)
    alpha = spec.alpha
    if not exact:
        lead = (sigma + (lift - 1)) + alpha     # the float base of the integrand
        mid = lead + 1 - alpha                  # and of the inner integral
        sigma, alpha = Fraction(sigma), Fraction(alpha)
    q = math.lcm(sigma.denominator, alpha.denominator)
    sq0 = sigma.numerator * (q // sigma.denominator)
    aq = alpha.numerator * (q // alpha.denominator)

    def image(m: int, k: int) -> list[tuple[tuple[int, int], tuple[int, int]]]:
        sq = sq0 + m * q
        terms = []
        for o, a2, a1, a0 in slots:
            i = o - 1
            if m + i > order:
                break
            v = euler_image(sq, q, k, a2, a1, a0)
            if not any(v):                       # no term, so no branch to decide
                continue
            pq1 = sq + (lift + i) * q + aq       # p + 1 = s + lift + i + alpha
            pq2 = sq + (lift + i + 1) * q        # p + 1 = s + lift + i + 1
            if not exact:
                pq1 = _float_branch(lead + (m + i), pq1)
                pq2 = _float_branch(mid + (m + i), pq2)
            if not k and pq1 and pq2:
                terms.append(((m + i, 0), ratio(v[0], den * pq1 * pq2)))
                continue
            v, d1 = integrate_log_vector(v, pq1, q)
            v, d2 = integrate_log_vector(v, pq2, q)
            d = den * q * q * d1 * d2
            for j, w in enumerate(v):
                if w:
                    terms.append(((m + i, j), ratio(w, d)))
        return terms

    return image


def _float_branch(p: Scalar, pq: int) -> int:
    """The numerator pq of p + 1 for an integration at the float exponent
    p, with the branch decided on p: 0 (the log branch) at p == -1, and
    SingularTerm when 0 < |p + 1| < 1e-12; pq itself otherwise.  The dyadic
    pq misses the resonance where float arithmetic landed on it."""
    if p == -1:
        return 0
    if isinstance(p, float) and 0 < abs(p + 1) < 1e-12:
        raise SingularTerm(f"exponent {p} within 1e-12 of the resonant value -1")
    return pq
