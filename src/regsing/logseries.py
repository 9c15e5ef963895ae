"""Truncated generalized power series with log factors.

A LogSeries represents

    f(z) = sum_{m=0..order} sum_{k=0..K} c[m,k] * z**(sigma+m) * log(z)**k

where sigma is a real base exponent (Fraction when possible) and the c[m,k]
are exact rationals or floats (see scalars).  order = N is an exactness
horizon: coefficients for m <= N are complete, nothing is known above it.
Every operation computes the correct horizon of its result, so a solve at
order N and one at order N+5 agree on all coefficients up to N.

Values are immutable by convention: no operation mutates an input, and the
coeffs dict must not be touched after construction.

The monomial kernels at the end of the module give the image of one
monomial z^s log^k z under an Euler-type operator and under integration in
small integers, read exactly in either mode.  Their callers (operators,
solver) scale the terms by the input coefficients on reduced int pairs and
round each stored coefficient once (scalars), so there is one term
arithmetic for exact and float series alike.
"""

from __future__ import annotations

import math

from .scalars import Scalar, as_int, mode as scalar_mode


class NonIntegerExponentGap(ValueError):
    """Two series whose base exponents do not differ by an integer."""


class DomainError(ValueError):
    """Evaluation point outside the series' domain: z <= 0, or at or beyond
    its disc of convergence."""


class AccuracyError(ArithmeticError):
    """A float result that cannot be trusted: a value that leaves the float
    range, or a quadrature tail estimate above the requested tolerance."""


def _gap(sigma_f: Scalar, sigma_g: Scalar) -> int | None:
    """Integer gap sigma_g - sigma_f, or None."""
    d = sigma_g - sigma_f
    n = as_int(d)
    if n is not None:
        return n
    if isinstance(d, float) and abs(d - round(d)) < 1e-9:
        return round(d)
    return None


class LogSeries:
    __slots__ = ("sigma", "order", "coeffs")

    def __init__(self, sigma: Scalar, order: int, coeffs: dict[tuple[int, int], Scalar]):
        if order < 0:
            raise ValueError("order must be >= 0")
        clean = {}
        for (m, k), c in coeffs.items():
            if not (0 <= m <= order) or k < 0:
                raise ValueError(f"coefficient index ({m},{k}) outside grid")
            if c != 0:
                clean[(m, k)] = c
        self.sigma = sigma
        self.order = order
        self.coeffs = clean

    @classmethod
    def zero(cls, order: int, sigma: Scalar = 0) -> "LogSeries":
        return cls(sigma, order, {})

    @classmethod
    def monomial(cls, coeff: Scalar, sigma: Scalar, order: int, log_power: int = 0) -> "LogSeries":
        """coeff * z**sigma * log(z)**log_power as a series of the given order."""
        return cls(sigma, order, {(0, log_power): coeff})

    @property
    def max_log_power(self) -> int:
        return max((k for (_, k) in self.coeffs), default=0)

    @property
    def mode(self) -> str:
        return scalar_mode(self.sigma, *self.coeffs.values())

    def coefficient(self, m: int, k: int = 0) -> Scalar:
        return self.coeffs.get((m, k), 0)

    def coefficient_at(self, exponent: Scalar, k: int = 0) -> Scalar:
        """Coefficient of z**exponent * log(z)**k; exponent is absolute."""
        m = _gap(self.sigma, exponent)
        if m is None or not (0 <= m <= self.order):
            return 0
        return self.coeffs.get((m, k), 0)

    def is_zero(self) -> bool:
        return not self.coeffs

    def terms(self):
        """Sorted (m, k, coeff) triples."""
        for (m, k) in sorted(self.coeffs):
            yield m, k, self.coeffs[(m, k)]

    def __eq__(self, other):
        """Content equality: same terms at the same absolute exponents.

        The order horizon is an annotation, not content; zero series of any
        base exponent compare equal.
        """
        if not isinstance(other, LogSeries):
            return NotImplemented
        if self.coeffs != other.coeffs:
            return False
        return not self.coeffs or self.sigma == other.sigma

    def __hash__(self):
        # the base is no content of a zero series (__eq__)
        return hash((self.sigma if self.coeffs else None, frozenset(self.coeffs.items())))

    def __repr__(self):
        parts = []
        for m, k, c in self.terms():
            p = self.sigma + m
            s = f"{c}"
            if p != 0:
                s += f"*z^{p}"
            if k:
                s += f"*log(z)^{k}" if k > 1 else "*log(z)"
            parts.append(s)
        body = " + ".join(parts) if parts else "0"
        return f"LogSeries({body}; order={self.order})"


def truncate(f: LogSeries, order: int) -> LogSeries:
    """Restrict the exactness horizon (or pad it upward with unknowns)."""
    if order >= f.order:
        return LogSeries(f.sigma, order, f.coeffs)
    kept = {mk: c for mk, c in f.coeffs.items() if mk[0] <= order}
    return LogSeries(f.sigma, order, kept)


def shift_exponent(f: LogSeries, delta: Scalar) -> LogSeries:
    """Multiply by z**delta (exact: only the base exponent moves)."""
    return LogSeries(f.sigma + delta, f.order, f.coeffs)


def linear_combine(a: Scalar, f: LogSeries, b: Scalar, g: LogSeries) -> LogSeries:
    """a*f + b*g on the aligned exponent grid.

    The base exponents must differ by an integer; the result is based at the
    smaller one.  The horizon is the smaller of the two aligned horizons
    (indices above it could receive contributions from an unknown tail).
    """
    gap = _gap(f.sigma, g.sigma)
    if gap is None:
        raise NonIntegerExponentGap(
            f"cannot align base exponents {f.sigma} and {g.sigma}")
    if gap >= 0:
        sigma, off_f, off_g = f.sigma, 0, gap
    else:
        sigma, off_f, off_g = g.sigma, -gap, 0
    order = min(off_f + f.order, off_g + g.order)
    out: dict[tuple[int, int], Scalar] = {}
    if a != 0:
        for (m, k), c in f.coeffs.items():
            if off_f + m <= order:
                out[(off_f + m, k)] = a * c
    if b != 0:
        for (m, k), c in g.coeffs.items():
            mm = off_g + m
            if mm <= order:
                out[(mm, k)] = out.get((mm, k), 0) + b * c
    return LogSeries(sigma, order, out)


def differentiate(f: LogSeries) -> LogSeries:
    """Term rule d/dz [z^p log^k z] = p z^{p-1} log^k z + k z^{p-1} log^{k-1} z."""
    out: dict[tuple[int, int], Scalar] = {}
    for (m, k), c in f.coeffs.items():
        p = f.sigma + m
        if p != 0:
            out[(m, k)] = out.get((m, k), 0) + c * p
        if k > 0:
            out[(m, k - 1)] = out.get((m, k - 1), 0) + c * k
    return LogSeries(f.sigma - 1, f.order, out)


# Monomial kernels.  The exact images of one monomial z^s log^k z under an
# Euler-type differential operator and under integration are small rationals
# built from s and k alone.  They are computed here in plain integers, with
# s = sq/q for a fixed denominator q and a log vector held as numerators over
# one common denominator, so no gcd is taken until each output term's scale
# w/d is reduced once (operators._kernel), or, in the residual, until each
# sum is divided by its one denominator (solver._substitute_exact).

def integer_slots(slots) -> tuple[int, tuple[tuple[int, int, int, int], ...]]:
    """(den, slots) with every (o, a2, a1, a0) of the slots scaled to
    integers over one common denominator den, the lcm of their own: each
    value is read once as the pair as_integer_ratio() gives, so a float is
    the dyadic rational it is, and scaled by integer division, with no
    Fraction built.  An infinite float raises OverflowError and a nan
    ValueError, as Fraction(a) does."""
    pairs = [(o, [a.as_integer_ratio() for a in coeffs]) for o, *coeffs in slots]
    den = math.lcm(*(d for _o, row in pairs for _n, d in row))
    return den, tuple((o, *(n * (den // d) for n, d in row)) for o, row in pairs)


def euler_image(sq: int, q: int, k: int, a2: int, a1: int, a0: int) -> list[int]:
    """Numerators v over q^2 of (a2 z^2 d^2/dz^2 + a1 z d/dz + a0) z^s log^k z,
    s = sq/q.

    The image is z^s sum_{j=0..k} v[j]/q^2 log^j z with

        v[k]   = q^2 (a2 s(s-1) + a1 s + a0)
        v[k-1] = q^2 k (a2 (2s-1) + a1)
        v[k-2] = q^2 a2 k(k-1)

    and zeros below: the monomial rule of differentiate, applied twice.
    """
    v = [0] * (k + 1)
    v[k] = (a2 * (sq - q) + a1 * q) * sq + a0 * q * q
    if k:
        v[k - 1] = k * q * (a2 * (2 * sq - q) + a1 * q)
        if k > 1:
            v[k - 2] = a2 * k * (k - 1) * q * q
    return v


def integrate_log_vector(v: list[int], pq: int, q: int) -> tuple[list[int], int]:
    """(w, d): int z^p sum_j v[j] log^j z dz = z^{p+1} sum_j w[j]/d log^j z,
    where p + 1 = pq/q; integration constant zero.

    The monomial rules of integration by parts: at p = -1 (pq = 0) every
    log power rises by one, log^j z -> log^{j+1} z/(j+1); otherwise log^j z
    gives sum_t (-1)^t j!/(j-t)! q^{t+1}/pq^{t+1} log^{j-t} z, put over
    pq^n.  The branch is the caller's: pq = 0 takes the log branch.  A float
    exponent p takes it at p == -1, and within 0 < |p + 1| < 1e-12 the
    branch cannot be decided (operators._float_branch).
    """
    n = len(v)
    if pq == 0:
        d = math.factorial(n)
        return [0] + [c * (d // (j + 1)) for j, c in enumerate(v)], d
    powers = [1] * n
    for e in range(1, n):
        powers[e] = powers[e - 1] * pq
    w = [0] * n
    for j, c in enumerate(v):
        if c == 0:
            continue
        term = c * q
        for t in range(j + 1):
            w[j - t] += term * powers[n - 1 - t]
            term = -term * (j - t) * q
    return w, powers[-1] * pq


def evaluate(f: LogSeries, z: float) -> float:
    """Float value of the truncated sum at a point z > 0, each coefficient
    rounded to a float once.  Raises AccuracyError, chained from the
    OverflowError, where an exact coefficient or a power of z or log z does
    not fit a float, and where the sum is not finite."""
    if not z > 0:
        raise DomainError(f"series evaluation needs z > 0, got {z}")
    lz = math.log(z)
    total = 0.0
    try:
        for k in range(f.max_log_power + 1):
            # Horner in z for the log^k slice
            acc = 0.0
            for m in range(f.order, -1, -1):
                acc = acc * z + float(f.coeffs.get((m, k), 0))
            total += acc * lz**k
        total *= z ** float(f.sigma)
    except OverflowError as exc:
        raise AccuracyError(f"the series at z = {z} leaves the float range ({exc})") from exc
    if not math.isfinite(total):
        raise AccuracyError(f"the series at z = {z} does not sum to a finite float: {total}")
    return total


_NORM_SAMPLES = 1000


def weighted_norm_estimate(f: LogSeries, alpha: Scalar, z0: float) -> float:
    """Estimate of sup over 0 < z <= z0 of |z|^alpha |f(z)|.

    Sampled on a geometric grid of _NORM_SAMPLES points ending exactly at
    z0.  Diagnostic only: tight enough for contraction reports, not a
    certified bound.
    """
    if not 0 < z0 < 1:
        raise ValueError("need 0 < z0 < 1")
    a = float(alpha)
    ratio = (1e-9) ** (1.0 / (_NORM_SAMPLES - 1))  # grid spans [z0*1e-9, z0]
    best = 0.0
    z = z0
    for _ in range(_NORM_SAMPLES):
        v = abs(z**a * evaluate(f, z))
        if v > best:
            best = v
        z *= ratio
    return best
