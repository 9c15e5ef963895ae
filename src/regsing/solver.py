"""Resolvent solves, the logarithmic second solution, residual and
contraction diagnostics.

The transformed equation is (1 + A) f = g with g = L(z^{w-2-lambda} F) + f0,
w the weight of the problem's normal form (problem module).  The paper sums
the Neumann series f = sum_j (-A)^j g.  A raises the minimal power by at least 1, so on the
truncated grid of coefficients f[m,k] (exponent sigma + m, log power k,
m = 0..N) the operator 1 + A is unit lower-triangular in m: the image of
z^{sigma+m} log^k z has no term below row m + 1.  Forward substitution
therefore gives the same exact rationals as the Neumann sum, with no
convergence question at fixed order.  Rows are visited in ascending m; when
row m is reached its pending values are final, each nonzero f[m,k] is fixed,
and A is applied once to that single monomial, its image (clipped to the
horizon N) being subtracted from the rows above.  Every nonzero coefficient
costs one application of A, so a solve is linear in N up to the cost of the
growing rationals.

Solution.iterations_used is the Neumann iteration count: the number of
terms (-A)^j g the Neumann loop would have applied A to, capped at N (0 when
g vanishes).  Forward substitution reads it off the chains of A applications
that link g to each coefficient below the horizon: D_max + 1 for the longest
chain length D_max, unless the terms along every chain that long cancel;
that case alone runs the Neumann loop (_forward_substitute).

The residual check substitutes psi = z^lambda f back into the original
equation, read from the slots of its normal form (OdeProblem.slots) and
divided by z^w.  Each monomial c z^s log^k z of psi meets each slot in
closed form (logseries.euler_image, small integers): numerators w over
one denominator d for the whole solve.  The products c w are summed per
output key and each sum is divided by d once, so R is accumulated term by
term without building psi', psi'' or any product series.  The resolvent and the
residual alike do this arithmetic on (numerator, denominator) int pairs
kept in lowest terms with a positive denominator, in both modes: a float
lambda, float slots and float coefficients are dyadic rationals, read
exactly.  So a float solve is the exact solve of its dyadic problem, and
each stored coefficient is rounded once: to a Fraction that takes its pair
as it is, without a second gcd (scalars.pair_fraction), when the problem
and the seeds are exact, and to the nearest float (pair_float) otherwise.
Its iteration count is the dyadic problem's.  Only the log branches of a
float solve are decided on its float exponents (operators._float_branch).
A float solve is refused with AccuracyError where a value leaves the float
range, at the step that rounds it: the indicial discriminant and the
conjugated slots (problem), a driving-term coefficient (operators._image),
and a coefficient of f as the forward substitution rounds it, so solve and
neumann_apply_resolvent refuse alike.
The exact arithmetic costs time at high order, where the dyadic
denominators grow with every row: a float Gauss 2F1 solve at order 400
takes three to four times as long as float arithmetic did, while float
solves up to order 60 stay within a millisecond of it.  The check never calls transform or A, so it checks
the solve; transform reads the same slots, and the tests hold both against
the per-kind formulas they replaced.  In float mode a term counts only
above 1e-10 max|f|, so a residual order of None there means that no term
is left above that, not that the series terminates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property

from .logseries import (
    AccuracyError,
    LogSeries,
    _gap,
    euler_image,
    integer_slots,
    linear_combine,
    shift_exponent,
    truncate,
    weighted_norm_estimate,
)
from .operators import SingularTerm, _kernel, _sum_images, apply_A, apply_L, make_f0
from .problem import OdeProblem, OperatorSpec, indicial, transform
from .scalars import (
    Scalar,
    as_int,
    pair_add,
    pair_float,
    pair_fraction,
    pair_mul,
)


class IndexMismatch(ArithmeticError):
    """The c1 seed hit an unrecoverable singular term: the chosen index and
    the equation are inconsistent (only reachable in float mode)."""


@dataclass(frozen=True)
class Solution:
    lam: Scalar
    f: LogSeries                    # solution of (1+A) f = g
    psi: LogSeries                  # assembled psi = z^lambda f
    iterations_used: int
    residual_leading_order: int | None   # exponent above psi's base, None if clean
    mode: str
    # (n, m_max) of a log second solution: the arguments of its log_streams
    _log_stream_args: tuple[int, int] | None = field(default=None, repr=False)

    @cached_property
    def log_streams(self) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]] | None:
        """The (c1, c2) streams of a log second solution, read off its own f
        on first read: (c1(m), c2(m)) = (-4)^m (f[2(n+m), 1], f[2(n+m), 0])
        for the rows 2(n+m) <= N that f holds; None for other solutions."""
        if self._log_stream_args is None:
            return None
        n, m_max = self._log_stream_args
        return tuple(tuple(Fraction((-4) ** m) * self.f.coefficient(2 * (n + m), k)
                           for m in range(m_max + 1)) for k in (1, 0))


def neumann_apply_resolvent(spec: OperatorSpec, g: LogSeries, order: int) -> LogSeries:
    """(1 + A)^{-1} g = sum_j (-A)^j g, exact through `order` above g's base
    exponent.  Raises AccuracyError, as solve does, where a float
    coefficient leaves the float range."""
    f, _ = _forward_substitute(spec, g, order)
    return f


def _forward_substitute(spec: OperatorSpec, g: LogSeries, order: int) -> tuple[LogSeries, int]:
    # One pending row per m, visited in ascending order: f[m,k] is final when
    # row m is reached, and its image under A, taken at g's base, only
    # touches rows above m: row mi of the image is row mi + 1 of f.
    #
    # Each entry carries its value, its depth D (the longest chain of A
    # applications that reaches it from g) and its share, the part of its
    # value that came along chains of that length: the Neumann term
    # (-A)^D g there, its predecessors' shares at depth D - 1 times their
    # scales, exact whatever cancels elsewhere.  The count is min(N, D_max + 1)
    # unless every share at the deepest depth D_max is zero (_neumann_count).
    # A share is None while it is the whole value, else a number: along an
    # image term of scale w/d, share s passes on as -s w/d (-c w/d while it
    # is the whole value c).
    #
    # Values and shares are reduced int pairs, read exactly from g in
    # either mode, and each image term is scaled by its negated scale
    # -w/d, so that -c w is one product and every update one sum.  Each
    # stored coefficient is rounded once (pair_fraction, or pair_float
    # unless the spec and g are exact); a coefficient of an exact g that no
    # term reaches is stored as the object g holds.
    n = min(order, g.order)
    image = _kernel(spec, g.sigma, n, spec.integer_slots, 0)
    exact = spec.mode == "exact" and g.mode == "exact"
    if exact:
        final = pair_fraction
    else:
        def final(v):           # f[m, k], refused where it leaves the float range
            c = pair_float(v)
            if math.isinf(c):
                raise AccuracyError(f"f[{m}, {k}] = {c}: the float solve left the float range")
            return c
    rows: list[dict[int, list]] = [{} for _ in range(n + 1)]   # k -> entry
    for (m, k), c in g.coeffs.items():
        if m <= n:
            # value, depth, share, seed
            rows[m][k] = [c.as_integer_ratio(), 0, None, c if exact else None]
    coeffs = {}
    deepest, nonzero = -1, True     # the deepest depth, and whether a share there is not 0
    for m, row in enumerate(rows):
        for k, (c, depth, share, seed) in row.items():
            whole = share is None
            if depth >= deepest:
                nonzero = (c if whole else share)[0] != 0 or (depth == deepest and nonzero)
                deepest = depth
            live = c[0] != 0
            if not live and whole:
                continue
            if live:
                coeffs[(m, k)] = final(c) if seed is None else seed
            # a zero value with a share passes the share on, and adds no value
            for (mi, ki), (w, d) in image(m, k):
                target = mi + 1
                if target > n:
                    continue
                t = (-w, d)
                ci = pair_mul(c, t)      # -c w/d
                there = rows[target].get(ki)
                if there is None:
                    rows[target][ki] = [ci, depth + 1, None if whole else pair_mul(share, t), None]
                    continue
                if depth + 1 == there[1]:
                    if not whole or there[2] is not None:
                        there[2] = pair_add(there[0] if there[2] is None else there[2],
                                            ci if whole else pair_mul(share, t))
                elif depth + 1 > there[1]:
                    there[1], there[2] = depth + 1, ci if whole else pair_mul(share, t)
                elif there[2] is None:
                    there[2] = there[0]
                if live:
                    there[0] = pair_add(there[0], ci)
                    there[3] = None
    f = LogSeries(g.sigma, n, coeffs)
    return f, min(n, deepest + 1) if nonzero else _neumann_count(spec, g, n)


def _neumann_count(spec: OperatorSpec, g: LogSeries, n: int) -> int:
    """The Neumann iteration count, one term (-A)^j g at a time on g's rows,
    each held exactly as reduced pairs through one kernel at g's base, its
    images shifted one row up: the slow path of _forward_substitute."""
    image = _kernel(spec, g.sigma, n - 1, spec.integer_slots, 0)
    term = {key: c.as_integer_ratio() for key, c in g.coeffs.items() if key[0] <= n}
    for used in range(n):
        if not term:
            return used
        term = {(m + 1, k): v for (m, k), v in _sum_images(image, term.items()).items()}
    return n


def _driving_term(problem: OdeProblem, spec: OperatorSpec, c0: Scalar, c1: Scalar,
                  n: int) -> LogSeries:
    """g = f0 + L(z^{w-2-lambda} F), w = problem.weight."""
    g = None
    if c0 != 0 or c1 != 0:
        g = make_f0(spec, c0, c1, order=n)
    if problem.rhs is not None and not problem.rhs.is_zero():
        part = apply_L(spec, shift_exponent(problem.rhs, problem.weight - 2 - spec.lam))
        g = part if g is None else linear_combine(1, g, 1, part)
    return LogSeries.zero(n) if g is None else g


def solve(problem: OdeProblem, root_choice: int, c0: Scalar, c1: Scalar,
          order: int | None = None) -> Solution:
    """Truncated solution psi = z^lambda f for the chosen indicial root.

    c0 and c1 seed the complementary solution through f0; a problem rhs
    contributes the particular part L(z^{w-2-lambda} F).  Superposition
    holds exactly in rational mode.

    Exact mode gives the Neumann sum f = sum_j (-A)^j g bit for bit.  Float
    mode gives the same sum for the dyadic rationals the floats are, each
    coefficient rounded once to the nearest float; the residual check then
    counts a term only above 1e-10 max|f|.  A float solve raises
    AccuracyError where a coefficient of f leaves the float range, as it is
    rounded, and likewise where the indicial roots, a conjugated slot or a
    driving term do (module docstring).
    """
    n = problem.series_cutoff if order is None else order
    spec = transform(problem, root_choice)
    g = _driving_term(problem, spec, c0, c1, n)
    try:
        f, used = _forward_substitute(spec, g, n)
    except SingularTerm as exc:
        if c1 != 0:
            raise IndexMismatch(
                f"c1 seed at root {spec.lam} produced {exc}") from exc
        raise
    psi = shift_exponent(f, spec.lam)
    sol = Solution(lam=spec.lam, f=f, psi=psi, iterations_used=used,
                   residual_leading_order=None, mode=psi.mode)
    lead = residual(problem, sol)
    if lead is None:
        return sol
    # an integer row of R above psi's base; _gap absorbs a float base's rounding
    return replace(sol, residual_leading_order=_gap(psi.sigma, lead))


def residual(problem: OdeProblem, sol: Solution) -> Scalar | None:
    """Absolute z-exponent of the lowest nonvanishing coefficient left after
    substituting the truncated psi back into the equation, or None if no
    coefficient is left on the visible grid.  Success contract: at least
    lambda + N - 1.

    Exact and float solutions alike are substituted monomial by monomial,
    straight from the normal form (_substitute_exact), never through
    transform or A, so the residual stays a check of the solve.  An exact
    None means the substitution vanishes identically (a terminating
    solution); a float None only means that no coefficient exceeds
    1e-10 * max|f|, as when the truncation residual is below that.  The
    mode is the solution's, and the rows of an exact R are read off its
    keys: a LogSeries holds no zero coefficient.
    """
    r = _substitute_exact(problem, sol)
    if problem.rhs is not None and not problem.rhs.is_zero():
        r = linear_combine(1, r, -1, truncate(problem.rhs, r.order))
    if sol.mode == "exact":
        rows = [m for m, _k in r.coeffs]
    else:
        scale = max((abs(float(c)) for c in sol.f.coeffs.values()), default=1.0)
        tol = 1e-10 * max(1.0, scale)
        rows = [m for (m, _k), c in r.coeffs.items() if abs(float(c)) > tol]
    if not rows:
        return None
    # R is based at psi's base - w, or lower with an rhs: its rows are
    # integers above psi's base, in either mode
    base = sol.f.sigma + sol.lam
    return base + _gap(base, r.sigma) + min(rows)


def _substitute_exact(problem: OdeProblem, sol: Solution) -> LogSeries:
    """The left-hand side of the equation at the truncated psi (the normal
    form divided by z^w): each monomial c z^s log^k z of psi, s = sq/q,
    meets every slot in small integers, the numerators w over the one
    denominator d = den q^2 of the solve (euler_image).  A float is a
    dyadic rational, so a float lambda, slot or coefficient is read exactly;
    c times w is summed per key as reduced int pairs (operators._sum_images),
    each nonzero sum is divided by d once, and then rounded once, to a
    Fraction when the solution's mode is exact and to a float otherwise."""
    den, slots = integer_slots(problem.slots)
    psi = sol.psi
    # above every row psi reaches (m <= psi.order, and transform caps the
    # highest slot at N + 1), so no product term is clipped
    horizon = psi.order + problem.series_cutoff + 3
    bq, q = psi.sigma.as_integer_ratio()            # psi's base, s = sq/q
    per_d = (1, den * q * q)

    def image(m: int, k: int) -> list[tuple[tuple[int, int], tuple[int, int]]]:
        sq = bq + m * q
        return [((m + o, j), (w, 1)) for o, a2, a1, a0 in slots if m + o <= horizon
                for j, w in enumerate(euler_image(sq, q, k, a2, a1, a0)) if w]

    out = _sum_images(image, ((key, c.as_integer_ratio()) for key, c in psi.coeffs.items()))
    final = pair_fraction if sol.mode == "exact" else pair_float
    return LogSeries(pair_fraction((bq - problem.weight * q, q)), horizon,
                     {key: final(pair_mul(v, per_d)) for key, v in out.items()})


def solve_log_second(problem: OdeProblem, n: int, order: int | None = None) -> Solution:
    """Second solution of a Bessel-shaped problem with the root gap 2n, via
    the generic pipeline: the c1 seed is z^{-2n}/(-2n) (log z when n = 0)
    and the log branch of L fires at the resonant step.  The coefficient
    streams (c1, c2) of the log-case recurrence ride along as
    Solution.log_streams, read off the solve's f on first read, so they can
    be held against the independent catalog.log_second_recurrence_streams.

    The log solution at any integer gap, odd or even, is
    solve(problem, 1, 0, 1); this helper only adds the streams.
    """
    idx = indicial(problem)
    gap = as_int(idx.delta_lambda)
    if gap is None:
        raise ValueError(f"gap {idx.delta_lambda} is not an integer")
    if gap != 2 * n:
        raise ValueError(
            f"expected the Bessel-shaped gap 2n = {2 * n}, problem has {gap}; "
            f"solve(problem, 1, 0, 1) gives the log solution at any integer gap")
    N = problem.series_cutoff if order is None else order
    sol = solve(problem, 1, 0, 1, order=N)
    return replace(sol, _log_stream_args=(n, (N - 2 * n) // 2))


def contraction_report(spec: OperatorSpec, z0: float) -> float:
    """Empirical contraction factor: max norm ratio ||A f||/||f|| over the
    probe basis {1, z, z^2} (+ log z when alpha is a positive integer),
    in the weighted sup-norm with weight |z|^alpha on (0, z0]."""
    if not 0 < z0 < 1:
        raise ValueError("need 0 < z0 < 1")
    probes = [LogSeries.monomial(1, 0, 8),
              LogSeries.monomial(1, 1, 8),
              LogSeries.monomial(1, 2, 8)]
    a_int = as_int(spec.alpha)
    if a_int is not None and a_int >= 1:
        probes.append(LogSeries.monomial(1, 0, 8, log_power=1))
    worst = 0.0
    for f in probes:
        num = weighted_norm_estimate(apply_A(spec, f), spec.alpha, z0)
        den = weighted_norm_estimate(f, spec.alpha, z0)
        worst = max(worst, num / den)
    return worst
