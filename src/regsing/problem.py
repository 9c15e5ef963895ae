"""Input ODE model, its normal form, indicial roots, and the
transformed-equation data.

Two shapes of equation around the regular singular point z = 0:

  two_point    psi'' + p(z) psi' + q(z) psi = F
               with p = sum_{i>=-1} p_i z^i, q = sum_{i>=-2} q_i z^i
  three_point  z(1-z) psi'' + p(z) psi' + q(z) psi = F
               with p = z * sum_{i>=-1} p_i z^i, q = z * sum_{i>=-2} q_i z^i
               (regular singularities at 0, 1 and infinity)

Both have one normal form (OdeProblem.slots): the equation times z^w, with
the weight w = 2 for two_point and 1 for three_point, is

  sum_o z^o (a2_o z^2 psi'' + a1_o z psi' + a0_o psi) = z^w F

with psi'' at slot 0, -psi'' at slot 1 for three_point, p_i at slot i + 1
(a1) and q_i at slot i + 2 (a0).  Slot 0 is the Euler part
z^2 psi'' + p_{-1} z psi' + q_{-2} psi.  Only OdeProblem reads the kind;
everything downstream reads the slots and the weight.

Substituting psi = z^lambda f conjugates each slot by z^lambda:

  a2 -> a2,   a1 -> a1 + 2 lambda a2,   a0 -> a0 + lambda a1 + lambda(lambda-1) a2.

At an indicial root (lambda^2 + (p_{-1}-1) lambda + q_{-2} = 0) slot 0
becomes z^2 f'' + alpha z f' with alpha = 2 lambda + p_{-1}, and dividing
by z^{lambda+2} leaves

  f'' + (alpha/z) f' + sum_i C_i z^i f' + sum_i D_i z^{i-1} f [- z f'']
      = z^{w-2-lambda} F

where C_{o-1} and D_{o-1} are the conjugated a1 and a0 of slot o >= 1, and
the -z f'' term is the a2 of slot 1.  OperatorSpec carries
(alpha, C, D, lambda); note the D_i sit one power of z lower than their
index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .logseries import LogSeries, integer_slots
from .scalars import Scalar, as_int, is_exact, mode as scalar_mode


class ComplexRootsUnsupported(ValueError):
    """Negative indicial discriminant: complex exponents are not handled."""


@dataclass(frozen=True)
class OdeProblem:
    kind: str                       # "two_point" | "three_point"
    p_coeffs: dict[int, Scalar]     # indices >= -1
    q_coeffs: dict[int, Scalar]     # indices >= -2
    rhs: LogSeries | None = None
    series_cutoff: int = 12

    def __post_init__(self):
        if self.kind not in ("two_point", "three_point"):
            raise ValueError(f"unknown problem kind {self.kind!r}")
        if any(i < -1 for i in self.p_coeffs):
            raise ValueError("p indices start at -1")
        if any(i < -2 for i in self.q_coeffs):
            raise ValueError("q indices start at -2")
        if self.series_cutoff < 0:
            raise ValueError("series_cutoff must be >= 0")

    def p(self, i: int) -> Scalar:
        return self.p_coeffs.get(i, 0)

    def q(self, i: int) -> Scalar:
        return self.q_coeffs.get(i, 0)

    @property
    def mode(self) -> str:
        rhs = () if self.rhs is None else (self.rhs.sigma, *self.rhs.coeffs.values())
        return scalar_mode(*self.p_coeffs.values(), *self.q_coeffs.values(), *rhs)

    @property
    def weight(self) -> int:
        """The power of z that takes the equation to its normal form."""
        return 2 if self.kind == "two_point" else 1

    @cached_property
    def slots(self) -> tuple[tuple[int, Scalar, Scalar, Scalar], ...]:
        """The normal form of the module docstring: the nonzero slots
        (o, a2, a1, a0), ascending in o."""
        slots = {0: [1, 0, 0]}
        if self.kind == "three_point":
            slots[1] = [-1, 0, 0]
        for i, c in self.p_coeffs.items():
            if c != 0:
                slots.setdefault(i + 1, [0, 0, 0])[1] = c
        for i, c in self.q_coeffs.items():
            if c != 0:
                slots.setdefault(i + 2, [0, 0, 0])[2] = c
        return tuple((o, *slots[o]) for o in sorted(slots))


@dataclass(frozen=True)
class IndexData:
    lam1: Scalar                    # root with the larger real part
    lam2: Scalar
    delta_lambda: Scalar            # lam1 - lam2 >= 0
    integer_gap: bool
    double_root: bool
    p_minus1: Scalar

    def alpha_for(self, lam: Scalar) -> Scalar:
        return 2 * lam + self.p_minus1


def _exact_sqrt(d: Fraction) -> Fraction | None:
    """Square root of a non-negative rational if it is rational, else None."""
    num, den = d.numerator, d.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None


def indicial(problem: OdeProblem) -> IndexData:
    """Roots of lambda^2 + (p_{-1}-1) lambda + q_{-2} = 0.

    Rational roots stay exact when the discriminant is a perfect rational
    square; otherwise both roots downgrade to float.
    """
    p1 = problem.p(-1)
    q2 = problem.q(-2)
    b = p1 - 1
    disc = b * b - 4 * q2
    if disc < 0:
        raise ComplexRootsUnsupported(
            f"indicial discriminant {disc} < 0: complex exponents unsupported")
    if is_exact(b) and is_exact(q2):
        root = _exact_sqrt(Fraction(disc))
        if root is None:
            root = math.sqrt(disc)
    else:
        root = math.sqrt(disc)
    half = Fraction(1, 2) if is_exact(b) and is_exact(root) else 0.5
    lam1 = (-b + root) * half
    lam2 = (-b - root) * half
    delta = lam1 - lam2
    return IndexData(
        lam1=lam1,
        lam2=lam2,
        delta_lambda=delta,
        integer_gap=as_int(delta) is not None,
        double_root=delta == 0,
        p_minus1=p1,
    )


def root_index(problem: OdeProblem, lam: Scalar) -> int:
    """The root_choice (1 = larger, 2 = smaller) whose indicial root is lam.

    The hypergeometric roots are 0 and 1 - c, and which is larger depends on
    the sign of 1 - c.
    """
    return 1 if indicial(problem).lam1 == lam else 2


@dataclass(frozen=True)
class OperatorSpec:
    alpha: Scalar
    lam: Scalar
    c_coeffs: tuple[Scalar, ...]    # C_i, i = 0..series_cutoff
    d_coeffs: tuple[Scalar, ...]    # D_i, i = 0..series_cutoff (sits at z^{i-1})
    has_z_d2_term: bool

    @cached_property
    def mode(self) -> str:
        """'exact' when alpha, lambda and every C_i, D_i are exact; decided
        once per spec."""
        return scalar_mode(self.alpha, self.lam, *self.c_coeffs, *self.d_coeffs)

    @cached_property
    def c_terms(self) -> tuple[tuple[int, Scalar], ...]:
        """Nonzero (i, C_i) pairs, ascending in i: the sparse form of C."""
        return tuple((i, c) for i, c in enumerate(self.c_coeffs) if c != 0)

    @cached_property
    def d_terms(self) -> tuple[tuple[int, Scalar], ...]:
        """Nonzero (i, D_i) pairs, ascending in i: the sparse form of D."""
        return tuple((i, d) for i, d in enumerate(self.d_coeffs) if d != 0)

    @cached_property
    def slots(self) -> tuple[int, tuple[tuple[int, int, int, int], ...]]:
        """The non-Euler part sum_i C_i z^i f' + D_i z^{i-1} f [- z f''] of
        an exact spec as (den, slots): slot (i, a2, a1, a0) is
        z^{i-1} (a2 z^2 f'' + a1 z f' + a0 f)/den, in integers; nonzero
        slots only, ascending in i."""
        slots = {i: [0, c, 0] for i, c in self.c_terms}
        for i, d in self.d_terms:
            slots.setdefault(i, [0, 0, 0])[2] = d
        if self.has_z_d2_term:
            slots.setdefault(0, [0, 0, 0])[0] = -1
        return integer_slots([(i, *slots[i]) for i in sorted(slots)])


def transform(problem: OdeProblem, root_choice: int) -> OperatorSpec:
    """OperatorSpec for the chosen indicial root (1 = larger, 2 = smaller):
    each slot o >= 1 of the normal form, conjugated by z^lambda, gives
    C_{o-1} = a1 + 2 lam a2 and D_{o-1} = a0 + lam a1 + lam(lam-1) a2, and
    a nonzero a2 there the -z f'' term (module docstring).
    """
    if root_choice not in (1, 2):
        raise ValueError("root_choice must be 1 or 2")
    idx = indicial(problem)
    lam = idx.lam1 if root_choice == 1 else idx.lam2
    n = problem.series_cutoff
    # every slot must land inside the C/D windows: p_i with i <= N, q_i with i < N
    if problem.slots[-1][0] > n + 1:
        raise ValueError("series_cutoff too small for the given p/q coefficients")
    # slot 0, the Euler part, always leads and becomes alpha
    rest = problem.slots[1:]
    cs = [0] * (n + 1)
    ds = [0] * (n + 1)
    for o, a2, a1, a0 in rest:
        c, d = a1, a0 + lam * a1
        if a2:     # else C keeps a1 as given, exact even at a float lambda
            c, d = c + 2 * lam * a2, d + lam * (lam - 1) * a2
        cs[o - 1], ds[o - 1] = c, d
    return OperatorSpec(
        alpha=idx.alpha_for(lam),
        lam=lam,
        c_coeffs=tuple(cs),
        d_coeffs=tuple(ds),
        has_z_d2_term=any(a2 for _o, a2, _a1, _a0 in rest),
    )


def map_gegenbauer(beta: Scalar, alpha_g: Scalar, series_cutoff: int = 12) -> OdeProblem:
    """Gegenbauer equation moved to (0, 1, inf) by x -> 2z - 1.

    The transformed equation is
        z(1-z) f'' - (beta+1)(2z-1) f' + alpha_g (alpha_g + 2 beta + 1) f = 0,
    the hypergeometric equation with a = -alpha_g, b = alpha_g + 2 beta + 1,
    c = beta + 1; its regular solution is 2F1(-alpha_g, alpha_g+2beta+1;
    beta+1; z).
    """
    return OdeProblem(
        kind="three_point",
        p_coeffs={-1: beta + 1, 0: -2 * (beta + 1)},
        q_coeffs={-1: alpha_g * (alpha_g + 2 * beta + 1)},
        series_cutoff=series_cutoff,
    )
