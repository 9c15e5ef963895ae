"""Input ODE model, indicial roots, and the transformed-equation data.

Two shapes of equation around the regular singular point z = 0:

  two_point    psi'' + p(z) psi' + q(z) psi = F
               with p = sum_{i>=-1} p_i z^i, q = sum_{i>=-2} q_i z^i
  three_point  z(1-z) psi'' + p(z) psi' + q(z) psi = F
               with p = z * sum_{i>=-1} p_i z^i, q = z * sum_{i>=-2} q_i z^i
               (regular singularities at 0, 1 and infinity)

Substituting psi = z^lambda f with lambda an indicial root
(lambda^2 + (p_{-1}-1) lambda + q_{-2} = 0, identical for both shapes)
and normalizing the leading part to f'' + (alpha/z) f' leaves

  f'' + (alpha/z) f' + sum_i C_i z^i f' + sum_i D_i z^{i-1} f
      [- z f''  for three_point]  = z^{-lambda} F   (two_point)
                                  = z^{-lambda-1} F (three_point)

with alpha = 2 lambda + p_{-1}.  OperatorSpec carries (alpha, C, D, lambda);
note the D_i sit one power of z lower than their index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .logseries import LogSeries, integer_slots
from .scalars import Scalar, as_int, is_exact


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
        vals = list(self.p_coeffs.values()) + list(self.q_coeffs.values())
        exact = all(is_exact(v) for v in vals)
        if self.rhs is not None:
            exact = exact and self.rhs.mode == "exact"
        return "exact" if exact else "float"


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
        vals = (self.alpha, self.lam) + self.c_coeffs + self.d_coeffs
        return "exact" if all(is_exact(v) for v in vals) else "float"

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
    """OperatorSpec for the chosen indicial root (1 = larger, 2 = smaller).

    two_point:    C_i = p_i,            D_i = lam p_i + q_{i-1}
    three_point:  C_0 = p_0 - 2 lam,    D_0 = lam(1-lam) + lam p_0 + q_{-1},
                  C_i = p_i (i >= 1),   D_i = lam p_i + q_{i-1} (i >= 1),
                  plus the -z f'' term.
    """
    if root_choice not in (1, 2):
        raise ValueError("root_choice must be 1 or 2")
    idx = indicial(problem)
    lam = idx.lam1 if root_choice == 1 else idx.lam2
    n = problem.series_cutoff
    # every supplied coefficient must land inside the C/D windows
    if any(i > n and v != 0 for i, v in problem.p_coeffs.items()) or \
       any(i > n - 1 and v != 0 for i, v in problem.q_coeffs.items()):
        raise ValueError("series_cutoff too small for the given p/q coefficients")
    three = problem.kind == "three_point"
    cs = []
    ds = []
    for i in range(n + 1):
        c = problem.p(i)
        d = lam * problem.p(i) + problem.q(i - 1)
        if three and i == 0:
            c = c - 2 * lam
            d = d + lam * (1 - lam)
        cs.append(c)
        ds.append(d)
    return OperatorSpec(
        alpha=idx.alpha_for(lam),
        lam=lam,
        c_coeffs=tuple(cs),
        d_coeffs=tuple(ds),
        has_z_d2_term=three,
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
