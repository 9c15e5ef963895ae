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

  f'' + (alpha/z) f' + sum_{o>=1} z^{o-2} (a2_o z^2 f'' + a1_o z f' + a0_o f)
      = z^{w-2-lambda} F

over the conjugated slots o >= 1.  OperatorSpec carries alpha, lambda and
those slots, in the (o, a2, a1, a0) layout of OdeProblem.slots.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .logseries import AccuracyError, LogSeries, integer_slots
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
            raise ValueError(
                f"kind must be 'two_point' or 'three_point', got {self.kind!r}")
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
    def weight(self) -> int:
        """The power of z that takes the equation to its normal form."""
        return 2 if self.kind == "two_point" else 1

    @property
    def radius(self) -> float:
        """Radius of convergence of a series solution about 0: the distance
        to the next singular point, z = 1 for three_point (p and q are
        polynomials, so two_point has none)."""
        return math.inf if self.weight == 2 else 1

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
        if self.double_root and not is_exact(lam):
            return 1.0      # where 2 lam + p_{-1} rounds off 1 as p_{-1} - 1 did
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

    A float discriminant b^2 - 4 q_{-2}, b = p_{-1} - 1, is read as 0 (a
    double root) when its magnitude is at most

        eps (|b p_{-1}| + 2 b^2 + 2 |q_{-2}|),    eps = 2^-52,

    the first-order bound on the rounding error of computing it from
    p_{-1} and q_{-2}, each itself a correctly rounded value: so the float
    twin of an exact double root is a double root, not a complex pair or
    two roots about sqrt(eps) apart.  A float discriminant beyond the float
    range raises AccuracyError, and so do irrational roots of an exact
    problem beyond it, chained from the OverflowError of rounding them.
    """
    p1 = problem.p(-1)
    q2 = problem.q(-2)
    b = p1 - 1
    disc = b * b - 4 * q2
    if not is_exact(disc):
        if not math.isfinite(disc):
            raise AccuracyError(f"indicial discriminant {disc}: the roots leave the "
                                f"float range")
        if abs(disc) <= sys.float_info.epsilon * (abs(b * p1) + 2 * b * b + 2 * abs(q2)):
            disc = 0.0
    if disc < 0:
        raise ComplexRootsUnsupported(
            f"indicial discriminant {disc} < 0: complex exponents unsupported")
    root = _exact_sqrt(disc) if is_exact(disc) else None
    half = Fraction(1, 2) if is_exact(b) and root is not None else 0.5
    try:
        if root is None:
            root = math.sqrt(disc)
        lam1 = (-b + root) * half
        lam2 = (-b - root) * half
    except OverflowError as exc:
        raise AccuracyError(f"the irrational indicial roots leave the float range "
                            f"({exc})") from exc
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
    slots: tuple[tuple[int, Scalar, Scalar, Scalar], ...]  # conjugated slots o >= 1

    @cached_property
    def mode(self) -> str:
        """'exact' when alpha, lambda and every slot value are exact;
        decided once per spec."""
        return scalar_mode(self.alpha, self.lam,
                           *(a for _o, *coeffs in self.slots for a in coeffs))

    @cached_property
    def integer_slots(self) -> tuple[int, tuple[tuple[int, int, int, int], ...]]:
        """The slots in integers over one denominator; a float slot is read
        as the dyadic rational it is."""
        return integer_slots(self.slots)


def transform(problem: OdeProblem, root_choice: int) -> OperatorSpec:
    """OperatorSpec for the chosen indicial root (1 = larger, 2 = smaller):
    the slots o >= 1 of the normal form, each conjugated by z^lambda
    (module docstring).  A float conjugated slot beyond the float range
    raises AccuracyError.
    """
    if root_choice not in (1, 2):
        raise ValueError("root_choice must be 1 or 2")
    idx = indicial(problem)
    lam = idx.lam1 if root_choice == 1 else idx.lam2
    # every slot must land inside the order-N window: p_i with i <= N, q_i with i < N
    if problem.slots[-1][0] > problem.series_cutoff + 1:
        raise ValueError("series_cutoff too small for the given p/q coefficients")
    slots = []
    # slot 0, the Euler part, always leads and becomes alpha
    for o, a2, a1, a0 in problem.slots[1:]:
        c, d = a1, a0 + lam * a1
        if a2:     # else a1 stays as given, exact even at a float lambda
            c, d = c + 2 * lam * a2, d + lam * (lam - 1) * a2
        if not (is_exact(d) or math.isfinite(c) and math.isfinite(d)):
            raise AccuracyError(f"slot {o} at lambda = {lam} leaves the float range: "
                                f"a1 = {c}, a0 = {d}")
        slots.append((o, a2, c, d))
    return OperatorSpec(alpha=idx.alpha_for(lam), lam=lam, slots=tuple(slots))


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
