"""Vertical-line contour machinery for the catalog families.

Each family's truncated solution is an alternating sum sum_v (-1)^v A^v(seed)
whose general term has a closed form in v.  Replacing v by -s and weighting
with Gamma(s)Gamma(1-s) turns that sum into a Mellin-Barnes integrand whose
residues at s = -k reproduce the series term by term.  This module provides:

- complex_gamma / digamma: the special functions the integrands are built of,
  accurate to ~1e-13 on the strip |Re s| <= 10, |Im s| <= 50;
- CatalogFamily: validated (tag, params) records for the supported families,
  each defined once by its term ratio A^{n+1}/A^n = K prod(n+t)/prod(n+b)
  (_term_ratio) and by its equation, root and seeds (_family_problem);
- integer_powers: the exact A^n(seed), n = 0, 1, 2, ..., one ratio step each,
  on reduced int pairs, each power rounded once for float parameters (for
  the logarithmic family, one pass through the kernel of its own A each);
- fractional_power_coeff: the coefficient/exponent data of A^v(seed), from
  integer_powers at integer v and the gamma form of the term ratio otherwise;
- mellin_integrand / contour_eval: the line integrand and its trapezoid
  quadrature with tail diagnostics.  The weighted terms are summed with
  math.fsum, so the sum is correctly rounded and the same on every machine;
- residue_eval: partial sums of the analytic residues (the series route),
  one term-ratio step per residue.

A word on honesty: on the vertical line Re s = a in (0,1) the integrand
moduli of these families do not decay fast enough for naive line quadrature
(constant modulus for the z^{-2s} families, exponential growth for the
branch-carrying ones).  contour_eval therefore estimates the tail from the
sampled decay and raises AccuracyError when the estimate exceeds the
tolerance instead of returning garbage.  The residue route (residue_eval)
is the convergent numerical realization of the same contour representation:
it is the closed left-loop evaluation, term = residue at s = -k.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import islice
from typing import NamedTuple

from .catalog import ParameterError, struve_prefactor
from .logseries import AccuracyError, LogSeries
from .operators import _kernel, _sum_images, apply_A
from .problem import OdeProblem, root_index, transform
from .scalars import Scalar, as_int, is_exact, pair_float, pair_fraction, pair_mul, ratio
from .solver import _driving_term

EULER_GAMMA = 0.5772156649015329


class PoleError(ArithmeticError):
    """Evaluation requested at a pole of gamma or digamma."""


# ----------------------------------------------------------------- gamma

# Lanczos approximation, g = 7, 9 coefficients
_LANCZOS_G = 7.0
_LANCZOS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


def _is_nonpositive_int(s: complex) -> bool:
    return s.imag == 0.0 and s.real <= 0.0 and s.real == math.floor(s.real)


def complex_gamma(s: complex) -> complex:
    """Gamma(s) for complex s; reflection formula below Re s = 1/2.

    The Lanczos factor t^(w + 1/2) leaves the float range from |Re s| about
    142 on, before exp(-t) brings the product back; there the power is
    taken in halves around exp(-t), so Gamma(s) is returned wherever it
    fits a float.  At large |Im s| the Lanczos product can also overflow
    without raising and read nan, as at 125.3 - 548.6i, or underflow to 0
    where Gamma(s) does not, as at 79.0 - 527.4i; there it is taken in logs
    (_lanczos_log).  Likewise sin(pi s) leaves the float range from
    |Im s| about 226 on, where Gamma(s) is tiny, and so can its product
    with Gamma(1 - s) where neither factor does; there the reflection is
    taken in logs (_reflect_in_logs).  Raises AccuracyError, chained from
    the OverflowError where there is one, where Gamma(s) or the Lanczos
    factor of the reflection formula does not fit a float, as beside a pole
    (Gamma(1e-310) = 1e310).
    """
    s = complex(s)
    if _is_nonpositive_int(s):
        raise PoleError(f"gamma pole at {s}")
    reflect = s.real < 0.5
    w = (1.0 - s if reflect else s) - 1.0
    acc = _LANCZOS[0]
    for k, c in enumerate(_LANCZOS[1:], start=1):
        acc += c / (w + k)
    t = w + _LANCZOS_G + 0.5
    try:
        try:
            g = math.sqrt(2.0 * math.pi) * t ** (w + 0.5) * cmath.exp(-t) * acc
        except OverflowError:
            h = t ** ((w + 0.5) / 2)
            g = math.sqrt(2.0 * math.pi) * h * (cmath.exp(-t) * h) * acc
            if not cmath.isfinite(g):
                raise
        if not reflect:
            if not (g and cmath.isfinite(g)):
                g = cmath.exp(_lanczos_log(w, t, acc))
        else:
            try:
                product = cmath.sin(math.pi * s) * g
            except OverflowError:       # sin(pi s) itself
                product = math.inf
            if cmath.isfinite(product):
                g = math.pi / product
            else:
                g = _reflect_in_logs(s, w, t, acc)
    except OverflowError as exc:
        raise AccuracyError(f"Gamma(s) at s = {s} overflows a float ({exc})") from exc
    if not cmath.isfinite(g):
        raise AccuracyError(f"Gamma(s) at s = {s} overflows a float: {g}")
    return g


def _lanczos_log(w: complex, t: complex, acc: complex) -> complex:
    """log Gamma(w + 1) from the Lanczos terms, mod 2 pi i: the log of
    sqrt(2 pi) t^(w + 1/2) e^{-t} acc, which does not overflow."""
    return 0.5 * math.log(2.0 * math.pi) + (w + 0.5) * cmath.log(t) - t + cmath.log(acc)


def _reflect_in_logs(s: complex, w: complex, t: complex, acc: complex) -> complex:
    """Gamma(s) = pi / (sin(pi s) Gamma(1 - s)) as the exp of
    log pi - log sin(pi s) - log Gamma(1 - s), for a sin(pi s) or a
    sin(pi s) Gamma(1 - s) beyond the float range; w, t and acc are the
    Lanczos terms of Gamma(1 - s).  For Im s >= 0,
    sin(pi s) = e^{-i pi s} (1 - e^{2 pi i s}) / (-2i), whose second factor
    is of order one; below the axis its mirror image.  A log is fixed up to
    2 pi i, which exp does not see."""
    ips = 1j * math.pi * s
    if s.imag >= 0:
        log_sin = -ips + cmath.log((1.0 - cmath.exp(2.0 * ips)) / -2j)
    else:
        log_sin = ips + cmath.log((1.0 - cmath.exp(-2.0 * ips)) / 2j)
    return cmath.exp(math.log(math.pi) - log_sin - _lanczos_log(w, t, acc))


def _recip_gamma(s: complex) -> complex:
    """1/Gamma(s); zero at the poles of gamma."""
    s = complex(s)
    if _is_nonpositive_int(s):
        return 0.0 + 0.0j
    return _over_gamma(1.0, s)


def _over_gamma(x: complex, s: complex) -> complex:
    """x / Gamma(s); AccuracyError, chained from the ZeroDivisionError,
    where Gamma(s) underflowed to 0."""
    try:
        return x / complex_gamma(s)
    except ZeroDivisionError as exc:
        raise AccuracyError(f"Gamma(s) at s = {s} underflows a float ({exc})") from exc


# Bernoulli-number tail of the asymptotic expansion of psi
_PSI_ASYMP = (
    Fraction(1, 12), Fraction(-1, 120), Fraction(1, 252), Fraction(-1, 240),
    Fraction(1, 132), Fraction(-691, 32760), Fraction(1, 12),
)


def digamma(x):
    """psi(x) = Gamma'(x)/Gamma(x); real in, real out; complex supported.

    The asymptotic series is read at Re s >= 10, reached by the upward
    recurrence psi(s) = psi(s + 1) - 1/s.  Below Re s = -10 the reflection
    psi(s) = psi(1 - s) - pi cot(pi s) is taken instead, with cot's argument
    reduced by the nearest integer (exact in floats), so the cost does not
    grow with |Re s|.  Raises AccuracyError where psi(s) does not fit a
    float, beside a pole.
    """
    want_complex = isinstance(x, complex)
    s = complex(x)
    if _is_nonpositive_int(s):
        raise PoleError(f"digamma pole at {s}")
    reflect = s.real < -10.0
    if reflect:
        cot = math.pi / cmath.tan(math.pi * (s - round(s.real)))
        s = 1.0 - s
    acc = 0.0 + 0.0j
    while s.real < 10.0:
        acc -= 1.0 / s
        s += 1.0
    u = 1.0 / (s * s)
    tail = 0.0 + 0.0j
    up = u
    for b in _PSI_ASYMP:
        tail -= float(b) * up
        up *= u
    val = acc + cmath.log(s) - 0.5 / s + tail
    if reflect:
        val -= cot
    if not cmath.isfinite(val):
        raise AccuracyError(f"digamma at {x} overflows a float: {val}")
    return val if want_complex else val.real


def _psi_over_gamma(s: complex) -> complex:
    """psi(s)/Gamma(s), finite everywhere: at s = -j the limit is -(-1)^j j!."""
    s = complex(s)
    if _is_nonpositive_int(s):
        j = int(round(-s.real))
        return complex(-((-1.0) ** j) * math.factorial(j))
    return _over_gamma(digamma(s), s)


# ---------------------------------------------------------------- families

_FAMILY_PARAMS = {
    "Exp": (),
    "TrigHyp": ("variant", "omega"),
    "BesselRegular": ("nu",),
    "BesselIrregular": ("nu",),
    "BesselLogSecond": ("n",),
    "Hyp1F1Regular": ("a", "c"),
    "Hyp1F1Irregular": ("a", "c"),
    "Hyp2F1Regular": ("a", "b", "c"),
    "Hyp2F1Irregular": ("a", "b", "c"),
    "Struve": ("nu",),
}

_TRIG_VARIANTS = ("cos", "sin", "cosh", "sinh")


@dataclass(frozen=True)
class CatalogFamily:
    tag: str
    params: tuple  # sorted (name, value) pairs

    def param(self, name: str) -> Scalar:
        for key, value in self.params:
            if key == name:
                return value
        raise KeyError(name)

    @cached_property
    def gamma_form(self) -> GammaForm:
        """The complex-power data of every family but BesselLogSecond,
        computed on first read and kept: the contour reads it at each node."""
        return _gamma_form(self)

    @cached_property
    def struve_prefactor(self) -> float:
        """catalog.struve_prefactor of the Struve family's nu, computed on
        first read and kept: the contour multiplies it in at each node."""
        return struve_prefactor(float(self.param("nu")))


def _nonpositive_int_param(x) -> bool:
    n = as_int(x)
    return n is not None and n <= 0


def _overflows(x) -> bool:
    return not is_exact(x) and not cmath.isfinite(x)


def _out_of_range(exc: BaseException) -> str:
    """How a gamma-form value left the float range: "underflows" where the
    cause chain of exc holds the ZeroDivisionError of a Gamma that
    underflowed to 0 (_over_gamma), "overflows" otherwise."""
    while exc is not None:
        if isinstance(exc, ZeroDivisionError):
            return "underflows"
        exc = exc.__cause__
    return "overflows"


def _exact_params(family: CatalogFamily) -> bool:
    return all(is_exact(v) for _, v in family.params if not isinstance(v, str))


def catalog_family(tag: str, **params) -> CatalogFamily:
    """Validated family record; ParameterError outside the validity domain.

    Besides the parameter names, finite floats, TrigHyp's variant and
    omega > 0, and BesselLogSecond's integer n >= 0, validity comes from the
    term ratio A^{n+1}/A^n = K prod(n + t) / prod(n + b) (_term_ratio), on
    the parameters' exact values: the family is a hypergeometric term
    exactly when A^0 is finite and no t or b is a non-positive integer.
    With float parameters A^0 and the n = 0 ratio, each rounded once, must
    also be finite floats.
    """
    if tag not in _FAMILY_PARAMS:
        raise ParameterError(f"unknown family tag {tag!r}")
    if tag == "TrigHyp":
        params.setdefault("omega", 1)
    expected = set(_FAMILY_PARAMS[tag])
    if set(params) != expected:
        raise ParameterError(
            f"{tag} expects params {sorted(expected)}, got {sorted(params)}")
    shown = ", ".join(f"{name}={v}" for name, v in sorted(params.items()))
    for name, v in sorted(params.items()):
        if isinstance(v, float) and not math.isfinite(v):
            raise ParameterError(f"{tag}({shown}): {name} = {v} is not finite")

    if tag == "TrigHyp":
        if params["variant"] not in _TRIG_VARIANTS:
            raise ParameterError(f"variant must be one of {_TRIG_VARIANTS}")
        if not float(params["omega"]) > 0:
            raise ParameterError("omega must be positive")
    if tag == "BesselLogSecond":
        n = as_int(params["n"])
        if n is None or n < 0:
            raise ParameterError("n must be a non-negative integer")
        return CatalogFamily(tag, (("n", n),))

    family = CatalogFamily(tag, tuple(sorted(params.items())))
    try:
        coeff, k, tops, bottoms, _, _ = _term_ratio(family)
    except ZeroDivisionError:
        why = "A^0 is infinite"
    else:
        why = next((f"{side} = {x} of the term ratio is a non-positive integer"
                    for side, xs in (("top t", tops), ("bottom b", bottoms))
                    for x in xs if _nonpositive_int_param(x)), None)
        if why is None and not _exact_params(family):
            ratio0 = k * math.prod(tops) / math.prod(bottoms)
            why = next((f"{what} overflows"
                        for what, x in (("A^0", coeff), ("the n = 0 term ratio", ratio0))
                        if math.isinf(pair_float((x.numerator, x.denominator)))), None)
    if why is not None:
        raise ParameterError(f"{tag}({shown}): {why}")
    return family


def _hyp_params(family: CatalogFamily):
    """Effective parameters; the irregular tags use the second-root values."""
    *tops, c = (family.param(name) for name in _FAMILY_PARAMS[family.tag])
    if family.tag.endswith("Irregular"):
        return (*(t + 1 - c for t in tops), 2 - c)
    return (*tops, c)


# ------------------------------------------------- operator route (exact)

def _family_problem(family: CatalogFamily, order: int):
    """(OdeProblem, root_choice, c0, c1): the family's equation, its root,
    picked by value (0 or 1 for the trigonometric forms, nu for the Bessel
    ones, 0 or 1 - c for the hypergeometric ones), and the seeds of its
    solution.  Exp is Kummer's equation at a = c = 1, z psi'' + (1 - z) psi'
    - psi = 0, with the double root 0."""
    tag = family.tag
    if tag == "TrigHyp":
        omega, variant = family.param("omega"), family.param("variant")
        w2 = omega * omega
        prob = OdeProblem("two_point", {}, {0: w2 if variant in ("cos", "sin") else -w2},
                          series_cutoff=order)
        return prob, root_index(prob, 0 if variant in ("cos", "cosh") else 1), 1, 0
    if tag in ("BesselRegular", "BesselIrregular", "BesselLogSecond", "Struve"):
        nu = family.param("n" if tag == "BesselLogSecond" else "nu")
        rhs = LogSeries.monomial(1, nu - 1, order) if tag == "Struve" else None
        prob = OdeProblem("two_point", {-1: 1}, {-2: -nu * nu, 0: 1}, rhs=rhs,
                          series_cutoff=order)
        c0, c1 = {"BesselRegular": (1, 0), "Struve": (0, 0)}.get(tag, (0, 1))
        return prob, root_index(prob, nu), c0, c1
    if tag.startswith("Hyp2F1"):
        a, b, c = family.param("a"), family.param("b"), family.param("c")
        prob = OdeProblem("three_point", {-1: c, 0: -(a + b + 1)}, {-1: -a * b},
                          series_cutoff=order)
    else:
        a, c = (1, 1) if tag == "Exp" else (family.param("a"), family.param("c"))
        prob = OdeProblem("two_point", {-1: c, 0: -1}, {-1: -a}, series_cutoff=order)
    return prob, root_index(prob, 0 if tag.endswith("Regular") else 1 - c), 1, 0


def family_operator(family: CatalogFamily, order: int = 20):
    """(seed LogSeries, one-application callable) for the family's iteration.

    The callable is the A of the family's equation (_family_problem), the
    same operator the solver iterates, and the seed is the solver's driving
    term, so v-fold application is the exact integer-order reference for
    fractional_power_coeff: every family's integer_powers are checked
    against it.
    """
    prob, root, c0, c1 = _family_problem(family, order)
    spec = transform(prob, root)
    return _driving_term(prob, spec, c0, c1, order), lambda f: apply_A(spec, f)


# --------------------------------------------------- fractional powers A^v

@dataclass(frozen=True)
class PowerData:
    """A^v(seed) = coefficient * z^exponent + log_coefficient * z^exponent * log z."""
    coefficient: object
    exponent: object
    log_coefficient: object = 0


def _as_nonneg_int(v):
    if isinstance(v, complex):
        if v.imag != 0.0:
            return None
        v = v.real
    n = as_int(v)
    return n if n is not None and n >= 0 else None


def fractional_power_coeff(family: CatalogFamily, v) -> PowerData:
    """Coefficient/exponent data of A^v applied to the family seed.

    Integer v >= 0 is the v-th element of integer_powers (v steps): exact
    rationals equal to v-fold family_operator application for exact
    params, and for float params the exact power of the dyadic parameters,
    rounded once.
    Non-integer v continues the term ratio A^{n+1}/A^n = K prod(n + t) /
    prod(n + b) through gamma: A^0 K^v prod Gamma(t + v)/Gamma(t)
    prod Gamma(b)/Gamma(b + v), with K^v = |K|^v e^{i pi v} for K < 0 (see
    GammaForm).  This agrees with the per-family gamma closed forms (kept in
    the tests) to 1e-13 relative for Re v in (0, 4), |Im v| <= 3.  The
    logarithmic family is no hypergeometric term and keeps its digamma form,
    validated numerically rather than proven.

    Raises AccuracyError when a float coefficient is not finite, or when a
    gamma factor leaves the float range on the way (large |v|).
    """
    n_int = _as_nonneg_int(v)
    if n_int is not None:
        data = next(islice(integer_powers(family), n_int, None))
    else:
        v = complex(v)
        try:
            if family.tag == "BesselLogSecond":
                n = family.param("n")
                sign = 1 if n % 2 == 0 else -1
                scale = sign * 4.0 ** (n - v) / (4 ** n * math.factorial(n))
                c1 = scale * _recip_gamma(1 + v - n) * _recip_gamma(1 + v)
                c2 = -0.5 * scale * _recip_gamma(1 + v) * (
                    (EULER_GAMMA - digamma(1.0 + n) + digamma(1 + v))
                    * _recip_gamma(1 + v - n)
                    + _psi_over_gamma(1 + v - n))
                data = PowerData(c2, 2 * (v - n), c1)
            else:
                form = family.gamma_form
                coeff = form.scale * cmath.exp(v * form.log_k)
                for t in form.tops:
                    coeff *= complex_gamma(t + v)
                for b in form.bottoms:
                    coeff *= _recip_gamma(b + v)
                data = PowerData(coeff, form.base + form.step * v)
        except (OverflowError, AccuracyError) as exc:
            raise AccuracyError(f"A^{v} of {family.tag} {_out_of_range(exc)} a float "
                                f"({exc})") from exc
    if _overflows(data.coefficient) or _overflows(data.log_coefficient):
        raise AccuracyError(f"A^{v} of {family.tag} is not a finite float: coefficient "
                            f"{data.coefficient}, log coefficient {data.log_coefficient}")
    return data


def integer_powers(family: CatalogFamily):
    """A^n applied to the family seed, as PowerData for n = 0, 1, 2, ...

    Each family's integer powers are defined here once, by their term
    ratio: every coefficient is the previous one times one ratio, so the
    first T powers cost T exact steps on reduced int pairs (_pair_walk),
    with a float parameter read as the dyadic rational it is.  With exact
    parameters the values are Fractions in lowest terms, equal to n-fold
    family_operator application; with float parameters, the exact powers of
    the dyadic parameters, each rounded once to the nearest float.

    The logarithmic family has no term ratio.  Its powers walk the seed
    through the kernel of its own A (_operator_powers): Fraction
    coefficients at int exponents, with the int log coefficient 0 below the
    root gap and a Fraction from the gap on.
    """
    if family.tag == "BesselLogSecond":
        yield from _operator_powers(family)
        return
    yield from _pair_walk(*_term_ratio(family), _exact_params(family))


def _pair_walk(coeff, k, tops, bottoms, base, step, exact):
    """The exact term-ratio walk on reduced int pairs.  With t = tn/td and
    b = bn/bd, the ratio K prod(n + t) / prod(n + b) at step n is

        kn prod(bd) prod(n td + tn) / (kd prod(td) prod(n bd + bn)),

    one scalars.ratio of two int products, and the pair of each coefficient
    is the previous one times it (pair_mul).  Every pair stays in lowest
    terms, so each power is rounded once: with exact parameters its Fraction
    takes the pair as it is (pair_fraction), the same values and types as
    Fraction arithmetic, with A^0 the coefficient itself; otherwise it is
    the nearest float (pair_float)."""
    num0 = k.numerator * math.prod(b.denominator for b in bottoms)
    den0 = k.denominator * math.prod(t.denominator for t in tops)
    tops = [(t.denominator, t.numerator) for t in tops]
    bottoms = [(b.denominator, b.numerator) for b in bottoms]
    value = (coeff.numerator, coeff.denominator)
    rounded = pair_fraction if exact else pair_float
    yield PowerData(coeff if exact else pair_float(value), base)
    n = 0
    while True:
        num, den = num0, den0
        for d, t in tops:
            num *= n * d + t
        for d, b in bottoms:
            den *= n * d + b
        value = pair_mul(value, ratio(num, den))
        n += 1
        yield PowerData(rounded(value), base + step * n)


def _term_ratio(family: CatalogFamily):
    """Every family but the logarithmic one as a hypergeometric term:
    (A^0 coefficient, K, tops, bottoms, base, step), where A^n sits at
    z^(base + step n) and A^{n+1}/A^n = K prod(n + t) / prod(n + b).  All
    but base are exact: a float parameter is read as the Fraction it is."""
    tag = family.tag
    exact = CatalogFamily(tag, tuple((name, v if isinstance(v, str) else Fraction(v))
                                     for name, v in family.params))
    if tag == "Exp":
        return Fraction(1), Fraction(-1), (), (1,), 0, 1
    if tag == "TrigHyp":
        omega = exact.param("omega")
        variant = family.param("variant")
        k = omega * omega / 4
        shift = 0 if variant in ("cos", "cosh") else 1
        return (Fraction(1), -k if variant in ("cosh", "sinh") else k, (),
                (Fraction(shift + 1, 2), Fraction(shift + 2, 2)), 0, 2)
    if tag == "BesselRegular":
        nu = exact.param("nu")
        return Fraction(1), Fraction(1, 4), (), (1, 1 + nu), 0, 2
    if tag == "BesselIrregular":
        nu = exact.param("nu")
        return (-Fraction(1, 2) / nu, Fraction(1, 4), (), (1, 1 - nu),
                -2 * family.param("nu"), 2)
    if tag in ("Hyp1F1Regular", "Hyp1F1Irregular",
               "Hyp2F1Regular", "Hyp2F1Irregular"):
        *tops, c = _hyp_params(exact)
        return Fraction(1), Fraction(-1), tops, (1, c), 0, 1
    if tag == "Struve":
        nu = exact.param("nu")
        half3 = Fraction(3, 2)
        return Fraction(1) / (2 * nu + 1), Fraction(1, 4), (), (half3, half3 + nu), 1, 2
    raise ParameterError(tag)  # pragma: no cover


class GammaForm(NamedTuple):
    """A hypergeometric-term family's A^v(seed) at complex v: scale K^v
    prod Gamma(t + v) / prod Gamma(b + v) at z^(base + step v).  Built once
    per family from _term_ratio (CatalogFamily.gamma_form)."""
    scale: complex           # A^0 prod Gamma(b) / prod Gamma(t)
    log_k: complex           # principal log K: log|K| + i pi for K < 0
    tops: tuple
    bottoms: tuple
    line_bottoms: tuple      # bottoms less one b = 1, cancelled by Gamma(1 - s)
    cancels_one: bool        # whether line_bottoms lost that b = 1
    base: float
    step: int


def _gamma_form(family: CatalogFamily) -> GammaForm:
    coeff, k, tops, bottoms, base, step = _term_ratio(family)
    tops = tuple(map(complex, tops))
    bottoms = tuple(map(complex, bottoms))
    scale = complex(coeff)
    for b in bottoms:
        scale *= complex_gamma(b)
    for t in tops:
        scale *= _recip_gamma(t)
    line_bottoms = list(bottoms)
    cancels_one = 1 in line_bottoms
    if cancels_one:
        line_bottoms.remove(1)
    return GammaForm(scale, complex(math.log(abs(k)), math.pi if k < 0 else 0.0),
                     tops, bottoms, tuple(line_bottoms), cancels_one, float(base), step)


def _operator_powers(family: CatalogFamily):
    """A^n(seed) for a family whose every power is a single row
    z^e (c + l log z): the seed walked on reduced pairs through one kernel
    of its own A at the seed's base, each image shifted one row up."""
    prob, root, c0, c1 = _family_problem(family, 1)
    spec = transform(prob, root)
    seed = _driving_term(prob, spec, c0, c1, 1)
    image = _kernel(spec, seed.sigma, math.inf, spec.integer_slots, 0)
    power = {key: c.as_integer_ratio() for key, c in seed.coeffs.items()}
    while True:
        (m,) = {m for m, _ in power}
        c, l = power.get((m, 0), (0, 1)), power.get((m, 1))
        yield PowerData(pair_fraction(c), as_int(seed.sigma + m), pair_fraction(l) if l else 0)
        power = {(m + 1, k): v for (m, k), v in _sum_images(image, power.items()).items()}


def evaluate_power(data: PowerData, z: float) -> complex:
    """Value of coefficient*z^exponent (+ log term) at real z > 0."""
    zf = float(z)
    if not zf > 0:
        raise ValueError("z must be positive")
    zp = cmath.exp(complex(data.exponent) * math.log(zf))
    out = complex(data.coefficient) * zp
    if data.log_coefficient != 0:
        out += complex(data.log_coefficient) * zp * math.log(zf)
    return out


def family_target_factor(family: CatalogFamily, z: float) -> float:
    """Multiplier turning the iterated-series value into the contour target.

    Most integrands sum directly to the transformed series f; the sin/sinh
    forms carry the extra z of the index-1 root and the Struve form carries
    the classical prefactor and z^nu, so those targets are the assembled
    functions sin(omega z)/omega, sinh(omega z)/omega and H_nu(z).
    """
    if family.tag == "TrigHyp" and family.param("variant") in ("sin", "sinh"):
        return float(z)
    if family.tag == "Struve":
        nu = float(family.param("nu"))
        return family.struve_prefactor * float(z) ** nu
    return 1.0


@dataclass(frozen=True)
class ResidueResult:
    value: float
    terms: int
    last_term: float          # |last residue added|, on the value's scale


def residue_eval(family: CatalogFamily, z: float, terms: int = 60,
                 full_output: bool = False):
    """Partial sum of the first `terms` residues: the series-route value.

    Residue of the integrand at s = -k is (-1)^k A^k(seed), so this is the
    truncated Neumann sum and converges for 0 < z < 1.  The residues come
    from one walk of integer_powers, `terms` exact steps, and are
    bit-identical to the closed forms.  The sum is not checked for
    convergence: it always adds `terms` residues, and near z = 1 the terms
    decay slowly and the partial sum can be far off.  full_output=True
    returns a ResidueResult whose last_term shows how large the neglected
    tail still is.

    Raises AccuracyError when a residue does not fit a float or the sum is
    not finite, as when the coefficients outgrow a float within the first
    `terms` steps.
    """
    total = 0.0 + 0.0j
    term = 0.0 + 0.0j
    try:
        for k, data in enumerate(islice(integer_powers(family), max(terms, 0))):
            term = evaluate_power(data, z)
            total += term if k % 2 == 0 else -term
    except OverflowError as exc:
        raise AccuracyError(f"a residue of {family.tag} at z = {z} overflows a "
                            f"float ({exc})") from exc
    factor = family_target_factor(family, z)
    scaled = factor * total
    if not cmath.isfinite(scaled):
        raise AccuracyError(f"the residue sum of {family.tag} at z = {z} is "
                            f"not finite: {scaled}")
    value = scaled.real
    if full_output:
        return ResidueResult(value=value, terms=terms, last_term=abs(factor * term))
    return value


# ----------------------------------------------------------- the integrand

def mellin_integrand(family: CatalogFamily, s: complex, z: float) -> complex:
    """Full line integrand so that (1/2 pi i) * integral ds = target value.

    Gamma(s) Gamma(1-s) (A^{-s} seed)(z) family_target_factor(z), with A^{-s}
    from the family's gamma_form and one Gamma(1-s) cancelled against a
    bottom b = 1 where there is one; this agrees with the per-family closed
    forms (kept in the tests) to 1e-12 relative for Re s in (0, 1),
    |Im s| <= 40.  The logarithmic family takes fractional_power_coeff(family,
    -s) instead.

    For K < 0 (the (-1)^s factors of the families whose series alternate
    through log(-z)) log K is the principal log|K| + i pi.  The other
    determination, -i pi, is the mirror image conj(integrand(conj s)).

    Raises AccuracyError when a factor overflows a float, as K^{-s} does
    for K < 0 once pi |Im s| passes about 709, and as the gamma_form's
    Gamma(1 + nu) does for Bessel nu = 200; when a Gamma it divides by
    underflows to 0; and when the product is not finite, as where a factor
    near the top of the float range meets one near its bottom.
    """
    s = complex(s)
    zf = float(z)
    if not zf > 0:
        raise ValueError("z must be positive")
    try:
        if family.tag == "BesselLogSecond":
            data = fractional_power_coeff(family, -s)
            val = complex_gamma(s) * complex_gamma(1 - s) * evaluate_power(data, zf)
        else:
            form = family.gamma_form
            val = (complex_gamma(s) * form.scale
                   * cmath.exp((form.base - form.step * s) * math.log(zf) - s * form.log_k))
            if not form.cancels_one:
                val *= complex_gamma(1 - s)
            for t in form.tops:
                val *= complex_gamma(t - s)
            for b in form.line_bottoms:
                val *= _recip_gamma(b - s)
            val *= family_target_factor(family, zf)
    except (OverflowError, AccuracyError) as exc:
        raise AccuracyError(f"the integrand of {family.tag} at s = {s} "
                            f"{_out_of_range(exc)} a float ({exc})") from exc
    if not cmath.isfinite(val):
        raise AccuracyError(f"the integrand of {family.tag} at s = {s} overflows a "
                            f"float: {val}")
    return val


# ----------------------------------------------------------- the quadrature

@dataclass(frozen=True)
class ContourSpec:
    """Vertical line Re s = abscissa, nodes abscissa + i*t, t in [-T, T] step h."""
    abscissa: float = 0.5
    half_height: float = 40.0
    step: float = 0.05

    def __post_init__(self):
        if not 0.0 < self.abscissa < 1.0:
            raise ValueError("abscissa must lie in (0, 1)")
        if self.half_height <= 0 or self.step <= 0:
            raise ValueError("half_height and step must be positive")


DEFAULT_CONTOUR = ContourSpec()


@dataclass(frozen=True)
class ContourResult:
    value: float
    imag_magnitude: float
    tail_estimate: float
    nodes: int


def contour_eval(family: CatalogFamily, z: float,
                 spec: ContourSpec = DEFAULT_CONTOUR, tol: float = 1e-8,
                 full_output: bool = False):
    """Trapezoid quadrature of the line integrand over [-T, T].

    The nodes are a + i(-T + h*j) for j = 0, ..., count - 1, with weight h
    and h/2 at both ends.  The real and the imaginary parts of the weighted
    terms are each summed with math.fsum: the correctly rounded sum of the
    same products, independent of the machine and of any BLAS.

    Raises AccuracyError when the tail estimate (from the sampled decay rate
    of the integrand modulus near |t| = T) exceeds tol; with
    full_output=True returns the raw ContourResult diagnostics instead of
    raising, so the failure modes can be inspected.
    """
    if not 0.0 < float(z) < 1.0:
        raise ValueError("z must lie in (0, 1)")
    a, T, h = spec.abscissa, spec.half_height, spec.step
    count = int(math.floor(2 * T / h + 1e-9)) + 1
    if count < 3:
        raise ValueError("step too large for the requested half_height")
    vals = [mellin_integrand(family, complex(a, -T + h * i), z)
            for i in range(count)]
    weights = [h] * count
    weights[0] = weights[-1] = 0.5 * h
    terms = [w * v for w, v in zip(weights, vals)]
    total = complex(math.fsum(t.real for t in terms),
                    math.fsum(t.imag for t in terms)) / (2.0 * math.pi)

    tail = _tail_estimate(vals, T, h)
    if full_output:
        return ContourResult(value=total.real, imag_magnitude=abs(total.imag),
                             tail_estimate=tail, nodes=count)
    if not tail <= tol:
        raise AccuracyError(
            f"tail estimate {tail:.3e} exceeds tolerance {tol:.1e}; the "
            "integrand does not decay on this line (use residue_eval or the "
            "series solver for a convergent evaluation)")
    if abs(total.imag) >= 1e-8:
        warnings.warn(
            f"discarding imaginary part {abs(total.imag):.3e} of contour "
            "value (conjugate symmetry violated beyond 1e-8)",
            RuntimeWarning, stacklevel=2)
    return total.real


def _tail_estimate(vals: list[complex], T: float, h: float) -> float:
    """Extrapolated |tail| of the two half-lines beyond +-T.

    Fits a per-unit geometric decay ratio from the last `offset` units of the
    sampled modulus; no decay means an unbounded (infinite) estimate.  Only
    the moduli at both ends and `offset` inside them are read, each correctly
    rounded by math.hypot (the modulus of a complex is not always).
    """
    offset = min(5.0, T / 2)
    k = max(1, int(round(offset / h)))
    moduli = [math.hypot(v.real, v.imag) for v in (vals[0], vals[-1], vals[k], vals[-1 - k])]
    m_end = max(moduli[:2])
    if m_end == 0.0:
        return 0.0
    m_in = max(moduli[2:])
    if m_in == 0.0:
        return float("inf")
    ratio = (m_end / m_in) ** (1.0 / offset)
    if ratio >= 0.999999:
        return float("inf")
    # integral of m_end * ratio^(t-T) over both tails, /(2 pi)
    return float(m_end / (-math.log(ratio)) / math.pi)
