"""Gamma/digamma accuracy, family validation, fractional powers, residue
equivalence, and honest contour quadrature diagnostics."""

import ast
import cmath
import functools
import math
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction as Fr
from itertools import islice
from pathlib import Path

import mpmath
import pytest
import scipy.special as sp
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import regsing.catalog
import regsing.cli
import regsing.mellin
from regsing.catalog import (
    ParameterError,
    bessel_j_series,
    bessel_log_second_series,
    hyp1f1_series,
    hyp2f1_series,
    log_second_c1,
    log_second_c2,
    pochhammer,
    struve_series,
)
from regsing.cli import main
from regsing.logseries import LogSeries
from regsing.mellin import (
    _FAMILY_PARAMS,
    _TRIG_VARIANTS,
    AccuracyError,
    CatalogFamily,
    ContourResult,
    ContourSpec,
    EULER_GAMMA,
    PoleError,
    PowerData,
    ResidueResult,
    _family_problem,
    _hyp_params,
    _nonpositive_int_param,
    _recip_gamma,
    _term_ratio,
    catalog_family,
    complex_gamma,
    contour_eval,
    digamma,
    evaluate_power,
    family_operator,
    family_target_factor,
    fractional_power_coeff,
    integer_powers,
    mellin_integrand,
    residue_eval,
)
from regsing.scalars import Scalar, as_int, is_exact
from regsing.solver import solve

from test_cli import COMPARE_CASES
from test_operators import assert_canonical, integrate
from test_problem import bessel_problem
from test_solver import _neumann, struve_problem

ALL_FAMILIES = [
    catalog_family("Exp"),
    catalog_family("TrigHyp", variant="cos", omega=Fr(2)),
    catalog_family("TrigHyp", variant="sin", omega=Fr(3, 2)),
    catalog_family("TrigHyp", variant="cosh", omega=Fr(1)),
    catalog_family("TrigHyp", variant="sinh", omega=Fr(1)),
    catalog_family("BesselRegular", nu=Fr(1, 3)),
    catalog_family("BesselIrregular", nu=Fr(1, 3)),
    catalog_family("BesselLogSecond", n=0),
    catalog_family("BesselLogSecond", n=1),
    catalog_family("BesselLogSecond", n=3),
    catalog_family("Hyp1F1Regular", a=Fr(2, 3), c=Fr(7, 5)),
    catalog_family("Hyp1F1Irregular", a=Fr(2, 3), c=Fr(7, 5)),
    catalog_family("Hyp2F1Regular", a=Fr(1, 2), b=Fr(1, 3), c=Fr(5, 4)),
    catalog_family("Hyp2F1Irregular", a=Fr(1, 2), b=Fr(1, 3), c=Fr(5, 4)),
    catalog_family("Struve", nu=Fr(1, 3)),
]


# -------------------------------------------------------------------- gamma

def test_gamma_trivials():
    assert abs(complex_gamma(1) - 1) < 1e-14
    assert abs(complex_gamma(5) - 24) < 1e-12
    assert abs(complex_gamma(0.5) - math.sqrt(math.pi)) < 1e-14


def test_gamma_modulus_decay_on_vertical_line():
    # |Gamma(1/2 + it)| = sqrt(pi / cosh(pi t)), so ~ sqrt(2 pi) e^{-pi t / 2}
    got = abs(complex_gamma(complex(0.5, 14.0)))
    ref = math.sqrt(math.pi / math.cosh(math.pi * 14.0))
    assert abs(got - ref) / ref < 1e-12


def test_gamma_against_scipy_on_strip():
    pts = [complex(x, y)
           for x in (-9.5, -3.25, -0.5, 0.1, 0.5, 1.0, 2.75, 9.9)
           for y in (0.0, 1e-3, 0.5, 5.0, 14.0, 49.5)]
    for s in pts:
        ref = complex(sp.gamma(s))
        assert abs(complex_gamma(s) - ref) <= 1e-12 * abs(ref)


def test_gamma_poles():
    for s in (0, -1, -7, 0.0 + 0j, complex(-3, 0)):
        with pytest.raises(PoleError):
            complex_gamma(s)


@pytest.mark.parametrize("s", [143, 150.5, 170.5, 171.5, -150.5, -160.25,
                               complex(143, 5), complex(-145.5, 2)])
def test_gamma_that_fits_a_float_is_returned_past_the_lanczos_power(s):
    # t^(w + 1/2) alone overflows from |Re s| about 142 on; Gamma(s) does not
    ref = complex(mpmath.gamma(mpmath.mpc(s)))
    assert abs(complex_gamma(s) - ref) <= 2e-13 * abs(ref)


@pytest.mark.parametrize("s", [complex(0.25, 230), complex(0.25, 300), complex(0.25, -300),
                               complex(-3.7, 260)])
def test_gamma_past_the_range_of_sin_is_returned(s):
    # sin(pi s) of the reflection formula overflows from |Im s| about 226
    # on, while Gamma(s) there is a normal float
    ref = complex(mpmath.gamma(mpmath.mpc(s)))
    assert abs(complex_gamma(s) - ref) <= 1e-12 * abs(ref)


@pytest.mark.parametrize("s", [complex(-100, 200), complex(-120, 210), complex(-150, 100)])
def test_gamma_whose_reflection_product_overflows_underflows_to_zero(s):
    # sin(pi s) and Gamma(1 - s) fit a float there but their product does
    # not (pi over it was nan); Gamma(s) itself is below the float range
    assert complex_gamma(s) == complex(mpmath.gamma(mpmath.mpc(s))) == 0


def test_gamma_near_the_bottom_of_the_float_range_is_returned():
    # the reflection product overflows here too, and pi over it was 0
    s = complex(-169.1476734180056, 2.84526214482821)
    ref = complex(mpmath.gamma(mpmath.mpc(s)))
    assert abs(complex_gamma(s) - ref) <= 1e-12 * abs(ref)


@pytest.mark.parametrize("s", [complex(180.5, 3), complex(-180.5, 3)])
def test_gamma_that_overflows_a_float_is_an_accuracy_error(s):
    # the Lanczos factor t^(w + 1/2) leaves the float range, directly and
    # through the reflection formula
    with pytest.raises(AccuracyError, match="overflows a float") as exc:
        complex_gamma(s)
    assert isinstance(exc.value.__cause__, OverflowError)


def test_integrand_whose_gamma_form_overflows_is_refused():
    # Gamma(1 + nu) of the gamma_form scale leaves the float range at nu = 200
    family = catalog_family("BesselRegular", nu=200)
    with pytest.raises(AccuracyError, match="the integrand of BesselRegular at s = "
                                            r"\(0\.5\+1j\) overflows a float"):
        mellin_integrand(family, 0.5 + 1j, 0.5)


def test_digamma_values():
    assert abs(digamma(1.0) + EULER_GAMMA) < 1e-13
    assert abs(digamma(2.0) - (1 - EULER_GAMMA)) < 1e-13
    assert abs(digamma(0.5) - (-EULER_GAMMA - 2 * math.log(2))) < 1e-13
    assert isinstance(digamma(3.7), float)


def test_digamma_against_scipy():
    for x in (-2.5, -0.3, 0.2, 1.0, 4.5, 9.9):
        assert abs(digamma(x) - sp.digamma(x)) < 1e-12
    for s in (complex(0.5, 3.0), complex(-1.5, 0.25), complex(4, 40)):
        ref = complex(sp.digamma(s))
        assert abs(digamma(s) - ref) < 1e-12 * max(1.0, abs(ref))


def test_digamma_poles():
    for x in (0, -4, 0.0):
        with pytest.raises(PoleError):
            digamma(x)


@pytest.mark.parametrize("s", [complex(-1e6, 0.5), complex(-1e20, 0.5), complex(-10.5, 3),
                               -11.3, -999999.5])
def test_digamma_far_left_is_the_reflection(s):
    # the upward recurrence took O(|Re s|) steps, and stalled past 2^53
    ref = complex(mpmath.digamma(mpmath.mpmathify(s)))
    got = digamma(s)
    assert type(got) is type(s)
    assert abs(got - ref) <= 1e-14 * abs(ref)


@pytest.mark.parametrize("s", [complex(125.34175496091035, -548.6107381011601),
                               complex(182.41370875569976, 716.523979294959),
                               complex(79.02313743239384, -527.44128503091)])
def test_gamma_whose_lanczos_product_leaves_the_float_range_is_taken_in_logs(s):
    # the product read nan at the first two points and 0 at the third,
    # where Gamma(s) is a normal float
    ref = complex(mpmath.gamma(mpmath.mpc(s)))
    assert abs(complex_gamma(s) - ref) <= 2e-12 * abs(ref)


def test_gamma_beyond_the_float_range_of_the_log_form_is_an_accuracy_error():
    # the Lanczos product read nan here too, but Gamma(s) overflows a float
    with pytest.raises(AccuracyError, match="overflows a float") as exc:
        complex_gamma(complex(370.2701889648052, 1039.2003859619444))
    assert isinstance(exc.value.__cause__, OverflowError)


@pytest.mark.parametrize("s", [1e-310, complex(0, 1e-310)])
def test_gamma_and_digamma_beside_a_pole_are_accuracy_errors(s):
    # Gamma(s) is about 1/s there, and was returned as inf
    with pytest.raises(AccuracyError, match="overflows a float"):
        complex_gamma(s)
    with pytest.raises(AccuracyError, match="overflows a float"):
        digamma(s / 1e10)


def test_division_by_a_gamma_that_underflows_is_an_accuracy_error():
    # Gamma(-100 + 200i) underflows to 0, and 1/Gamma was a bare
    # ZeroDivisionError, here and inside the gamma form
    with pytest.raises(AccuracyError, match="underflows a float") as exc:
        _recip_gamma(complex(-100, 200))
    assert isinstance(exc.value.__cause__, ZeroDivisionError)
    family = catalog_family("BesselRegular", nu=Fr(1, 3))
    with pytest.raises(AccuracyError, match="underflows a float") as exc:
        fractional_power_coeff(family, complex(-29.054902882142933, -399.91802575226956))
    assert isinstance(exc.value.__cause__.__cause__, ZeroDivisionError)
    for s in (complex(0.5, 470), complex(0.5, -470)):
        with pytest.raises(AccuracyError, match="the integrand of BesselRegular at s = "):
            mellin_integrand(family, s, 0.5)


def test_refusal_caused_by_a_gamma_underflow_says_underflows():
    # the wrappers said "overflows" whatever the cause
    family = catalog_family("BesselRegular", nu=Fr(1, 3))
    with pytest.raises(AccuracyError, match=r"^A\^\(-29\.05.* of BesselRegular underflows "
                                            r"a float \(Gamma"):
        fractional_power_coeff(family, complex(-29.054902882142933, -399.91802575226956))
    with pytest.raises(AccuracyError, match=r"^the integrand of BesselRegular at "
                                            r"s = \(0\.5-500j\) underflows a float \(") as exc:
        mellin_integrand(family, 0.5 - 500j, 0.5)
    assert isinstance(exc.value.__cause__.__cause__, ZeroDivisionError)


# ---------------------------------------------------------------- families

def test_family_validation():
    with pytest.raises(ParameterError):
        catalog_family("NoSuchFamily")
    with pytest.raises(ParameterError):
        catalog_family("BesselRegular")                 # missing nu
    with pytest.raises(ParameterError):
        catalog_family("Exp", nu=1)                     # extra param
    with pytest.raises(ParameterError):
        catalog_family("BesselRegular", nu=-2)
    with pytest.raises(ParameterError):
        catalog_family("BesselIrregular", nu=2)         # integer: log case
    with pytest.raises(ParameterError):
        catalog_family("BesselLogSecond", n=Fr(1, 2))
    with pytest.raises(ParameterError):
        catalog_family("Struve", nu=Fr(-1, 2))
    with pytest.raises(ParameterError):
        catalog_family("Struve", nu=Fr(-3, 2))
    with pytest.raises(ParameterError):
        catalog_family("Hyp1F1Regular", a=1, c=0)
    with pytest.raises(ParameterError):
        catalog_family("Hyp1F1Irregular", a=Fr(1, 2), c=2)   # 2 - c = 0
    with pytest.raises(ParameterError):
        catalog_family("TrigHyp", variant="tan")
    with pytest.raises(ParameterError):
        catalog_family("TrigHyp", variant="cos", omega=0)
    fam = catalog_family("BesselRegular", nu=Fr(1, 3))
    assert fam.param("nu") == Fr(1, 3)
    with pytest.raises(KeyError):
        fam.param("omega")


def _catalog_family_by_tag(tag, **params):
    """Test oracle: catalog_family as it was written per tag, before its
    validity rules were read from the term ratio, with each float parameter
    read as the dyadic rational it is, as the term ratio reads it."""
    if tag not in _FAMILY_PARAMS:
        raise ParameterError(f"unknown family tag {tag!r}")
    if tag == "TrigHyp":
        params.setdefault("omega", 1)
    expected = set(_FAMILY_PARAMS[tag])
    if set(params) != expected:
        raise ParameterError(
            f"{tag} expects params {sorted(expected)}, got {sorted(params)}")

    if tag == "TrigHyp":
        if params["variant"] not in _TRIG_VARIANTS:
            raise ParameterError(f"variant must be one of {_TRIG_VARIANTS}")
        if not float(params["omega"]) > 0:
            raise ParameterError("omega must be positive")
    record = CatalogFamily(tag, tuple(sorted(params.items())))
    params = {name: Fr(v) if isinstance(v, float) else v for name, v in params.items()}
    if tag == "BesselRegular":
        if _nonpositive_int_param(params["nu"] + 1):
            raise ParameterError("nu must not be a negative integer")
    elif tag == "BesselIrregular":
        n = as_int(params["nu"])
        if n is not None and n >= 0:
            raise ParameterError(
                "integer nu has a logarithmic second solution; "
                "use BesselLogSecond")
    elif tag == "BesselLogSecond":
        n = as_int(params["n"])
        if n is None or n < 0:
            raise ParameterError("n must be a non-negative integer")
        record = CatalogFamily(tag, (("n", n),))
    elif tag.startswith("Hyp"):
        family = CatalogFamily(tag, tuple(sorted(params.items())))
        if any(_nonpositive_int_param(x) for x in _hyp_params(family)):
            raise ParameterError(
                "effective parameters must avoid non-positive integers")
    elif tag == "Struve":
        nu = params["nu"]
        if 2 * nu + 1 == 0 or _nonpositive_int_param(nu + Fr(3, 2)):
            raise ParameterError("nu = -1/2, -3/2, ... not supported")

    return record


# integers, half-integers (-1/2, -3/2 and nu = 0 among them) and rationals
# 1/1000 beside them; as floats also the neighbouring doubles
_exact_near_poles = st.one_of(
    st.integers(-9, 9).map(lambda k: Fr(k, 2)),
    st.tuples(st.integers(-9, 9), st.sampled_from((-1, 1))).map(
        lambda kd: Fr(kd[0], 2) + Fr(kd[1], 1000)),
)
_params_near_poles = st.one_of(
    _exact_near_poles,
    _exact_near_poles.map(float),
    st.tuples(_exact_near_poles.map(float), st.sampled_from((-math.inf, math.inf))).map(
        lambda xd: math.nextafter(*xd)),
)


@st.composite
def _family_arguments(draw):
    tag = draw(st.sampled_from(sorted(_FAMILY_PARAMS)))
    return tag, {name: draw(st.sampled_from(_TRIG_VARIANTS + ("tan",))
                            if name == "variant" else _params_near_poles)
                 for name in _FAMILY_PARAMS[tag]}


@given(_family_arguments())
@settings(max_examples=500, deadline=None)
def test_term_ratio_rule_accepts_what_the_per_tag_chain_accepted(arguments):
    tag, params = arguments
    try:
        want = _catalog_family_by_tag(tag, **params)
    except ParameterError:
        with pytest.raises(ParameterError):
            catalog_family(tag, **params)
        return
    try:
        got = catalog_family(tag, **params)
    except ParameterError as exc:
        # the chain never looked at float overflow: the rule refuses beyond
        # it only where A^0 or A^1 of the chain's record is not finite
        assert str(exc).endswith("overflows")
        powers = islice(integer_powers(want), 2)
        assert not all(math.isfinite(abs(data.coefficient)) for data in powers)
    else:
        assert got == want


def test_family_errors_say_why():
    # 1 - nu = -1 is a bottom of BesselIrregular(2)'s term ratio: integer
    # nu >= 0 is the logarithmic family, BesselLogSecond
    with pytest.raises(ParameterError, match=r"^BesselIrregular\(nu=2\): bottom b = -1 "
                       "of the term ratio is a non-positive integer$"):
        catalog_family("BesselIrregular", nu=Fr(2))
    with pytest.raises(ParameterError, match=r"^Struve\(nu=-1/2\): A\^0 is infinite$"):
        catalog_family("Struve", nu=Fr(-1, 2))


def test_family_refuses_a_term_ratio_that_overflows():
    # residue_eval summed these to nan: A^0 = -0.5/5e-324 = -inf, and the
    # first step of 1F1(1; 1e-320) is -1/1e-320 = -inf
    with pytest.raises(ParameterError, match=r"^BesselIrregular\(nu=5e-324\): "
                       r"A\^0 overflows$"):
        catalog_family("BesselIrregular", nu=5e-324)
    with pytest.raises(ParameterError, match=r"^Hyp1F1Regular\(a=1.0, c=1e-320\): "
                       r"the n = 0 term ratio overflows$"):
        catalog_family("Hyp1F1Regular", a=1.0, c=1e-320)
    # the neighbour within an ulp of the exact refusal at nu = -1/2 stays:
    # A^0 = 1/(2 nu + 1) is about 9.0e15
    fam = catalog_family("Struve", nu=-0.49999999999999994)
    assert 9.0e15 <= next(integer_powers(fam)).coefficient <= 9.01e15
    assert math.isfinite(residue_eval(fam, 0.3))


@pytest.mark.parametrize("tag, name", [(tag, name) for tag in sorted(_FAMILY_PARAMS)
                                       for name in _FAMILY_PARAMS[tag] if name != "variant"])
@pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
def test_family_refuses_a_parameter_that_is_not_finite(tag, name, x):
    # BesselRegular(nu=inf) was accepted, and residue_eval of it read 1.0
    params = {other: "cos" if other == "variant" else Fr(1, 3) for other in _FAMILY_PARAMS[tag]}
    params[name] = x
    with pytest.raises(ParameterError, match=rf"^{tag}\(.*\): {name} = {x} is not finite$"):
        catalog_family(tag, **params)


def test_float_parameters_are_read_exactly():
    # a + 1 - c is 0.0 in floats, a non-positive integer, but
    # 1/1125899906842624000 exactly
    fam = catalog_family("Hyp1F1Irregular", a=-1 / 1000, c=0.999)
    tops = _term_ratio(fam)[2]
    assert tops == [Fr(-1 / 1000) + 1 - Fr(0.999)] and 0 < tops[0] < Fr(1, 10**18)


# -------------------------------------------------------- fractional powers

def _assert_powers_equal_iteration(family, v_max):
    seed, apply_one = family_operator(family, order=24)
    current = seed
    for v in range(v_max + 1):
        data = fractional_power_coeff(family, v)
        assert current.coefficient_at(data.exponent, 0) == data.coefficient
        assert current.coefficient_at(data.exponent, 1) == data.log_coefficient
        current = apply_one(current)


@pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: repr(f)[:40])
def test_integer_power_equals_operator_iteration(family):
    _assert_powers_equal_iteration(family, 6)


@pytest.mark.parametrize("family", [
    catalog_family("BesselRegular", nu=Fr(-1, 3)),
    catalog_family("BesselRegular", nu=Fr(-5, 2)),
    catalog_family("BesselIrregular", nu=Fr(-1, 3)),
    catalog_family("BesselIrregular", nu=-1),
    catalog_family("Struve", nu=Fr(-1, 3)),
], ids=lambda f: repr(f)[:48])
def test_integer_power_equals_operator_iteration_negative_nu(family):
    # for nu < 0 the root nu is the smaller one: the operator picks its root
    # by value, as the term ratio (based at z^nu) does
    _assert_powers_equal_iteration(family, 6)


@pytest.mark.parametrize("c", [Fr(1, 3), Fr(1, 2)], ids=str)
@pytest.mark.parametrize("tag", ["Hyp1F1Regular", "Hyp1F1Irregular",
                                 "Hyp2F1Regular", "Hyp2F1Irregular"])
def test_integer_power_equals_operator_iteration_below_c_one(tag, c):
    # for c < 1 the root 1 - c is the larger one: the operator picks its
    # root by value (0 regular, 1 - c irregular), not by position
    params = {"a": Fr(1, 2), "c": c}
    if tag.startswith("Hyp2F1"):
        params["b"] = Fr(1, 3)
    _assert_powers_equal_iteration(catalog_family(tag, **params), 4)


def test_power_identity_at_v0():
    for family in ALL_FAMILIES:
        data = fractional_power_coeff(family, 0)
        seed, _ = family_operator(family)
        assert seed.coefficient_at(data.exponent, 0) == data.coefficient


def test_hyp2f1_power_at_v2_is_pochhammer_ratio():
    a, b, c = Fr(1, 2), Fr(1, 3), Fr(5, 4)
    fam = catalog_family("Hyp2F1Regular", a=a, b=b, c=c)
    data = fractional_power_coeff(fam, 2)
    expect = pochhammer(a, 2) * pochhammer(b, 2) / (pochhammer(c, 2) * 2)
    assert data.coefficient == expect and data.exponent == 2


def test_exp_power_at_half():
    data = fractional_power_coeff(catalog_family("Exp"), 0.5)
    # (-1)^{1/2} / Gamma(3/2) = i * 2/sqrt(pi)
    assert abs(data.coefficient - 2j / math.sqrt(math.pi)) < 1e-13
    assert data.exponent == 0.5


def test_bessel_power_at_half():
    fam = catalog_family("BesselRegular", nu=Fr(0))
    data = fractional_power_coeff(fam, 0.5)
    # 4^{-1/2} / Gamma(3/2)^2 = 2/pi
    assert abs(data.coefficient - 2 / math.pi) < 1e-13


def test_log_second_power_frozen_and_continuous():
    fam = catalog_family("BesselLogSecond", n=1)
    d2 = fractional_power_coeff(fam, 2)
    assert d2.coefficient == Fr(3, 128) and d2.log_coefficient == -Fr(1, 32)
    near = fractional_power_coeff(fam, 2 + 1e-7)
    assert abs(complex(near.coefficient) - 3 / 128) < 1e-5
    assert abs(complex(near.log_coefficient) + 1 / 32) < 1e-5
    # below the gap the log channel shuts off: pure power with the head value
    d0 = fractional_power_coeff(fam, 0)
    assert d0.coefficient == -Fr(1, 2) and d0.log_coefficient == 0
    cont = fractional_power_coeff(fam, 1e-9)
    assert abs(complex(cont.coefficient) + 0.5) < 1e-6
    assert abs(complex(cont.log_coefficient)) < 1e-6


# ------------------------------------------------------- residue equivalence

def _term(family, k):
    data = fractional_power_coeff(family, k)
    sign = 1 if k % 2 == 0 else -1
    return sign * data.coefficient, sign * data.log_coefficient, data.exponent


def test_residues_match_bessel_regular_series():
    nu = Fr(1, 3)
    fam = catalog_family("BesselRegular", nu=nu)
    series = bessel_j_series(nu, 20)
    for k in range(10):
        coeff, logc, expo = _term(fam, k)
        assert expo == 2 * k
        assert series.coefficient(2 * k) == coeff and logc == 0


def test_residues_match_bessel_irregular_solve():
    nu = Fr(1, 3)
    fam = catalog_family("BesselIrregular", nu=nu)
    sol = solve(bessel_problem(nu, cutoff=20), 1, 0, 1, order=20)
    for k in range(10):
        coeff, _, expo = _term(fam, k)
        assert expo == 2 * k - 2 * nu
        assert sol.f.coefficient(2 * k) == coeff


def test_residues_match_log_second_series():
    fam = catalog_family("BesselLogSecond", n=1)
    series = bessel_log_second_series(1, 22)
    for k in range(10):
        coeff, logc, expo = _term(fam, k)
        assert expo == 2 * (k - 1)
        assert series.coefficient(2 * k, 0) == coeff
        assert series.coefficient(2 * k, 1) == logc


def test_residues_match_hypergeometric_series():
    a, b, c = Fr(1, 2), Fr(1, 3), Fr(5, 4)
    for fam, series in [
        (catalog_family("Hyp1F1Regular", a=a, c=c), hyp1f1_series(a, c, 12)),
        (catalog_family("Hyp1F1Irregular", a=a, c=c),
         hyp1f1_series(a + 1 - c, 2 - c, 12)),
        (catalog_family("Hyp2F1Regular", a=a, b=b, c=c),
         hyp2f1_series(a, b, c, 12)),
        (catalog_family("Hyp2F1Irregular", a=a, b=b, c=c),
         hyp2f1_series(a + 1 - c, b + 1 - c, 2 - c, 12)),
    ]:
        for k in range(10):
            coeff, _, expo = _term(fam, k)
            assert expo == k
            assert series.coefficient(k) == coeff


def test_residues_match_struve_series():
    nu = Fr(1, 3)
    fam = catalog_family("Struve", nu=nu)
    series = struve_series(nu, 22, scaled=True)
    for k in range(10):
        coeff, _, expo = _term(fam, k)
        assert expo == 2 * k + 1
        assert series.coefficient(2 * k) == coeff


def test_residues_match_trig_solver():
    omega = Fr(2)
    from regsing.problem import OdeProblem
    prob = OdeProblem("two_point", {}, {0: omega * omega}, series_cutoff=20)
    cos_sol = solve(prob, 2, 1, 0, order=20)
    fam = catalog_family("TrigHyp", variant="cos", omega=omega)
    for k in range(10):
        coeff, _, expo = _term(fam, k)
        assert cos_sol.f.coefficient(2 * k) == coeff and expo == 2 * k


def test_residue_partial_sums_hit_reference_values():
    cases = [
        (catalog_family("Exp"), 0.5, math.exp(0.5)),
        (catalog_family("TrigHyp", variant="cos", omega=Fr(2)), 0.4,
         math.cos(0.8)),
        (catalog_family("TrigHyp", variant="sin", omega=Fr(2)), 0.4,
         math.sin(0.8) / 2),
        (catalog_family("TrigHyp", variant="cosh", omega=Fr(1)), 0.5,
         math.cosh(0.5)),
        (catalog_family("TrigHyp", variant="sinh", omega=Fr(1)), 0.5,
         math.sinh(0.5)),
        (catalog_family("BesselRegular", nu=Fr(0)), 0.5, sp.jv(0, 0.5)),
        (catalog_family("Struve", nu=Fr(0)), 0.5, sp.struve(0, 0.5)),
        (catalog_family("Hyp1F1Regular", a=Fr(1), c=Fr(3, 2)), 0.5,
         float(sp.hyp1f1(1, 1.5, 0.5))),
        (catalog_family("Hyp2F1Regular", a=Fr(1, 2), b=Fr(1, 3), c=Fr(5, 4)),
         0.5, float(sp.hyp2f1(0.5, 1 / 3, 1.25, 0.5))),
    ]
    for fam, z, ref in cases:
        assert abs(residue_eval(fam, z) - ref) < 1e-12


def test_residue_eval_full_output_reports_the_last_term():
    fam = catalog_family("Hyp2F1Regular", a=Fr(1, 2), b=Fr(1, 3), c=Fr(5, 4))
    near = residue_eval(fam, 0.25, full_output=True)
    assert near.value == residue_eval(fam, 0.25) and near.terms == 60
    assert near.last_term < 1e-30
    # at 0.97 the sum is off by 1.5e-3 relative; the 60th term, 9.7e-5, is
    # far above double precision, and the neglected tail larger still
    far = residue_eval(fam, 0.97, full_output=True)
    assert far.last_term > 5e-5
    assert abs(far.value - float(sp.hyp2f1(0.5, 1 / 3, 1.25, 0.97))) > far.last_term


@pytest.mark.parametrize("omega, why", [
    # A^n grows like (omega^2/4)^n / ((1/2)_n n!) and passes 1.8e308 within
    # a few steps; the float sum then reads inf - inf = nan
    (1e20, r"the residue sum of TrigHyp at z = 0\.3 is not finite: \(nan\+nanj\)"),
    # the exact coefficients stay exact, but the first that outgrows a float
    # cannot be converted to one
    (10**20, "a residue of TrigHyp at z = 0.3 overflows a float"),
], ids=["float", "exact"])
def test_residue_eval_refuses_a_sum_that_is_not_finite(omega, why):
    fam = catalog_family("TrigHyp", variant="cos", omega=omega)
    for full_output in (False, True):
        with pytest.raises(AccuracyError, match=why) as exc:
            residue_eval(fam, 0.3, full_output=full_output)
    if isinstance(omega, int):
        assert isinstance(exc.value.__cause__, OverflowError)
    else:   # the integer powers behind the sum are refused alike
        with pytest.raises(AccuracyError, match="A\\^20 of TrigHyp is not a finite float"):
            fractional_power_coeff(fam, 20)


@pytest.mark.parametrize("v, why", [
    # Gamma(1 + v) overflows inside complex_gamma
    (200.5, r"A\^\(200\.5\+0j\) of BesselRegular overflows a float"),
    # 1/Gamma(1 + v) and 1/Gamma(4/3 + v) are each near 1e269 at Im v = 400,
    # and their product is (-inf+nanj)
    (complex(0.5, 400), r"A\^\(0\.5\+400j\) of BesselRegular is not a finite float"),
], ids=["large-re", "large-im"])
def test_fractional_power_refuses_a_coefficient_that_is_not_finite(v, why):
    with pytest.raises(AccuracyError, match=why):
        fractional_power_coeff(catalog_family("BesselRegular", nu=Fr(1, 3)), v)


@pytest.mark.parametrize("family", [
    catalog_family("Exp"),
    catalog_family("Hyp1F1Regular", a=Fr(1), c=Fr(3, 2)),
    catalog_family("TrigHyp", variant="cosh", omega=Fr(1)),
], ids=lambda f: f.tag)
def test_integrand_that_overflows_a_float_is_refused(family):
    # K < 0: |K^{-s}| = e^{pi Im s} leaves the float range near Im s = 226
    with pytest.raises(AccuracyError, match="overflows a float") as exc:
        mellin_integrand(family, 0.5 + 300j, 0.5)
    assert isinstance(exc.value.__cause__, OverflowError)
    with pytest.raises(AccuracyError, match="overflows a float"):
        contour_eval(family, 0.5, ContourSpec(half_height=300, step=0.5), full_output=True)


@pytest.mark.parametrize("family, s", [
    (catalog_family("TrigHyp", variant="cosh", omega=1), complex(9.536280324335188, 188.31656231047202)),
    (catalog_family("BesselRegular", nu=150), complex(24.24478025978688, 43.91882047973115)),
], ids=lambda x: getattr(x, "tag", None))
def test_integrand_that_is_not_finite_is_refused(family, s):
    # every factor is a finite float, and the product read nan+nanj
    with pytest.raises(AccuracyError, match=rf"^the integrand of {family.tag} at s = "
                                            r".* overflows a float: \(nan\+nanj\)$"):
        mellin_integrand(family, s, 0.3)


# ---------------------------------------------------------------- integrand

def test_exp_integrand_frozen_point():
    fam = catalog_family("Exp")
    got = mellin_integrand(fam, 0.5, 0.25)
    # Gamma(1/2) * (-1/4)^{-1/2} = sqrt(pi) * 2 * e^{-i pi/2} = -2i sqrt(pi)
    assert abs(got - complex(0, -2 * math.sqrt(math.pi))) < 1e-12


def test_bessel_integrand_frozen_point():
    fam = catalog_family("BesselRegular", nu=Fr(0))
    got = mellin_integrand(fam, 0.5, 0.5)
    assert abs(got - 4.0) < 1e-12        # Gamma(s)/Gamma(1-s) = 1, (z/2)^{-1}


def test_integrand_conjugate_symmetry_real_power_families():
    for fam in (catalog_family("BesselRegular", nu=Fr(1, 3)),
                catalog_family("BesselIrregular", nu=Fr(1, 3)),
                catalog_family("BesselLogSecond", n=1),
                catalog_family("Struve", nu=Fr(0)),
                catalog_family("TrigHyp", variant="cos", omega=Fr(1)),
                catalog_family("TrigHyp", variant="sin", omega=Fr(2))):
        for t in (0.3, 2.0, 11.5):
            s = complex(0.5, t)
            up = mellin_integrand(fam, s, 0.45)
            dn = mellin_integrand(fam, s.conjugate(), 0.45)
            assert abs(dn - up.conjugate()) <= 1e-12 * max(1.0, abs(up))


def test_branch_families_are_not_conjugate_symmetric():
    # the log(-z) branch breaks the symmetry; this is why those quadratures
    # acquire large imaginary parts
    fam = catalog_family("Exp")
    s = complex(0.5, 2.0)
    up = mellin_integrand(fam, s, 0.5)
    dn = mellin_integrand(fam, s.conjugate(), 0.5)
    assert abs(dn - up.conjugate()) > 1.0


def _circle_residue(fam, center, z, radius=0.3, nodes=256):
    total = 0j
    for j in range(nodes):
        w = radius * cmath.exp(2j * math.pi * j / nodes)
        total += mellin_integrand(fam, center + w, z) * w
    return total / nodes


def test_numeric_residue_of_hyp1f1_integrand():
    a, c = Fr(1), Fr(3, 2)
    fam = catalog_family("Hyp1F1Regular", a=a, c=c)
    z = 0.5
    for n in (0, 1, 2, 3):
        got = _circle_residue(fam, complex(-n, 0), z)
        expect = float(pochhammer(a, n) / (pochhammer(c, n)
                                           * math.factorial(n))) * z ** n
        assert abs(got - expect) < 1e-10


def test_numeric_residues_of_every_family_match_series_terms():
    # the integrand includes the family's psi-space factor, so its residue
    # at s = -k is that factor times (-1)^k A^k(seed); radius small enough
    # to exclude the gamma(a'-s) poles of the irregular families (b' = 1/12)
    z = 0.4
    for fam in ALL_FAMILIES:
        factor = family_target_factor(fam, z)
        for k in (0, 1, 2):
            data = fractional_power_coeff(fam, k)
            expect = (factor * evaluate_power(data, z)
                      * (1 if k % 2 == 0 else -1))
            got = _circle_residue(fam, complex(-k, 0), z, radius=0.04)
            assert abs(got - expect) < 1e-9 * max(1.0, abs(expect))


def test_integrand_rejects_nonpositive_z():
    for fam in ALL_FAMILIES:
        for z in (0.0, -0.5):
            with pytest.raises(ValueError, match="z must be positive"):
                mellin_integrand(fam, complex(0.5, 1.0), z)


def test_struve_prefactor_is_computed_once_per_family(monkeypatch):
    calls = []
    real = regsing.catalog.struve_prefactor

    def counted(nu):
        calls.append(nu)
        return real(nu)

    monkeypatch.setattr(regsing.mellin, "struve_prefactor", counted)
    family = catalog_family("Struve", nu=Fr(1, 3))
    assert contour_eval(family, 0.5, full_output=True).nodes == 1601
    assert calls == [1 / 3]
    residue_eval(family, 0.25)
    contour_eval(family, 0.25, full_output=True)
    assert calls == [1 / 3]
    # the product is the one each node used to form
    for z in (0.1, 0.5, 0.9):
        assert family_target_factor(family, z) == real(1 / 3) * z ** (1 / 3)
    contour_eval(catalog_family("Struve", nu=Fr(1)), 0.5, full_output=True)
    assert calls == [1 / 3, 1.0]


# --------------------------------------------------------------- quadrature

def test_contour_spec_validation():
    with pytest.raises(ValueError):
        ContourSpec(abscissa=1.5)
    with pytest.raises(ValueError):
        ContourSpec(step=-0.1)


def test_contour_eval_domain():
    fam = catalog_family("BesselRegular", nu=Fr(0))
    with pytest.raises(ValueError):
        contour_eval(fam, 1.5)


def test_contour_eval_is_honest_about_nondecaying_tails():
    # none of the catalog integrands decay on the default line, so the
    # strict entry point must refuse rather than return the biased value
    for fam, z in [(catalog_family("Exp"), 0.5),
                   (catalog_family("BesselRegular", nu=Fr(0)), 0.5),
                   (catalog_family("Struve", nu=Fr(0)), 0.5),
                   (catalog_family("Hyp1F1Regular", a=Fr(1), c=Fr(3, 2)), 0.25)]:
        with pytest.raises(AccuracyError, match="tail"):
            contour_eval(fam, z)


def test_contour_eval_full_output_diagnostics():
    spec = ContourSpec()
    fam = catalog_family("BesselRegular", nu=Fr(0))
    res = contour_eval(fam, 0.5, spec, full_output=True)
    assert res.nodes == 1601
    assert res.imag_magnitude < 1e-12          # conjugate-symmetric family
    assert res.tail_estimate > 1e-8            # why the strict mode raises
    err = abs(res.value - residue_eval(fam, 0.5))
    assert 1e-3 < err < 0.5                    # biased but in the ballpark

    struve = contour_eval(catalog_family("Struve", nu=Fr(0)), 0.5, spec,
                          full_output=True)
    assert abs(struve.value - residue_eval(catalog_family("Struve", nu=Fr(0)),
                                           0.5)) < 5e-3


def test_contour_hits_gamma_pole_for_low_2f1_parameter():
    # a = 1/2 puts a pole of Gamma(a - s) exactly on the default abscissa
    fam = catalog_family("Hyp2F1Regular", a=Fr(1, 2), b=Fr(1, 3), c=Fr(5, 4))
    with pytest.raises(PoleError):
        contour_eval(fam, 0.5, full_output=True)


def test_struve_unscaled_routes_agree():
    # residue route targets the classical function, solver route the scaled
    # series times the closed-form prefactor
    nu = Fr(1, 3)
    fam = catalog_family("Struve", nu=nu)
    z = 0.5
    from regsing.logseries import evaluate
    series = struve_series(nu, 24, scaled=False)
    assert abs(residue_eval(fam, z) - evaluate(series, z)) < 1e-12


# ------------------------------------ term-ratio powers vs the closed forms

def _one(*xs) -> Scalar:
    """Test oracle helper: 1 in the mode of xs, so that a closed form's type
    follows its parameters."""
    return Fr(1) if all(map(is_exact, xs)) else 1.0


def _half(x) -> Scalar:
    return Fr(1, 2) if is_exact(x) else 0.5


def _pochhammer_power(family, n):
    """Test oracle: A^n(seed) from the Pochhammer, factorial and harmonic
    closed forms, built afresh for each n (the route integer_powers
    replaced)."""
    tag = family.tag
    sign = 1 if n % 2 == 0 else -1
    if tag == "Exp":
        return PowerData(Fr(sign, math.factorial(n)), n)
    if tag == "TrigHyp":
        omega = family.param("omega")
        variant = family.param("variant")
        shift = 0 if variant in ("cos", "cosh") else 1
        coeff = omega ** (2 * n) * _one(omega) / math.factorial(2 * n + shift)
        if variant in ("cosh", "sinh"):
            coeff *= sign
        return PowerData(coeff, 2 * n)
    if tag == "BesselRegular":
        nu = family.param("nu")
        coeff = _one(nu) / (4 ** n * math.factorial(n) * pochhammer(1 + nu, n))
        return PowerData(coeff, 2 * n)
    if tag == "BesselIrregular":
        nu = family.param("nu")
        coeff = (-_half(nu) / nu
                 / (4 ** n * math.factorial(n) * pochhammer(1 - nu, n)))
        return PowerData(coeff, 2 * n - 2 * nu)
    if tag == "BesselLogSecond":
        nn = family.param("n")
        nsign = 1 if nn % 2 == 0 else -1
        if n < nn:
            head = -sign * Fr(math.factorial(nn - 1 - n),
                              2 * 4**n * math.factorial(nn) * math.factorial(n))
            return PowerData(head, 2 * (n - nn))
        m = n - nn
        scale = nsign * Fr(1, 4 ** m)
        return PowerData(scale * log_second_c2(nn, m), 2 * (n - nn),
                         scale * log_second_c1(nn, m))
    if tag in ("Hyp1F1Regular", "Hyp1F1Irregular"):
        a, c = _hyp_params(family)
        coeff = (sign * _one(a) * pochhammer(a, n)
                 / (math.factorial(n) * pochhammer(c, n)))
        return PowerData(coeff, n)
    if tag in ("Hyp2F1Regular", "Hyp2F1Irregular"):
        a, b, c = _hyp_params(family)
        coeff = (sign * _one(a) * pochhammer(a, n) * pochhammer(b, n)
                 / (math.factorial(n) * pochhammer(c, n)))
        return PowerData(coeff, n)
    if tag == "Struve":
        nu = family.param("nu")
        coeff = (_one(nu) / (2 * nu + 1) / 4 ** n
                 / (pochhammer(Fr(3, 2), n) * pochhammer(Fr(3, 2) + nu, n)))
        return PowerData(coeff, 2 * n + 1)
    raise AssertionError(tag)


# for exact families only: a float parameter and the Fraction of equal value
# hash alike, so the cache would hand one family's values to the other
_exact_power = functools.lru_cache(maxsize=None)(_pochhammer_power)


def _per_term_residue_eval(family, z, terms):
    """Test oracle: the residue sum with each term from _pochhammer_power,
    in the summation order of residue_eval."""
    total = 0.0 + 0.0j
    term = 0.0 + 0.0j
    for k in range(terms):
        term = evaluate_power(_exact_power(family, k), z)
        total += term if k % 2 == 0 else -term
    factor = family_target_factor(family, z)
    return ResidueResult(value=(factor * total).real, terms=terms,
                         last_term=abs(factor * term))


def _below_c_one():
    out = []
    for tag in ("Hyp1F1Regular", "Hyp1F1Irregular", "Hyp2F1Regular", "Hyp2F1Irregular"):
        for c in (Fr(1, 3), Fr(1, 2)):
            params = {"a": Fr(1, 2), "c": c}
            if tag.startswith("Hyp2F1"):
                params["b"] = Fr(1, 3)
            out.append(catalog_family(tag, **params))
    return out


ORACLE_FAMILIES = ALL_FAMILIES + _below_c_one() + [
    catalog_family("BesselLogSecond", n=2),
    catalog_family("TrigHyp", variant="cosh", omega=3),   # int parameters
    catalog_family("BesselIrregular", nu=-1),
    catalog_family("Hyp2F1Regular", a=1, b=2, c=3),
]


@pytest.mark.parametrize("family", ORACLE_FAMILIES, ids=lambda f: repr(f)[:48])
def test_integer_powers_equal_the_closed_forms(family):
    expect = [_exact_power(family, n) for n in range(81)]
    assert list(islice(integer_powers(family), 81)) == expect
    for n in range(81):
        got = fractional_power_coeff(family, n)
        assert got == expect[n]
        assert type(got.coefficient) is type(expect[n].coefficient)


@pytest.mark.parametrize("family", ORACLE_FAMILIES, ids=lambda f: repr(f)[:48])
def test_residue_eval_equals_the_per_term_sum(family):
    for z in (0.02, 0.25, 0.5, 0.97):
        for terms in (0, 1, 2, 60, 150):
            expect = _per_term_residue_eval(family, z, terms)
            assert residue_eval(family, z, terms) == expect.value
            assert residue_eval(family, z, terms, full_output=True) == expect


def _exact_parameter(draw, low, high):
    den = draw(st.integers(min_value=1, max_value=12))
    return Fr(draw(st.integers(min_value=low * den, max_value=high * den)), den)


@st.composite
def hypergeometric_families(draw):
    tag = draw(st.sampled_from(["Hyp1F1Regular", "Hyp1F1Irregular",
                                "Hyp2F1Regular", "Hyp2F1Irregular"]))
    # c on either side of 1: the root 1 - c is the larger one below 1
    c = _exact_parameter(draw, 0, 1) if draw(st.booleans()) else _exact_parameter(draw, 1, 4)
    params = {"a": _exact_parameter(draw, -3, 3), "c": c}
    if tag.startswith("Hyp2F1"):
        params["b"] = _exact_parameter(draw, -3, 3)
    try:
        return catalog_family(tag, **params)
    except ParameterError:
        assume(False)


@given(hypergeometric_families(), st.integers(min_value=0, max_value=120),
       st.floats(min_value=0.02, max_value=0.97))
@settings(max_examples=40, deadline=None)
def test_random_hypergeometric_powers_and_residues_equal_the_closed_forms(family, terms, z):
    expect = [_exact_power(family, n) for n in range(terms)]
    assert list(islice(integer_powers(family), terms)) == expect
    assert residue_eval(family, z, terms, full_output=True) == \
        _per_term_residue_eval(family, z, terms)


FLOAT_PARAMETER_FAMILIES = [
    catalog_family("BesselRegular", nu=0.3),
    catalog_family("Hyp2F1Regular", a=0.5, b=1 / 3, c=1.25),
    catalog_family("Hyp2F1Irregular", a=0.7, b=-1.3, c=0.4),
    # exact and float parameters mixed: float coefficients from n = 0 on
    catalog_family("Hyp2F1Regular", a=1, b=0.5, c=3),
    catalog_family("Hyp1F1Regular", a=Fr(1, 2), c=1.5),
]


@pytest.mark.parametrize("family", FLOAT_PARAMETER_FAMILIES, ids=lambda f: repr(f)[:48])
def test_float_parameter_powers_within_stated_tolerance(family):
    # float parameters round once per ratio step instead of once per
    # closed-form product: the docstring states 1e-13 relative for n <= 200
    # wherever the closed forms stay normal floats
    exact = catalog_family(family.tag, **{k: Fr(v) for k, v in family.params})
    compared = 0
    for n, data in enumerate(islice(integer_powers(family), 201)):
        assert type(data.coefficient) is float
        # against the closed forms, where they neither overflow nor underflow
        try:
            expect = _pochhammer_power(family, n)
        except OverflowError:
            expect = None
        if expect is not None:
            assert type(expect.coefficient) is float
            assert data.exponent == expect.exponent
            if abs(expect.coefficient) >= sys.float_info.min:
                assert abs(data.coefficient - expect.coefficient) <= 1e-13 * abs(expect.coefficient)
                compared += 1
        # against the exact value at the same (binary) parameters
        true = float(_exact_power(exact, n).coefficient)
        if abs(true) >= sys.float_info.min:
            assert abs(data.coefficient - true) <= 1e-13 * abs(true)
    assert compared >= 80


# ------------------------------------- the pair walk vs the Fraction walk

def _round_once(x: Fr) -> float:
    """The float nearest x, and +-inf beyond the float range."""
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def _fraction_walk(family):
    """Test oracle: the term-ratio walk in Fraction arithmetic, the loop
    integer_powers ran for exact parameters before they were walked on
    reduced int pairs.  A family with a float parameter is walked at the
    Fractions of its parameters, each power rounded once to a float, at
    the exponents of the family itself."""
    exact = catalog_family(family.tag, **{name: v if isinstance(v, str) else Fr(v)
                                          for name, v in family.params})
    coeff, k, tops, bottoms, _, _ = _term_ratio(exact)
    *_, base, step = _term_ratio(family)
    rounded = any(isinstance(v, float) for _, v in family.params)
    n = 0
    while True:
        yield PowerData(_round_once(coeff) if rounded else coeff, base + step * n)
        coeff = coeff * (k * math.prod(n + t for t in tops)
                         / math.prod(n + b for b in bottoms))
        n += 1


PAIR_WALK_FAMILIES = [
    catalog_family("Exp"),
    *(catalog_family("TrigHyp", variant=v, omega=Fr(3, 2)) for v in _TRIG_VARIANTS),
    catalog_family("TrigHyp", variant="sinh", omega=3),   # int parameter
    catalog_family("BesselRegular", nu=Fr(1, 3)),
    catalog_family("BesselIrregular", nu=Fr(1, 3)),
    catalog_family("BesselIrregular", nu=Fr(-7, 2)),
    catalog_family("Hyp1F1Regular", a=Fr(2, 3), c=Fr(7, 5)),
    catalog_family("Hyp1F1Irregular", a=Fr(2, 3), c=Fr(7, 5)),
    catalog_family("Hyp2F1Regular", a=1, b=2, c=Fr(7, 2)),
    # tops a + 1 - c = -11/4 and b + 1 - c = 1/12
    catalog_family("Hyp2F1Irregular", a=Fr(-5, 2), b=Fr(1, 3), c=Fr(5, 4)),
    catalog_family("Struve", nu=Fr(0)),
    catalog_family("Struve", nu=Fr(1, 3)),
]


@pytest.mark.parametrize("family", PAIR_WALK_FAMILIES, ids=lambda f: repr(f)[:48])
def test_pair_walk_equals_the_fraction_walk(family):
    got = list(islice(integer_powers(family), 200))
    want = list(islice(_fraction_walk(family), 200))
    assert got == want
    for g, w in zip(got, want):
        assert type(g.coefficient) is type(w.coefficient) is Fr
        assert type(g.exponent) is type(w.exponent)
    # deep enough that the later powers take pair_fraction's gcd-free handover
    assert max(g.coefficient.denominator for g in got).bit_length() > 200
    assert_canonical(g.coefficient for g in got)


@pytest.mark.parametrize("family", FLOAT_PARAMETER_FAMILIES, ids=lambda f: repr(f)[:48])
def test_float_parameter_walk_is_the_fraction_walk(family):
    got = list(islice(integer_powers(family), 200))
    assert repr(got) == repr(list(islice(_fraction_walk(family), 200)))


@pytest.mark.parametrize("family", PAIR_WALK_FAMILIES + FLOAT_PARAMETER_FAMILIES,
                         ids=lambda f: repr(f)[:48])
def test_residue_eval_is_the_sum_of_the_fraction_walk(monkeypatch, family):
    def sums():
        return repr([residue_eval(family, z, full_output=True)
                     for z in (0.02, 0.25, 0.5, 0.9)])
    got = sums()
    monkeypatch.setattr(regsing.mellin, "integer_powers", _fraction_walk)
    assert got == sums()


@st.composite
def float_parameter_families(draw):
    tag = draw(st.sampled_from(sorted(set(_FAMILY_PARAMS) - {"Exp", "BesselLogSecond"})))
    params = {name: draw(st.sampled_from(_TRIG_VARIANTS) if name == "variant"
                         else st.floats(0, 6, exclude_min=True) if name == "omega"
                         else st.floats(-6, 6))
              for name in _FAMILY_PARAMS[tag]}
    try:
        return catalog_family(tag, **params)
    except ParameterError:
        assume(False)


@given(float_parameter_families())
@example(catalog_family("Hyp2F1Irregular", a=0.7, b=-1.3, c=0.4))
@settings(max_examples=40, deadline=None)
def test_float_parameter_powers_are_the_exact_powers_rounded_once(family):
    # the float ratio loop ended 4 to 49 ulp from these at n <= 200
    got = list(islice(integer_powers(family), 201))
    assert repr(got) == repr(list(islice(_fraction_walk(family), 201)))


SWEEP_FAMILIES = ORACLE_FAMILIES + [catalog_family("BesselRegular", nu=150)]
_sweep_points = st.builds(complex, st.floats(-200, 200), st.floats(-800, 800))


def _assert_finite_or_refused(f, *args):
    try:
        value = f(*args)
    except (PoleError, AccuracyError, ValueError):
        return
    if isinstance(value, PowerData):
        value = (value.coefficient, value.exponent, value.log_coefficient)
    else:
        value = (value,)
    assert all(is_exact(x) or cmath.isfinite(x) for x in value), (f.__name__, args, value)


@given(st.sampled_from(SWEEP_FAMILIES), _sweep_points, _sweep_points,
       st.floats(0, 1, exclude_min=True, exclude_max=True))
# Gamma's Lanczos product read nan; 1/Gamma(1/3 + v) divided by 0
@example(catalog_family("BesselRegular", nu=Fr(1, 3)),
         complex(125.34175496091035, -548.6107381011601),
         complex(-29.054902882142933, -399.91802575226956), 0.5)
# 1/Gamma(1/3 - s) divided by 0; digamma at 1e-320i read inf
@example(catalog_family("BesselRegular", nu=Fr(1, 3)), complex(0.5, 470), complex(0, 1e-320), 0.5)
# the integrand read nan
@example(catalog_family("BesselRegular", nu=150), complex(24.24478025978688, 43.91882047973115),
         complex(0.5, 0), 0.3)
@settings(max_examples=300, deadline=None)
def test_mellin_layer_answers_a_finite_float_or_refuses(family, s, v, z):
    _assert_finite_or_refused(complex_gamma, s)
    _assert_finite_or_refused(digamma, s)
    _assert_finite_or_refused(digamma, v)
    _assert_finite_or_refused(fractional_power_coeff, family, v)
    _assert_finite_or_refused(mellin_integrand, family, s, z)


# ------------------------------------------- structural guard: O(terms) walks

def _count_calls(monkeypatch, calls, module, name):
    real = getattr(module, name, None)

    def counted(*args, **kwargs):
        calls[name] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted, raising=False)


@pytest.mark.parametrize("family", [
    catalog_family("Exp"),
    catalog_family("BesselRegular", nu=Fr(1, 3)),
    catalog_family("BesselLogSecond", n=1),
    catalog_family("Hyp1F1Irregular", a=Fr(1, 2), c=Fr(1, 3)),
    catalog_family("Hyp2F1Regular", a=Fr(1, 2), b=Fr(1, 3), c=Fr(5, 4)),
    catalog_family("Struve", nu=Fr(1, 3)),
], ids=lambda f: f.tag)
def test_residue_eval_walks_the_term_ratio_once(monkeypatch, family):
    calls = Counter()
    for name in ("fractional_power_coeff", "_power_exact", "pochhammer", "harmonic"):
        _count_calls(monkeypatch, calls, regsing.mellin, name)
    for name in ("pochhammer", "harmonic", "log_second_c1", "log_second_c2"):
        _count_calls(monkeypatch, calls, regsing.catalog, name)
    walk = regsing.mellin.integer_powers
    advanced = []

    def counted_walk(fam):
        for data in walk(fam):
            advanced.append(data)
            yield data

    monkeypatch.setattr(regsing.mellin, "integer_powers", counted_walk)
    for terms in (0, 1, 2, 60, 150):
        advanced.clear()
        residue_eval(family, 0.3, terms)
        assert len(advanced) == terms
    assert not calls


def test_compare_exp_solves_kummers_equation(monkeypatch, capsys):
    calls = Counter()
    _count_calls(monkeypatch, calls, regsing.mellin, "fractional_power_coeff")
    _count_calls(monkeypatch, calls, regsing.cli, "fractional_power_coeff")
    solves = Counter()
    _count_calls(monkeypatch, solves, regsing.cli, "solve")
    assert main(["compare", "--family", "exp", "--order", "200"]) == 0
    assert capsys.readouterr().out == "max_coefficient_discrepancy = 0\n"
    assert not calls
    assert solves == {"solve": 1}


# the functions that may dispatch on a family tag, besides the two tables
# that declare the tags (mellin._FAMILY_PARAMS, cli._FAMILY_CLI): this list
# may shrink, never grow
TAG_DISPATCH = {
    ("mellin", name) for name in (
        "catalog_family", "_hyp_params", "_family_problem", "_term_ratio",
        "family_target_factor", "integer_powers", "fractional_power_coeff",
        "mellin_integrand")
}
TAG_TABLES = {("mellin", "_FAMILY_PARAMS"), ("cli", "_FAMILY_CLI")}


def _tag_literal_owners():
    """(module, top-level owner, literal) for every string constant in
    src/regsing that is a family tag or a prefix or suffix of one ("Hyp2F1",
    "Regular"); the owner is the top-level def, class or assigned name."""
    def tagish(value):
        return isinstance(value, str) and len(value) >= 3 and any(
            tag.startswith(value) or tag.endswith(value) for tag in _FAMILY_PARAMS)

    src = Path(regsing.mellin.__file__).parent
    found = set()
    for path in sorted(src.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                owner = top.name
            elif isinstance(top, ast.Assign) and isinstance(top.targets[0], ast.Name):
                owner = top.targets[0].id
            else:
                owner = None
            for node in ast.walk(top):
                if isinstance(node, ast.Constant) and tagish(node.value):
                    found.add((path.stem, owner, node.value))
    return found


def test_family_tag_dispatch_only_shrinks():
    found = _tag_literal_owners()
    assert {("mellin", "_term_ratio", "Exp"), ("cli", "_FAMILY_CLI", "Struve")} <= found
    owners = {(mod, owner) for mod, owner, _ in found}
    assert owners - TAG_DISPATCH - TAG_TABLES == set()
    exp_owners = {(mod, owner) for mod, owner, value in found if value == "Exp"}
    assert exp_owners - TAG_TABLES - {("mellin", "_term_ratio"),
                                      ("mellin", "_family_problem")} == set()


def _defs_and_relative_imports():
    """({top-level function name: modules defining it},
    {(module, imported module): names}) over src/regsing, where
    `from . import x` counts as importing the whole of x."""
    src = Path(regsing.mellin.__file__).parent
    defined, imported = {}, {}
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        for top in tree.body:
            if isinstance(top, ast.FunctionDef):
                defined.setdefault(top.name, set()).add(path.stem)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    if node.module:
                        imported.setdefault((path.stem, node.module), set()).add(alias.name)
                    else:
                        imported.setdefault((path.stem, alias.name), set()).add("*")
    return defined, imported


def test_the_oracles_stay_out_of_the_runtime():
    # the composed series calculus (kept in test_operators) and the log-case
    # recurrence (catalog) are oracles the tests hold the runtime against
    defined, imported = _defs_and_relative_imports()
    assert defined["integrate_log_vector"] == {"logseries"}     # the walk sees defs
    for name in ("integrate", "mul_poly", "_inv", "_invpow", "_log_second_powers"):
        assert name not in defined, name
    for name in ("log_second_recurrence", "log_second_recurrence_streams"):
        assert defined[name] == {"catalog"}, name
    for module in ("logseries", "problem", "operators", "solver", "mellin"):
        assert imported.get((module, "catalog"), set()) <= {
            "ParameterError", "struve_prefactor"}, module
    assert imported[("mellin", "solver")] == {"_driving_term"}


# ------------------------------------------ numpy-free trapezoid, exact sum

CRITERION_7_FAMILIES = [
    catalog_family("Exp"),
    catalog_family("BesselRegular", nu=0),
    catalog_family("Hyp1F1Regular", a=1, c=Fr(3, 2)),
    catalog_family("Hyp2F1Regular", a=Fr(1, 2), b=Fr(1, 3), c=Fr(5, 4)),
    catalog_family("Struve", nu=0),
]
CONTOUR_SPECS = [ContourSpec(), ContourSpec(half_height=80.0, step=0.025)]


def test_import_and_contour_eval_do_not_load_numpy():
    code = (
        "import sys\n"
        "import regsing, regsing.cli\n"
        "from regsing.mellin import catalog_family, contour_eval\n"
        "res = contour_eval(catalog_family('BesselRegular', nu=0), 0.25,\n"
        "                   full_output=True)\n"
        "assert res.nodes == 1601\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))\n")
    src = str(Path(regsing.mellin.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_pyproject_declares_no_runtime_dependencies():
    tomllib = pytest.importorskip("tomllib")
    path = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(path, "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert project["dependencies"] == []


def _numpy_nodes(spec):
    """Test oracle: the node heights as numpy builds them."""
    np = pytest.importorskip("numpy")
    T, h = spec.half_height, spec.step
    count = int(math.floor(2 * T / h + 1e-9)) + 1
    return (-T + h * np.arange(count)).tolist()


def _numpy_tail_estimate(moduli, T, h):
    """Test oracle: the tail estimate over all moduli, numpy style."""
    offset = min(5.0, T / 2)
    k = max(1, int(round(offset / h)))
    m_end = max(moduli[0], moduli[-1])
    if m_end == 0.0:
        return 0.0
    m_in = max(moduli[k], moduli[-1 - k])
    if m_in == 0.0:
        return float("inf")
    ratio = (m_end / m_in) ** (1.0 / offset)
    if ratio >= 0.999999:
        return float("inf")
    return float(m_end / (-math.log(ratio)) / math.pi)


def _exact_modulus(v):
    """Test oracle: |v| from the exact sum of squares, rounded once (the
    float whose rounding interval holds the true root)."""
    q = Fr(v.real) ** 2 + Fr(v.imag) ** 2
    if q == 0:
        return 0.0
    e = (q.denominator.bit_length() - q.numerator.bit_length()) // 2
    r = math.ldexp(math.sqrt(float(q * Fr(4) ** e)), -e)   # within an ulp or two
    while (Fr(r) + Fr(math.nextafter(r, math.inf))) ** 2 < 4 * q:
        r = math.nextafter(r, math.inf)
    while (Fr(r) + Fr(math.nextafter(r, 0.0))) ** 2 > 4 * q:
        r = math.nextafter(r, 0.0)
    return r


def _numpy_trapezoid(vals, spec):
    """Test oracle: the weighted sum by np.dot, whose summation order is the
    BLAS kernel's, and the tail estimate from the exact modulus of every
    node (np.abs is not correctly rounded)."""
    np = pytest.importorskip("numpy")
    T, h = spec.half_height, spec.step
    moduli = [_exact_modulus(v) for v in vals]
    vals = np.array(vals, dtype=complex)
    weights = np.full(len(vals), h)
    weights[0] *= 0.5
    weights[-1] *= 0.5
    total = complex(np.dot(weights, vals)) / (2.0 * math.pi)
    return ContourResult(value=total.real, imag_magnitude=abs(total.imag),
                         tail_estimate=_numpy_tail_estimate(moduli, T, h),
                         nodes=len(vals))


def _weighted_terms(vals, h):
    weights = [h] * len(vals)
    weights[0] = weights[-1] = 0.5 * h
    return [w * v for w, v in zip(weights, vals)]


def _exactly_summed(parts):
    """The exact sum of the floats, rounded once, over 2 pi."""
    return float(sum(Fr(x) for x in parts)) / (2.0 * math.pi)


def _recording_integrand(monkeypatch, seen):
    """Patch mellin_integrand to append each node s and then its value."""
    def recorded(family, s, z):
        seen.append(s)
        value = mellin_integrand(family, s, z)
        seen.append(value)
        return value

    monkeypatch.setattr(regsing.mellin, "mellin_integrand", recorded)


@pytest.mark.parametrize("spec", CONTOUR_SPECS, ids=["default", "finer"])
@pytest.mark.parametrize("z", [0.25, 0.5])
@pytest.mark.parametrize("family", [f for f in CRITERION_7_FAMILIES
                                    if not f.tag.startswith("Hyp2F1")],
                         ids=lambda f: f.tag)
def test_trapezoid_sum_is_exact_and_nodes_unchanged(monkeypatch, family, z, spec):
    seen = []
    _recording_integrand(monkeypatch, seen)
    res = contour_eval(family, z, spec, full_output=True)
    nodes, vals = seen[0::2], seen[1::2]
    assert [s.imag for s in nodes] == _numpy_nodes(spec)
    assert all(s.real == spec.abscissa for s in nodes)
    assert res.nodes == len(nodes)

    terms = _weighted_terms(vals, spec.step)
    value = _exactly_summed(t.real for t in terms)
    imag = _exactly_summed(t.imag for t in terms)
    assert res.value == value
    assert res.imag_magnitude == abs(imag)
    # the signed imaginary part: with the integrand times 1j, the weighted
    # real parts are exactly minus the imaginary parts above
    monkeypatch.setattr(regsing.mellin, "mellin_integrand",
                        lambda *args, **kwargs: 1j * mellin_integrand(*args, **kwargs))
    assert contour_eval(family, z, spec, full_output=True).value == -imag

    old = _numpy_trapezoid(vals, spec)
    bound = 2 * len(terms) * sys.float_info.epsilon * sum(abs(t) for t in terms)
    assert abs(res.value - old.value) <= bound
    assert abs(res.imag_magnitude - old.imag_magnitude) <= bound
    assert res.tail_estimate == old.tail_estimate
    assert res.nodes == old.nodes


def test_tail_estimate_reads_correctly_rounded_moduli():
    # the modulus of v is one ulp off when taken as abs(v) with glibc's
    # hypot, and the estimate changes with it
    v = complex(-0.5316074023704058, -0.166318737552706)
    vals = [1j] * 1601
    vals[0] = vals[-1] = v
    vals[100] = vals[-101] = complex(-0.9632148047408117, -0.49895621265811796)
    assert regsing.mellin._tail_estimate(vals, 40.0, 0.05) == \
        _numpy_tail_estimate([_exact_modulus(x) for x in vals], 40.0, 0.05)


@pytest.mark.parametrize("spec", CONTOUR_SPECS, ids=["default", "finer"])
@pytest.mark.parametrize("z", [0.25, 0.5])
def test_trapezoid_hits_the_2f1_pole_at_the_same_node(monkeypatch, z, spec):
    family = CRITERION_7_FAMILIES[3]
    expect = None
    for t in _numpy_nodes(spec):
        try:
            mellin_integrand(family, complex(spec.abscissa, t), z)
        except PoleError as exc:
            expect = (complex(spec.abscissa, t), str(exc))
            break
    assert expect is not None
    seen = []
    _recording_integrand(monkeypatch, seen)
    with pytest.raises(PoleError) as exc:
        contour_eval(family, z, spec, full_output=True)
    assert (seen[-1], str(exc.value)) == expect


# ------------------- gamma forms from the term ratio vs the hand-written ones

def _sign_pow(v):
    return cmath.exp(1j * math.pi * complex(v))


def _closed_form_power(family, v):
    """Test oracle: A^v(seed) at non-integer v from the per-family gamma
    closed forms (the route the term-ratio gamma form replaced)."""
    tag = family.tag
    v = complex(v)
    if tag == "Exp":
        return PowerData(_sign_pow(v) * _recip_gamma(1 + v), v)
    if tag == "TrigHyp":
        omega = complex(family.param("omega"))
        variant = family.param("variant")
        shift = 1 if variant in ("cos", "cosh") else 2
        coeff = omega ** (2 * v) * _recip_gamma(shift + 2 * v)
        if variant in ("cosh", "sinh"):
            coeff *= _sign_pow(v)
        return PowerData(coeff, 2 * v)
    if tag == "BesselRegular":
        nu = complex(family.param("nu"))
        coeff = (4.0 ** -v * complex_gamma(1 + nu)
                 * _recip_gamma(1 + v) * _recip_gamma(1 + nu + v))
        return PowerData(coeff, 2 * v)
    if tag == "BesselIrregular":
        nu = complex(family.param("nu"))
        coeff = (-1 / (2 * nu) * 4.0 ** -v * complex_gamma(1 - nu)
                 * _recip_gamma(1 + v) * _recip_gamma(1 - nu + v))
        return PowerData(coeff, 2 * v - 2 * nu)
    if tag in ("Hyp1F1Regular", "Hyp1F1Irregular"):
        a, c = (complex(x) for x in _hyp_params(family))
        coeff = (_sign_pow(v) * complex_gamma(a + v) * complex_gamma(c)
                 * _recip_gamma(a) * _recip_gamma(1 + v)
                 * _recip_gamma(c + v))
        return PowerData(coeff, v)
    if tag in ("Hyp2F1Regular", "Hyp2F1Irregular"):
        a, b, c = (complex(x) for x in _hyp_params(family))
        coeff = (_sign_pow(v)
                 * complex_gamma(a + v) * complex_gamma(b + v)
                 * complex_gamma(c) * _recip_gamma(a) * _recip_gamma(b)
                 * _recip_gamma(1 + v) * _recip_gamma(c + v))
        return PowerData(coeff, v)
    if tag == "Struve":
        nu = complex(family.param("nu"))
        coeff = (4.0 ** -v / (2 * nu + 1)
                 * complex_gamma(1.5) * complex_gamma(1.5 + nu)
                 * _recip_gamma(1.5 + v) * _recip_gamma(1.5 + nu + v))
        return PowerData(coeff, 2 * v + 1)
    raise AssertionError(tag)


def _closed_form_integrand(family, s, z, branch="principal"):
    """Test oracle: the per-family line integrands, both branches (the route
    the term-ratio integrand replaced)."""
    s = complex(s)
    zf = float(z)
    pi_hat = math.pi if branch == "principal" else -math.pi
    tag = family.tag
    if tag == "Exp":
        return complex_gamma(s) * cmath.exp(-s * complex(math.log(zf), pi_hat))
    if tag == "TrigHyp":
        omega = float(family.param("omega"))
        variant = family.param("variant")
        core = complex_gamma(s) * complex_gamma(1 - s)
        arg = cmath.exp(-2 * s * math.log(omega * zf))
        if variant in ("cos", "cosh"):
            val = core * _recip_gamma(1 - 2 * s) * arg
        else:
            val = core * _recip_gamma(2 - 2 * s) * arg * zf
        if variant in ("cosh", "sinh"):
            val *= cmath.exp(complex(0, -pi_hat) * s)
        return val
    if tag == "BesselRegular":
        nu = float(family.param("nu"))
        return (complex_gamma(s) * complex_gamma(1 + nu)
                * _recip_gamma(1 + nu - s)
                * cmath.exp(-2 * s * math.log(zf / 2)))
    if tag == "BesselIrregular":
        nu = float(family.param("nu"))
        return (-1 / (2 * nu) * complex_gamma(s) * complex_gamma(1 - nu)
                * _recip_gamma(1 - nu - s)
                * cmath.exp(-2 * s * math.log(zf / 2)) * zf ** (-2 * nu))
    if tag == "BesselLogSecond":
        data = fractional_power_coeff(family, -s)
        return (complex_gamma(s) * complex_gamma(1 - s)
                * evaluate_power(data, zf))
    if tag in ("Hyp1F1Regular", "Hyp1F1Irregular"):
        a, c = (complex(x) for x in _hyp_params(family))
        return (complex_gamma(c) * _recip_gamma(a)
                * complex_gamma(s) * complex_gamma(a - s)
                * _recip_gamma(c - s)
                * cmath.exp(-s * complex(math.log(zf), pi_hat)))
    if tag in ("Hyp2F1Regular", "Hyp2F1Irregular"):
        a, b, c = (complex(x) for x in _hyp_params(family))
        return (complex_gamma(c) * _recip_gamma(a) * _recip_gamma(b)
                * complex_gamma(s) * complex_gamma(a - s)
                * complex_gamma(b - s) * _recip_gamma(c - s)
                * cmath.exp(-s * complex(math.log(zf), pi_hat)))
    if tag == "Struve":
        nu = float(family.param("nu"))
        return (complex_gamma(s) * complex_gamma(1 - s)
                * cmath.exp((1 + nu - 2 * s) * math.log(zf / 2))
                * _recip_gamma(1.5 + nu - s) * _recip_gamma(1.5 - s))
    raise AssertionError(tag)


def _non_integer_powers(rng, count):
    """Re v in (0, 4) away from the integers; real for the first third,
    |Im v| <= 3 for the rest."""
    out = []
    for j in range(count):
        re = rng.randrange(4) + rng.uniform(0.05, 0.95)
        out.append(complex(re, 0.0 if j < count // 3 else rng.uniform(-3, 3)))
    return out


@pytest.mark.parametrize("family", [f for f in ORACLE_FAMILIES if f.tag != "BesselLogSecond"],
                         ids=lambda f: repr(f)[:48])
def test_derived_powers_match_the_closed_gamma_forms(family):
    rng = random.Random(repr(family))
    for v in _non_integer_powers(rng, 30):
        got, want = fractional_power_coeff(family, v), _closed_form_power(family, v)
        assert abs(got.coefficient - want.coefficient) <= 1e-13 * abs(want.coefficient)
        assert abs(got.exponent - want.exponent) <= 1e-13 * abs(want.exponent)
        assert got.log_coefficient == 0
    # at v = 1/2 too, given as a Fraction
    got, want = fractional_power_coeff(family, Fr(1, 2)), _closed_form_power(family, 0.5)
    assert abs(got.coefficient - want.coefficient) <= 1e-13 * abs(want.coefficient)


@pytest.mark.parametrize("family", ORACLE_FAMILIES, ids=lambda f: repr(f)[:48])
def test_derived_integrands_match_the_closed_forms(family):
    rng = random.Random(repr(family))
    for _ in range(30):
        s = complex(rng.uniform(0.02, 0.98), rng.uniform(-40, 40))
        z = rng.uniform(0.02, 0.98)
        got = mellin_integrand(family, s, z)
        want = _closed_form_integrand(family, s, z)
        assert abs(got - want) <= 1e-12 * abs(want)


@pytest.mark.parametrize("family", [
    catalog_family("Exp"),
    catalog_family("TrigHyp", variant="cos", omega=Fr(2)),
    catalog_family("TrigHyp", variant="sinh", omega=Fr(1)),
    catalog_family("BesselRegular", nu=Fr(1, 3)),
    catalog_family("BesselIrregular", nu=Fr(1, 3)),
    catalog_family("Hyp1F1Irregular", a=Fr(2, 3), c=Fr(7, 5)),
    catalog_family("Hyp2F1Regular", a=Fr(1, 2), b=Fr(1, 3), c=Fr(5, 4)),
], ids=lambda f: repr(f)[:48])
def test_integrand_is_finite_where_gamma_one_minus_s_cancels(family):
    # a bottom b = 1 cancels the poles of Gamma(1 - s) at s = 1, 2, ...:
    # the integrand takes its limit there, not a PoleError or 0
    for k in (1, 2, 3):
        at = mellin_integrand(family, k, 0.4)
        near = mellin_integrand(family, complex(k, 1e-7), 0.4)
        assert abs(at - near) <= 1e-5 * abs(near)


@pytest.mark.parametrize("family", ORACLE_FAMILIES, ids=lambda f: repr(f)[:48])
def test_lower_branch_is_the_conjugate_of_the_principal(family):
    # the integrand takes the principal log K; the closed form's lower
    # determination of log K is its mirror image
    rng = random.Random(repr(family))
    for _ in range(30):
        s = complex(rng.uniform(0.02, 0.98), rng.uniform(-40, 40))
        z = rng.uniform(0.02, 0.98)
        got = mellin_integrand(family, s.conjugate(), z).conjugate()
        want = _closed_form_integrand(family, s, z, branch="lower")
        assert abs(got - want) <= 1e-12 * abs(want)


def test_gamma_form_is_built_once_per_family(monkeypatch):
    built = []
    real = regsing.mellin._gamma_form
    monkeypatch.setattr(regsing.mellin, "_gamma_form",
                        lambda fam: built.append(fam) or real(fam))
    fam = catalog_family("Hyp2F1Regular", a=Fr(1, 3), b=Fr(2, 3), c=Fr(3, 2))
    contour_eval(fam, 0.25, full_output=True)
    fractional_power_coeff(fam, complex(0.5, 1.0))
    mellin_integrand(fam, complex(0.5, 1.0), 0.5)
    assert built == [fam]
    # an equal family is a new record with its own form
    twin = catalog_family("Hyp2F1Regular", a=Fr(1, 3), b=Fr(2, 3), c=Fr(3, 2))
    mellin_integrand(twin, complex(0.5, 1.0), 0.5)
    assert len(built) == 2


# ------------------------------------------ the shared equation builder

@pytest.mark.parametrize("order", [12, 40])
@pytest.mark.parametrize("flags", COMPARE_CASES, ids=lambda fl: "-".join(fl[1::2]))
def test_family_problem_solve_equals_the_family_operator_neumann_sum(flags, order):
    args = regsing.cli.build_parser().parse_args(["compare"] + flags)
    family = regsing.cli._family_from_args(args)
    sol = solve(*_family_problem(family, order))
    seed, apply_one = family_operator(family, order)
    f, _ = _neumann(apply_one, seed, order)
    assert sol.f.coeffs == f.coeffs
    assert (sol.f.sigma, sol.f.order) == (f.sigma, f.order)


@pytest.mark.parametrize("order", [12, 40])
def test_exp_operator_is_the_negated_integration(order):
    # test-side oracle: Kummer's A at a = c = 1 is the negated integration,
    # z^s log^k z to minus its antiderivative, -z^{s+1}/(s+1) at k = 0
    def negated_integration(f):
        g = integrate(f)
        return LogSeries(g.sigma, g.order, {mk: -c for mk, c in g.coeffs.items()})

    seed, apply_one = family_operator(catalog_family("Exp"), order)
    want = LogSeries.monomial(1, 0, order)
    for _ in range(7):
        assert (seed.sigma, seed.order, seed.coeffs) == (want.sigma, want.order, want.coeffs)
        seed, want = apply_one(seed), negated_integration(want)
