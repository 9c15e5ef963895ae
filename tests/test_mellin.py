"""Gamma/digamma accuracy, family validation, fractional powers, residue
equivalence, and honest contour quadrature diagnostics."""

import cmath
import functools
import math
import sys
from collections import Counter
from fractions import Fraction as Fr
from itertools import islice

import pytest
import scipy.special as sp
from hypothesis import assume, given, settings
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
from regsing.mellin import (
    AccuracyError,
    ContourSpec,
    EULER_GAMMA,
    PoleError,
    PowerData,
    ResidueResult,
    _half,
    _hyp_params,
    _one,
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
from regsing.solver import solve

from test_problem import bessel_problem
from test_solver import struve_problem

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


# --------------------------------------------------------------- quadrature

def test_contour_spec_validation():
    with pytest.raises(ValueError):
        ContourSpec(abscissa=1.5)
    with pytest.raises(ValueError):
        ContourSpec(step=-0.1)
    with pytest.raises(ValueError):
        ContourSpec(branch="upper")


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


@pytest.mark.parametrize("family", [
    catalog_family("BesselRegular", nu=0.3),
    catalog_family("Hyp2F1Regular", a=0.5, b=1 / 3, c=1.25),
    catalog_family("Hyp2F1Irregular", a=0.7, b=-1.3, c=0.4),
    # exact and float parameters mixed: float coefficients from n = 0 on
    catalog_family("Hyp2F1Regular", a=1, b=0.5, c=3),
    catalog_family("Hyp1F1Regular", a=Fr(1, 2), c=1.5),
], ids=lambda f: repr(f)[:48])
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


def test_compare_exp_walks_the_term_ratio(monkeypatch, capsys):
    calls = Counter()
    _count_calls(monkeypatch, calls, regsing.mellin, "fractional_power_coeff")
    _count_calls(monkeypatch, calls, regsing.cli, "fractional_power_coeff")
    assert main(["compare", "--family", "exp", "--order", "200"]) == 0
    assert capsys.readouterr().out == "max_coefficient_discrepancy = 0\n"
    assert not calls
