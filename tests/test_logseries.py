"""Tests for the series substrate: arithmetic, calculus, evaluation."""

import ast
import math
from fractions import Fraction as Fr
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import regsing.scalars
from regsing.logseries import (
    DomainError,
    LogSeries,
    NonIntegerExponentGap,
    differentiate,
    evaluate,
    integer_slots,
    linear_combine,
    shift_exponent,
    truncate,
    weighted_norm_estimate,
)
from regsing.scalars import (
    as_int,
    is_exact,
    mode,
    pair_add,
    pair_fraction,
    pair_mul,
    parse_rational,
    ratio,
)

from test_operators import integrate, mul_poly


def series(sigma, order, terms):
    return LogSeries(sigma, order, dict(terms))


# ---------------------------------------------------------------- scalars

def test_parse_rational():
    assert parse_rational("-1/9") == Fr(-1, 9)
    assert parse_rational("3") == Fr(3)
    assert parse_rational(" 5/10 ") == Fr(1, 2)  # normalized


def test_mode_and_as_int():
    assert mode(Fr(1, 2), 3) == "exact"
    assert mode(Fr(1, 2), 0.5) == "float"
    assert as_int(Fr(4, 2)) == 2
    assert as_int(Fr(1, 2)) is None
    assert as_int(2.0) == 2
    assert as_int(2.5) is None
    assert is_exact(Fr(1, 3)) and not is_exact(0.3)


pair_ints = st.integers(-10**6, 10**6)
nonzero_ints = pair_ints.filter(lambda d: d != 0)


@given(pair_ints, nonzero_ints, pair_ints, nonzero_ints)
@settings(max_examples=300, deadline=None)
def test_pair_arithmetic_is_reduced_fraction_arithmetic(n1, d1, n2, d2):
    # products and sums of reduced pairs stay reduced, with a positive
    # denominator, and equal the Fraction results (zero as (0, 1))
    a, b = ratio(n1, d1), ratio(n2, d2)
    assert a == (Fr(n1, d1).numerator, Fr(n1, d1).denominator)
    for got, want in ((pair_mul(a, b), Fr(n1, d1) * Fr(n2, d2)),
                      (pair_add(a, b), Fr(n1, d1) + Fr(n2, d2)),
                      (pair_add(a, (-b[0], b[1])), Fr(n1, d1) - Fr(n2, d2))):
        assert got == (want.numerator, want.denominator)


# both sides of the size at which pair_fraction stops taking the gcd
wide_ints = st.one_of(st.integers(-10**6, 10**6), st.integers(-2**300, 2**300))


@given(wide_ints, wide_ints.filter(lambda d: d != 0))
@settings(max_examples=300, deadline=None)
def test_pair_fraction_is_the_fraction_of_the_pair(n, d):
    # a reduced pair handed over without a second gcd is the Fraction the
    # normalising constructor builds: negative numerators, denominator 1
    # and zero as (0, 1) included
    for pair in (ratio(n, d), ratio(n, 1), ratio(0, d)):
        got, want = pair_fraction(pair), Fr(*pair)
        assert type(got) is Fr
        assert (got.numerator, got.denominator) == (want.numerator, want.denominator)
        assert hash(got) == hash(want)


# the private API of fractions: Fraction(n, d, _normalize=False) is gone in
# Python 3.12, and the rest may go at any release
_PRIVATE_FRACTION_API = {"_normalize", "_from_coprime_ints", "_numerator", "_denominator"}


def test_src_uses_no_private_fractions_api():
    # pyproject promises Python >= 3.10, so every Fraction is built through
    # the public API: the normalising constructor, or the numbers.Rational
    # protocol for a pair already in lowest terms (scalars.pair_fraction)
    found = []
    for path in sorted(Path(regsing.scalars.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            name = (node.attr if isinstance(node, ast.Attribute) else
                    node.arg if isinstance(node, ast.keyword) else
                    node.id if isinstance(node, ast.Name) else
                    node.name if isinstance(node, ast.alias) else
                    node.value if isinstance(node, ast.Constant) else None)
            if name in _PRIVATE_FRACTION_API:
                found.append(f"{path.name}:{node.lineno} {name}")
    assert found == []


# ----------------------------------------------------------- integer_slots

def _integer_slots_oracle(slots):
    """integer_slots as built from Fractions: each value as Fraction(a),
    scaled to an int by Fraction multiplication."""
    den = math.lcm(*(Fr(a).denominator for slot in slots for a in slot[1:]))
    return den, tuple((o, *(int(Fr(a) * den) for a in coeffs)) for o, *coeffs in slots)


def _outcome(fn, slots):
    try:
        return fn(slots)
    except (OverflowError, ValueError) as exc:
        return type(exc)


slot_values = st.one_of(st.integers(-10**30, 10**30), st.fractions(), st.floats(),
                        st.sampled_from((5e-324, -5e-324, 1.7e308, -1.7e308, 0.0, -0.0)))


@given(st.lists(st.tuples(st.integers(0, 40), slot_values, slot_values, slot_values),
                max_size=4))
@settings(max_examples=300, deadline=None)
@example([(1, 5e-324, 1.7e308, Fr(1, 3))])
@example([(1, 1, math.inf, 0)])
@example([(2, Fr(1, 2), -math.inf, 0)])
@example([(1, math.nan, 1, 0)])
def test_integer_slots_is_the_fraction_oracle(slots):
    # the same den and ints as the Fraction route, and on inf and nan the
    # same exception type (OverflowError, ValueError)
    got = _outcome(integer_slots, slots)
    assert got == _outcome(_integer_slots_oracle, slots)
    if not isinstance(got, type):
        assert all(type(a) is int for _o, *row in got[1] for a in row)


# ---------------------------------------------------------- equality, repr

@pytest.mark.parametrize("a, b", [
    (LogSeries.zero(3), LogSeries.zero(3, sigma=Fr(1, 2))),
    (LogSeries.zero(3), LogSeries.zero(7, sigma=-2.5)),
    (LogSeries.monomial(2, 1, 4), LogSeries.monomial(2, Fr(1), 6)),
    (series(1, 4, {(0, 0): 1, (2, 1): Fr(-1, 3)}),
     series(Fr(1), 5, {(0, 0): Fr(1), (2, 1): Fr(-1, 3)})),
], ids=["zero-bases", "zero-orders", "int-and-fraction-base", "int-and-fraction-terms"])
def test_equal_series_hash_equal(a, b):
    # zero series of any base are equal (__eq__), so a set holds one of them
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1


def test_repr_reads_the_terms_off_the_absolute_exponents():
    f = series(Fr(-1, 2), 4, {(0, 0): 3, (1, 1): Fr(-1, 4), (2, 0): 1, (3, 2): 2})
    assert repr(f) == ("LogSeries(3*z^-1/2 + -1/4*z^1/2*log(z) + 1*z^3/2 + "
                       "2*z^5/2*log(z)^2; order=4)")
    assert repr(LogSeries.monomial(5, 0, 2)) == "LogSeries(5; order=2)"
    assert repr(LogSeries.zero(3, sigma=Fr(1, 2))) == "LogSeries(0; order=3)"


# ---------------------------------------------------------- linear_combine

def test_combine_polynomials():
    one = LogSeries.monomial(1, 0, 2)
    z = series(0, 2, {(1, 0): 1})
    s = linear_combine(1, one, 1, z)
    assert s.coefficient(0) == 1 and s.coefficient(1) == 1


def test_combine_integer_gap_alignment():
    f = LogSeries.monomial(1, Fr(1, 2), 3)
    g = LogSeries.monomial(1, Fr(3, 2), 3)
    s = linear_combine(2, f, 3, g)
    assert s.sigma == Fr(1, 2)
    assert s.coefficient(0) == 2 and s.coefficient(1) == 3


def test_combine_rejects_non_integer_gap():
    f = LogSeries.monomial(1, Fr(1, 2), 3)
    g = LogSeries.monomial(1, Fr(1, 3), 3)
    with pytest.raises(NonIntegerExponentGap):
        linear_combine(1, f, 1, g)


def test_combine_horizon_is_min_of_aligned_horizons():
    f = LogSeries.monomial(1, 0, 5)     # exact through z^5
    g = LogSeries.monomial(1, 2, 5)     # exact through z^7
    s = linear_combine(1, f, 1, g)
    assert s.sigma == 0 and s.order == 5
    h = linear_combine(1, g, 1, f)      # symmetric
    assert h.order == 5 and h == s


# ---------------------------------------------------------------- mul_poly

def test_mul_poly_basic():
    f = series(0, 3, {(0, 0): 1, (1, 0): 1})          # 1 + z
    p = mul_poly(f, [(1, 1)])                          # times z
    assert p.sigma == 1
    assert p.coefficient(0) == 1 and p.coefficient(1) == 1


def test_mul_poly_exponent_shift_with_log():
    f = LogSeries.monomial(1, -1, 2, log_power=1)      # z^-1 log z
    p = mul_poly(f, [(2, 1)])
    assert p.sigma == 1 and p.coefficient(0, 1) == 1   # z log z


def test_mul_poly_truncates_to_input_order():
    f = series(0, 3, {(m, 0): 1 for m in range(4)})
    p = mul_poly(f, [(0, 1), (2, 1)])                  # times (1 + z^2)
    assert p.order == 3
    assert p.coefficient(3) == 2                       # 1*z^3 + z^2*z
    assert p.coefficient(4) == 0                       # discarded


# ------------------------------------------------------ differentiate etc.

def test_differentiate_power():
    f = series(0, 3, {(2, 0): 1})
    assert differentiate(f) == series(-1, 3, {(2, 0): 2})  # 2z


def test_differentiate_log():
    f = LogSeries.monomial(1, 0, 2, log_power=1)
    d = differentiate(f)
    assert d.sigma == -1 and d.coefficient(1, 0) == 0
    assert d.coefficient(0, 0) == 1                    # z^-1


def test_differentiate_z_log_z():
    f = series(0, 2, {(1, 1): 1})                      # z log z
    d = differentiate(f)
    assert d.coefficient(1, 1) == 1                    # log z
    assert d.coefficient(1, 0) == 1                    # + 1


def test_integrate_constant():
    f = LogSeries.monomial(1, 0, 2)
    assert integrate(f) == series(1, 2, {(0, 0): 1})   # z


def test_integrate_log_branch():
    f = LogSeries.monomial(1, -1, 2)
    g = integrate(f)
    assert g.coefficient_at(0, 1) == 1                 # log z
    assert g.max_log_power == 1


def test_integrate_z_log_z():
    f = series(0, 3, {(1, 1): 1})                      # z log z
    g = integrate(f)
    assert g.coefficient_at(2, 1) == Fr(1, 2)          # z^2 log z / 2
    assert g.coefficient_at(2, 0) == Fr(-1, 4)         # - z^2/4


def test_shift_and_truncate():
    f = series(0, 4, {(0, 0): 1, (4, 0): 5})
    g = shift_exponent(f, Fr(-1, 3))
    assert g.sigma == Fr(-1, 3) and g.coefficient(4) == 5
    t = truncate(f, 2)
    assert t.order == 2 and t.coefficient(0) == 1 and (4, 0) not in t.coeffs


# -------------------------------------------------------------- evaluation

def test_eval_exp_truncation():
    f = series(0, 3, {(0, 0): 1, (1, 0): 1, (2, 0): Fr(1, 2), (3, 0): Fr(1, 6)})
    assert evaluate(f, 0.5) == pytest.approx(1.6458333333333333, rel=1e-14)


def test_eval_log():
    f = LogSeries.monomial(1, 0, 0, log_power=1)
    assert evaluate(f, 0.5) == pytest.approx(math.log(0.5), rel=1e-14)


def test_eval_exp_order20_matches_exp():
    c = Fr(1)
    coeffs = {}
    for m in range(21):
        coeffs[(m, 0)] = c
        c /= m + 1
    f = series(0, 20, coeffs)
    assert evaluate(f, 0.5) == pytest.approx(math.exp(0.5), abs=1e-14)


def test_eval_domain_error():
    f = LogSeries.monomial(1, 0, 0)
    with pytest.raises(DomainError):
        evaluate(f, 0.0)
    with pytest.raises(DomainError):
        evaluate(f, -1.0)


# ------------------------------------------------------------ weighted norm

def test_weighted_norm_constant():
    f = LogSeries.monomial(1, 0, 0)
    assert weighted_norm_estimate(f, 2, 0.5) == pytest.approx(0.25, rel=1e-12)


def test_weighted_norm_inverse_power():
    f = LogSeries.monomial(1, -1, 0)
    # |z|^2 |z^-1| = |z|, sup on (0, 0.5] is at the endpoint
    assert weighted_norm_estimate(f, 2, 0.5) == pytest.approx(0.5, rel=1e-12)


# ------------------------------------------------------ hypothesis properties

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=6)
sigmas = st.integers(min_value=-3, max_value=3).map(Fr)


@st.composite
def log_series(draw, min_order=0, max_order=5, max_k=2, sigma=None):
    order = draw(st.integers(min_value=min_order, max_value=max_order))
    if sigma is None:
        sigma = draw(sigmas)
    n_terms = draw(st.integers(min_value=0, max_value=6))
    coeffs = {}
    for _ in range(n_terms):
        m = draw(st.integers(min_value=0, max_value=order))
        k = draw(st.integers(min_value=0, max_value=max_k))
        coeffs[(m, k)] = draw(rationals)
    return LogSeries(sigma, order, coeffs)


@given(log_series())
@settings(max_examples=120)
def test_derivative_of_integral_is_identity(f):
    assert differentiate(integrate(f)) == f


@given(log_series(sigma=Fr(0)), log_series(sigma=Fr(1)), rationals, rationals)
@settings(max_examples=80)
def test_combine_commutes(f, g, a, b):
    assert linear_combine(a, f, b, g) == linear_combine(b, g, a, f)


@given(log_series(sigma=Fr(0), max_order=4, min_order=4),
       log_series(sigma=Fr(0), max_order=4, min_order=4),
       log_series(sigma=Fr(0), max_order=4, min_order=4))
@settings(max_examples=60)
def test_combine_associates_on_common_grid(f, g, h):
    left = linear_combine(1, linear_combine(1, f, 1, g), 1, h)
    right = linear_combine(1, f, 1, linear_combine(1, g, 1, h))
    assert left == right


@given(log_series(sigma=Fr(0), max_order=4, min_order=4),
       log_series(sigma=Fr(0), max_order=4, min_order=4),
       st.lists(st.tuples(st.integers(min_value=0, max_value=2), rationals),
                min_size=1, max_size=3))
@settings(max_examples=60)
def test_mul_poly_distributes(f, g, poly):
    lhs = mul_poly(linear_combine(1, f, 1, g), poly)
    rhs = linear_combine(1, mul_poly(f, poly), 1, mul_poly(g, poly))
    # common base power of the poly can differ when coefficients cancel,
    # so compare through the common horizon at absolute exponents
    for p in range(0, 5):
        for k in range(0, 3):
            assert lhs.coefficient_at(p + min(d for d, _ in poly), k) == \
                rhs.coefficient_at(p + min(d for d, _ in poly), k)


@given(log_series(sigma=Fr(0)), log_series(sigma=Fr(0)),
       st.floats(min_value=0.1, max_value=0.9))
@settings(max_examples=60)
def test_eval_is_linear(f, g, z):
    s = linear_combine(1, f, 1, g)
    direct = evaluate(truncate(f, s.order), z) + evaluate(truncate(g, s.order), z)
    assert evaluate(s, z) == pytest.approx(direct, abs=1e-12)
