"""Tests for L, f0 and A against the closed-form monomial rules."""

import math
from fractions import Fraction
from fractions import Fraction as Fr

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from regsing.logseries import (
    AccuracyError,
    LogSeries,
    NonIntegerExponentGap,
    differentiate,
    euler_image,
    integrate_log_vector,
    linear_combine,
    shift_exponent,
    weighted_norm_estimate,
)
from regsing.operators import (
    _L_SLOTS,
    SingularTerm,
    _float_branch,
    _kernel,
    apply_A,
    apply_L,
    make_f0,
)
from regsing.problem import OdeProblem, OperatorSpec, transform
from regsing.scalars import Scalar, is_exact, ratio

from test_problem import bessel_problem, confluent_problem, dense_cd, gauss_problem


def plain_spec(alpha):
    """Spec with no slots: A vanishes, L is isolated."""
    return OperatorSpec(alpha=alpha, lam=0, slots=())


def mono(coeff, sigma, order=8, k=0):
    return LogSeries.monomial(coeff, sigma, order, log_power=k)


# ------------------------------------------------- the composed calculus

# Test oracles: the series primitives of the composed route, from which the
# composed A and L below, the oracles of the monomial kernel, are built.

def mul_poly(f: LogSeries, poly: list[tuple[int, Scalar]]) -> LogSeries:
    """f times a Laurent-free polynomial given as (power, coeff) pairs.

    Powers must be non-negative integers.  The result is based at
    sigma + min(power) and keeps f's order: coefficients above it would
    need unknown terms of f.
    """
    if not poly:
        raise ValueError("poly must be nonempty")
    for d, _ in poly:
        if d < 0 or d != int(d):
            raise ValueError("poly powers must be non-negative integers")
    dmin = min(d for d, _ in poly)
    out: dict[tuple[int, int], Scalar] = {}
    for d, p in poly:
        if p == 0:
            continue
        off = d - dmin
        for (m, k), c in f.coeffs.items():
            mm = m + off
            if mm <= f.order:
                out[(mm, k)] = out.get((mm, k), 0) + p * c
    return LogSeries(f.sigma + dmin, f.order, out)


def integrate(f: LogSeries) -> LogSeries:
    """Indefinite integral, integration constant zero.

    For p = sigma+m != -1:
        int z^p log^k z dz = z^{p+1} sum_{j=0..k} (-1)^j k!/(k-j)! / (p+1)^{j+1} log^{k-j} z
    (integration by parts, j=0 term is the familiar z^{p+1} log^k z/(p+1)).
    For p = -1: int z^{-1} log^k z dz = log^{k+1} z / (k+1), raising K.
    """
    out: dict[tuple[int, int], Scalar] = {}
    for (m, k), c in f.coeffs.items():
        p = f.sigma + m
        if p == -1:
            key = (m, k + 1)
            out[key] = out.get(key, 0) + c * _inv(k + 1, c)
        else:
            fall = 1  # k!/(k-j)! running product
            for j in range(k + 1):
                if j > 0:
                    fall *= k - j + 1
                w = c * fall * _invpow(p + 1, j + 1, c)
                if j % 2:
                    w = -w
                key = (m, k - j)
                out[key] = out.get(key, 0) + w
    return LogSeries(f.sigma + 1, f.order, out)


def _inv(x: Scalar, like: Scalar) -> Scalar:
    # reciprocal matching the coefficient's mode
    if isinstance(like, float) or isinstance(x, float):
        return 1.0 / x
    return Fraction(1, 1) / Fraction(x)


def _invpow(x: Scalar, j: int, like: Scalar) -> Scalar:
    return _inv(x, like) ** j


# ----------------------------------------------------------------------- L

def _apply_L_composed(spec, f):
    """L f composed from the series primitives, integrate after
    shift_exponent after integrate, each float exponent guarded against a
    resonance: the oracle of the monomial kernel apply_L."""
    inner = shift_exponent(f, spec.alpha)
    _resonance_guard(inner)
    mid = shift_exponent(integrate(inner), -spec.alpha)
    _resonance_guard(mid)
    return integrate(mid)


def _resonance_guard(g):
    for m, _k in g.coeffs:
        p = g.sigma + m
        if isinstance(p, float) and 0 < abs(p + 1) < 1e-12:
            raise SingularTerm(f"exponent {p} within 1e-12 of the resonant value -1")


def test_L_constant_alpha3():
    out = apply_L(plain_spec(Fr(3)), mono(1, 0))
    assert out == mono(Fr(1, 8), 2)                     # z^2/8


def test_L_generic_power_rule():
    # L z^p = z^{p+2}/((p+2)(alpha+p+1))
    for alpha in (Fr(3), Fr(5, 2)):
        for p in (Fr(0), Fr(1), Fr(-1, 2), Fr(3)):
            out = apply_L(plain_spec(alpha), mono(1, p))
            assert out.coefficient_at(p + 2) == 1 / ((p + 2) * (alpha + p + 1))


def test_L_log_of_z_at_alpha1():
    out = apply_L(plain_spec(Fr(1)), mono(1, 0, k=1))
    # z^2 (log z - 1)/4
    assert out.coefficient_at(2, 1) == Fr(1, 4)
    assert out.coefficient_at(2, 0) == Fr(-1, 4)


def test_L_inner_resonance_gives_log():
    # inner integral hits z^-1: L z^-2 = log(z)/(alpha-1) for alpha != 1
    out = apply_L(plain_spec(Fr(4)), mono(1, -2))
    assert out.coefficient_at(0, 1) == Fr(1, 3)
    assert out.coefficient_at(0, 0) == 0


def test_L_double_resonance_alpha1():
    out = apply_L(plain_spec(Fr(1)), mono(1, -2))
    assert out.coefficient_at(0, 2) == Fr(1, 2)         # log(z)^2/2


def test_L_outer_resonance():
    # L z^{-1-alpha} = z^{1-alpha}(log z/(1-alpha) - 1/(1-alpha)^2)
    alpha = Fr(3)
    out = apply_L(plain_spec(alpha), mono(1, -1 - alpha))
    assert out.coefficient_at(1 - alpha, 1) == Fr(-1, 2)
    assert out.coefficient_at(1 - alpha, 0) == Fr(-1, 4)


def test_L_log_closed_form():
    # L z^m log z = z^{m+2}(log z/((m+2)(alpha+m+1)) - (alpha+2m+3)/((m+2)^2(alpha+m+1)^2))
    for alpha in (Fr(3), Fr(7, 2)):
        for m in range(4):
            out = apply_L(plain_spec(alpha), mono(1, m, k=1))
            lead = Fr(1, (m + 2)) / (alpha + m + 1)
            corr = (alpha + 2 * m + 3) / (Fr((m + 2) ** 2) * (alpha + m + 1) ** 2)
            assert out.coefficient_at(m + 2, 1) == lead
            assert out.coefficient_at(m + 2, 0) == -corr


def test_L_float_near_resonance_raises():
    spec = plain_spec(1.0 + 1e-15)
    with pytest.raises(SingularTerm):
        apply_L(spec, mono(1.0, -2.0))


rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@given(st.integers(min_value=1, max_value=4),
       st.lists(st.tuples(st.integers(min_value=0, max_value=4),
                          st.integers(min_value=0, max_value=2),
                          rationals),
                min_size=1, max_size=5))
@settings(max_examples=80)
def test_L_is_right_inverse_of_euler_part(alpha_int, terms):
    # (1/z^alpha) d/dz (z^alpha d/dz (L f)) == f, exactly, logs included
    alpha = Fr(alpha_int)
    f = LogSeries(Fr(-2), 4, {(m, k): c for m, k, c in terms})
    g = apply_L(plain_spec(alpha), f)
    d1 = differentiate(g)
    back = shift_exponent(differentiate(shift_exponent(d1, alpha)), -alpha)
    assert back == f


# ---------------------------------------------------------------------- f0

def test_f0_bessel_seed():
    spec = transform(bessel_problem(Fr(1, 3)), 1)       # alpha = 5/3
    f0 = make_f0(spec, 0, 1, order=6)
    assert f0.sigma == Fr(-2, 3)
    assert f0.coefficient(0) == Fr(-3, 2)               # 1/(1 - 5/3)


def test_f0_alpha1_log():
    f0 = make_f0(plain_spec(Fr(1)), 0, 1, order=4)
    assert f0.coefficient(0, 1) == 1 and f0.max_log_power == 1


def test_f0_constant_only():
    f0 = make_f0(plain_spec(Fr(3)), Fr(2), 0, order=4)
    assert f0 == LogSeries.monomial(Fr(2), 0, 4)
    assert f0.max_log_power == 0


def test_f0_both_seeds_non_integer_gap_rejected():
    spec = transform(bessel_problem(Fr(1, 3)), 1)
    with pytest.raises(NonIntegerExponentGap):
        make_f0(spec, 1, 1, order=6)


def test_f0_both_seeds_integer_gap():
    spec = plain_spec(Fr(3))
    f0 = make_f0(spec, Fr(5), Fr(7), order=6)
    assert f0.sigma == -2
    assert f0.coefficient(0) == Fr(-7, 2) and f0.coefficient(2) == 5


# ----------------------------------------------------------------------- A

def test_A_bessel_first_step():
    nu = Fr(1, 3)
    spec = transform(bessel_problem(nu), 1)
    out = apply_A(spec, mono(1, 0))
    # A c0 = c0 (z/2)^2/(1+nu)
    assert out.coefficient_at(2) == Fr(1, 4) / (1 + nu)
    assert len(out.coeffs) == 1


def test_A_confluent_monomial():
    a, c = Fr(1), Fr(3, 2)
    spec = transform(confluent_problem(a, c), 1)
    for q in (Fr(0), Fr(1), Fr(5, 2)):
        out = apply_A(spec, mono(1, q))
        # compositional convention: A z^q = -(q+a) z^{q+1}/((q+1)(q+c))
        assert out.coefficient_at(q + 1) == -(q + a) / ((q + 1) * (q + c))


def test_A_gauss_monomial_uses_z_d2_term():
    a, b, c = Fr(1, 2), Fr(1, 3), Fr(5, 4)
    spec = transform(gauss_problem(a, b, c), 1)
    for q in (Fr(0), Fr(2), Fr(1, 2)):
        out = apply_A(spec, mono(1, q))
        assert out.coefficient_at(q + 1) == -(q + a) * (q + b) / ((q + 1) * (q + c))


@given(rationals, rationals, rationals, rationals,
       st.integers(min_value=0, max_value=5))
@settings(max_examples=100)
def test_A_matches_two_point_monomial_closed_form(p0, p1, q0, q1, m):
    # A z^m = sum_i (m p_i + D_i) z^{i+m+1} / ((i+m+1)(i+m+alpha))
    prob = OdeProblem("two_point", {-1: Fr(3), 0: p0, 1: p1},
                      {-1: q0, 0: q1}, series_cutoff=4)
    spec = transform(prob, 1)
    _, d_coeffs, _ = dense_cd(spec, prob.series_cutoff)
    out = apply_A(spec, mono(1, m, order=6))
    for i in range(3):
        num = m * prob.p(i) + d_coeffs[i]
        expect = num / Fr((i + m + 1)) / (i + m + spec.alpha)
        assert out.coefficient_at(i + m + 1) == expect


@given(st.lists(st.tuples(st.integers(min_value=0, max_value=3),
                          st.integers(min_value=0, max_value=1),
                          rationals),
                min_size=1, max_size=4))
@settings(max_examples=60)
def test_A_degree_growth(terms):
    spec = transform(bessel_problem(Fr(1, 3), cutoff=6), 1)
    f = LogSeries(Fr(0), 6, {(m, k): c for m, k, c in terms})
    if f.is_zero():
        return
    out = apply_A(spec, f)
    in_min = min(m for m, _ in f.coeffs)
    if not out.is_zero():
        out_min = min(out.sigma + m for (m, _k) in out.coeffs)
        assert out_min >= in_min + 1


def _dense_apply_A(spec, f, c_coeffs, d_coeffs, has_z_d2_term):
    # A composed with the full C/D polynomials, zeros included
    df = differentiate(f)
    integrand = linear_combine(
        1, mul_poly(df, list(enumerate(c_coeffs))),
        1, shift_exponent(mul_poly(f, list(enumerate(d_coeffs))), -1))
    if has_z_d2_term:
        integrand = linear_combine(1, integrand, 1,
                                   mul_poly(differentiate(df), [(1, -1)]))
    return _apply_L_composed(spec, integrand)


@given(st.lists(st.sampled_from((Fr(0), Fr(0), Fr(1, 2), Fr(-3))), min_size=4, max_size=4),
       st.lists(st.sampled_from((Fr(0), Fr(0), Fr(2, 3), Fr(-1))), min_size=4, max_size=4),
       st.booleans(),
       st.lists(st.tuples(st.integers(min_value=0, max_value=5),
                          st.integers(min_value=0, max_value=1),
                          rationals),
                max_size=3))
@settings(max_examples=80)
def test_A_from_sparse_terms_matches_dense_polynomials(cs, ds, z_d2, terms):
    # slot o = i + 1 holds C_i and D_i, and a2 = -1 at slot 1 gives -z f''
    slots = tuple((i + 1, -1 if z_d2 and i == 0 else 0, c, d)
                  for i, (c, d) in enumerate(zip(cs, ds)))
    spec = OperatorSpec(alpha=Fr(7, 3), lam=0, slots=slots)
    f = LogSeries(Fr(1, 2), 5, {(m, k): c for m, k, c in terms})
    out, dense = apply_A(spec, f), _dense_apply_A(spec, f, cs, ds, z_d2)
    assert out.coeffs == dense.coeffs
    assert (out.sigma, out.order) == (dense.sigma, dense.order)


# ------------------------------------------ exact kernel vs the composition

def _apply_A_composed(spec, f):
    """A f composed from series primitives: the oracle of the monomial
    kernel apply_A.

    The slots give the a2, a1 and a0 columns as sparse polynomials
    (o - 1, a), zeros dropped, and the integrand is
    z (a2 col) f'' + (a1 col) f' + (a0 col) f / z.  It keeps the base
    exponent and horizon of f', so the result does not depend on which
    values vanish.
    """
    z_d2, c_col, d_col = (tuple((o - 1, a[j]) for o, *a in spec.slots if a[j] != 0)
                          for j in range(3))
    df = differentiate(f)
    integrand = LogSeries.zero(f.order, df.sigma)
    if c_col:
        integrand = linear_combine(1, integrand, 1, mul_poly(df, c_col))
    if d_col:
        integrand = linear_combine(
            1, integrand, 1, shift_exponent(mul_poly(f, d_col), -1))
    if z_d2:
        integrand = linear_combine(
            1, integrand, 1, shift_exponent(mul_poly(differentiate(df), z_d2), 1))
    return _apply_L_composed(spec, integrand)


small = st.fractions(min_value=-2, max_value=2, max_denominator=3)
# large parameter denominators: the kernel's w/d and the coefficients then
# share factors, so the reduced-pair arithmetic takes its gcd != 1 branches
wide = st.fractions(min_value=-2, max_value=2, max_denominator=720)


@st.composite
def exact_specs(draw, coeffs=small):
    """Spec of a random exact problem of either kind at either root; the
    indicial gap is drawn integer (log cases) as often as not."""
    l1 = draw(st.fractions(min_value=-2, max_value=2, max_denominator=4))
    l2 = l1 - draw(st.one_of(st.integers(0, 3), coeffs))
    p = {-1: 1 - (l1 + l2)}
    q = {-2: l1 * l2}
    for i in draw(st.sets(st.integers(0, 2), max_size=2)):
        p[i] = draw(coeffs)
    for i in draw(st.sets(st.integers(-1, 1), max_size=2)):
        q[i] = draw(coeffs)
    kind = draw(st.sampled_from(("two_point", "three_point")))
    return transform(OdeProblem(kind, p, q, series_cutoff=6),
                     draw(st.sampled_from((1, 2))))


@st.composite
def resonant_exponent(draw, spec):
    """An exponent s that puts some slot i on a log branch of L
    (s - 1 + i + alpha = -1 or s + i = -1), or a plain one."""
    i = draw(st.integers(0, 3))
    return draw(st.sampled_from((-spec.alpha - i, Fr(-1 - i), draw(small))))


def assert_canonical(values):
    """Every Fraction among values in lowest terms, with a positive
    denominator: the form the public Fraction constructor gives."""
    for c in values:
        if isinstance(c, Fraction):
            assert c.denominator > 0 and math.gcd(c.numerator, c.denominator) == 1, c


def _assert_kernel_matches_composition(spec, f, kernel=apply_A, composed=_apply_A_composed):
    out, oracle = kernel(spec, f), composed(spec, f)
    assert out.coeffs == oracle.coeffs
    assert (out.sigma, out.order) == (oracle.sigma, oracle.order)
    assert all(type(c) is Fr for c in out.coeffs.values())
    assert_canonical(out.coeffs.values())


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_A_kernel_matches_composition_on_monomials(data):
    spec = data.draw(st.one_of(exact_specs(), exact_specs(wide)))
    s = data.draw(resonant_exponent(spec))
    m = data.draw(st.integers(0, 6))
    k = data.draw(st.integers(0, 3))
    c = data.draw(st.fractions(max_denominator=10**6).filter(lambda x: x != 0))
    _assert_kernel_matches_composition(spec, LogSeries(s - m, 6, {(m, k): c}))


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_A_kernel_matches_composition_on_series(data):
    spec = data.draw(st.one_of(exact_specs(), exact_specs(wide)))
    sigma = data.draw(resonant_exponent(spec))
    terms = data.draw(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 3), rationals),
                               min_size=1, max_size=6))
    _assert_kernel_matches_composition(
        spec, LogSeries(sigma, 6, {(m, k): c for m, k, c in terms}))


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_L_kernel_matches_composition_on_series(data):
    # resonant_exponent at i >= 1 puts row i - 1 on one of L's resonances,
    # s + alpha = -1 or s = -2; alpha = 1 makes them one
    spec = data.draw(st.one_of(st.just(plain_spec(Fr(1))), exact_specs(), exact_specs(wide)))
    sigma = data.draw(resonant_exponent(spec))
    terms = data.draw(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 3), rationals),
                               min_size=1, max_size=6))
    _assert_kernel_matches_composition(
        spec, LogSeries(sigma, 6, {(m, k): c for m, k, c in terms}), apply_L, _apply_L_composed)


# --------------------------------------- float kernel vs the dyadic image

def float_spec(spec):
    return OperatorSpec(float(spec.alpha), float(spec.lam),
                        tuple((o, *map(float, a)) for o, *a in spec.slots))


def dyadic_spec(spec):
    """The spec with every float read as the dyadic rational it is."""
    return OperatorSpec(Fr(spec.alpha), Fr(spec.lam),
                        tuple((o, *map(Fr, a)) for o, *a in spec.slots))


def _branches_agree(spec, f, lift=0):
    """Whether, for every term of f and slot of the float spec (L's one
    slot at lift 1), each of L's two integrations takes the log branch on
    the float exponent exactly where the dyadic exponent is -1, with no
    float exponent left within 1e-12 of the resonance."""
    slots = ((1,),) if lift else spec.slots
    lead = f.sigma + (lift - 1) + spec.alpha
    exact = Fr(f.sigma) + (lift - 1) + Fr(spec.alpha)
    for m, _k in f.coeffs:
        for o, *_ in slots:
            i = o - 1
            for p, want in ((lead + (m + i), exact + (m + i)),
                            (lead + 1 - spec.alpha + (m + i), Fr(f.sigma) + lift + (m + i))):
                if (p == -1) != (want == -1) or 0 < abs(p + 1) < 1e-12:
                    return False
    return True


def _assert_float_kernel_is_the_dyadic_image_rounded_once(data, kernel, lift):
    spec = float_spec(data.draw(exact_specs()))
    s = float(data.draw(resonant_exponent(dyadic_spec(spec))))
    m = data.draw(st.integers(0, 6))
    k = data.draw(st.integers(0, 3))
    c = float(data.draw(st.fractions(max_denominator=10**6).filter(lambda x: x != 0)))
    f = LogSeries(s - m, 6, {(m, k): c})
    assume(_branches_agree(spec, f, lift))
    out = kernel(spec, f)
    want = kernel(dyadic_spec(spec), LogSeries(Fr(f.sigma), 6, {(m, k): Fr(c)}))
    assert out.coeffs == {key: float(w) for key, w in want.coeffs.items()}


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_A_float_kernel_is_the_dyadic_image_rounded_once(data):
    _assert_float_kernel_is_the_dyadic_image_rounded_once(data, apply_A, 0)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_L_float_kernel_is_the_dyadic_image_rounded_once(data):
    _assert_float_kernel_is_the_dyadic_image_rounded_once(data, apply_L, 1)


def test_A_float_resonance_at_each_integration():
    # one slot, a0 = 1 at o = 1: z^s integrates at p = s - 1 + alpha, then at p = s
    spec = OperatorSpec(alpha=2.5, lam=0.0, slots=((1, 0.0, 0.0, 1.0),))
    for s in (-2.5, -1.0):               # on the resonance: the log branch
        assert apply_A(spec, mono(1.0, s)).max_log_power == 1
    for s in (-2.5 + 1e-14, -1.0 + 1e-14):
        with pytest.raises(SingularTerm):
            apply_A(spec, mono(1.0, s))


# ------------------------------ the kernel's closed form vs its general path

def _general_image(spec, sigma, order, integer_slots, lift):
    """Oracle of operators._kernel: every monomial through the general path,
    the log vector of euler_image and its two integrations
    (integrate_log_vector), each branch decided by _float_branch first
    where the spec or sigma is a float, and one ratio per output term."""
    den, slots = integer_slots
    exact = spec.mode == "exact" and is_exact(sigma)
    alpha = spec.alpha
    if not exact:
        lead = (sigma + (lift - 1)) + alpha
        mid = lead + 1 - alpha
        sigma, alpha = Fr(sigma), Fr(alpha)
    q = math.lcm(sigma.denominator, alpha.denominator)
    sq0 = sigma.numerator * (q // sigma.denominator)
    aq = alpha.numerator * (q // alpha.denominator)

    def image(m, k):
        sq = sq0 + m * q
        terms = []
        for o, a2, a1, a0 in slots:
            i = o - 1
            if m + i > order:
                break
            v = euler_image(sq, q, k, a2, a1, a0)
            if not any(v):
                continue
            pq1 = sq + (lift + i) * q + aq
            pq2 = sq + (lift + i + 1) * q
            if not exact:
                pq1 = _float_branch(lead + (m + i), pq1)
                pq2 = _float_branch(mid + (m + i), pq2)
            v, d1 = integrate_log_vector(v, pq1, q)
            v, d2 = integrate_log_vector(v, pq2, q)
            terms += [((m + i, j), ratio(w, den * q * q * d1 * d2))
                      for j, w in enumerate(v) if w]
        return terms

    return image


def _terms_or_refusal(image, m, k):
    try:
        return image(m, k)
    except SingularTerm:
        return SingularTerm


@st.composite
def kernel_cases(draw):
    """(spec, sigma): exact specs with integer and non-integer gaps, alpha = 1
    among them, or their float twins, and a base exponent on one of L's
    resonances, or for a float spec at or within 1e-12 of one."""
    spec = draw(st.one_of(exact_specs(), exact_specs(wide), st.just(plain_spec(Fr(1)))))
    sigma = draw(resonant_exponent(spec))
    if draw(st.booleans()):
        spec = float_spec(spec)
        sigma = float(sigma) + draw(st.sampled_from((0.0, 0.0, 1e-13, -1e-13, 5e-13)))
    return spec, sigma


@given(kernel_cases(), st.sampled_from((0, 1)))
@settings(max_examples=300, deadline=None)
def test_kernel_closed_form_is_the_general_path(case, lift):
    # at k = 0 the kernel takes the closed form off both resonances; every
    # term must be the general path's reduced pair, and SingularTerm must be
    # raised where the general path raises it
    spec, sigma = case
    slots = _L_SLOTS if lift else spec.integer_slots
    got, want = (image(spec, sigma, 6, slots, lift) for image in (_kernel, _general_image))
    for m in range(7):
        for k in (0, 1, 2):
            assert _terms_or_refusal(got, m, k) == _terms_or_refusal(want, m, k)


def test_A_float_scale_beyond_the_float_range_is_an_accuracy_error():
    # the image scale of the one slot is near 2^1059
    spec = OperatorSpec(alpha=2.5, lam=0.0, slots=((1, 0.0, 0.0, 1e308),))
    with pytest.raises(AccuracyError, match="overflows a float"):
        apply_A(spec, mono(1.0, -2.5 + 1e-11, 4))


def test_A_contraction_on_probe_basis():
    spec = transform(bessel_problem(Fr(1)), 1)          # alpha = 3
    for f in (mono(1, 0), mono(1, 1),
              linear_combine(1, mono(1, 0), 1, mono(1, 1))):
        num = weighted_norm_estimate(apply_A(spec, f), spec.alpha, 0.5)
        den = weighted_norm_estimate(f, spec.alpha, 0.5)
        assert num < den
