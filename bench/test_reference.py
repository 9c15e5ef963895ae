"""Tests of the benchmark's own reference computations and of its checks.

    python3 -m pytest -q bench

The references are checked against scipy and hand values, never against
regsing; the checks are shown to count a wrong output as failed.
"""

import cmath
import math
import os
import shutil
import sys
from fractions import Fraction as Fr

import pytest
import scipy.special as sp

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import reference as R  # noqa: E402
import run  # noqa: E402
import workloads as W  # noqa: E402


def _sum(coeffs, base, z):
    return sum(float(c) * z ** (float(base) + m) for m, c in enumerate(coeffs))


# ------------------------------------------------------- Frobenius recurrence

def test_frobenius_hand_values():
    # psi'' + psi = 0 at the root 1: sin z
    assert R.frobenius("two_point", {}, {0: 1}, Fr(1), 6) == [1, 0, Fr(-1, 6), 0, Fr(1, 120),
                                                              0, Fr(-1, 5040)]
    # 2F1(1, 1; 2; z) = -log(1 - z)/z
    assert R.frobenius("three_point", {-1: 2, 0: -3}, {-1: -1}, Fr(0), 5) == [
        Fr(1, n + 1) for n in range(6)]


@pytest.mark.parametrize("nu", [Fr(1, 3), Fr(0), Fr(2), Fr(3, 4)])
def test_frobenius_bessel_matches_scipy(nu):
    a = R.frobenius("two_point", {-1: 1}, {-2: -nu * nu, 0: 1}, nu, 40)
    assert a[2] == Fr(-1, 4 * (1 + nu))
    for z in (0.1, 0.7, 2.0):
        want = math.gamma(1 + nu) * 2 ** float(nu) * sp.jv(float(nu), z)
        assert _sum(a, nu, z) == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize("a,b,c", [(Fr(1, 2), Fr(1, 3), Fr(5, 4)),
                                   (Fr(1, 3), Fr(2, 3), Fr(3, 2))])
def test_frobenius_three_point_both_roots_match_scipy(a, b, c):
    p, q = {-1: c, 0: -(a + b + 1)}, {-1: -a * b}
    regular = R.frobenius("three_point", p, q, Fr(0), 80)
    second = R.frobenius("three_point", p, q, 1 - c, 80)
    for z in (0.1, 0.3, 0.5):
        assert _sum(regular, 0, z) == pytest.approx(
            sp.hyp2f1(float(a), float(b), float(c), z), rel=1e-13)
        assert _sum(second, 1 - c, z) == pytest.approx(
            z ** float(1 - c) * sp.hyp2f1(float(a + 1 - c), float(b + 1 - c),
                                          float(2 - c), z), rel=1e-13)


@pytest.mark.parametrize("nu", [Fr(0), Fr(1, 3), Fr(1)])
def test_frobenius_driven_struve_matches_scipy(nu):
    a = R.frobenius("two_point", {-1: 1}, {-2: -nu * nu, 0: 1}, nu + 1, 40,
                    forcing={nu - 1: 1})
    assert a[0] == 1 / (2 * nu + 1)
    pref = 2 ** (1 - float(nu)) / (math.sqrt(math.pi) * math.gamma(0.5 + float(nu)))
    for z in (0.2, 0.5, 1.5):
        assert pref * _sum(a, nu + 1, z) == pytest.approx(sp.struve(float(nu), z), rel=1e-12)


# ------------------------------------------------- Pochhammer closed forms

def test_pochhammer_forms_hand_values():
    assert R.hyp2f1_coeffs(Fr(1, 2), Fr(1, 3), Fr(5, 4), 2) == {
        0: 1, 1: Fr(2, 15), 2: Fr(1, 2) * Fr(3, 2) * Fr(1, 3) * Fr(4, 3)
        / (Fr(5, 4) * Fr(9, 4) * 2)}
    nu = Fr(1, 3)
    assert R.bessel_j_coeffs(nu, 4) == {0: 1, 2: -1 / (4 * (1 + nu)),
                                        4: 1 / (32 * (1 + nu) * (2 + nu))}


def test_pochhammer_forms_agree_with_frobenius():
    a, b, c = Fr(1, 2), Fr(1, 3), Fr(5, 4)
    frob = R.frobenius("three_point", {-1: c, 0: -(a + b + 1)}, {-1: -a * b}, Fr(0), 60)
    assert R.hyp2f1_coeffs(a, b, c, 60) == dict(enumerate(frob))
    nu = Fr(1, 3)
    frob = R.frobenius("two_point", {-1: 1}, {-2: -nu * nu, 0: 1}, nu, 60)
    assert R.bessel_j_coeffs(nu, 60) == {m: v for m, v in enumerate(frob) if v}


# ------------------------------------------------ harmonic closed form (log)

def test_log_second_hand_values():
    f = R.log_second_coeffs(0, 4)
    assert f[(0, 1)] == 1 and f[(2, 1)] == Fr(-1, 4) and f[(2, 0)] == Fr(1, 4)
    f = R.log_second_coeffs(1, 2)
    assert f[(0, 0)] == Fr(-1, 2) and f[(2, 1)] == Fr(1, 4)


@pytest.mark.parametrize("n", [0, 1, 2])
def test_log_second_solves_bessel_equation(n):
    """psi = z^n f is a combination of J_n and Y_n (scipy)."""
    f = R.log_second_coeffs(n, 60)

    def psi(z):
        return z ** n * sum(float(c) * z ** (m - 2 * n) * math.log(z) ** k
                            for (m, k), c in f.items())
    z1, z2 = 0.3, 0.9
    det = sp.yv(n, z1) * sp.jv(n, z2) - sp.yv(n, z2) * sp.jv(n, z1)
    alpha = (psi(z1) * sp.jv(n, z2) - psi(z2) * sp.jv(n, z1)) / det
    beta = (sp.yv(n, z1) * psi(z2) - sp.yv(n, z2) * psi(z1)) / det
    assert alpha == pytest.approx(math.pi / 2 / (2 ** n * math.factorial(n)), rel=1e-12)
    for z in (0.05, 0.5, 1.4):
        assert psi(z) == pytest.approx(alpha * sp.yv(n, z) + beta * sp.jv(n, z), rel=1e-11)


# -------------------------------------------------------------- mpmath values

def test_mpmath_values_match_scipy():
    nu = Fr(1, 3)
    z = 0.37
    assert R.bessel_f(nu, z) == pytest.approx(
        math.gamma(4 / 3) * (z / 2) ** (-1 / 3) * sp.jv(1 / 3, z), rel=1e-14)
    assert R.struve_scaled(nu, z) == pytest.approx(
        sp.struve(1 / 3, z) * math.sqrt(math.pi) * math.gamma(0.5 + 1 / 3) / 2 ** (2 / 3),
        rel=1e-13)
    assert R.hyp1f1(1, Fr(3, 2), z) == pytest.approx(sp.hyp1f1(1, 1.5, z), rel=1e-14)
    assert R.hyp2f1(Fr(1, 2), Fr(1, 3), Fr(5, 4), z) == pytest.approx(
        sp.hyp2f1(0.5, 1 / 3, 1.25, z), rel=1e-14)
    assert R.family_value("Exp", {}, z) == pytest.approx(math.exp(z), rel=1e-15)


def test_power_coeff_at_integers_is_the_pochhammer_form():
    nu = Fr(1, 3)
    assert R.power_coeff("Exp", {}, complex(3)) == pytest.approx(-1 / 6, rel=1e-14)
    assert R.power_coeff("BesselRegular", {"nu": nu}, complex(2)) == pytest.approx(
        float(1 / (16 * 2 * (1 + nu) * (2 + nu))), rel=1e-14)
    params = {"a": Fr(1, 2), "b": Fr(1, 3), "c": Fr(5, 4)}
    assert R.power_coeff("Hyp2F1Regular", params, complex(1)) == pytest.approx(
        -2 / 15, rel=1e-14)


def test_integrand_matches_scipy_gamma():
    s, z = complex(0.4, 2.5), 0.3
    want = sp.gamma(s) * z ** -s * cmath.exp(-1j * math.pi * s)
    assert R.integrand("Exp", {}, s, z) == pytest.approx(want, rel=1e-12)
    nu = Fr(1, 3)
    want = sp.gamma(s) * math.gamma(4 / 3) / sp.gamma(4 / 3 - s) * (z / 2) ** (-2 * s)
    assert R.integrand("BesselRegular", {"nu": nu}, s, z) == pytest.approx(want, rel=1e-12)


# ---------------------------------------- wrong outputs are counted as failed

@pytest.fixture
def workdir():
    path = os.path.join(HERE, "out", f"test-{os.getpid()}")
    os.makedirs(path, exist_ok=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _solve_small_ops(workdir):
    import regsing as rs
    spec = W.small_spec(1)
    ref = W.small_reference(spec)
    return rs, W.small_ops(spec, W.small_build(spec, rs), ref, rs, workdir)


def test_wrong_solution_is_counted_as_failed(workdir):
    rs, ops = _solve_small_ops(workdir)
    op = ops[0]
    sol = op.run()
    assert op.check(sol)
    (m, k), c = max(sol.psi.coeffs.items())
    bad_psi = rs.LogSeries(sol.psi.sigma, sol.psi.order,
                           {**sol.psi.coeffs, (m, k): c + Fr(1, 10 ** 30)})

    class Tampered:
        psi = bad_psi
        residual_leading_order = sol.residual_leading_order
    assert not op.check(Tampered)
    res = run.run_passes([W.Op("tampered", "solve", lambda: Tampered, op.check)], 0)
    assert res["attempted"] == 1 and res["failed"] == 1 and res["wrong"] == {"tampered": 1}


def test_wrong_csv_is_counted_as_failed(workdir):
    _rs, ops = _solve_small_ops(workdir)
    op = next(o for o in ops if o.name.startswith("cli.solve"))
    code, text = op.run()
    assert op.check((code, text))
    last = text.rstrip("\n").rsplit("\n", 1)
    m, k, num, den = last[1].split(",")
    tampered = last[0] + "\n" + ",".join((m, k, str(int(num) + 1), den)) + "\n"
    assert not op.check((code, tampered))
    assert not op.check((3, text))


def test_wrong_float_value_is_counted_as_failed(workdir):
    import regsing as rs
    spec = W.float_spec(1)
    ops = W.float_ops(spec, W.float_build(spec, rs), W.float_reference(spec), rs, workdir)
    op = next(o for o in ops if o.name.startswith("residue_eval"))
    value = op.run()
    assert op.check(value)
    assert not op.check(value * (1 + 1e-11))
    res = run.run_passes([W.Op("off", "mellin", lambda: value * (1 + 1e-11), op.check)], 0)
    assert res["failed"] == 1 and res["wrong"] == {"off": 1}


def test_pass_shape_does_not_depend_on_the_seed():
    for spec_fn in (W.deep_spec, W.small_spec, W.float_spec):
        shapes = {tuple((k, len(v)) for k, v in sorted(spec_fn(seed).items()))
                  for seed in (1, 2, 3)}
        assert len(shapes) == 1
