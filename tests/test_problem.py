"""Tests for indicial roots and the operator-coefficient transform."""

import ast
import math
from fractions import Fraction as Fr
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import regsing
from regsing.cli import _to_float_problem
from regsing.logseries import AccuracyError
from regsing.problem import (
    ComplexRootsUnsupported,
    OdeProblem,
    indicial,
    map_gegenbauer,
    transform,
)


def bessel_problem(nu, cutoff=12):
    # psi'' + psi'/z + (1 - nu^2/z^2) psi = 0
    return OdeProblem("two_point", {-1: 1}, {-2: -nu * nu, 0: 1},
                      series_cutoff=cutoff)


def confluent_problem(a, c, cutoff=12):
    # z psi'' + (c - z) psi' - a psi = 0, normalized
    return OdeProblem("two_point", {-1: c, 0: -1}, {-1: -a},
                      series_cutoff=cutoff)


def gauss_problem(a, b, c, cutoff=12):
    # z(1-z) psi'' + (c - (a+b+1) z) psi' - a b psi = 0
    return OdeProblem("three_point", {-1: c, 0: -(a + b + 1)}, {-1: -a * b},
                      series_cutoff=cutoff)


# ---------------------------------------------------------------- indicial

def test_bessel_indices():
    idx = indicial(bessel_problem(Fr(1, 3)))
    assert idx.lam1 == Fr(1, 3) and idx.lam2 == Fr(-1, 3)
    assert not idx.integer_gap and not idx.double_root
    assert idx.delta_lambda == Fr(2, 3)


def test_confluent_indices():
    idx = indicial(confluent_problem(Fr(1), Fr(3, 2)))
    assert idx.lam1 == 0 and idx.lam2 == Fr(-1, 2)


def test_double_root():
    idx = indicial(OdeProblem("two_point", {-1: 1}, {}))
    assert idx.double_root and idx.lam1 == idx.lam2 == 0
    assert idx.integer_gap


def test_exact_perfect_square_roots():
    idx = indicial(OdeProblem("two_point", {-1: 0}, {-2: -2}))
    assert idx.lam1 == 2 and idx.lam2 == -1
    assert isinstance(idx.lam1, Fr) or idx.lam1 == 2


def test_irrational_discriminant_downgrades():
    idx = indicial(OdeProblem("two_point", {-1: 0}, {-2: Fr(-1, 3)}))
    assert isinstance(idx.lam1, float)
    # both roots still satisfy the indicial polynomial to float accuracy
    for lam in (idx.lam1, idx.lam2):
        assert abs(lam * lam - lam - Fr(1, 3)) < 1e-14


@pytest.mark.parametrize("p1, q2", [
    (Fr(10**200), 3),                                   # the square root overflows
    (Fr(10**400 + 1), Fr(10**800 - 5, 4)),              # the root fits, -b does not
])
def test_irrational_roots_beyond_the_float_range_are_an_accuracy_error(p1, q2):
    # the exact discriminant is no rational square, and rounding its root
    # or the roots was a bare OverflowError
    with pytest.raises(AccuracyError, match="the irrational indicial roots leave the "
                                            "float range") as info:
        indicial(OdeProblem("two_point", {-1: p1}, {-2: q2}))
    assert isinstance(info.value.__cause__, OverflowError)


def test_complex_roots_rejected():
    with pytest.raises(ComplexRootsUnsupported):
        indicial(OdeProblem("two_point", {-1: 1}, {-2: 1}))


def test_alpha_delta_identity():
    # delta_lambda = alpha(lam1) - 1 for two-point problems
    idx = indicial(bessel_problem(Fr(2, 5)))
    assert idx.delta_lambda == idx.alpha_for(idx.lam1) - 1


small_rationals = st.fractions(min_value=-3, max_value=3, max_denominator=5)


@given(small_rationals, small_rationals)
@settings(max_examples=100)
def test_roots_satisfy_indicial_polynomial(p1, q2):
    prob = OdeProblem("two_point", {-1: p1}, {-2: q2})
    try:
        idx = indicial(prob)
    except ComplexRootsUnsupported:
        b = p1 - 1
        assert b * b - 4 * q2 < 0
        return
    for lam in (idx.lam1, idx.lam2):
        resid = lam * lam + (p1 - 1) * lam + q2
        if isinstance(lam, float):
            assert abs(resid) < 1e-12
        else:
            assert resid == 0
    assert idx.lam1 >= idx.lam2
    gap_identity = idx.delta_lambda - (idx.alpha_for(idx.lam1) - 1)
    if isinstance(idx.lam1, float):
        assert abs(gap_identity) < 1e-12
    else:
        assert gap_identity == 0


def test_radius_is_the_distance_to_the_next_singular_point():
    assert bessel_problem(Fr(1, 3)).radius == math.inf
    assert gauss_problem(Fr(1, 2), Fr(1, 3), Fr(5, 4)).radius == 1
    assert map_gegenbauer(Fr(1, 2), 3).radius == 1


# ---------------------------------------------------------------- transform

def dense_cd(spec, n):
    """The conjugated slots of spec expanded to dense columns: C_i = a1 and
    D_i = a0 of slot o = i + 1 for i = 0..n, and whether any a2 is nonzero
    (the -z f'' term)."""
    cs, ds = [0] * (n + 1), [0] * (n + 1)
    for o, _a2, a1, a0 in spec.slots:
        cs[o - 1], ds[o - 1] = a1, a0
    return tuple(cs), tuple(ds), any(a2 for _o, a2, _a1, _a0 in spec.slots)


def test_bessel_transform():
    nu = Fr(1, 3)
    prob = bessel_problem(nu)
    spec = transform(prob, 1)
    c_coeffs, d_coeffs, has_z_d2_term = dense_cd(spec, prob.series_cutoff)
    assert spec.alpha == 2 * nu + 1 and spec.lam == nu
    assert all(c == 0 for c in c_coeffs)
    # D_i = lam p_i + q_{i-1}: the unit coefficient lands at i=1 (from q_0),
    # i.e. multiplying z^{i-1} = z^0 in the transformed equation
    assert d_coeffs[0] == 0 and d_coeffs[1] == 1
    assert all(d == 0 for d in d_coeffs[2:])
    assert not has_z_d2_term


def test_confluent_transform():
    a, c = Fr(1), Fr(3, 2)
    prob = confluent_problem(a, c)
    spec = transform(prob, 1)
    c_coeffs, d_coeffs, _ = dense_cd(spec, prob.series_cutoff)
    assert spec.alpha == c and spec.lam == 0
    assert c_coeffs[0] == -1
    assert d_coeffs[0] == -a
    assert all(x == 0 for x in c_coeffs[1:])
    assert all(x == 0 for x in d_coeffs[1:])


def test_gauss_transform_root1():
    a, b, c = Fr(1, 2), Fr(1, 3), Fr(5, 4)
    prob = gauss_problem(a, b, c)
    spec = transform(prob, 1)
    c_coeffs, d_coeffs, has_z_d2_term = dense_cd(spec, prob.series_cutoff)
    assert spec.alpha == c and spec.lam == 0
    assert c_coeffs[0] == -(a + b + 1)
    assert d_coeffs[0] == -a * b
    assert has_z_d2_term


def test_gauss_transform_root2_matches_primed_parameters():
    # second solution z^{1-c} 2F1(a', b'; 2-c; z) with a' = a+1-c, b' = b+1-c;
    # the generic D rule must give D_0 = -a' b' at lam = 1-c
    a, b, c = Fr(1, 2), Fr(1, 3), Fr(5, 4)
    prob = gauss_problem(a, b, c)
    spec = transform(prob, 2)
    c_coeffs, d_coeffs, _ = dense_cd(spec, prob.series_cutoff)
    assert spec.lam == 1 - c
    assert spec.alpha == 2 - c
    ap, bp = a + 1 - c, b + 1 - c
    assert d_coeffs[0] == -ap * bp == Fr(-1, 48)
    assert c_coeffs[0] == -(ap + bp + 1)


@given(small_rationals, small_rationals, small_rationals, small_rationals)
@settings(max_examples=60)
def test_transform_formulas_hold_at_both_roots(p1, p0, q1, q0):
    prob = OdeProblem("two_point", {-1: p1, 0: p0}, {-1: q1, 0: q0},
                      series_cutoff=4)
    try:
        idx = indicial(prob)
    except ComplexRootsUnsupported:
        return
    for choice, lam in ((1, idx.lam1), (2, idx.lam2)):
        spec = transform(prob, choice)
        c_coeffs, d_coeffs, _ = dense_cd(spec, prob.series_cutoff)
        assert spec.lam == lam
        assert spec.alpha == 2 * lam + p1
        for i in range(5):
            assert c_coeffs[i] == prob.p(i)
            assert d_coeffs[i] == lam * prob.p(i) + prob.q(i - 1)


def _transform_by_kind(problem, root_choice):
    """Test oracle: transform as it was written per equation kind, before
    both kinds became one normal form: (alpha, lam, C, D, has_z_d2)."""
    idx = indicial(problem)
    lam = idx.lam1 if root_choice == 1 else idx.lam2
    three = problem.kind == "three_point"
    cs = []
    ds = []
    for i in range(problem.series_cutoff + 1):
        c = problem.p(i)
        d = lam * problem.p(i) + problem.q(i - 1)
        if three and i == 0:
            c = c - 2 * lam
            d = d + lam * (1 - lam)
        cs.append(c)
        ds.append(d)
    return idx.alpha_for(lam), lam, tuple(cs), tuple(ds), three


@st.composite
def problems_of_both_kinds(draw):
    """Small rational p_{-1..3} and q_{-2..2} (any roots: rational,
    irrational or complex), cutoff 3..8, either kind."""
    p = draw(st.dictionaries(st.integers(-1, 3), small_rationals, max_size=5))
    q = draw(st.dictionaries(st.integers(-2, 2), small_rationals, max_size=5))
    kind = draw(st.sampled_from(("two_point", "three_point")))
    return OdeProblem(kind, p, q, series_cutoff=draw(st.integers(3, 8)))


@given(problems_of_both_kinds(), st.booleans())
# irrational roots with an exact p_0 = 1/3, which the conjugation must keep exact
@example(OdeProblem("two_point", {-1: 0, 0: Fr(1, 3)}, {-2: Fr(-1, 3)}, series_cutoff=3),
         False)
@settings(max_examples=150)
def test_transform_matches_the_per_kind_oracle(problem, floats):
    if floats:
        problem = _to_float_problem(problem)
    try:
        indicial(problem)
    except ComplexRootsUnsupported:
        return
    for choice in (1, 2):
        got, want = transform(problem, choice), _transform_by_kind(problem, choice)
        assert (got.alpha, got.lam, *dense_cd(got, problem.series_cutoff)) == want


@pytest.mark.parametrize("kind", ["two_point", "three_point"])
def test_transform_rejects_coefficients_beyond_the_cutoff(kind):
    # p_i reach C_i and q_i reach D_{i+1}: p_N and q_{N-1} are the last that
    # fit, and zeros beyond them are ignored
    n = 4
    fits = OdeProblem(kind, {-1: Fr(1, 2), n: 1, n + 3: 0}, {n - 1: 1, n + 2: 0},
                      series_cutoff=n)
    spec = transform(fits, 1)
    c_coeffs, d_coeffs, _ = dense_cd(spec, n)
    assert c_coeffs[n] == 1 and d_coeffs[n] == spec.lam + 1
    for p, q in (({n + 1: 1}, {}), ({}, {n: 1})):
        with pytest.raises(ValueError, match="series_cutoff too small"):
            transform(OdeProblem(kind, {-1: Fr(1, 2), **p}, q, series_cutoff=n), 1)


# where the equation kind may be read: the problem itself, and the CLI's
# parsing and dumping of problem files
KIND_READERS = {
    "problem.py": {"OdeProblem"},
    "cli.py": {"parse_problem", "dump_problem", "_to_float_problem"},
}


def _kind_reads(tree, allowed):
    """Line numbers of every read of a .kind attribute and every comparison
    with an equation-kind name, outside the classes and functions named in
    allowed."""
    kinds = {"two_point", "three_point"}
    found = []

    def visit(node, inside):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            inside = inside or node.name in allowed
        if not inside:
            if isinstance(node, ast.Attribute) and node.attr == "kind":
                found.append(node.lineno)
            if isinstance(node, ast.Compare) and any(
                    isinstance(c, ast.Constant) and c.value in kinds
                    for operand in (node.left, *node.comparators)
                    for c in ast.walk(operand)):
                found.append(node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, False)
    return sorted(set(found))


def test_only_the_problem_and_the_cli_read_the_kind():
    # the equation kind is read once, into OdeProblem.slots and weight;
    # nothing downstream branches on it
    package = Path(regsing.__file__).resolve().parent
    reads = {}
    for path in sorted(package.glob("*.py")):
        found = _kind_reads(ast.parse(path.read_text()), KIND_READERS.get(path.name, set()))
        if found:
            reads[path.name] = found
    assert reads == {}


def test_the_kind_guard_sees_reads_and_comparisons():
    source = """
def f(problem):
    return problem.kind
def g(kind):
    return kind in ("two_point",)
class OdeProblem:
    def weight(self):
        return 2 if self.kind == "two_point" else 1
def parse_problem(doc):
    return doc["kind"] == "three_point"
"""
    assert _kind_reads(ast.parse(source), {"OdeProblem", "parse_problem"}) == [3, 5]
    assert _kind_reads(ast.parse(source), set()) == [3, 5, 8, 10]


# ------------------------------------------------------------- gegenbauer

def test_gegenbauer_legendre_case():
    prob = map_gegenbauer(Fr(0), 3)
    assert prob.kind == "three_point"
    assert prob.p(-1) == 1 and prob.p(0) == -2
    assert prob.q(-1) == 12     # n(n+1) at n=3
    idx = indicial(prob)
    assert idx.lam1 == 0 and idx.lam2 == 0 and idx.double_root


def test_gegenbauer_coefficients_scale():
    prob = map_gegenbauer(Fr(1, 2), 1)
    assert prob.p(-1) == Fr(3, 2) and prob.p(0) == -3
    assert prob.q(-1) == 1 * (1 + 2 * Fr(1, 2) + 1)
    idx = indicial(prob)
    assert idx.lam1 == 0 and idx.lam2 == Fr(-1, 2)


def test_problem_validation():
    with pytest.raises(ValueError):
        OdeProblem("weird", {}, {})
    with pytest.raises(ValueError):
        OdeProblem("two_point", {-2: 1}, {})
    with pytest.raises(ValueError):
        OdeProblem("two_point", {}, {-3: 1})
