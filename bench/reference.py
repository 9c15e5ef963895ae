"""Reference values computed apart from the program under test.

Nothing here imports regsing.  The exact references are the Frobenius
recurrence and classical coefficient formulas (Pochhammer term ratios, the
harmonic-number form of the logarithmic Bessel solution); the float
references come from mpmath at 30 digits.  The benchmark compares the
program's outputs against these, and test_reference.py checks these against
scipy and hand values.

Coefficient conventions follow the program's: an equation

    two_point    psi'' + p(z) psi' + q(z) psi = F
    three_point  z(1-z) psi'' + p(z) psi' + q(z) psi = F

is given by p = {i: p_i} (i >= -1) and q = {i: q_i} (i >= -2), where for
three_point p(z) = z sum p_i z^i and q(z) = z sum q_i z^i.
"""

from __future__ import annotations

from fractions import Fraction


def indicial_value(p: dict, q: dict, r):
    """I(r) = r(r-1) + p_{-1} r + q_{-2}, the same for both kinds."""
    return r * (r - 1) + p.get(-1, 0) * r + q.get(-2, 0)


def frobenius(kind: str, p: dict, q: dict, base, order: int,
              a0=Fraction(1), forcing: dict | None = None) -> list:
    """Coefficients a_0..a_order of psi = sum_m a_m z^(base+m).

    Homogeneous (forcing None): base is an indicial root and a_0 = a0; the
    recurrence needs I(base+m) != 0 for m >= 1, which holds at the larger
    root and whenever the root gap is not an integer.

    Driven: forcing maps exponent -> coefficient of F; base must be the
    lowest exponent of z^2 F (two_point) or z F (three_point), and a0 is
    ignored.  Multiplying the equation by z^2 (two_point) or z
    (three_point) gives, at z^(base+m),

        I(base+m) a_m = G_m - sum_{j>=1} (P_j (base+m-j) + Q_j) a_{m-j}
                        [+ (base+m-1)(base+m-2) a_{m-1}   three_point]

    with P_j = p_{j-1}, Q_j = q_{j-2} and G the shifted forcing.
    """
    shift = 2 if kind == "two_point" else 1
    g = {}
    if forcing:
        for e, c in forcing.items():
            g[e + shift - base] = c
    a = []
    for m in range(order + 1):
        r = base + m
        acc = Fraction(g.get(m, 0))
        for j in range(1, m + 1):
            pj, qj = p.get(j - 1, 0), q.get(j - 2, 0)
            if pj or qj:
                acc -= (pj * (r - j) + qj) * a[m - j]
        if kind == "three_point" and m >= 1:
            acc += (r - 1) * (r - 2) * a[m - 1]
        if m == 0 and not forcing:
            a.append(Fraction(a0))
            continue
        den = indicial_value(p, q, r)
        if den == 0:
            raise ZeroDivisionError(f"resonance at exponent {r}")
        a.append(acc / den)
    return a


def bessel_j_coeffs(nu, order: int) -> dict:
    """sum_k (-1)^k z^2k / (k! (1+nu)_k 4^k), keyed by power 2k <= order."""
    out = {}
    term = Fraction(1)
    k = 0
    while 2 * k <= order:
        out[2 * k] = term
        term = -term / (4 * (k + 1) * (nu + k + 1))
        k += 1
    return out


def hyp2f1_coeffs(a, b, c, order: int) -> dict:
    """(a)_n (b)_n / ((c)_n n!) by the term ratio, n = 0..order."""
    out = {}
    term = Fraction(1)
    for n in range(order + 1):
        out[n] = term
        term = term * (a + n) * (b + n) / ((c + n) * (n + 1))
    return out


def log_second_coeffs(n: int, order: int) -> dict:
    """Second Bessel solution of integer order n in the solver's f-space.

    f = psi z^-n is based at z^-2n and keyed (slot, log power), slot m
    standing for z^(m-2n).  The head (slots below 2n) is the Frobenius
    recurrence at the smaller root -n started from 1/(-2n) (n = 0 has no
    head; its seed is log z).  The tail at slot 2(k+n) is

        (-1)^k 4^-k (c1(k) log z + c2(k)),
        c1(k) = 1 / (4^n n! k! (k+n)!),
        c2(k) = -c1(k) (H_k - H_n + H_(k+n)) / 2.
    """
    out = {}
    if n > 0:
        head = frobenius("two_point", {-1: 1}, {-2: -n * n, 0: 1}, -n,
                         min(order, 2 * n - 1), a0=Fraction(-1, 2 * n))
        for m, c in enumerate(head):
            if c:
                out[(m, 0)] = c
    fact = [1]
    harm = [Fraction(0)]
    for j in range(1, order + n + 2):
        fact.append(fact[-1] * j)
        harm.append(harm[-1] + Fraction(1, j))
    k = 0
    while 2 * (k + n) <= order:
        slot = 2 * (k + n)
        sign = Fraction((-1) ** k, 4 ** k)
        c1 = Fraction(1, 4 ** n * fact[n] * fact[k] * fact[k + n])
        c2 = -c1 * (harm[k] - harm[n] + harm[k + n]) / 2
        out[(slot, 1)] = sign * c1
        if c2:
            out[(slot, 0)] = sign * c2
        k += 1
    return out


# ------------------------------------------------------------ float values

def _mp():
    # imported on first use, so the exact workloads and the set-up children
    # never load mpmath
    import mpmath
    return mpmath


def bessel_f(nu, z) -> float:
    """Gamma(1+nu) (z/2)^-nu J_nu(z): the regular Bessel series at base 0."""
    mp = _mp()
    with mp.workdps(30):
        nu = _mpq(nu)
        z = mp.mpf(z)
        return float(mp.gamma(1 + nu) * (z / 2) ** (-nu) * mp.besselj(nu, z))


def struve_scaled(nu, z) -> float:
    """H_nu(z) sqrt(pi) Gamma(1/2+nu) / 2^(1-nu): the driven series psi."""
    mp = _mp()
    with mp.workdps(30):
        nu = _mpq(nu)
        z = mp.mpf(z)
        return float(mp.struveh(nu, z) * mp.sqrt(mp.pi)
                     * mp.gamma(mp.mpf(1) / 2 + nu) / 2 ** (1 - nu))


def hyp1f1(a, c, z) -> float:
    mp = _mp()
    with mp.workdps(30):
        return float(mp.hyp1f1(_mpq(a), _mpq(c), z))


def hyp2f1(a, b, c, z) -> float:
    mp = _mp()
    with mp.workdps(30):
        return float(mp.hyp2f1(_mpq(a), _mpq(b), _mpq(c), z))


def _mpq(x):
    mp = _mp()
    x = Fraction(x)
    return mp.mpf(x.numerator) / x.denominator


def _family_power(tag: str, params: dict, v):
    """(coefficient, exponent) of A^v(seed) as mpmath values.

    The analytic continuation of the integer-power Pochhammer forms,
    (x)_v = Gamma(x+v)/Gamma(x), with (-1)^v = exp(i pi v).
    """
    mp = _mp()
    sign = mp.exp(1j * mp.pi * v)
    if tag == "Exp":
        return sign * mp.rgamma(1 + v), v
    if tag == "BesselRegular":
        nu = _mpq(params["nu"])
        return (mp.power(4, -v) * mp.gamma(1 + nu) * mp.rgamma(1 + v)
                * mp.rgamma(1 + nu + v)), 2 * v
    if tag == "Hyp1F1Regular":
        a, c = _mpq(params["a"]), _mpq(params["c"])
        return (sign * mp.gamma(a + v) * mp.gamma(c) * mp.rgamma(a)
                * mp.rgamma(1 + v) * mp.rgamma(c + v)), v
    if tag == "Hyp2F1Regular":
        a, b, c = (_mpq(params[k]) for k in ("a", "b", "c"))
        return (sign * mp.gamma(a + v) * mp.gamma(b + v) * mp.gamma(c)
                * mp.rgamma(a) * mp.rgamma(b) * mp.rgamma(1 + v)
                * mp.rgamma(c + v)), v
    if tag == "Struve":
        nu = _mpq(params["nu"])
        half3 = mp.mpf(3) / 2
        return (mp.power(4, -v) / (2 * nu + 1) * mp.gamma(half3)
                * mp.gamma(half3 + nu) * mp.rgamma(half3 + v)
                * mp.rgamma(half3 + nu + v)), 2 * v + 1
    raise ValueError(tag)


def _target_factor(tag: str, params: dict, z):
    """Struve targets H_nu itself: prefactor 2^(1-nu)/(sqrt(pi) Gamma(1/2+nu)) z^nu."""
    mp = _mp()
    if tag != "Struve":
        return mp.mpf(1)
    nu = _mpq(params["nu"])
    return (mp.power(2, 1 - nu) / (mp.sqrt(mp.pi) * mp.gamma(mp.mpf(1) / 2 + nu))
            * mp.power(z, nu))


def series_value(base, coeffs: dict, z: float) -> float:
    """sum c[m,k] z^(base+m) log(z)^k over the exact coefficients."""
    mp = _mp()
    with mp.workdps(30):
        z = mp.mpf(z)
        lz = mp.log(z)
        total = mp.mpf(0)
        for (m, k), c in coeffs.items():
            total += _mpq(c) * z ** m * lz ** k
        return float(total * z ** _mpq(base))


def power_coeff(tag: str, params: dict, v: complex) -> complex:
    """Coefficient of A^v(seed) at complex v."""
    mp = _mp()
    with mp.workdps(30):
        coeff, _ = _family_power(tag, params, mp.mpc(v.real, v.imag))
        return complex(coeff)


def integrand(tag: str, params: dict, s: complex, z: float) -> complex:
    """Mellin-Barnes integrand Gamma(s)Gamma(1-s) A^-s(seed)(z) * target factor."""
    mp = _mp()
    with mp.workdps(30):
        s = mp.mpc(s.real, s.imag)
        z = mp.mpf(z)
        coeff, expo = _family_power(tag, params, -s)
        return complex(mp.pi / mp.sin(mp.pi * s) * coeff * mp.power(z, expo)
                       * _target_factor(tag, params, z))


def family_value(tag: str, params: dict, z: float) -> float:
    """The function whose series the family's residues sum to."""
    mp = _mp()
    with mp.workdps(30):
        if tag == "Exp":
            return float(mp.exp(z))
        if tag == "BesselRegular":
            return bessel_f(Fraction(params["nu"]), z)
        if tag == "Hyp1F1Regular":
            return hyp1f1(params["a"], params["c"], z)
        if tag == "Hyp2F1Regular":
            return hyp2f1(params["a"], params["b"], params["c"], z)
        if tag == "Struve":
            nu = _mpq(params["nu"])
            return float(mp.struveh(nu, z))
    raise ValueError(tag)


def rel_close(got, want, tol: float) -> bool:
    """|got - want| <= tol |want|."""
    return abs(got - want) <= tol * abs(want)
