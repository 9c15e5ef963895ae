"""Why the Neumann iteration converges: A is a contraction near the origin.

The fixed point equation (1 + A) f = g is solved by f = sum (-A)^j g, which
converges when ||A|| < 1 in the weighted sup-norm ||f|| = sup |z^alpha f(z)|
over (0, z0].  contraction_report probes that norm ratio empirically on a
small basis.  The factor shrinks as z0 does, so the series always wins
sufficiently close to the singular point; in practice it is already well
below 1 at z0 = 0.5 for the classical operators.
"""

from fractions import Fraction as Fr

from regsing import OdeProblem, contraction_report, solve, transform


def bessel_problem(nu, cutoff=12):
    return OdeProblem("two_point", {-1: 1}, {-2: -nu * nu, 0: 1},
                      series_cutoff=cutoff)


def confluent_problem(a, c, cutoff=12):
    return OdeProblem("two_point", {-1: c, 0: -1}, {-1: -a},
                      series_cutoff=cutoff)


specs = [
    ("Bessel nu=1", transform(bessel_problem(Fr(1)), 1)),
    ("Bessel nu=1/3", transform(bessel_problem(Fr(1, 3)), 1)),
    ("confluent (1, 3/2)", transform(confluent_problem(Fr(1), Fr(3, 2)), 1)),
    ("confluent (2/3, 7/5)",
     transform(confluent_problem(Fr(2, 3), Fr(7, 5)), 1)),
]

print("empirical contraction factor ||A f|| / ||f|| (worst over probe basis)")
print(f"{'operator':34s}" + "".join(f"  z0={z:<5}" for z in (0.1, 0.3, 0.5, 0.8)))
for label, spec in specs:
    row = "".join(f"  {contraction_report(spec, z0):<8.4f}"
                  for z0 in (0.1, 0.3, 0.5, 0.8))
    print(f"{label:34s}{row}")

# at a fixed order no convergence question arises: each application of A
# raises the lowest exponent, so the solver fixes the coefficients row by
# row; the count below is the Neumann iteration count, the longest chain of
# A applications from the seed to a coefficient below the horizon, plus one
print("\niterations used at order 12:")
for label, prob in [("Bessel nu=1/3", bessel_problem(Fr(1, 3))),
                    ("confluent (1, 3/2)", confluent_problem(Fr(1), Fr(3, 2)))]:
    sol = solve(prob, 1, 1, 0, order=12)
    print(f"  {label}: {sol.iterations_used}")
