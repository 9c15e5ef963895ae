"""Truncated series solutions of linear ODEs with a regular singular point
at the origin, with numeric contour-integral cross checks.

The solver rewrites psi'' + (p(z)/z) psi' + (q(z)/z^2) psi = F as a fixed
point equation (1 + A) f = g for the fractional part f of psi = z^lambda f
and sums the Neumann series of the resolvent.  Solutions live in a small
algebra of truncated generalized power series with log terms.  Catalog
families (Bessel, confluent and Gauss hypergeometric, Struve, trig) come
with classical-series oracles, closed forms for fractional powers of the
iteration operator, and Mellin-Barnes integrands whose residues reproduce
the series term by term.
"""

from .catalog import (
    ParameterError,
    bessel_j_series,
    bessel_log_second_series,
    harmonic,
    hyp1f1_series,
    hyp2f1_series,
    log_second_c1,
    log_second_c2,
    log_second_recurrence_streams,
    pochhammer,
    struve_prefactor,
    struve_series,
)
from .cli import ParseError, SchemaError, dump_problem, parse_problem
from .logseries import (
    DomainError,
    LogSeries,
    NonIntegerExponentGap,
    differentiate,
    evaluate,
    linear_combine,
    shift_exponent,
    truncate,
    weighted_norm_estimate,
)
from .mellin import (
    EULER_GAMMA,
    AccuracyError,
    CatalogFamily,
    ContourResult,
    ContourSpec,
    DEFAULT_CONTOUR,
    PoleError,
    PowerData,
    ResidueResult,
    catalog_family,
    complex_gamma,
    contour_eval,
    digamma,
    evaluate_power,
    family_operator,
    family_target_factor,
    fractional_power_coeff,
    mellin_integrand,
    residue_eval,
)
from .operators import SingularTerm, apply_A, apply_L, make_f0
from .problem import (
    ComplexRootsUnsupported,
    IndexData,
    OdeProblem,
    OperatorSpec,
    indicial,
    map_gegenbauer,
    transform,
)
from .solver import (
    IndexMismatch,
    Solution,
    contraction_report,
    neumann_apply_resolvent,
    residual,
    solve,
    solve_log_second,
)

__version__ = "0.1.0"

__all__ = [
    "AccuracyError",
    "CatalogFamily",
    "ComplexRootsUnsupported",
    "ContourResult",
    "ContourSpec",
    "DEFAULT_CONTOUR",
    "DomainError",
    "EULER_GAMMA",
    "IndexData",
    "IndexMismatch",
    "LogSeries",
    "NonIntegerExponentGap",
    "OdeProblem",
    "OperatorSpec",
    "ParameterError",
    "ParseError",
    "PoleError",
    "PowerData",
    "ResidueResult",
    "SchemaError",
    "SingularTerm",
    "Solution",
    "apply_A",
    "apply_L",
    "bessel_j_series",
    "bessel_log_second_series",
    "catalog_family",
    "complex_gamma",
    "contour_eval",
    "contraction_report",
    "differentiate",
    "digamma",
    "dump_problem",
    "evaluate",
    "evaluate_power",
    "family_operator",
    "family_target_factor",
    "fractional_power_coeff",
    "harmonic",
    "hyp1f1_series",
    "hyp2f1_series",
    "indicial",
    "linear_combine",
    "log_second_c1",
    "log_second_c2",
    "log_second_recurrence_streams",
    "make_f0",
    "map_gegenbauer",
    "mellin_integrand",
    "neumann_apply_resolvent",
    "parse_problem",
    "pochhammer",
    "residual",
    "residue_eval",
    "shift_exponent",
    "solve",
    "solve_log_second",
    "struve_prefactor",
    "struve_series",
    "transform",
    "truncate",
    "weighted_norm_estimate",
]
