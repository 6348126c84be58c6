"""Coefficients of the expansion (1+1/x)**x = e(1 - sum c_n/(x+1)**n).

The package computes the sequence c_n three ways (exact recurrence and
exact series exponential, which share the segmented table kernels of
coefficients.py; numerical quadrature of integral representations),
verifies its quantitative properties, and evaluates the weights it gives.
"""

from types import ModuleType as _ModuleType

from .coefficients import (
    CoefficientTable,
    bound_at,
    bound_check,
    monotonicity_check,
    oracle_equivalence_check,
    ratio_trend_check,
)
from .integrands import (
    E,
    EndpointSafeFunction,
    entropy_weight,
    moment_density,
    moment_density_derivative,
    scaled_defect,
    scaled_defect_by_quadrature,
)
from .moments import (
    coefficient_by_moment,
    coefficient_by_parts,
    density_identity_checks,
    scaled_derivative_moment,
)
from .quadrature import QuadratureResult, integrate
from .rational import (
    Rational,
    as_rational,
    is_exact,
    rational_str,
    to_decimal_str,
)
from .refinement import (
    DemoReport,
    RefinementFactor,
    carleman_demo,
    load_sequence_csv,
    refinement_factor,
    tail_bound,
    truncation_gap,
)
from .report import (
    FAIL,
    PASS,
    REPORTED,
    Check,
    VerificationReport,
    report_from_json,
)
from .verify import corrupted_table, engine_config, run_verification

__version__ = "0.1.0"

# The public names are the ones imported above, in import order.
__all__ = [
    name
    for name, obj in globals().items()
    if not name.startswith("_") and not isinstance(obj, _ModuleType)
] + ["__version__"]
