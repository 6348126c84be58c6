"""The package's public names, pinned so that adding or removing one is deliberate."""

import carleman

PUBLIC_NAMES = [
    "CoefficientTable",
    "bound_at",
    "bound_check",
    "monotonicity_check",
    "oracle_equivalence_check",
    "ratio_trend_check",
    "E",
    "EndpointSafeFunction",
    "entropy_weight",
    "moment_density",
    "moment_density_derivative",
    "scaled_defect",
    "scaled_defect_by_quadrature",
    "coefficient_by_moment",
    "coefficient_by_parts",
    "density_identity_checks",
    "scaled_derivative_moment",
    "QuadratureResult",
    "integrate",
    "Rational",
    "as_rational",
    "is_exact",
    "rational_str",
    "to_decimal_str",
    "DemoReport",
    "RefinementFactor",
    "carleman_demo",
    "load_sequence_csv",
    "refinement_factor",
    "tail_bound",
    "truncation_gap",
    "FAIL",
    "PASS",
    "REPORTED",
    "Check",
    "VerificationReport",
    "report_from_json",
    "corrupted_table",
    "engine_config",
    "run_verification",
    "__version__",
]


def test_public_names_in_order():
    assert carleman.__all__ == PUBLIC_NAMES
