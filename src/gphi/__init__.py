"""Gauged contraction certification and Picard iteration on b-metric spaces."""

import importlib as _importlib

from .contraction import (
    AffineMap,
    ContractionCertificate,
    FiniteMap,
    TabulatedMap,
    apply,
    certify_condition_G,
    check_F_inequality,
    from_F_contraction,
    operator_from_json,
    to_czerwik_form,
)
from .gauges import (
    AffinePlusGauge,
    ClassCertificate,
    ConjugatePhi,
    ExpOfFGauge,
    ExpPsiLnPhi,
    HyperbolicPhi,
    IdentityGauge,
    IDENTITY_FORM,
    LinearPhi,
    LN,
    PhiCertificate,
    PowerGauge,
    RealForm,
    ShiftedPhi,
    TabulatedGauge,
    TabulatedPhi,
    affine_form,
    certify_gauge_class,
    certify_phi,
    check_phi_strict_decrease,
    classify_increasing_gauge,
    epsilon0,
    gauge_eval,
    gauge_from_json,
    log_grid,
    n_epsilon,
    phi_eval,
    phi_from_json,
    phi_iterate,
    shift_form,
)
from .solver import (
    CauchyDiagnostics,
    PicardTrace,
    enumerate_fixed_points,
    m_epsilon,
    picard_iterate,
    trace_from_json,
    verify_cauchy_bound,
    verify_g1_termination,
    verify_invariant_ball,
    verify_step_chaining,
)
from .spaces import (
    AnalyticSpace,
    BoundReport,
    FiniteSpace,
    ball_membership,
    check_limit_bounds,
    space_from_json,
    space_to_json,
    validate_finite_space,
)

__version__ = "0.1.0"

# The fuzz harness is imported on the first use of one of its names, so that
# certify and solve never load it.
_HARNESS_NAMES = ("DEFAULT_GAUGE_CATALOG", "DEFAULT_PHI_CATALOG", "FuzzConfig", "FuzzReport",
                  "G1_GAUGE_CATALOG", "fuzz", "generate_operator", "generate_space")


def __getattr__(name):
    if name != "harness" and name not in _HARNESS_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    harness = _importlib.import_module(".harness", __name__)
    return harness if name == "harness" else getattr(harness, name)


__all__ = sorted([name for name in globals() if not name.startswith("_")]
                 + ["harness", *_HARNESS_NAMES])
