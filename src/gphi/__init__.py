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

# The solver and the fuzz harness are imported on the first use of one of
# their names, so that certify loads neither and solve never loads the harness.
_LAZY = {
    "harness": ("DEFAULT_GAUGE_CATALOG", "DEFAULT_PHI_CATALOG", "FuzzConfig", "FuzzReport",
                "G1_GAUGE_CATALOG", "fuzz", "generate_operator", "generate_space"),
    "solver": ("CauchyDiagnostics", "PicardTrace", "enumerate_fixed_points", "m_epsilon",
               "picard_iterate", "trace_from_json", "verify_cauchy_bound",
               "verify_g1_termination", "verify_invariant_ball", "verify_step_chaining"),
}
_LAZY_NAMES = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name):
    module = name if name in _LAZY else _LAZY_NAMES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    loaded = _importlib.import_module(f".{module}", __name__)
    return loaded if name == module else getattr(loaded, name)


__all__ = sorted({name for name in globals() if not name.startswith("_")}
                 | _LAZY.keys() | _LAZY_NAMES.keys())
