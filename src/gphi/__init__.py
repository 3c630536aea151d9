"""Gauged contraction certification and Picard iteration on b-metric spaces."""

import importlib as _importlib

__version__ = "0.1.0"

# Each submodule is imported on the first use of its name or of one of its
# names, so that ``import gphi`` loads none of them and each command loads
# only what it runs.  ``errors`` has no names here, but is still served.
_LAZY = {
    "contraction": ("AffineMap", "ContractionCertificate", "FiniteMap", "TabulatedMap", "apply",
                    "certify_condition_G", "check_F_inequality", "from_F_contraction",
                    "operator_from_json", "to_czerwik_form"),
    "errors": (),
    "gauges": ("AffinePlusGauge", "ClassCertificate", "ConjugatePhi", "ExpOfFGauge",
               "ExpPsiLnPhi", "HyperbolicPhi", "IdentityGauge", "IDENTITY_FORM", "LinearPhi",
               "LN", "PhiCertificate", "PowerGauge", "RealForm", "ShiftedPhi", "TabulatedGauge",
               "TabulatedPhi", "affine_form", "certify_gauge_class", "certify_phi",
               "check_phi_strict_decrease", "epsilon0", "gauge_eval", "gauge_from_json",
               "log_grid", "n_epsilon", "phi_eval", "phi_from_json", "phi_iterate",
               "shift_form"),
    "harness": ("DEFAULT_GAUGE_CATALOG", "DEFAULT_PHI_CATALOG", "FuzzConfig", "FuzzReport",
                "G1_GAUGE_CATALOG", "fuzz", "generate_operator", "generate_space"),
    "solver": ("CauchyDiagnostics", "PicardTrace", "enumerate_fixed_points", "m_epsilon",
               "picard_iterate", "trace_from_json", "verify_cauchy_bound",
               "verify_g1_termination", "verify_invariant_ball", "verify_step_chaining"),
    "spaces": ("AnalyticSpace", "BoundReport", "FiniteSpace", "ball_membership",
               "check_limit_bounds", "space_from_json", "space_to_json", "validate_finite_space"),
}
_LAZY_NAMES = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name):
    module = name if name in _LAZY else _LAZY_NAMES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    loaded = _importlib.import_module(f".{module}", __name__)
    return loaded if name == module else getattr(loaded, name)


__all__ = sorted(_LAZY.keys() | _LAZY_NAMES.keys())
