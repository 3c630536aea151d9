"""Public refusals: each raises its own error type with an exact message."""

import pytest

from gphi.contraction import AffineMap, FiniteMap, apply, check_F_inequality
from gphi.errors import (
    ConfigInvalid,
    DomainRestricted,
    EmptyGrid,
    NonpositiveArgument,
    NotInvertible,
    PointOutOfDomain,
    TailLongerThanSequence,
)
from gphi.gauges import (
    IDENTITY_FORM,
    AffinePlusGauge,
    ExpOfFGauge,
    IdentityGauge,
    LinearPhi,
    RealForm,
    TabulatedGauge,
    certify_gauge_class,
    epsilon0,
    n_epsilon,
    phi_iterate,
)
from gphi.harness import FuzzConfig, fuzz, generate_space
from gphi.solver import picard_iterate
from gphi.spaces import AnalyticSpace, check_limit_bounds, validate_finite_space

THREE_POINT = validate_finite_space([[0.0, 1.0, 2.0], [1.0, 0.0, 4.0], [2.0, 4.0, 0.0]])
UNIT = AnalyticSpace(0.0, 1.0, 1.0)

REFUSALS = {
    "apply-outside-interval": (lambda: apply(AffineMap(0.5, 0.0), UNIT, 2.0),
                               PointOutOfDomain, "point 2.0 not in interval"),
    "limit-bounds-empty-tail": (lambda: check_limit_bounds(THREE_POINT, [0, 1, 0], 0, 0, tail=0),
                                TailLongerThanSequence, "tail must be at least 1"),
    "phi-iterate-at-zero": (lambda: phi_iterate(LinearPhi(0.5), 0, 1), NonpositiveArgument,
                            "comparison functions take positive reals, got 0"),
    "phi-iterate-negative-count": (lambda: phi_iterate(LinearPhi(0.5), 1.0, -1), ValueError,
                                   "iteration count must be non-negative"),
    "affine-plus-below-range": (lambda: AffinePlusGauge(1.0).inverse_eval(0.5),
                                DomainRestricted, "value 0.5 outside gauge range (1.0, inf)"),
    "exp-of-f-no-inverse": (lambda: ExpOfFGauge(RealForm("opaque", abs)).inverse_eval(1.0),
                            NotInvertible, "form opaque exposes no inverse"),
    "step-gauge-inverse": (lambda: TabulatedGauge(((1.0, 2.0),)).inverse_eval(2.0),
                           NotInvertible, "step gauges are not invertible"),
    "epsilon0-empty-grid": (lambda: epsilon0(IdentityGauge(), grid=[]), EmptyGrid,
                            "epsilon0 grid is empty"),
    "gauge-class-empty-grid": (lambda: certify_gauge_class(IdentityGauge(), grid=[]),
                               EmptyGrid, "certification grid is empty"),
    "n-epsilon-small-constant": (lambda: n_epsilon(IdentityGauge(), LinearPhi(0.5), 0.5, 0.1),
                                 ValueError, "b-metric constant must be >= 1"),
    "F-inequality-on-interval": (
        lambda: check_F_inequality(UNIT, AffineMap(0.5, 0.0), IDENTITY_FORM, IDENTITY_FORM),
        ValueError, "direct F-inequality scan is exhaustive, finite spaces only"),
    "picard-no-iterations": (lambda: picard_iterate(THREE_POINT, FiniteMap((0, 0, 1)), 0,
                                                    max_iter=0),
                             ValueError, "max_iter must be at least 1"),
    "space-of-no-points": (lambda: generate_space(7, 0), ConfigInvalid,
                           "space needs at least one point"),
    "fuzz-empty-catalog": (lambda: fuzz(FuzzConfig(gauge_catalog=())), ConfigInvalid,
                           "catalogs must be non-empty"),
    "fuzz-unknown-break-mode": (lambda: fuzz(FuzzConfig(break_mode="bogus")), ConfigInvalid,
                                "unknown break mode 'bogus'"),
}


@pytest.mark.parametrize("name", sorted(REFUSALS))
def test_refusal_type_and_message(name):
    call, error, message = REFUSALS[name]
    with pytest.raises(Exception) as info:
        call()
    assert (type(info.value), str(info.value)) == (error, message)
