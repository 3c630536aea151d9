"""The fuzz harness's catalog scan against the public certifier.

``_first_certified`` draws each trial's informative pairs once and shares
each gauge's values across the comparison functions.  It must pick the same
(gauge, phi) pair as calling ``certify_condition_G`` on the catalog in order,
raise the same exception where such a call raises, and reach no deeper into
the pairs than the calls do.
"""

import math
from itertools import combinations

from hypothesis import given, settings, strategies as st

from gphi.contraction import _informative_pairs, certify_condition_G
from gphi.errors import NonpositiveArgument
from gphi.gauges import (
    ExpOfFGauge,
    HyperbolicPhi,
    LinearPhi,
    RealForm,
    TabulatedGauge,
)
from gphi.harness import (
    DEFAULT_PHI_CATALOG,
    FuzzConfig,
    G1_GAUGE_CATALOG,
    _CatalogGauge,
    _first_certified,
    _identity_map,
    _prepare_catalogs,
    generate_operator,
    generate_space,
)
from gphi.spaces import validate_finite_space
from test_harness import uniform_map

STEPS = TabulatedGauge(((0.01, 0.5), (0.2, 0.3), (1.0, 2.0), (30.0, 1.5)))
CATALOGS = {
    "default": _prepare_catalogs(FuzzConfig()),
    "g1": _prepare_catalogs(FuzzConfig(gauge_catalog=G1_GAUGE_CATALOG)),
    "tabulated": _prepare_catalogs(FuzzConfig(
        gauge_catalog=(STEPS,) + G1_GAUGE_CATALOG,
        phi_catalog=(HyperbolicPhi(4.0), LinearPhi(0.7), HyperbolicPhi(0.25)))),
}


def reference_first_certified(space, T, gauges, phis):
    for entry in gauges:
        for phi in phis:
            if certify_condition_G(space, T, entry.gauge, phi).verdict == "certified":
                return entry, phi
    return None


def outcome(scan, *args):
    try:
        return "returned", scan(*args)
    except Exception as exc:            # the type and message are compared
        return "raised", type(exc), str(exc)


@settings(max_examples=300)
@given(seed=st.integers(0, 10 ** 6), n=st.integers(2, 16),
       scale=st.sampled_from([1.0, 50.0, 1000.0]),
       kind=st.sampled_from(["biased", "uniform", "identity"]),
       catalog=st.sampled_from(sorted(CATALOGS)))
def test_same_choice_as_public_certifier(seed, n, scale, kind, catalog):
    space = generate_space(f"scan:{seed}", n, scale)
    if kind == "identity":
        T = _identity_map(n)
    elif kind == "biased":
        T = generate_operator(f"scan:{seed}:op", space)
    else:
        T = uniform_map(f"scan:{seed}:op", n)
    gauges, phis = CATALOGS[catalog]
    assert (outcome(_first_certified, space, T, gauges, phis)
            == outcome(reference_first_certified, space, T, gauges, phis))


def test_known_overflow_raises_at_the_same_pair():
    # under the identity map no gauge certifies; exp(d) overflows past
    # d ~ 709.8, and phi rejects the infinite value
    space = validate_finite_space([[0.0, 900.0, 800.0],
                                   [900.0, 0.0, 850.0],
                                   [800.0, 850.0, 0.0]])
    T = _identity_map(3)
    gauges, phis = CATALOGS["g1"]
    got = outcome(_first_certified, space, T, gauges, phis)
    assert got == outcome(reference_first_certified, space, T, gauges, phis)
    assert got == ("raised", NonpositiveArgument,
                   "comparison functions take positive reals, got inf")


def test_scan_reaches_only_the_pairs_it_needs(monkeypatch):
    import gphi.harness as harness

    n = 256
    space = generate_space("lazy", n)
    T = generate_operator("lazy:op", space)
    evaluated = []

    def minus_log(a):
        evaluated.append(a)
        return -math.log(a)

    # G(a) = 1/a, opaque: no closed forms, and violated on the first pair
    # whose image distance is the shorter one
    entry = _CatalogGauge(ExpOfFGauge(RealForm("counted", minus_log)),
                          in_g1=False, eps0=None)
    witnesses = [certify_condition_G(space, T, entry.gauge, phi).violation_witness
                 for phi in DEFAULT_PHI_CATALOG]
    assert all(w is not None for w in witnesses)
    informative = [(x, y) for x, y, _, _ in
                   _informative_pairs(space, T, combinations(range(n), 2))]
    deepest = max(informative.index((w.x, w.y)) for w in witnesses)
    assert deepest < 100 < len(informative)

    drawn = []

    def counted_pairs(points, r):
        for pair in combinations(points, r):
            drawn.append(pair)
            yield pair

    monkeypatch.setattr(harness, "combinations", counted_pairs)
    evaluated.clear()
    assert _first_certified(space, T, [entry], DEFAULT_PHI_CATALOG) is None
    # G at d and at dt of each informative pair up to the deepest witness
    assert len(evaluated) == 2 * (deepest + 1)
    assert drawn[-1] == informative[deepest]
