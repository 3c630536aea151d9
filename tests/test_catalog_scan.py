"""The fuzz harness's catalog scan against the public certifier.

``_first_certified`` draws each trial's informative pairs once and shares
each gauge's values across the comparison functions.  It must pick the same
(gauge, phi) pair as calling ``certify_condition_G`` on the catalog in order,
raise the same exception where such a call raises, and reach no deeper into
the pairs than the calls do.

Both scans call phi inline on a G(d) that is a positive finite float and
through ``phi_eval`` on any other; the slow-path catalogs give G values of
every other kind, and a recording phi sees what each scan passes it.
"""

import math
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from gphi.contraction import _informative_pairs, certify_condition_G
from gphi.errors import NonpositiveArgument
from gphi.gauges import (
    IDENTITY_FORM,
    ExpOfFGauge,
    HyperbolicPhi,
    LinearPhi,
    PowerGauge,
    RealForm,
    TabulatedGauge,
    phi_eval,
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


# --- the slow path: G values that are not positive finite floats --------------

PHI_CALLS = []


class RecordingPhi(LinearPhi):
    """c * t, recording the type and value of every argument."""

    def eval(self, t):
        PHI_CALLS.append((type(t), t))
        return super().eval(t)


class IntStepGauge(TabulatedGauge):
    """A step gauge whose values stay ints."""

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "points", tuple((t, int(v)) for t, v in self.points))


class Measure(float):
    pass


class SubclassGauge(PowerGauge):
    """a ** q, returned as a float subclass."""

    def eval(self, a):
        return Measure(super().eval(a))


SLOW_GAUGES = {
    "int-steps": IntStepGauge(((0.5, 2), (1, 1), (2, 4))),
    "float-subclass": SubclassGauge(2.0),
    "underflow": PowerGauge(400.0),         # 0.0 below d ~ 0.17
    "overflow": ExpOfFGauge(IDENTITY_FORM),  # inf past d ~ 709.8
}
RECORDING_PHIS = (RecordingPhi(0.5), RecordingPhi(0.9))


def recorded(scan, *args):
    """The outcome of the scan and the phi calls it made."""
    PHI_CALLS.clear()
    return outcome(scan, *args), list(PHI_CALLS)


def test_slow_gauges_miss_the_guard():
    assert type(SLOW_GAUGES["int-steps"].eval(0.7)) is int
    assert type(SLOW_GAUGES["float-subclass"].eval(0.7)) is Measure
    assert SLOW_GAUGES["underflow"].eval(0.1) == 0.0
    assert SLOW_GAUGES["overflow"].eval(800.0) == math.inf


@pytest.mark.parametrize("name", SLOW_GAUGES)
@pytest.mark.parametrize("scale", [1.0, 1000.0])
@pytest.mark.parametrize("kind", ["biased", "uniform", "identity"])
def test_slow_path_scan_matches_public_certifier(name, scale, kind):
    # the slow gauge first, and again after a gauge on the fast path
    catalogs = [(SLOW_GAUGES[name],), (PowerGauge(0.5), SLOW_GAUGES[name])]
    for seed in range(12):
        n = 2 + seed % 7
        space = generate_space(f"slow:{seed}", n, scale)
        if kind == "identity":
            T = _identity_map(n)
        elif kind == "biased":
            T = generate_operator(f"slow:{seed}:op", space)
        else:
            T = uniform_map(f"slow:{seed}:op", n)
        for catalog in catalogs:
            gauges = [_CatalogGauge(G, in_g1=False, eps0=None) for G in catalog]
            got = recorded(_first_certified, space, T, gauges, RECORDING_PHIS)
            assert got == recorded(reference_first_certified, space, T, gauges, RECORDING_PHIS)
            # phi_eval hands phi a plain float on every path
            assert {t for t, _ in got[1]} <= {float}


@pytest.mark.parametrize("name", SLOW_GAUGES)
def test_slow_path_witness_bound_is_phi_eval(name):
    G = SLOW_GAUGES[name]
    witnessed = 0
    for seed in range(40):
        n = 2 + seed % 7
        space = generate_space(f"slow-witness:{seed}", n, 1000.0 if seed % 2 else 1.0)
        T = uniform_map(f"slow-witness:{seed}:op", n)
        for phi in RECORDING_PHIS:
            PHI_CALLS.clear()
            try:
                cert = certify_condition_G(space, T, G, phi)
            except NonpositiveArgument:
                continue
            assert {t for t, _ in PHI_CALLS} <= {float}
            w = cert.violation_witness
            if w is not None:
                bound = phi_eval(phi, w.g_of_d)
                assert (type(w.phi_bound), w.phi_bound) == (type(bound), bound)
                witnessed += 1
    assert witnessed > 0
