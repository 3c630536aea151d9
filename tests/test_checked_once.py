"""An instance is checked once, where it enters, and read directly after.

``gphi certify`` and ``gphi solve`` check the self-map once, inside
``certify_condition_G`` and ``picard_iterate``; a fuzz trial checks it once,
in ``enumerate_fixed_points`` on a certified trial (``verify_invariant_ball``
is covered in ``test_solver.py``).  The certify scan reads
gauges with ``G.eval`` and interval images with ``T.eval``; a copy of the
checked reads it replaced must give the same certificate or the same error.
"""

import json
import math
import random
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

import gphi.cli
import gphi.contraction as contraction
import gphi.harness
import gphi.solver
from gphi.cli import run_cli
from gphi.contraction import (
    AffineMap,
    TabulatedMap,
    apply,
    certify_condition_G,
    validate_operator,
)
from gphi.errors import PointOutOfDomain
from gphi.gauges import gauge_eval
from gphi.harness import (
    DEFAULT_GAUGE_CATALOG,
    DEFAULT_PHI_CATALOG,
    FuzzConfig,
    G1_GAUGE_CATALOG,
    _identity_map,
    fuzz,
    generate_operator,
)
from gphi.spaces import AnalyticSpace, FiniteSpace, validate_finite_space
from test_catalog_scan import STEPS
from test_cli import ANALYTIC_INSTANCE, THREE_POINT_INSTANCE, write
from test_harness import uniform_map

GAUGES = DEFAULT_GAUGE_CATALOG + G1_GAUGE_CATALOG + (STEPS,)


def count_checks(monkeypatch):
    """Count validate_operator calls through every module that binds it."""
    calls = []
    real = validate_operator

    def counted(space, T):
        calls.append(T)
        return real(space, T)

    for module in (gphi.cli, contraction, gphi.harness, gphi.solver):
        if hasattr(module, "validate_operator"):
            monkeypatch.setattr(module, "validate_operator", counted)
    return calls


class TestMapCheckedOnce:
    @pytest.mark.parametrize("doc", [THREE_POINT_INSTANCE, ANALYTIC_INSTANCE],
                             ids=["finite", "interval"])
    def test_certify(self, tmp_path, capsys, monkeypatch, doc):
        path = write(tmp_path, "inst.json", doc)
        calls = count_checks(monkeypatch)
        assert run_cli(["certify", path]) in (0, 3)
        assert len(calls) == 1

    @pytest.mark.parametrize("doc,x0", [(THREE_POINT_INSTANCE, "2"), (ANALYTIC_INSTANCE, "1")],
                             ids=["finite", "interval"])
    def test_solve(self, tmp_path, capsys, monkeypatch, doc, x0):
        path = write(tmp_path, "inst.json", doc)
        calls = count_checks(monkeypatch)
        assert run_cli(["solve", path, "--x0", x0]) == 0
        assert len(calls) == 1

    def test_bad_map_still_refused_by_each_command(self, tmp_path, capsys):
        doc = dict(THREE_POINT_INSTANCE, operator={"map": [0, 0, 5]})
        path = write(tmp_path, "inst.json", doc)
        for command in (["certify", path], ["solve", path, "--x0", "0"]):
            assert run_cli(command) == 1
            out = capsys.readouterr()
            assert out.out == "" and out.err == (
                "error: PointOutOfDomain: image of point 2 is 5, outside the space\n")

    def test_flagship_fuzz_checks_each_certified_trial_once(self, monkeypatch):
        calls = count_checks(monkeypatch)
        report = fuzz(FuzzConfig(seed=1, trials=1000))
        assert report.certified_count > 0 and not report.violations
        assert len(calls) == report.certified_count


# --- the checked reads the scan replaced, kept here as the reference ---------

UNCHECKED_INFORMATIVE = contraction._informative_pairs


def checked_informative_pairs(space, T, pairs):
    if isinstance(space, FiniteSpace):
        yield from UNCHECKED_INFORMATIVE(space, T, pairs)
        return
    for x, y in pairs:
        d = space.distance(x, y)
        if space.is_zero(d):
            continue
        dt = space.distance(apply(T, space, x), apply(T, space, y))
        if not space.is_zero(dt):
            yield x, y, d, dt


class CheckedGauge:
    """The gauge it wraps, read through the checked ``gauge_eval``."""

    def __init__(self, gauge):
        self.gauge = gauge

    def eval(self, a: float) -> float:
        return gauge_eval(self.gauge, a)

    def __getattr__(self, name):
        return getattr(self.gauge, name)


def outcome(space, T, G, phi, samples):
    try:
        cert = certify_condition_G(space, T, G, phi, seed=7, samples=samples)
    except Exception as exc:            # the type and message are compared
        return "raised", type(exc), str(exc)
    return "returned", json.dumps(cert.to_json(), sort_keys=True)


def assert_same_as_checked(space, T, samples=64):
    for G in GAUGES:
        for phi in DEFAULT_PHI_CATALOG:
            got = outcome(space, T, G, phi, samples)
            with mock.patch.object(contraction, "_informative_pairs", checked_informative_pairs):
                assert got == outcome(space, T, CheckedGauge(G), phi, samples)


@settings(max_examples=150)
@given(seed=st.integers(0, 10 ** 6), n=st.integers(2, 16),
       scale=st.sampled_from([1.0, 50.0, 1000.0]), array=st.booleans(),
       kind=st.sampled_from(["biased", "uniform", "identity"]))
def test_finite_scan_matches_checked_reads(seed, n, scale, array, kind):
    import numpy as np

    rng = random.Random(seed)
    matrix = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            matrix[i][j] = matrix[j][i] = scale * (1.0 - rng.random())
    space = validate_finite_space(np.array(matrix) if array else matrix)
    if kind == "identity":
        T = _identity_map(n)
    elif kind == "biased":
        T = generate_operator(f"unchecked:{seed}:op", space)
    else:
        T = uniform_map(f"unchecked:{seed}:op", n)
    assert_same_as_checked(space, T)


ENDS = st.tuples(st.floats(-1e3, 1e3), st.floats(1e-6, 1e3)).map(lambda t: (t[0], t[0] + t[1]))
UNIT = st.floats(0.0, 1.0)


@st.composite
def affine_maps(draw, lo, hi):
    """a*x + b sending lo and hi near two points of [lo, hi]; rounding may
    take an end image outside, which the check then refuses."""
    y_lo = lo + draw(UNIT) * (hi - lo)
    y_hi = lo + draw(UNIT) * (hi - lo)
    a = (y_hi - y_lo) / (hi - lo)
    return AffineMap(a, y_lo - a * lo)


@st.composite
def tabulated_maps(draw, lo, hi):
    """A monotone step table whose breakpoints reach a little past [lo, hi]."""
    span = hi - lo
    ts = sorted(set(draw(st.lists(st.floats(lo - span / 4, hi + span / 4),
                                  min_size=1, max_size=6))))
    vals = sorted(draw(st.lists(st.floats(lo - span / 8, hi + span / 8),
                                min_size=len(ts), max_size=len(ts))))
    return TabulatedMap(tuple(zip(ts, vals)))


@settings(max_examples=150)
@given(data=st.data(), ends=ENDS, p=st.sampled_from([1.0, 1.5, 2.0, 3.0]),
       tabulated=st.booleans())
def test_interval_scan_matches_checked_reads(data, ends, p, tabulated):
    lo, hi = ends
    assume(lo < hi)
    T = data.draw((tabulated_maps if tabulated else affine_maps)(lo, hi))
    assert_same_as_checked(AnalyticSpace(lo, hi, p), T)


@settings(max_examples=300)
@given(data=st.data(), ends=ENDS, tabulated=st.booleans(),
       inner=st.lists(UNIT, max_size=20))
def test_checked_interval_maps_keep_every_image_inside(data, ends, tabulated, inner):
    lo, hi = ends
    assume(lo < hi)
    space = AnalyticSpace(lo, hi, 1.0)
    T = data.draw((tabulated_maps if tabulated else affine_maps)(lo, hi))
    try:
        validate_operator(space, T)
    except PointOutOfDomain:
        assume(False)
    points = [lo, hi, math.nextafter(lo, hi), math.nextafter(hi, lo),
              *(min(hi, lo + u * (hi - lo)) for u in inner)]
    assert all(space.contains(T.eval(x)) for x in points)
