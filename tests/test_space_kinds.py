"""What each kind of space decides, asked of the space rather than of its class.

``FiniteSpace`` and ``AnalyticSpace`` each state their ``kind``, the noun of
their refusals, how a point written as text is read, the distance of member
points, the candidates of a ball and the diameter of member points.  These
tests pin each of those against a brute-force reading of the checked
``distance``, and the float-range edges of an interval: a numpy point
compared in its own precision, a span past the float range and a distance
whose difference overflows.  The CLI reads ``--x0`` through the space, so a
negative start point in any float spelling reaches it.
"""

import math
import re
from random import Random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gphi.cli import run_cli
from gphi.contraction import (
    _GOLDEN,
    _R2_A1,
    _R2_A2,
    AffineMap,
    _sample_pairs,
    certify_condition_G,
)
from gphi.gauges import IdentityGauge, LinearPhi
from gphi.spaces import AnalyticSpace, validate_finite_space
from test_cli import ANALYTIC_INSTANCE, THREE_POINT_INSTANCE, write

EXPONENTS = st.sampled_from([1.0, 1.5, 2.0, 3.0])
COORDS = st.floats(-1e6, 1e6)


@st.composite
def finite_spaces(draw):
    n = draw(st.integers(1, 9))
    rng = Random(draw(st.integers(0, 10 ** 6)))
    m = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            m[i][j] = m[j][i] = 1.0 - rng.random()
    return validate_finite_space(m)


@st.composite
def intervals(draw):
    lo, hi = sorted(draw(st.lists(COORDS, min_size=2, max_size=2, unique=True)))
    return AnalyticSpace(lo, hi, draw(EXPONENTS))


@st.composite
def member_points(draw, space):
    """A non-empty list of points of the space, repeats allowed."""
    if space.kind == "finite":
        point = st.integers(0, space.n - 1)
    else:
        point = st.floats(space.lo, space.hi)
    return draw(st.lists(point, min_size=1, max_size=12))


SPACES = st.one_of(finite_spaces(), intervals())


class TestKindMethods:
    @given(data=st.data(), space=SPACES)
    def test_diameter_is_the_largest_pairwise_distance(self, data, space):
        points = data.draw(member_points(space))
        points += data.draw(st.lists(st.sampled_from(points), max_size=4))   # repeats
        brute = max(space.distance(x, y) for x in points for y in points)
        assert space._diameter(points) == brute

    @given(data=st.data(), space=SPACES)
    def test_one_point_has_diameter_zero(self, data, space):
        x = data.draw(member_points(space))[0]
        assert space._diameter([x]) == 0.0
        assert space._diameter([x, x, x]) == 0.0

    @given(data=st.data(), space=finite_spaces(), eps=st.floats(1e-3, 2.0))
    def test_finite_ball_is_every_point_closer_than_eps(self, data, space, eps):
        center = data.draw(st.integers(0, space.n - 1))
        if space.n > 1 and data.draw(st.booleans()):    # eps on a distance: the ball is open
            eps = data.draw(st.sampled_from([d for d in space.dist[center] if d > 0.0]))
        assert list(space._ball(center, eps)) == [
            u for u in space.points if space.distance(center, u) < eps]

    @given(data=st.data(), space=SPACES)
    def test_unchecked_distance_is_distance_on_members(self, data, space):
        points = data.draw(member_points(space))
        for x in points:
            for y in points:
                assert space._unchecked_distance(x, y) == space.distance(x, y)

    def test_parse_point_reads_by_kind(self):
        finite = validate_finite_space(THREE_POINT_INSTANCE["space"]["dist"])
        assert (finite.kind, finite.noun, finite.parse_point("2")) == ("finite", "space", 2)
        with pytest.raises(ValueError) as expected:
            int("1.0")
        with pytest.raises(ValueError, match=f"^{re.escape(str(expected.value))}$"):
            finite.parse_point("1.0")
        interval = AnalyticSpace(0.0, 1.0, 2.0)
        assert (interval.kind, interval.noun) == ("interval", "interval")
        assert interval.parse_point("-1e-1") == -0.1


class TestIntervalFloatEdges:
    def test_numpy_float32_is_compared_as_float64(self):
        space = AnalyticSpace(0.0, 0.1, 1.0)
        assert float(np.float32(0.1)) > 0.1
        assert not space.contains(np.float32(0.1))
        assert space.contains(np.float32(0.05))
        assert space.contains(np.float64(0.1))

    def test_int_past_the_float_range_is_refused_without_overflow(self):
        space = AnalyticSpace(-1e308, 1e308, 1.0)
        assert not space.contains(10 ** 400)
        assert not space.contains(-10 ** 400)
        assert space.contains(10 ** 300)

    def test_overflowing_difference_names_both_points_and_p(self):
        space = AnalyticSpace(-1e308, 1e308, 1.0)
        with pytest.raises(OverflowError,
                           match=r"^\|-1e\+308 - 1e\+308\| \*\* 1\.0 overflows the float range$"):
            space.distance(-1e308, 1e308)

    def test_wide_interval_gets_the_documented_refusal(self):
        space = AnalyticSpace(-1e308, 1e308, 1.0)
        with pytest.raises(OverflowError, match=r"^\|\S+ - \S+\| \*\* 1\.0 overflows"):
            certify_condition_G(space, AffineMap(0.5, 0.0), IdentityGauge(), LinearPhi(0.9))

    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_wide_interval_samples_lie_inside(self, seed):
        space = AnalyticSpace(-1.7e308, 1.7e308, 2.0)
        pairs = list(_sample_pairs(space, seed, 4096))
        assert all(space.contains(x) and space.contains(y) for x, y in pairs)
        assert min(min(p) for p in pairs) < -1e308 and max(max(p) for p in pairs) > 1e308

    @given(lo=COORDS, width=st.floats(1e-9, 1e6), seed=st.integers(0, 50))
    def test_samples_keep_their_points_where_the_span_is_finite(self, lo, width, seed):
        space = AnalyticSpace(lo, lo + width, 1.0)
        assert space.hi - space.lo < math.inf
        u = (0.5 + seed * _GOLDEN) % 1.0
        v = (0.25 + seed * _GOLDEN * _GOLDEN) % 1.0
        span = space.hi - space.lo
        for x, y in _sample_pairs(space, seed, 64):
            u = (u + _R2_A1) % 1.0
            v = (v + _R2_A2) % 1.0
            assert (x, y) == (space.lo + u * span, space.lo + v * span)


class TestCliEdges:
    @pytest.mark.parametrize("x0", [["--x0", "-1e-1"], ["--x0=-1e-1"], ["--x0", "-1E-1"],
                                    ["--x0", "-0.1"]])
    def test_negative_start_point_reaches_the_space(self, tmp_path, capsys, x0):
        unit = write(tmp_path, "unit.json", ANALYTIC_INSTANCE)
        assert run_cli(["solve", unit, *x0]) == 1
        assert capsys.readouterr().err == (
            "error: PointOutOfDomain: start point -0.1 not in interval\n")
        wide = write(tmp_path, "wide.json", dict(ANALYTIC_INSTANCE, space={
            "lo": -1.0, "hi": 1.0, "p": 1.0}))
        assert run_cli(["solve", wide, *x0]) == 0
        assert '"x0": -0.1' in capsys.readouterr().out

    def test_negative_infinity_is_a_start_point(self, tmp_path, capsys):
        unit = write(tmp_path, "unit.json", ANALYTIC_INSTANCE)
        assert run_cli(["solve", unit, "--x0", "-inf"]) == 1
        assert capsys.readouterr().err == (
            "error: PointOutOfDomain: start point -inf not in interval\n")

    @pytest.mark.parametrize("tail", [["--x0", "-x"], ["--x0"], ["--x0", "--eps", "1"]])
    def test_other_usage_errors_are_unchanged(self, tmp_path, capsys, tail):
        unit = write(tmp_path, "unit.json", ANALYTIC_INSTANCE)
        assert run_cli(["solve", unit, *tail]) == 2
        assert capsys.readouterr().err.endswith(
            "gphi solve: error: argument --x0: expected one argument\n")

    def test_wide_interval_certify_names_the_overflow(self, tmp_path, capsys):
        doc = dict(ANALYTIC_INSTANCE, space={"lo": -1e308, "hi": 1e308, "p": 1.0},
                   operator={"affine": {"a": 0.5, "b": 0.0}})
        assert run_cli(["certify", write(tmp_path, "wide.json", doc)]) == 1
        assert re.fullmatch(r"error: OverflowError: \|\S+ - \S+\| \*\* 1\.0 overflows "
                            r"the float range\n", capsys.readouterr().err)

    def test_report_prints_the_space_kind(self, tmp_path, capsys):
        unit = write(tmp_path, "unit.json", ANALYTIC_INSTANCE)
        assert run_cli(["solve", unit, "--x0", "0.5"]) == 0
        trace = write(tmp_path, "trace.json", capsys.readouterr().out)
        assert run_cli(["report", trace]) == 0
        assert capsys.readouterr().out.startswith("space: interval, constant s = 1.0\n")
