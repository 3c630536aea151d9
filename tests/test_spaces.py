import math
from fractions import Fraction
from random import Random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gphi.errors import (
    AsymmetricMatrix,
    ConstantTooSmall,
    EmptySequence,
    NegativeEntry,
    NonpositiveRadius,
    NonzeroDiagonal,
    PointOutOfDomain,
    TailLongerThanSequence,
    ZeroOffDiagonal,
)
from gphi.spaces import (
    AnalyticSpace,
    ball_membership,
    check_limit_bounds,
    space_from_json,
    space_to_json,
    validate_finite_space,
)

THREE_POINT = [[0.0, 1.0, 2.0], [1.0, 0.0, 4.0], [2.0, 4.0, 0.0]]


def brute_force_min_constant(matrix):
    """Independent oracle: max ratio d(i,j)/(d(i,k)+d(k,j)) over all ordered triples."""
    n = len(matrix)
    best = Fraction(1)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if len({i, j, k}) < 3:
                    continue
                denom = Fraction(matrix[i][k]) + Fraction(matrix[k][j])
                if denom > 0:
                    best = max(best, Fraction(matrix[i][j]) / denom)
    return best


def symmetric_matrix(rng, n, scale=1.0):
    m = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            m[i][j] = m[j][i] = scale * (1.0 - rng.random())
    return m


class TestValidateFiniteSpace:
    def test_single_point(self):
        assert validate_finite_space([[0.0]]).s == 1.0

    def test_three_point_worked_constant(self):
        # oracle: worst ratio is d(1,2)/(d(1,0)+d(0,2)) = 4/3
        assert brute_force_min_constant(THREE_POINT) == Fraction(4, 3)
        space = validate_finite_space(THREE_POINT)
        assert space.s == 4.0 / 3.0

    def test_ordinary_metric_gives_one(self):
        # collinear points: |i - j| satisfies the plain triangle inequality
        pts = [0.0, 1.0, 2.5, 4.0]
        m = [[abs(a - b) for b in pts] for a in pts]
        assert brute_force_min_constant(m) <= 1
        assert validate_finite_space(m).s == 1.0

    def test_asymmetric_rejected(self):
        with pytest.raises(AsymmetricMatrix):
            validate_finite_space([[0.0, 1.0], [2.0, 0.0]])

    def test_negative_rejected(self):
        with pytest.raises(NegativeEntry):
            validate_finite_space([[0.0, -1.0], [-1.0, 0.0]])

    def test_zero_off_diagonal_rejected(self):
        with pytest.raises(ZeroOffDiagonal):
            validate_finite_space([[0.0, 0.0], [0.0, 0.0]])

    def test_nonzero_diagonal_rejected(self):
        with pytest.raises(NonzeroDiagonal):
            validate_finite_space([[1.0, 1.0], [1.0, 0.0]])

    @given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=2, max_value=7))
    def test_triangle_holds_exhaustively_and_idempotent(self, seed, n):
        m = symmetric_matrix(Random(seed), n)
        space = validate_finite_space(m)
        s = space.s
        assert s >= 1.0
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    assert space.dist[i][j] <= s * (space.dist[i][k] + space.dist[k][j])
        again = validate_finite_space([list(row) for row in space.dist])
        assert again.s == s

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 32 - 1),
           st.integers(min_value=2, max_value=64),
           st.sampled_from(["lognormal", "pareto"]),
           st.floats(min_value=0.3, max_value=3.0))
    def test_constant_minimal_on_heavy_tails(self, seed, n, kind, shape):
        """Every triple is covered at s, and some triple is not at the next
        double below s, unless s == 1.

        Coverage is the float comparison the space promises.  Minimality is
        judged in exact arithmetic against the float sums d(i,k) + d(k,j):
        the ratio pass rounds d/den to nearest, so at nextafter(s, -inf) the
        rounded product can still reach d while the exact one falls short.
        """
        rng = np.random.default_rng(seed)
        if kind == "lognormal":
            v = rng.lognormal(0.0, shape, (n, n))
        else:
            v = rng.pareto(shape, (n, n)) + 1.0
        d = np.triu(v, 1)
        d = d + d.T
        s = validate_finite_space(d.tolist()).s

        den = d[:, :, None] + d[None, :, :]           # den[i, k, j]
        lhs = np.broadcast_to(d[:, None, :], den.shape)
        idx = np.arange(n)
        distinct = ((idx[:, None, None] != idx[None, :, None])
                    & (idx[None, :, None] != idx[None, None, :])
                    & (idx[:, None, None] != idx[None, None, :]))
        assert not np.any((lhs > s * den) & distinct)
        if s == 1.0:
            return
        below = Fraction(math.nextafter(s, -math.inf))
        # an exactly uncovered triple has a rounded ratio of at least `below`
        ratio = np.divide(lhs, den, out=np.zeros_like(den), where=distinct)
        candidates = np.argwhere(ratio >= float(below))
        assert any(Fraction(lhs[i, k, j]) > below * Fraction(den[i, k, j])
                   for i, k, j in candidates)


class TestDistance:
    def test_finite_lookup(self):
        space = validate_finite_space(THREE_POINT)
        assert space.distance(0, 2) == 2.0

    def test_analytic_identity(self):
        space = AnalyticSpace(0.0, 1.0, 2.0)
        assert space.distance(0.5, 0.5) == 0.0

    def test_analytic_endpoints(self):
        space = AnalyticSpace(0.0, 1.0, 2.0)
        assert space.distance(0.0, 1.0) == 1.0

    def test_out_of_domain(self):
        space = validate_finite_space(THREE_POINT)
        with pytest.raises(PointOutOfDomain):
            space.distance(0, 7)
        interval = AnalyticSpace(0.0, 1.0, 1.0)
        with pytest.raises(PointOutOfDomain):
            interval.distance(0.0, 1.5)

    def test_power_distance_s_value(self):
        assert AnalyticSpace(0.0, 1.0, 1.0).s == 1.0
        assert AnalyticSpace(0.0, 1.0, 3.0).s == 4.0

    def test_relaxed_triangle_sampled(self):
        # |x-y|^p <= 2^(p-1) (|x-z|^p + |z-y|^p) on 10^4 random triples
        rng = Random(7)
        for p in (1.0, 1.5, 2.0, 3.0):
            space = AnalyticSpace(0.0, 1.0, p)
            for _ in range(2500):
                x, y, z = rng.random(), rng.random(), rng.random()
                assert space.distance(x, y) <= space.s * (
                    space.distance(x, z) + space.distance(z, y))


class TestBallMembership:
    def test_center_always_inside(self):
        space = validate_finite_space(THREE_POINT)
        assert ball_membership(space, 1, 1e-9, 1)

    def test_strict_boundary(self):
        space = validate_finite_space(THREE_POINT)
        assert not ball_membership(space, 0, 1.0, 1)
        assert ball_membership(space, 0, 1.5, 1)

    def test_nonpositive_radius(self):
        space = validate_finite_space(THREE_POINT)
        with pytest.raises(NonpositiveRadius):
            ball_membership(space, 0, 0.0, 1)


class TestCheckLimitBounds:
    def test_constant_sequence(self):
        space = validate_finite_space(THREE_POINT)
        rep = check_limit_bounds(space, [1] * 20, 1, 2)
        d = space.dist[1][2]
        assert rep.liminf_est == rep.limsup_est == d
        assert rep.lower == d / space.s
        assert rep.upper == space.s * d
        assert rep.holds

    def test_one_over_n_squared_distance(self):
        # x_n = 1/n -> 0 in |.|^2; d(x_n, 1) -> 1 sits inside [1/2, 2]
        space = AnalyticSpace(0.0, 1.0, 2.0)
        seq = [1.0 / n for n in range(1, 400)]
        rep = check_limit_bounds(space, seq, 0.0, 1.0)
        assert rep.lower == 0.5 and rep.upper == 2.0
        assert rep.holds
        assert 0.9 < rep.liminf_est <= rep.limsup_est <= 1.0

    def test_oscillating_sequence_fails(self):
        space = validate_finite_space(THREE_POINT)
        seq = [0, 1] * 30
        rep = check_limit_bounds(space, seq, 0, 1)
        # liminf estimate hits d(1,1) = 0, below d(0,1)/s > 0
        assert not rep.holds

    def test_empty_sequence(self):
        space = validate_finite_space(THREE_POINT)
        with pytest.raises(EmptySequence):
            check_limit_bounds(space, [], 0, 1)

    def test_tail_too_long(self):
        space = validate_finite_space(THREE_POINT)
        with pytest.raises(TailLongerThanSequence):
            check_limit_bounds(space, [0, 1, 0], 0, 1, tail=5)


class TestJson:
    def test_finite_round_trip(self):
        space = validate_finite_space(THREE_POINT)
        again = space_from_json(space_to_json(space))
        assert again == space

    def test_analytic_round_trip(self):
        space = AnalyticSpace(0.0, 1.0, 2.0)
        assert space_from_json(space_to_json(space)) == space

    def test_declared_constant_must_dominate(self):
        doc = {"dist": THREE_POINT, "s": 1.0}
        with pytest.raises(ConstantTooSmall):
            space_from_json(doc)

    def test_declared_nan_constant_refused(self):
        # NaN fails every comparison, so `given < s` let it through
        with pytest.raises(ConstantTooSmall, match="^declared constant nan below"):
            space_from_json({"dist": THREE_POINT, "s": math.nan})

    def test_declared_constant_kept(self):
        doc = {"dist": THREE_POINT, "s": 2.0}
        assert space_from_json(doc).s == 2.0
