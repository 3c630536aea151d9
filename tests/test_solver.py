from collections import deque

import pytest
from hypothesis import given, strategies as st

from gphi import solver
from gphi.contraction import AffineMap, FiniteMap, certify_condition_G
from gphi.errors import BudgetExhausted, OrbitTooShort, PointOutOfDomain, TailNotSmall
from gphi.gauges import IdentityGauge, LinearPhi
from gphi.harness import generate_operator, generate_space
from gphi.solver import (
    OrbitWalker,
    enumerate_fixed_points,
    m_epsilon,
    picard_iterate,
    trace_from_json,
    verify_cauchy_bound,
    verify_g1_termination,
    verify_invariant_ball,
    verify_step_chaining,
)
from gphi.spaces import AnalyticSpace, check_limit_bounds, validate_finite_space

THREE_POINT = validate_finite_space([[0.0, 1.0, 2.0], [1.0, 0.0, 4.0], [2.0, 4.0, 0.0]])
UNIT = AnalyticSpace(0.0, 1.0, 1.0)
UNIT_SQ = AnalyticSpace(0.0, 1.0, 2.0)
TWO_CYCLE_SPACE = validate_finite_space([[0.0, 1.0], [1.0, 0.0]])
SWAP = FiniteMap((1, 0))


class _ReferenceRecorder:
    """The incremental orbit thinning that picard_iterate once used: a
    strided head that doubles its stride when full, plus a full tail window.
    The kept indices of a trace must equal what this selects."""

    def __init__(self, cap: int, tail: int):
        self.tail = deque(maxlen=tail)
        self.head = []
        self.head_cap = max(cap - tail, 16)
        self.stride = 1

    def add(self, idx, pt):
        self.tail.append((idx, pt))
        if idx % self.stride == 0:
            self.head.append((idx, pt))
            if len(self.head) > self.head_cap:
                self.stride *= 2
                self.head = [e for e in self.head if e[0] % self.stride == 0]

    def merged(self):
        combined = dict(self.head)
        combined.update(dict(self.tail))
        return sorted(combined.items())


class TestPicardIterate:
    def test_worked_finite_orbit(self):
        trace = picard_iterate(THREE_POINT, FiniteMap((0, 0, 1)), 2)
        assert trace.orbit == (2, 1, 0, 0)
        assert trace.step_dists == (4.0, 1.0, 0.0)
        assert trace.stop_reason == "exact-fixed-point"
        assert trace.k_stop == 2
        assert trace.fixed_point == 0

    def test_affine_orbit_prefix(self):
        # closed form x_k = (1 - 2^-k) / 2: 0, 0.25, 0.375, 0.4375, ...
        trace = picard_iterate(UNIT, AffineMap(0.5, 0.25), 0.0)
        assert trace.orbit[:4] == (0.0, 0.25, 0.375, 0.4375)
        assert abs(trace.fixed_point - 0.5) < 1e-10
        assert trace.k_stop <= 40

    def test_identity_stops_immediately(self):
        trace = picard_iterate(THREE_POINT, FiniteMap((0, 1, 2)), 1)
        assert trace.stop_reason == "exact-fixed-point"
        assert trace.k_stop == 0
        assert trace.fixed_point == 1
        assert trace.orbit == (1, 1)

    def test_two_cycle_annotated(self):
        trace = picard_iterate(TWO_CYCLE_SPACE, SWAP, 0, max_iter=50)
        assert trace.stop_reason == "budget-exhausted"
        assert trace.cycle is not None
        assert set(trace.cycle) == {0, 1}

    def test_deterministic_rerun(self):
        a = picard_iterate(UNIT, AffineMap(0.5, 0.25), 0.0)
        b = picard_iterate(UNIT, AffineMap(0.5, 0.25), 0.0)
        assert a == b

    def test_orbit_consistency_invariant(self):
        from gphi.contraction import apply
        trace = picard_iterate(THREE_POINT, FiniteMap((0, 0, 1)), 2)
        for j in range(len(trace.orbit) - 1):
            assert trace.orbit[j + 1] == apply(FiniteMap((0, 0, 1)), THREE_POINT,
                                               trace.orbit[j])
            assert trace.step_dists[j] == THREE_POINT.distance(
                trace.orbit[j], trace.orbit[j + 1])

    def test_record_cap_thins_head_keeps_tail(self):
        trace = picard_iterate(UNIT, AffineMap(0.999, 0.0), 1.0,
                               max_iter=300, tol=0.0, record_cap=50, tail_window=10)
        assert trace.stop_reason == "budget-exhausted"
        assert len(trace.step_dists) == 300            # steps keep every iteration
        assert len(trace.orbit) <= 60
        assert list(trace.indices) == sorted(set(trace.indices))
        assert trace.indices[-1] == 300                # tail window intact

    @pytest.mark.parametrize("record_cap", [16, 50, 60, 100])
    @pytest.mark.parametrize("tail_window", [0, 1, 10, 40])
    def test_thinning_matches_reference_recorder(self, record_cap, tail_window):
        # a swap of 0.25 and 0.75 never settles, so every run ends on budget
        for max_iter in (1, 2, 7, 15, 16, 17, 31, 50, 64, 99, 100, 101, 128,
                         255, 256, 257, 333, 400):
            trace = picard_iterate(UNIT, AffineMap(-1.0, 1.0), 0.25, tol=0.0,
                                   max_iter=max_iter, record_cap=record_cap,
                                   tail_window=tail_window)
            rec = _ReferenceRecorder(record_cap, tail_window)
            for k in range(max_iter + 1):
                rec.add(k, 0.25 if k % 2 == 0 else 0.75)
            kept = rec.merged()
            assert trace.indices == tuple(i for i, _ in kept), max_iter
            assert trace.orbit == tuple(p for _, p in kept), max_iter

    def test_negative_tail_window_rejected(self):
        with pytest.raises(ValueError):
            picard_iterate(UNIT, AffineMap(0.5, 0.0), 1.0, tail_window=-1)

    def test_json_round_trip(self):
        trace = picard_iterate(THREE_POINT, FiniteMap((0, 0, 1)), 2)
        again = trace_from_json(trace.to_json())
        assert again == trace

    @pytest.mark.parametrize("key,value", [
        ("x0", 3), ("orbit", [4, 4, 4]), ("fixed_point", -1), ("cycle", [0, 5]),
        ("x0", 1.0)])
    def test_json_points_outside_the_space(self, key, value):
        # the lemma checks read the loaded points unchecked: on an orbit of 4s
        # a step chaining on three points would pass
        doc = picard_iterate(THREE_POINT, FiniteMap((0, 0, 1)), 2).to_json()
        doc[key] = value
        with pytest.raises(PointOutOfDomain, match="not in space"):
            trace_from_json(doc)

    def test_json_interval_points_outside_the_space(self):
        doc = picard_iterate(UNIT, AffineMap(0.5, 0.0), 1.0).to_json()
        assert trace_from_json(doc).x0 == 1.0
        doc["orbit"][1] = 2.0
        with pytest.raises(PointOutOfDomain):
            trace_from_json(doc)

    @pytest.mark.parametrize("changes", [
        {"indices": [0, 1, 2, 3, 4, 5], "orbit": [2, 1]},
        {"indices": [0, 1, 2]},
        {"indices": [1, 2, 3, 4]},
        {"indices": [0, 2, 1, 3]},
        {"indices": [0, 1, 1, 3]},
        {"indices": [0, 1, 2, 4]},
        {"indices": [], "orbit": []},
        {"stop_reason": "converged"}])
    def test_json_trace_shape_must_fit_its_orbit(self, changes):
        # the lemma checks index the orbit and the steps through these
        # indices; a trace that does not fit would crash them with IndexError
        doc = picard_iterate(THREE_POINT, FiniteMap((0, 0, 1)), 2).to_json()
        doc.update(changes)
        with pytest.raises(ValueError, match="do not fit its orbit"):
            trace_from_json(doc)

    @pytest.mark.parametrize("space,T,x0,changes", [
        # an exact stop with no fixed point sent None into the lemma checks
        (THREE_POINT, FiniteMap((0, 0, 1)), 2, {"fixed_point": None}),
        (THREE_POINT, FiniteMap((0, 0, 1)), 2, {"k_stop": 99}),
        (THREE_POINT, FiniteMap((0, 0, 1)), 2, {"k_stop": 3}),
        (THREE_POINT, FiniteMap((0, 0, 1)), 2, {"stop_reason": "tolerance-met"}),
        (THREE_POINT, FiniteMap((0, 0, 1)), 2,
         {"stop_reason": "budget-exhausted", "k_stop": 3}),
        (UNIT, AffineMap(0.5, 0.0), 1.0, {"stop_reason": "budget-exhausted"}),
        (UNIT, AffineMap(0.5, 0.0), 1.0, {"fixed_point": None}),
        (UNIT, AffineMap(0.5, 0.0), 1.0, {"k_stop": 35}),
        (TWO_CYCLE_SPACE, SWAP, 0, {"fixed_point": 0}),
        (TWO_CYCLE_SPACE, SWAP, 0, {"k_stop": 0})])
    def test_json_trace_stop_fields_must_agree(self, space, T, x0, changes):
        doc = picard_iterate(space, T, x0).to_json()
        assert trace_from_json(doc) == picard_iterate(space, T, x0)
        doc.update(changes)
        with pytest.raises(ValueError, match="does not fit its stop reason"):
            trace_from_json(doc)

    def test_start_point_checked_once_by_the_orbit(self):
        with pytest.raises(PointOutOfDomain, match=r"^start point 2\.0 not in interval$"):
            picard_iterate(UNIT, AffineMap(0.5, 0.0), 2.0)
        with pytest.raises(PointOutOfDomain, match=r"^start point 3 not in space$"):
            picard_iterate(THREE_POINT, FiniteMap((0, 0, 1)), 3)


class TestWalkerMatchesTrace:
    """The lazy walker and the recorded trace describe the same orbit."""

    @staticmethod
    def _agree(space, T, x0, **kw):
        trace = picard_iterate(space, T, x0, **kw)
        walker = OrbitWalker(space, T, x0)
        for k, x in zip(trace.indices, trace.orbit):
            assert walker.point(k) == x, k
        return trace, walker

    def test_finite_two_cycle_wraps(self):
        trace, walker = self._agree(TWO_CYCLE_SPACE, SWAP, 0)
        assert trace.cycle == (0, 1)
        for k in range(12):
            assert walker.point(k) == trace.cycle[k % 2]

    @pytest.mark.parametrize("seed", range(12))
    def test_finite_random_orbits(self, seed):
        # seven of these twelve orbits stop exactly, five close a cycle
        space = generate_space(f"walk:{seed}", 6)
        T = generate_operator(f"walk:{seed}:op", space, True)
        trace, walker = self._agree(space, T, seed % 6)
        if trace.stop_reason == "exact-fixed-point":
            for k in range(trace.k_stop + 8):
                assert walker.point(k) == trace.point_at(k)

    def test_interval_halving_across_freeze(self):
        # x_k = 2^-k; the step 2^-(k+1) first counts as zero at k = 39, so
        # the orbit freezes at x_40, the trace's fixed point
        trace, walker = self._agree(UNIT, AffineMap(0.5, 0.0), 1.0, tol=0.0)
        assert trace.stop_reason == "exact-fixed-point"
        assert trace.k_stop == 39 and trace.max_index == 40
        for k in range(trace.k_stop + 8):
            assert walker.point(k) == trace.point_at(k) == 2.0 ** -min(k, 40)


class TestEnumerateFixedPoints:
    def test_single(self):
        assert enumerate_fixed_points(THREE_POINT, FiniteMap((0, 0, 1))) == {0}

    def test_identity(self):
        assert enumerate_fixed_points(THREE_POINT, FiniteMap((0, 1, 2))) == {0, 1, 2}

    def test_transposition(self):
        assert enumerate_fixed_points(THREE_POINT, FiniteMap((1, 0, 2))) == {2}


class TestG1Termination:
    def test_exact_stop_passes(self):
        trace = picard_iterate(THREE_POINT, FiniteMap((0, 0, 1)), 2)
        assert verify_g1_termination(trace)

    def test_budget_stop_fails(self):
        trace = picard_iterate(TWO_CYCLE_SPACE, SWAP, 0, max_iter=10)
        assert not verify_g1_termination(trace)

    def test_constant_map(self):
        trace = picard_iterate(THREE_POINT, FiniteMap((1, 1, 1)), 0)
        assert verify_g1_termination(trace)
        assert trace.k_stop <= 1


class TestMEpsilon:
    def test_halving_map(self):
        # orbit 1, 1/2, 1/4, ...: d(x_2, x_1) = 1/4 < 1/2 already at m = 1
        assert m_epsilon(UNIT, AffineMap(0.5, 0.0), 1.0, n=1, eps=1.0, s=1.0) == 1

    def test_constant_map(self):
        space = THREE_POINT
        assert m_epsilon(space, FiniteMap((1, 1, 1)), 0, n=2, eps=0.5, s=space.s) == 1

    def test_budget_exhausted_on_cycle(self):
        with pytest.raises(BudgetExhausted):
            m_epsilon(TWO_CYCLE_SPACE, SWAP, 0, n=1, eps=0.5, s=1.0, budget=20)

    def test_walk_cap_on_unsettled_interval_orbit(self, monkeypatch):
        # x -> 1 - x swaps 1/4 and 3/4 forever, and an interval orbit closes
        # no cycle, so with odd n every block moves by 1/2 until the walk cap
        monkeypatch.setattr(solver, "WALK_CAP_DEFAULT", 100)
        with pytest.raises(OrbitTooShort):
            m_epsilon(UNIT, AffineMap(-1.0, 1.0), 0.25, n=3, eps=0.5, s=1.0)

    def test_matches_trace_based_scan(self):
        from gphi.solver import _m_epsilon_on_trace
        trace = picard_iterate(UNIT, AffineMap(0.5, 0.0), 1.0)
        direct = m_epsilon(UNIT, AffineMap(0.5, 0.0), 1.0, n=2, eps=0.25, s=1.0)
        assert direct == _m_epsilon_on_trace(trace, 2, 0.25, 1.0, 10_000)


class TestInvariantBall:
    def test_certified_finite_instance(self):
        T = FiniteMap((0, 0, 1))
        cert = certify_condition_G(THREE_POINT, T, IdentityGauge(), LinearPhi(0.5))
        assert cert.verdict == "certified"
        trace = picard_iterate(THREE_POINT, T, 2)
        # eps0 = 1 for the identity gauge; eps = 1/2, n = 3, m = 1 by scan
        assert verify_invariant_ball(THREE_POINT, T, trace, eps=0.5, n=3, m=1)

    def test_ball_covering_whole_space(self):
        small = validate_finite_space([[0.0, 0.01, 0.02],
                                       [0.01, 0.0, 0.015],
                                       [0.02, 0.015, 0.0]])
        T = FiniteMap((0, 0, 0))
        trace = picard_iterate(small, T, 2)
        assert verify_invariant_ball(small, T, trace, eps=0.5, n=1, m=1)

    def test_swap_map_escapes_ball(self):
        trace = picard_iterate(TWO_CYCLE_SPACE, SWAP, 0, max_iter=10)
        assert not verify_invariant_ball(TWO_CYCLE_SPACE, SWAP, trace,
                                         eps=0.5, n=1, m=1)

    def test_orbit_too_short(self):
        trace = picard_iterate(TWO_CYCLE_SPACE, SWAP, 0, max_iter=4)
        with pytest.raises(OrbitTooShort):
            verify_invariant_ball(TWO_CYCLE_SPACE, SWAP, trace, eps=0.5, n=10, m=3)

    def test_analytic_sampled_ball(self):
        T = AffineMap(0.5, 0.25)
        trace = picard_iterate(UNIT, T, 0.0)
        assert verify_invariant_ball(UNIT, T, trace, eps=0.25, n=2, m=1)


class TestMapCheckedOnce:
    """T is checked once per call, not once per orbit the call walks."""

    @staticmethod
    def _count_checks(monkeypatch):
        import gphi.solver as solver
        calls = []
        real = solver.validate_operator

        def counted(space, T):
            calls.append(T)
            return real(space, T)

        monkeypatch.setattr(solver, "validate_operator", counted)
        return calls

    def test_invariant_ball(self, monkeypatch):
        space = generate_space("ball-once", 7)
        T = generate_operator("ball-once:op", space, True)
        trace = picard_iterate(space, T, 0)
        calls = self._count_checks(monkeypatch)
        # every point is within 2 of the centre, so all 7 are candidates
        verify_invariant_ball(space, T, trace, eps=2.0, n=2, m=1)
        assert len(calls) == 1

    def test_picard_iterate(self, monkeypatch):
        calls = self._count_checks(monkeypatch)
        picard_iterate(THREE_POINT, FiniteMap((0, 0, 1)), 2)
        assert len(calls) == 1

    def test_ball_errors_keep_their_order(self):
        trace = picard_iterate(THREE_POINT, FiniteMap((0, 0, 1)), 2)
        # the centre is checked before the map, and the map before any walk
        with pytest.raises(ValueError, match="map length 2 != 3 points"):
            verify_invariant_ball(THREE_POINT, FiniteMap((0, 0)), trace,
                                  eps=0.5, n=1, m=1)
        with pytest.raises(PointOutOfDomain, match="image of point 2 is 5"):
            verify_invariant_ball(THREE_POINT, FiniteMap((0, 0, 5)), trace,
                                  eps=0.5, n=1, m=1)
        two = picard_iterate(TWO_CYCLE_SPACE, SWAP, 0, max_iter=4)
        with pytest.raises(PointOutOfDomain, match="point 1 not in space"):
            verify_invariant_ball(validate_finite_space([[0.0]]), FiniteMap((7,)),
                                  two, eps=0.5, n=1, m=1)


class TestStepChaining:
    def test_halving_map_blocks(self):
        # steps d(x_{k+1}, x_k) = 2^-(k+1); threshold 0.1/(2*1) = 0.05 is first
        # cleared from k0 = 4, so m0 = ceil(5/2) = 3
        trace = picard_iterate(UNIT, AffineMap(0.5, 0.0), 1.0)
        m0, holds = verify_step_chaining(trace, n=2, eps=0.1, s=1.0)
        assert m0 == 3
        assert holds

    def test_constant_trace(self):
        trace = picard_iterate(THREE_POINT, FiniteMap((1, 1, 1)), 1)
        m0, holds = verify_step_chaining(trace, n=2, eps=0.5, s=THREE_POINT.s)
        assert m0 == 1
        assert holds

    def test_single_step_blocks_trivial(self):
        trace = picard_iterate(UNIT, AffineMap(0.5, 0.0), 1.0)
        m0, holds = verify_step_chaining(trace, n=1, eps=0.05, s=1.0)
        assert holds

    def test_tail_not_small_on_cycle(self):
        trace = picard_iterate(TWO_CYCLE_SPACE, SWAP, 0, max_iter=12)
        with pytest.raises(TailNotSmall):
            verify_step_chaining(trace, n=2, eps=0.5, s=1.0)

    def test_huge_power_of_constant(self):
        # 8**400 overflows a double; the threshold is then 0, so only the
        # zero step after the exact stop qualifies
        trace = picard_iterate(TWO_CYCLE_SPACE, FiniteMap((0, 0)), 1)
        assert trace.step_dists == (1.0, 0.0)
        m0, holds = verify_step_chaining(trace, n=400, eps=0.5, s=8.0)
        assert (m0, holds) == (1, True)


class TestCauchyBound:
    def test_squared_distance_pipeline(self):
        # d = |x-y|^2 has s = 2, so the bound is 4 * 8 * eps = 32 eps
        T = AffineMap(0.5, 0.0)
        cert = certify_condition_G(UNIT_SQ, T, IdentityGauge(), LinearPhi(0.25))
        assert cert.verdict != "violated"
        trace = picard_iterate(UNIT_SQ, T, 1.0)
        diag = verify_cauchy_bound(UNIT_SQ, trace, IdentityGauge(), LinearPhi(0.25),
                                   eps=0.5)
        assert diag.bound == 32.0 * 0.5
        assert diag.holds

    def test_banach_case_bound(self):
        T = AffineMap(0.5, 0.25)
        trace = picard_iterate(UNIT, T, 0.0)
        diag = verify_cauchy_bound(UNIT, trace, IdentityGauge(), LinearPhi(0.5),
                                   eps=0.5)
        assert diag.bound == 4.0 * 0.5
        assert diag.holds
        assert diag.m_bar == max(diag.m, diag.m0)

    def test_truncated_trace_raises(self):
        T = AffineMap(0.5, 0.0)
        trace = picard_iterate(UNIT, T, 1.0, max_iter=3, tol=0.0)
        with pytest.raises((OrbitTooShort, TailNotSmall)):
            verify_cauchy_bound(UNIT, trace, IdentityGauge(), LinearPhi(0.5), eps=0.5)

    def test_pipeline_survives_thinned_trace(self):
        # stride gaps in the recorded head must be skipped, not fatal
        T = AffineMap(0.98, 0.0)
        trace = picard_iterate(UNIT, T, 1.0, max_iter=2000, tol=1e-14,
                               record_cap=60, tail_window=15)
        assert trace.stop_reason == "exact-fixed-point"
        diag = verify_cauchy_bound(UNIT, trace, IdentityGauge(), LinearPhi(0.98),
                                   eps=0.25, n_budget=10 ** 6)
        assert diag.holds
        assert verify_invariant_ball(UNIT, T, trace, 0.25, diag.n, diag.m)


class TestLimitBoundsOnSolverOrbits:
    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
    def test_convergent_orbits_respect_bounds(self, p):
        space = AnalyticSpace(0.0, 1.0, p)
        T = AffineMap(0.6, 0.1)
        trace = picard_iterate(space, T, 0.95, max_iter=5000, tol=1e-13)
        assert trace.stop_reason == "exact-fixed-point"
        for y_star in (0.0, 0.3, 0.9):
            rep = check_limit_bounds(space, trace.orbit, trace.fixed_point, y_star)
            assert rep.holds


class TestFuzzGeneratedInstances:
    @given(st.integers(min_value=0, max_value=400))
    def test_certified_instances_converge_from_every_start(self, seed):
        space = generate_space(f"solver:{seed}", 2 + seed % 7)
        T = generate_operator(f"solver-op:{seed}", space, bias_contractive=True)
        cert = certify_condition_G(space, T, IdentityGauge(), LinearPhi(0.9))
        if cert.verdict != "certified":
            return
        fps = enumerate_fixed_points(space, T)
        assert len(fps) == 1
        fp = next(iter(fps))
        for x0 in space.points:
            trace = picard_iterate(space, T, x0, max_iter=64)
            assert trace.stop_reason == "exact-fixed-point"
            assert trace.fixed_point == fp
