import math
from dataclasses import replace
from random import Random

import pytest
from hypothesis import given, strategies as st

from gphi import solver
from gphi.contraction import AffineMap, FiniteMap, certify_condition_G
from gphi.errors import BudgetExhausted, OrbitTooShort, PointOutOfDomain, TailNotSmall
from gphi.gauges import IdentityGauge, LinearPhi
from gphi.harness import generate_operator, generate_space
from gphi.solver import (
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
from test_block_index import OrbitWalk, outcome, walker_m_epsilon

THREE_POINT = validate_finite_space([[0.0, 1.0, 2.0], [1.0, 0.0, 4.0], [2.0, 4.0, 0.0]])
UNIT = AnalyticSpace(0.0, 1.0, 1.0)
UNIT_SQ = AnalyticSpace(0.0, 1.0, 2.0)
TWO_CYCLE_SPACE = validate_finite_space([[0.0, 1.0], [1.0, 0.0]])
SWAP = FiniteMap((1, 0))


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

    def test_json_round_trip(self):
        trace = picard_iterate(THREE_POINT, FiniteMap((0, 0, 1)), 2)
        doc = trace.to_json()
        assert doc["indices"] == [0, 1, 2, 3] and trace_from_json(doc) == trace

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
        (TWO_CYCLE_SPACE, SWAP, 0, {"k_stop": 0}),
        # k_stop is 1 here, which True and 1.0 equal
        (THREE_POINT, FiniteMap((1, 1, 1)), 0, {"k_stop": True}),
        (THREE_POINT, FiniteMap((1, 1, 1)), 0, {"k_stop": 1.0})])
    def test_json_trace_stop_fields_must_agree(self, space, T, x0, changes):
        doc = picard_iterate(space, T, x0).to_json()
        assert trace_from_json(doc) == picard_iterate(space, T, x0)
        doc.update(changes)
        with pytest.raises(ValueError, match="does not fit its stop reason"):
            trace_from_json(doc)

    @pytest.mark.parametrize("space,T,x0,changes", [
        # x0 is orbit[0]
        (THREE_POINT, FiniteMap((0, 0, 1)), 2, {"x0": 1}),
        (UNIT, AffineMap(0.5, 0.0), 1.0, {"x0": 0.5}),
        # a cycle only ends a budget-exhausted run
        (THREE_POINT, FiniteMap((0, 0, 1)), 2, {"cycle": [0]}),
        (UNIT, AffineMap(0.5, 0.0), 1.0, {"cycle": [0.25, 0.5]}),
        # a fixed point is the last orbit point
        (THREE_POINT, FiniteMap((0, 0, 1)), 2, {"fixed_point": 1}),
        (UNIT, AffineMap(0.5, 0.0), 1.0, {"fixed_point": 0.0}),
        (TWO_CYCLE_SPACE, SWAP, 0, {"x0": 1})])
    def test_json_trace_endpoints_must_fit_its_orbit(self, space, T, x0, changes):
        # picard_iterate never writes these, and `gphi report` printed them
        doc = picard_iterate(space, T, x0).to_json()
        assert trace_from_json(doc) == picard_iterate(space, T, x0)
        doc.update(changes)
        with pytest.raises(ValueError, match="x0, fixed point or cycle does not fit its orbit"):
            trace_from_json(doc)

    @pytest.mark.parametrize("space,T,x0,max_iter,changes", [
        # the steps of the orbit 2, 1, 0, 0 are 4.0, 1.0, 0.0: on the first
        # edit, verify_step_chaining(trace, 2, 0.5) gave m0 = 1 for 2
        (THREE_POINT, FiniteMap((0, 0, 1)), 2, 10, {"step_dists": [0.001, 0, 0]}),
        (THREE_POINT, FiniteMap((0, 0, 1)), 2, 10, {"step_dists": [4, 1, 5]}),
        (THREE_POINT, FiniteMap((0, 0, 1)), 2, 10, {"step_dists": [4.0, 1.0, -1.0]}),
        (THREE_POINT, FiniteMap((0, 0, 1)), 2, 10, {"step_dists": [4.0, math.nan, 0.0]}),
        # one ulp off an interval step
        (UNIT_SQ, AffineMap(0.5, 0.0), 1.0, 1, {"step_dists": [math.nextafter(0.25, 1.0)]}),
        # a zero step before the last: the orbit goes on past an exact stop
        (THREE_POINT, FiniteMap((0, 0, 1)), 1, 10,
         {"orbit": [1, 0, 0, 0], "indices": [0, 1, 2, 3], "step_dists": [1.0, 0.0, 0.0],
          "k_stop": 2}),
        # a run that is not an exact stop ends on a zero step
        (THREE_POINT, FiniteMap((0, 0, 1)), 1, 10,
         {"stop_reason": "budget-exhausted", "fixed_point": None, "k_stop": 2}),
        # an exact stop with no zero step, or with no step at all
        (THREE_POINT, FiniteMap((0, 0, 1)), 2, 1,
         {"stop_reason": "exact-fixed-point", "fixed_point": 1, "k_stop": 0}),
        (THREE_POINT, FiniteMap((0, 0, 1)), 0, 10,
         {"orbit": [0], "indices": [0], "step_dists": [], "k_stop": -1})])
    def test_json_trace_steps_must_fit_its_orbit(self, space, T, x0, max_iter, changes):
        doc = picard_iterate(space, T, x0, max_iter=max_iter).to_json()
        assert trace_from_json(doc) == picard_iterate(space, T, x0, max_iter=max_iter)
        doc.update(changes)
        with pytest.raises(ValueError, match="^trace steps do not fit its orbit or stop reason$"):
            trace_from_json(doc)

    @pytest.mark.parametrize("space,T,x0,max_iter,cycle", [
        # the orbit 0, 1, 0 closes the cycle [0, 1]: the cycle is the orbit
        # from the first visit of its last point, as picard_iterate writes it
        (TWO_CYCLE_SPACE, SWAP, 0, 10, [1, 0]),
        (TWO_CYCLE_SPACE, SWAP, 0, 10, [0, 1, 0]),
        (TWO_CYCLE_SPACE, SWAP, 0, 10, [0]),
        (TWO_CYCLE_SPACE, SWAP, 0, 10, []),
        # a budget run that revisits nothing has no cycle
        (THREE_POINT, FiniteMap((0, 0, 1)), 2, 1, [2, 1]),
        (THREE_POINT, FiniteMap((0, 0, 1)), 2, 1, [])])
    def test_json_trace_cycle_must_close_its_orbit(self, space, T, x0, max_iter, cycle):
        trace = picard_iterate(space, T, x0, max_iter=max_iter)
        assert trace.stop_reason == "budget-exhausted"
        doc = trace.to_json()
        assert trace_from_json(doc) == trace
        doc["cycle"] = cycle
        with pytest.raises(ValueError, match="x0, fixed point or cycle does not fit its orbit"):
            trace_from_json(doc)

    def test_start_point_checked_once_by_the_orbit(self):
        with pytest.raises(PointOutOfDomain, match=r"^start point 2\.0 not in interval$"):
            picard_iterate(UNIT, AffineMap(0.5, 0.0), 2.0)
        with pytest.raises(PointOutOfDomain, match=r"^start point 3 not in space$"):
            picard_iterate(THREE_POINT, FiniteMap((0, 0, 1)), 3)


class TestWalkerMatchesTrace:
    """The reference walker and the recorded trace describe the same orbit."""

    @staticmethod
    def _agree(space, T, x0, **kw):
        trace = picard_iterate(space, T, x0, **kw)
        walker = OrbitWalk(space, T, x0)
        for k, x in enumerate(trace.orbit):
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

    @pytest.mark.parametrize("n", [41, 64, 1000])
    def test_interval_ball_reads_the_frozen_point(self, n, monkeypatch):
        # x_k = 2^-k; the step 2^-(k+1) first counts as zero at k = 39, so
        # the orbit freezes at x_40, the trace's fixed point.  Past the
        # freeze the ball's T^n reads x_40, as the walker does, and not the
        # 2^-n that n bare applications of T would give
        T = AffineMap(0.5, 0.0)
        trace, _ = self._agree(UNIT, T, 1.0, tol=0.0)
        assert trace.stop_reason == "exact-fixed-point"
        assert trace.k_stop == 39 and trace.max_index == 40
        seen = []

        def spy(space, center, eps, image_of):
            seen.append((center, image_of(1.0), image_of(0.5)))
            return real(space, center, eps, image_of)

        real = solver._ball_holds
        monkeypatch.setattr(solver, "_ball_holds", spy)
        assert verify_invariant_ball(T, trace, eps=2.0, n=n, m=1)
        assert seen == [(2.0 ** -40, 2.0 ** -40, 2.0 ** -40)]
        assert OrbitWalk(UNIT, T, 1.0).point(n) == OrbitWalk(UNIT, T, 0.5).point(n) == 2.0 ** -40


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
        trace = picard_iterate(UNIT, AffineMap(0.5, 0.0), 1.0)
        assert m_epsilon(trace, n=1, eps=1.0) == 1

    def test_constant_map(self):
        trace = picard_iterate(THREE_POINT, FiniteMap((1, 1, 1)), 0)
        assert m_epsilon(trace, n=2, eps=0.5) == 1

    def test_cycle_is_named(self):
        # the trace ends where the 2-cycle closes, at x_2
        trace = picard_iterate(TWO_CYCLE_SPACE, SWAP, 0)
        with pytest.raises(OrbitTooShort, match=r"cycles through \[0, 1\]"):
            m_epsilon(trace, n=1, eps=0.5, budget=20)

    def test_unsettled_interval_orbit(self):
        # x -> 1 - x swaps 1/4 and 3/4 forever, and an interval orbit closes
        # no cycle, so with odd n every block moves by 1/2: the budget runs
        # out inside the record, and the block x_30 -> x_33 that ends past
        # its last index stops the scan
        trace = picard_iterate(UNIT, AffineMap(-1.0, 1.0), 0.25, max_iter=30, tol=0.0)
        assert trace.max_index == 30 and trace.stop_reason == "budget-exhausted"
        with pytest.raises(BudgetExhausted):
            m_epsilon(trace, n=3, eps=0.5, budget=9)
        with pytest.raises(OrbitTooShort, match="^orbit index 33 not recorded$"):
            m_epsilon(trace, n=3, eps=0.5, budget=10)

    def test_tolerance_stop_ends_the_scan(self):
        # the reference walker scans on past a tolerance stop; the trace
        # ends there, so a block past its last index is not recorded
        T = AffineMap(0.5, 0.0)
        trace = picard_iterate(UNIT, T, 1.0)
        assert trace.stop_reason == "tolerance-met"
        assert m_epsilon(trace, n=2, eps=0.25) == walker_m_epsilon(UNIT, T, 1.0, 2, 0.25, 1.0)
        n = trace.max_index + 1
        assert walker_m_epsilon(UNIT, T, 1.0, n, 0.25, 1.0) == 1
        with pytest.raises(OrbitTooShort, match=f"^orbit index {n} not recorded$"):
            m_epsilon(trace, n=n, eps=0.25)


class TestInvariantBall:
    def test_certified_finite_instance(self):
        T = FiniteMap((0, 0, 1))
        cert = certify_condition_G(THREE_POINT, T, IdentityGauge(), LinearPhi(0.5))
        assert cert.verdict == "certified"
        trace = picard_iterate(THREE_POINT, T, 2)
        # eps0 = 1 for the identity gauge; eps = 1/2, n = 3, m = 1 by scan
        assert verify_invariant_ball(T, trace, eps=0.5, n=3, m=1)

    def test_ball_covering_whole_space(self):
        small = validate_finite_space([[0.0, 0.01, 0.02],
                                       [0.01, 0.0, 0.015],
                                       [0.02, 0.015, 0.0]])
        T = FiniteMap((0, 0, 0))
        trace = picard_iterate(small, T, 2)
        assert verify_invariant_ball(T, trace, eps=0.5, n=1, m=1)

    def test_swap_map_escapes_ball(self):
        trace = picard_iterate(TWO_CYCLE_SPACE, SWAP, 0, max_iter=10)
        assert not verify_invariant_ball(SWAP, trace,
                                         eps=0.5, n=1, m=1)

    def test_orbit_too_short(self):
        trace = picard_iterate(TWO_CYCLE_SPACE, SWAP, 0, max_iter=4)
        with pytest.raises(OrbitTooShort):
            verify_invariant_ball(SWAP, trace, eps=0.5, n=10, m=3)

    def test_analytic_sampled_ball(self):
        T = AffineMap(0.5, 0.25)
        trace = picard_iterate(UNIT, T, 0.0)
        assert verify_invariant_ball(T, trace, eps=0.25, n=2, m=1)


    @pytest.mark.parametrize("space,T,x0", [(THREE_POINT, FiniteMap((0, 0, 1)), 2),
                                            (UNIT, AffineMap(0.5, 0.25), 0.0)])
    @pytest.mark.parametrize("n", [0, -1])
    def test_block_length_below_one(self, space, T, x0, n):
        trace = picard_iterate(space, T, x0)
        with pytest.raises(ValueError, match="n must be at least 1"):
            verify_invariant_ball(T, trace, eps=0.5, n=n, m=1)


class TestPowerImage:
    """T^n by repeated squaring maps each point where the reference orbit walk
    lands."""

    # a 3-cycle, a fixed point with a tail into it, and a 2-cycle
    MIXED = (1, 2, 0, 3, 3, 4, 7, 6)

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_walker(self, seed):
        rng = Random(f"power:{seed}")
        size = len(self.MIXED) if seed == 0 else rng.randint(1, 12)
        mapping = self.MIXED if seed == 0 else [rng.randrange(size) for _ in range(size)]
        space = generate_space(f"power:{seed}:space", size)
        T = FiniteMap(mapping)
        for n in [*range(1, 40), 255, 256, 1037, 65_537, 999_983, 10 ** 6]:
            walked = [OrbitWalk(space, T, u).point(n) for u in space.points]
            assert solver._power_image(T.mapping, n) == walked, n

    def test_mixed_map_holds_cycles_and_fixed_points(self):
        image = solver._power_image(self.MIXED, 10 ** 6)
        # 10^6 = 1 mod 3 and 0 mod 2: the 3-cycle moves one place, the
        # 2-cycle returns home, and the tail has fallen into its fixed point
        assert image == [1, 2, 0, 3, 3, 3, 6, 7]


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
        verify_invariant_ball(T, trace, eps=2.0, n=2, m=1)
        assert len(calls) == 1

    def test_picard_iterate(self, monkeypatch):
        calls = self._count_checks(monkeypatch)
        picard_iterate(THREE_POINT, FiniteMap((0, 0, 1)), 2)
        assert len(calls) == 1

    def test_ball_errors_keep_their_order(self):
        trace = picard_iterate(THREE_POINT, FiniteMap((0, 0, 1)), 2)
        # the centre is checked before the map, and the map before any walk
        with pytest.raises(ValueError, match="map length 2 != 3 points"):
            verify_invariant_ball(FiniteMap((0, 0)), trace, eps=0.5, n=1, m=1)
        with pytest.raises(PointOutOfDomain, match="image of point 2 is 5"):
            verify_invariant_ball(FiniteMap((0, 0, 5)), trace, eps=0.5, n=1, m=1)
        # a trace whose centre x_1 = 1 lies outside its one-point space
        two = replace(picard_iterate(TWO_CYCLE_SPACE, SWAP, 0, max_iter=4),
                      space=validate_finite_space([[0.0]]))
        with pytest.raises(PointOutOfDomain, match="point 1 not in space"):
            verify_invariant_ball(FiniteMap((7,)), two, eps=0.5, n=1, m=1)


class TestStepChaining:
    def test_halving_map_blocks(self):
        # steps d(x_{k+1}, x_k) = 2^-(k+1); threshold 0.1/(2*1) = 0.05 is first
        # cleared from k0 = 4, so m0 = ceil(5/2) = 3
        trace = picard_iterate(UNIT, AffineMap(0.5, 0.0), 1.0)
        m0, holds = verify_step_chaining(trace, n=2, eps=0.1)
        assert m0 == 3
        assert holds

    def test_constant_trace(self):
        trace = picard_iterate(THREE_POINT, FiniteMap((1, 1, 1)), 1)
        m0, holds = verify_step_chaining(trace, n=2, eps=0.5)
        assert m0 == 1
        assert holds

    def test_single_step_blocks_trivial(self):
        trace = picard_iterate(UNIT, AffineMap(0.5, 0.0), 1.0)
        m0, holds = verify_step_chaining(trace, n=1, eps=0.05)
        assert holds

    def test_tail_not_small_on_cycle(self):
        trace = picard_iterate(TWO_CYCLE_SPACE, SWAP, 0, max_iter=12)
        with pytest.raises(TailNotSmall):
            verify_step_chaining(trace, n=2, eps=0.5)

    def test_huge_power_of_constant(self):
        # d = |x-y|^4 has s = 8, and 8**400 overflows a double; the
        # threshold is then 0, so only the zero step after the exact stop
        # qualifies
        trace = picard_iterate(AnalyticSpace(0.0, 1.0, 4.0), AffineMap(0.0, 0.0), 1.0)
        assert trace.space.s == 8.0 and trace.step_dists == (1.0, 0.0)
        m0, holds = verify_step_chaining(trace, n=400, eps=0.5)
        assert (m0, holds) == (1, True)


class TestCauchyBound:
    def test_squared_distance_pipeline(self):
        # d = |x-y|^2 has s = 2, so the bound is 4 * 8 * eps = 32 eps
        T = AffineMap(0.5, 0.0)
        cert = certify_condition_G(UNIT_SQ, T, IdentityGauge(), LinearPhi(0.25))
        assert cert.verdict != "violated"
        trace = picard_iterate(UNIT_SQ, T, 1.0)
        diag = verify_cauchy_bound(trace, IdentityGauge(), LinearPhi(0.25),
                                   eps=0.5)
        assert diag.bound == 32.0 * 0.5
        assert diag.holds

    def test_banach_case_bound(self):
        T = AffineMap(0.5, 0.25)
        trace = picard_iterate(UNIT, T, 0.0)
        diag = verify_cauchy_bound(trace, IdentityGauge(), LinearPhi(0.5),
                                   eps=0.5)
        assert diag.bound == 4.0 * 0.5
        assert diag.holds
        assert diag.m_bar == max(diag.m, diag.m0)

    def test_truncated_trace_raises(self):
        T = AffineMap(0.5, 0.0)
        trace = picard_iterate(UNIT, T, 1.0, max_iter=3, tol=0.0)
        with pytest.raises((OrbitTooShort, TailNotSmall)):
            verify_cauchy_bound(trace, IdentityGauge(), LinearPhi(0.5), eps=0.5)


class TestWholeTraceJson:
    """Trace JSON holds every orbit point, x_k = orbit[k], one point more
    than its steps; ``trace_from_json`` refuses any other shape."""

    @pytest.mark.parametrize("space,T,x0,kw", [
        (THREE_POINT, FiniteMap((0, 0, 1)), 2, {}),                         # exact stop
        (TWO_CYCLE_SPACE, SWAP, 0, {}),                                     # cycle
        (UNIT, AffineMap(0.5, 0.0), 1.0, {}),                               # tolerance
        (UNIT, AffineMap(0.5, 0.0), 1.0, {"tol": 0.0}),                     # exact stop
        (UNIT, AffineMap(-1.0, 1.0), 0.25, {"tol": 0.0, "max_iter": 300}),  # budget
        (UNIT, AffineMap(0.999, 0.0), 1.0, {"tol": 0.0, "max_iter": 5000})])
    def test_round_trip_writes_every_point(self, space, T, x0, kw):
        trace = picard_iterate(space, T, x0, **kw)
        doc = trace.to_json()
        assert len(doc["orbit"]) == len(doc["step_dists"]) + 1 == trace.max_index + 1
        assert doc["indices"] == list(range(len(doc["orbit"])))
        assert trace_from_json(doc) == trace

    def test_truncated_document_is_refused(self):
        # an exact stop at k = 2 whose orbit lacks x_2: once loaded, x_2 read
        # as the fixed point 0.5 although the record moves x_1 -> x_2 by 0.25,
        # and m_epsilon(trace, 1, 0.3) returned 1 from that invented point
        doc = {"space": {"lo": 0.0, "hi": 1.0, "p": 1.0}, "x0": 1.0, "orbit": [1.0, 0.5],
               "indices": [0, 1], "step_dists": [0.5, 0.25, 0.0],
               "stop_reason": "exact-fixed-point", "fixed_point": 0.5, "k_stop": 2,
               "cycle": None}
        with pytest.raises(ValueError, match="do not fit its orbit"):
            trace_from_json(doc)

    def test_gapped_document_is_refused(self):
        # every 4th point and the last one of a 61-point orbit, as a thinned
        # document was written
        doc = picard_iterate(UNIT, AffineMap(0.9, 0.0), 1.0, max_iter=60, tol=0.0).to_json()
        kept = [*range(0, 60, 4), 60]
        doc.update(orbit=[doc["orbit"][k] for k in kept], indices=kept)
        with pytest.raises(ValueError, match="do not fit its orbit"):
            trace_from_json(doc)

    @pytest.mark.parametrize("changes", [
        {"indices": [False, True, 2, 3]},
        {"indices": [0, 1, 2, 3.0]},
        {"step_dists": [4.0, 1.0, False]}])
    def test_boolean_indices_and_steps_are_refused(self, changes):
        # [False, True, 2, 3] == [0, 1, 2, 3], so only a type check tells them apart
        doc = picard_iterate(THREE_POINT, FiniteMap((0, 0, 1)), 2).to_json()
        doc.update(changes)
        with pytest.raises(ValueError, match="wrong type"):
            trace_from_json(doc)

    @pytest.mark.parametrize("space,T,x0,changes", [
        (TWO_CYCLE_SPACE, SWAP, 1, {"x0": True, "orbit": [True, False]}),
        (UNIT, AffineMap(0.5, 0.0), 1.0, {"x0": True, "orbit": [True, 0.5]})])
    def test_boolean_points_are_refused(self, space, T, x0, changes):
        # True == 1 and False == 0, so these passed for the points 1 and 0
        doc = picard_iterate(space, T, x0, max_iter=1).to_json()
        doc.update(changes)
        with pytest.raises(PointOutOfDomain, match="not in space"):
            trace_from_json(doc)
        assert not space.contains(True) and not space.contains(False)

    @pytest.mark.parametrize("lemma,args,short", [
        (m_epsilon, (3, 1e-9, 100), 60),    # no block moves less than 1e-9/2
        (verify_step_chaining, (2, 1.0), 0),  # checks only what the trace records
        (verify_cauchy_bound, (IdentityGauge(), LinearPhi(0.5), 0.5), 5),
        (solver._cauchy_tail, (0.5, 1, 5, 5), 4),
    ], ids=["m_epsilon", "step_chaining", "cauchy_bound", "cauchy_tail"])
    def test_lemma_reads_the_loaded_trace_alike(self, lemma, args, short):
        # every orbit cut from 1 to 60 steps: a lemma gives the same value, or
        # names the same missing index, on the trace and on its loaded JSON;
        # ``short`` cuts end before an index the lemma reads
        missing = 0
        for max_iter in range(1, 61):
            trace = picard_iterate(UNIT, AffineMap(0.9, 0.0), 1.0, max_iter=max_iter, tol=0.0)
            got = outcome(lemma, trace, *args)
            assert outcome(lemma, trace_from_json(trace.to_json()), *args) == got, max_iter
            missing += isinstance(got, tuple) and got[0] == "OrbitTooShort"
        assert missing == short

    def test_ball_names_the_missing_centre(self):
        # the ball at m = 5, n = 1 is centred on x_5
        T = AffineMap(0.9, 0.0)
        cut = trace_from_json(picard_iterate(UNIT, T, 1.0, max_iter=4, tol=0.0).to_json())
        with pytest.raises(OrbitTooShort, match="^orbit index 5 not recorded$"):
            verify_invariant_ball(T, cut, 0.25, 1, 5)
        whole = trace_from_json(picard_iterate(UNIT, T, 1.0, max_iter=5, tol=0.0).to_json())
        assert verify_invariant_ball(T, whole, 0.25, 1, 5) is False


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
