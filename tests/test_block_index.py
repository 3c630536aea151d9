"""The one block-index scan against the two scans it replaced.

``_block_index`` serves both ``m_epsilon`` (on a lazy orbit walk) and
``verify_cauchy_bound`` (on a recorded trace).  The references below are
the two scans it replaced, kept verbatim apart from reading the walk cap
from ``solver.WALK_CAP``: the walker scan behind ``m_epsilon`` and the
trace scan that skipped block indices a thinned trace lacks.  Every case
must give the same m, or the same exception type and message.
"""

import math

import pytest

from gphi import solver
from gphi.contraction import AffineMap, FiniteMap, validate_operator
from gphi.errors import (
    BudgetExhausted,
    GphiError,
    NonpositiveRadius,
    OrbitTooShort,
    PointOutOfDomain,
)
from gphi.harness import generate_operator, generate_space
from gphi.solver import PicardTrace, _block_index, m_epsilon, picard_iterate
from gphi.spaces import AnalyticSpace, FiniteSpace, validate_finite_space

UNIT = AnalyticSpace(0.0, 1.0, 1.0)
UNIT_SQ = AnalyticSpace(0.0, 1.0, 2.0)
THREE = validate_finite_space([[0.0, 1.0, 2.0], [1.0, 0.0, 4.0], [2.0, 4.0, 0.0]])
TWO = validate_finite_space([[0.0, 1.0], [1.0, 0.0]])
SWAP = AffineMap(-1.0, 1.0)             # 1/4 <-> 3/4 forever on the interval
WALK_BUDGETS = (1, 2, 3, 4, 5, 7, 10, 20, 60)


# --- the replaced scans ---------------------------------------------------------

class _ParentWalk:
    def __init__(self, steps, x0):
        self.steps = steps
        self.pts = [x0]
        self.repeat = None

    def point(self, k: int):
        while len(self.pts) <= k and self.repeat is None:
            xn, _, frozen, cycle = next(self.steps)
            self.pts.append(xn)
            last = len(self.pts) - 1
            if frozen:
                self.repeat = (last, 1)
            elif cycle is not None:
                self.repeat = (last - len(cycle), len(cycle))
            elif len(self.pts) > solver.WALK_CAP:
                raise OrbitTooShort(
                    f"orbit walk exceeded {solver.WALK_CAP} steps without settling")
        if k < len(self.pts):
            return self.pts[k]
        start, period = self.repeat
        return self.pts[start + (k - start) % period]


class _ParentOrbitWalker(_ParentWalk):
    def __init__(self, space, T, x0):
        if isinstance(space, FiniteSpace):
            validate_operator(space, T)
        super().__init__(solver._orbit(space, T, x0), x0)


def parent_m_epsilon(space, T, x0, n, eps, s, budget=10_000):
    if n < 1:
        raise ValueError("n must be at least 1")
    if not eps > 0.0:
        raise NonpositiveRadius("eps must be positive")
    thr = eps / (2.0 * s)
    walker = _ParentOrbitWalker(space, T, x0)
    distance = solver._point_distance(space, ())     # the walker checks T and x0
    for m in range(1, budget + 1):
        a = walker.point(m * n)
        b = walker.point((m + 1) * n)
        d = distance(b, a)
        if space.is_zero(d) or d < thr:
            return m
    raise BudgetExhausted(f"no block index within budget {budget}")


def parent_m_epsilon_on_trace(trace, n, eps, s, budget):
    thr = eps / (2.0 * s)
    space = trace.space
    for m in range(1, budget + 1):
        try:
            a = trace.point_at(m * n)
            b = trace.point_at((m + 1) * n)
        except OrbitTooShort:
            if m * n > trace.max_index and trace.stop_reason != "exact-fixed-point":
                raise
            continue
        d = space.distance(b, a)
        if space.is_zero(d) or d < thr:
            return m
    raise BudgetExhausted(f"no block index within budget {budget}")


# --- harness ----------------------------------------------------------------------

def outcome(f, *args):
    """f(*args), or the type and message of the error it raised."""
    try:
        return f(*args)
    except (GphiError, ValueError) as exc:
        return type(exc).__name__, str(exc)


def trace_scan(trace, n, eps, s, budget):
    """The block index as ``verify_cauchy_bound`` reads it off a trace."""
    last_gap = math.inf if trace.stop_reason == "exact-fixed-point" else trace.max_index
    return _block_index(trace.space, trace.point_at, n, eps, s, budget, last_gap)


def walk_cases():
    """(space, T, x0) orbits that freeze, cycle, meet the tolerance, never settle
    or start from bad input."""
    cases = [(UNIT, AffineMap(0.5, 0.0), 1.0), (UNIT, AffineMap(0.5, 0.25), 0.0),
             (UNIT_SQ, AffineMap(0.9, 0.05), 1.0), (UNIT, SWAP, 0.25),
             (TWO, FiniteMap((1, 0)), 0), (THREE, FiniteMap((0, 0, 1)), 2),
             (THREE, FiniteMap((0, 0, 1)), 3), (THREE, FiniteMap((0, 0, 1)), 1.0),
             (THREE, FiniteMap((0, 5, 1)), 2), (THREE, FiniteMap((0, 0, 5)), 1),
             (THREE, FiniteMap((0, 0)), 2), (UNIT, AffineMap(0.5, 0.0), 2.0)]
    for seed in range(10):
        space = generate_space(f"block:{seed}", 7)
        T = generate_operator(f"block:{seed}:op", space, seed % 3 != 0)
        cases.append((space, T, seed % 7))
    return cases


def trace_cases():
    """Traces that stop exactly, meet the tolerance, stop short or cycle,
    thinned when RECORD_CAP and TAIL_WINDOW are patched small."""
    traces = [picard_iterate(UNIT, AffineMap(0.5, 0.0), 1.0, tol=0.0),
              picard_iterate(UNIT, AffineMap(0.5, 0.0), 1.0),
              picard_iterate(UNIT, AffineMap(0.98, 0.0), 1.0, max_iter=2000, tol=1e-14),
              picard_iterate(UNIT, AffineMap(0.9, 0.0), 1.0, max_iter=7, tol=0.0),
              picard_iterate(UNIT, SWAP, 0.25, max_iter=10, tol=0.0),
              picard_iterate(UNIT, SWAP, 0.25, max_iter=300, tol=0.0),
              picard_iterate(TWO, FiniteMap((1, 0)), 0),
              picard_iterate(THREE, FiniteMap((0, 0, 1)), 2)]
    for seed in range(10):
        space = generate_space(f"block:{seed}", 7)
        T = generate_operator(f"block:{seed}:op", space, seed % 3 != 0)
        traces.append(picard_iterate(space, T, seed % 7, max_iter=1 + seed % 4))
        traces.append(picard_iterate(space, T, seed % 7))
    # a hand-built trace whose orbit leaves its space at x_2
    traces.append(PicardTrace(space=THREE, x0=0, orbit=(0, 1, 7), indices=(0, 1, 2),
                              step_dists=(1.0, 1.0), stop_reason="budget-exhausted",
                              fixed_point=None, k_stop=2))
    return traces


# --- tests ------------------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 3, 0])
@pytest.mark.parametrize("eps", [0.05, 0.5, 2.0, 0.0])
def test_walker_scan_matches_parent(n, eps, monkeypatch):
    monkeypatch.setattr(solver, "WALK_CAP", 100)     # SWAP never settles
    for space, T, x0 in walk_cases():
        for budget in WALK_BUDGETS:
            args = (space, T, x0, n, eps, space.s, budget)
            assert outcome(m_epsilon, *args) == outcome(parent_m_epsilon, *args), args


@pytest.mark.parametrize("thinned", [False, True])
@pytest.mark.parametrize("n", [1, 2, 3, 5])
@pytest.mark.parametrize("eps", [0.001, 0.05, 0.5])
def test_trace_scan_matches_parent(thinned, n, eps, monkeypatch):
    if thinned:
        monkeypatch.setattr(solver, "RECORD_CAP", 40)
        monkeypatch.setattr(solver, "TAIL_WINDOW", 7)
    traces = trace_cases()
    assert any(len(t.indices) <= t.max_index for t in traces) == thinned
    for trace in traces:
        for budget in range(1, 61):
            args = (trace, n, eps, trace.space.s, budget)
            assert (outcome(trace_scan, *args)
                    == outcome(parent_m_epsilon_on_trace, *args)), (trace.indices, args)


def test_budget_boundary_on_a_short_trace():
    # x_0 .. x_10 of a 2-cycle, blocks of 3: at m = 3 only x_12 lies past the
    # end, so the block is skipped and the budget runs out; at m = 4 the
    # block starts past the end and the shortfall propagates
    trace = picard_iterate(UNIT, SWAP, 0.25, max_iter=10, tol=0.0)
    assert trace.max_index == 10 and trace.stop_reason == "budget-exhausted"
    for budget, expected in ((3, BudgetExhausted), (4, OrbitTooShort)):
        with pytest.raises(expected):
            trace_scan(trace, 3, 0.01, 1.0, budget)
        with pytest.raises(expected):
            parent_m_epsilon_on_trace(trace, 3, 0.01, 1.0, budget)


def test_point_outside_the_space_raises():
    trace = trace_cases()[-1]
    with pytest.raises(PointOutOfDomain):
        trace_scan(trace, 1, 0.05, THREE.s, 10)
