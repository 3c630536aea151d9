"""The block scan of ``m_epsilon`` against the two scans it replaced.

``m_epsilon`` reads the block index off a recorded trace.  The references
below are the two scans it replaced, kept verbatim apart from holding the
walk cap here: the lazy orbit walker with the scan that read it, and the
trace scan that skipped block indices a trace lacks.  ``m_epsilon``
skips no block: it stops at the first block point the trace lacks, where
the skipping scan went on.  Otherwise it gives the skipping scan's m, or
its exception type and message.  The walker sees the same orbit: where the
trace records every block the scan reads, both give the same outcome.

``OrbitWalk`` and ``walker_m_epsilon`` are also the orbit oracle of the
power-image and lemma-pass tests, so those references never read the code
they check.
"""

import re

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
from gphi.solver import PicardTrace, m_epsilon, picard_iterate, trace_from_json
from gphi.spaces import AnalyticSpace, FiniteSpace, validate_finite_space
from test_harness import uniform_map

UNIT = AnalyticSpace(0.0, 1.0, 1.0)
UNIT_SQ = AnalyticSpace(0.0, 1.0, 2.0)
THREE = validate_finite_space([[0.0, 1.0, 2.0], [1.0, 0.0, 4.0], [2.0, 4.0, 0.0]])
TWO = validate_finite_space([[0.0, 1.0], [1.0, 0.0]])
SWAP = AffineMap(-1.0, 1.0)             # 1/4 <-> 3/4 forever on the interval
WALK_BUDGETS = (1, 2, 3, 4, 5, 7, 10, 20, 60)
WALK_CAP = 2_000_000                    # points a walk holds before it gives up


# --- the replaced scans ---------------------------------------------------------

class OrbitWalk:
    """Lazy access to the points of the orbit of x0, stepped by ``_orbit``;
    past a freeze or cycle the orbit repeats.  T is checked when the walk is
    built, on a finite space."""

    def __init__(self, space, T, x0):
        if isinstance(space, FiniteSpace):
            validate_operator(space, T)
        self.steps = solver._orbit(space, T, x0)
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
            elif len(self.pts) > WALK_CAP:
                raise OrbitTooShort(
                    f"orbit walk exceeded {WALK_CAP} steps without settling")
        if k < len(self.pts):
            return self.pts[k]
        start, period = self.repeat
        return self.pts[start + (k - start) % period]


def walker_m_epsilon(space, T, x0, n, eps, s, budget=10_000):
    """The block index of the orbit of x0, read off a fresh walk."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if not eps > 0.0:
        raise NonpositiveRadius("eps must be positive")
    thr = eps / (2.0 * s)
    walker = OrbitWalk(space, T, x0)
    for m in range(1, budget + 1):
        a = walker.point(m * n)
        b = walker.point((m + 1) * n)
        d = space.distance(b, a)
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


def walk_cases():
    """(space, T, x0) orbits that freeze, cycle or never settle."""
    cases = [(UNIT, AffineMap(0.5, 0.0), 1.0), (UNIT, AffineMap(0.5, 0.25), 0.0),
             (UNIT_SQ, AffineMap(0.9, 0.05), 1.0), (UNIT, SWAP, 0.25),
             (TWO, FiniteMap((1, 0)), 0), (THREE, FiniteMap((0, 0, 1)), 2)]
    for seed in range(10):
        space = generate_space(f"block:{seed}", 7)
        T = (generate_operator(f"block:{seed}:op", space) if seed % 3
             else uniform_map(f"block:{seed}:op", space.n))
        cases.append((space, T, seed % 7))
    return cases


def trace_cases():
    """Traces that stop exactly, meet the tolerance, stop short or cycle."""
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
        T = (generate_operator(f"block:{seed}:op", space) if seed % 3
             else uniform_map(f"block:{seed}:op", space.n))
        traces.append(picard_iterate(space, T, seed % 7, max_iter=1 + seed % 4))
        traces.append(picard_iterate(space, T, seed % 7))
    # a hand-built trace whose orbit leaves its space at x_2
    traces.append(PicardTrace(space=THREE, x0=0, orbit=(0, 1, 7),
                              step_dists=(1.0, 1.0), stop_reason="budget-exhausted",
                              fixed_point=None, k_stop=2))
    return traces


# --- tests ------------------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 3, 0])
@pytest.mark.parametrize("eps", [0.05, 0.5, 2.0, 0.0])
def test_trace_scan_matches_walker(n, eps):
    # a trace that freezes or never settles within 10^4 steps records every
    # block a budget of 60 reads.  A cycle ends the record where the walker
    # scans on around it: the trace scan then finds no m the walker does
    # not, and it stops on its budget or names the cycle
    for space, T, x0 in walk_cases():
        trace = picard_iterate(space, T, x0, tol=0.0)
        for budget in WALK_BUDGETS:
            got = outcome(m_epsilon, trace, n, eps, budget)
            expected = outcome(walker_m_epsilon, space, T, x0, n, eps, space.s, budget)
            if trace.cycle is None or isinstance(got, int) or got == expected:
                assert got == expected, (space, T, x0, budget)
            else:
                assert got[0] == "BudgetExhausted" or "the orbit cycles through" in got[1]


@pytest.mark.parametrize("loaded", [False, True])
@pytest.mark.parametrize("n", [1, 2, 3, 5])
@pytest.mark.parametrize("eps", [0.001, 0.05, 0.5])
def test_trace_scan_matches_parent(loaded, n, eps):
    # loaded traces are read back from their JSON (the hand-built trace with
    # a point outside its space does not load).  Where the outcomes differ,
    # the parent skipped a block whose point at index k lies past the
    # trace's end, and went on to an m past it or to its budget; m_epsilon
    # stops at that block and names k
    traces = trace_cases()
    if loaded:
        traces = [trace_from_json(t.to_json()) for t in traces[:-1]]
        assert traces == trace_cases()[:-1]
    departures = 0
    for trace in traces:
        for budget in range(1, 61):
            got = outcome(m_epsilon, trace, n, eps, budget)
            parent = outcome(parent_m_epsilon_on_trace, trace, n, eps, trace.space.s, budget)
            if got == parent:
                continue
            departures += 1
            kind, message = got
            k = int(re.match(r"orbit index (\d+) not recorded", message)[1])
            assert kind == "OrbitTooShort" and k % n == 0 and k > trace.max_index
            if isinstance(parent, int):
                assert k <= parent * n, (trace.max_index, n, eps, budget)
            else:
                assert parent[0] == "BudgetExhausted" and k <= (budget + 1) * n
    assert departures > 0


def test_cycling_trace_names_its_cycle():
    # the walker scans round the 2-cycle until its budget runs out; the
    # trace ends where the cycle closes, and its scan stops there
    trace = picard_iterate(TWO, FiniteMap((1, 0)), 0)
    with pytest.raises(BudgetExhausted):
        walker_m_epsilon(TWO, FiniteMap((1, 0)), 0, 1, 0.5, 1.0, budget=20)
    with pytest.raises(OrbitTooShort, match=r"the orbit cycles through \[0, 1\]"):
        m_epsilon(trace, 1, 0.5, budget=20)


def test_budget_boundary_on_a_short_trace():
    # x_0 .. x_10 of a 2-cycle, blocks of 3: at m = 3 only x_12 lies past the
    # end.  The parent skipped that block, so its budget of 3 ran out and the
    # shortfall surfaced at m = 4; m_epsilon stops at x_12
    trace = picard_iterate(UNIT, SWAP, 0.25, max_iter=10, tol=0.0)
    assert trace.max_index == 10 and trace.stop_reason == "budget-exhausted"
    with pytest.raises(BudgetExhausted):
        m_epsilon(trace, 3, 0.01, 2)
    for budget in (3, 4):
        with pytest.raises(OrbitTooShort, match="^orbit index 12 not recorded$"):
            m_epsilon(trace, 3, 0.01, budget)
    with pytest.raises(BudgetExhausted):
        parent_m_epsilon_on_trace(trace, 3, 0.01, 1.0, 3)
    with pytest.raises(OrbitTooShort, match="^orbit index 12 not recorded$"):
        parent_m_epsilon_on_trace(trace, 3, 0.01, 1.0, 4)


def test_point_outside_the_space_raises():
    trace = trace_cases()[-1]
    with pytest.raises(PointOutOfDomain):
        m_epsilon(trace, 1, 0.05, 10)
