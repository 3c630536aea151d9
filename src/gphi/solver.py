"""Picard iteration and verification of the quantitative convergence lemmas.

``picard_iterate`` runs the orbit ``x_k = T^k x0`` and stops on an exact
fixed point (per the space's zero convention), on a confirmed small-step
tolerance, or on budget.  The remaining operations verify, on concrete
orbits, each quantitative step of the convergence argument for certified
instances: the G1 finite-termination property, the block index ``m_eps``,
the invariant ball, the step-chaining bound, and the final Cauchy bound
``4 * s**3 * eps``.

Orbits that stop on an exact fixed point are treated as constantly extended
beyond the stopping index (``T x* = x*``), so block indices like ``m*n`` that
fall past the recorded stop are well defined.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from itertools import islice
from dataclasses import asdict, dataclass

from .contraction import FiniteMap, OperatorSpec, apply, validate_operator
from .errors import (
    BudgetExhausted,
    NonpositiveRadius,
    OrbitTooShort,
    PointOutOfDomain,
    TailNotSmall,
)
from .gauges import n_epsilon
from .spaces import FiniteSpace, Space, space_from_json, space_to_json

MAX_ITER_DEFAULT = 10_000
RECORD_CAP_DEFAULT = 100_000
TAIL_WINDOW_DEFAULT = 1_000
CONFIRM_STEPS = 3
TOL_DEFAULT = 1e-10
WALK_CAP_DEFAULT = 2_000_000
BALL_SAMPLES = 128           # points sampled from an interval ball
PAIR_LIMIT = 10_000          # tail pairs compared by the Cauchy check
STOP_REASONS = ("exact-fixed-point", "tolerance-met", "budget-exhausted")


@dataclass(frozen=True)
class PicardTrace:
    """Recorded orbit of a Picard iteration."""

    space: Space
    x0: object
    orbit: tuple
    indices: tuple[int, ...]
    step_dists: tuple[float, ...]
    stop_reason: str            # one of STOP_REASONS
    fixed_point: object | None
    k_stop: int
    cycle: tuple | None = None

    @property
    def max_index(self) -> int:
        return self.indices[-1]

    def point_at(self, k: int):
        """Orbit point x_k: recorded, or the fixed point past an exact stop."""
        pos = bisect_left(self.indices, k)
        if pos < len(self.indices) and self.indices[pos] == k:
            return self.orbit[pos]
        if self.stop_reason == "exact-fixed-point" and k >= self.k_stop:
            return self.fixed_point
        raise OrbitTooShort(f"orbit index {k} not recorded")

    def step_at(self, k: int) -> float:
        """Step distance d(x_k, x_{k+1}), zero past an exact stop."""
        if 0 <= k < len(self.step_dists):
            return self.step_dists[k]
        if self.stop_reason == "exact-fixed-point" and k >= self.k_stop:
            return 0.0
        raise OrbitTooShort(f"step index {k} not recorded")

    def to_json(self) -> dict:
        return {
            "space": space_to_json(self.space),
            "x0": self.x0,
            "orbit": list(self.orbit),
            "indices": list(self.indices),
            "step_dists": list(self.step_dists),
            "stop_reason": self.stop_reason,
            "fixed_point": self.fixed_point,
            "k_stop": self.k_stop,
            "cycle": list(self.cycle) if self.cycle is not None else None,
        }


def trace_from_json(obj: dict) -> PicardTrace:
    """Load a trace; the points it names must lie in its space, its indices
    must fit its orbit and steps, and its fixed point and ``k_stop`` must
    fit its stop reason as ``picard_iterate`` writes them, because the
    lemma checks read them without checking them again."""
    space = space_from_json(obj["space"])
    orbit = tuple(obj["orbit"])
    fixed_point, stop_reason = obj["fixed_point"], obj["stop_reason"]
    cycle = tuple(obj["cycle"]) if obj.get("cycle") is not None else None
    named = [obj["x0"], *orbit, *(cycle or ())]
    if fixed_point is not None:
        named.append(fixed_point)
    for x in named:
        if not space.contains(x):
            raise PointOutOfDomain(f"trace point {x!r} not in space")
    indices, step_dists = tuple(obj["indices"]), tuple(obj["step_dists"])
    if (len(indices) != len(orbit) or indices[:1] != (0,)
            or any(i >= j for i, j in zip(indices, indices[1:]))
            or indices[-1] > len(step_dists) or stop_reason not in STOP_REASONS):
        raise ValueError("trace indices, steps or stop reason do not fit its orbit")
    if ((fixed_point is None) != (stop_reason == "budget-exhausted")
            or obj["k_stop"] != len(step_dists) - (stop_reason == "exact-fixed-point")):
        raise ValueError("trace fixed point or k_stop does not fit its stop reason")
    return PicardTrace(
        space=space, x0=obj["x0"], orbit=orbit,
        indices=indices, step_dists=step_dists,
        stop_reason=stop_reason, fixed_point=fixed_point,
        k_stop=obj["k_stop"], cycle=cycle)


@dataclass(frozen=True)
class CauchyDiagnostics:
    """Quantities assembled by the Cauchy-bound verification."""

    eps: float
    n: int
    m: int
    m0: int
    m_bar: int
    bound: float
    max_observed: float
    pairs_checked: int
    holds: bool

    def to_json(self) -> dict:
        return asdict(self)


def _orbit(space: Space, T: OperatorSpec, x0):
    """The steps of the orbit of x0 as (x_{k+1}, d(x_k, x_{k+1}), frozen, cycle).

    This is the one place the orbit's settling rules live.  A zero step
    (per the space's zero convention) sets ``frozen``: the orbit stays at
    x_{k+1} from then on.  On finite spaces a step onto an earlier point
    x_j sets ``cycle`` to the points x_j .. x_k, which then repeat.  The
    generator ends after a settling step and otherwise runs forever.

    x0 is checked here, before any step is taken, so a walker never hands
    out a start point outside the space.  On a finite space the caller has
    checked T; every later point is an image under the checked map, so the
    steps index the map and the matrix directly.
    """
    finite = isinstance(space, FiniteSpace)
    if not space.contains(x0):
        raise PointOutOfDomain(
            f"start point {x0!r} not in {'space' if finite else 'interval'}")
    return _steps(space, T, x0, finite)


def _steps(space: Space, T: OperatorSpec, x0, finite: bool):
    """The generator behind ``_orbit``, once it has checked x0."""
    if finite:
        dist, image = space.dist, T.mapping
        seen = {x0: 0}
    x = x0
    k = 0
    while True:
        if finite:
            xn = image[x]
            d = dist[x][xn]
        else:
            xn = apply(T, space, x)
            d = space.distance(x, xn)
        k += 1
        if space.is_zero(d):
            yield xn, d, True, None
            return
        if finite:
            if xn in seen:
                start = seen[xn]
                yield xn, d, False, tuple(p for p, i in seen.items() if i >= start)
                return
            seen[xn] = k
        yield xn, d, False, None
        x = xn


def _point_distance(space: Space, points):
    """The distance among ``points`` and the orbit points of checked maps.

    On a finite space ``points`` are checked here, once, and the returned
    distance reads the matrix directly; an interval keeps its checked
    ``distance``.
    """
    if not isinstance(space, FiniteSpace):
        return space.distance
    for p in points:
        if not space.contains(p):
            raise PointOutOfDomain(f"point {p!r} not in space")
    dist = space.dist
    return lambda x, y: dist[x][y]


def _kept_indices(count: int, record_cap: int, tail_window: int) -> list[int]:
    """The indices a trace keeps of ``count`` orbit points: every
    ``stride``-th, for the least power-of-two stride that keeps at most
    ``max(record_cap - tail_window, 16)`` of them, plus the last ``tail_window``."""
    if tail_window < 0:
        raise ValueError("tail_window must be non-negative")
    head_cap = max(record_cap - tail_window, 16)
    stride = 1
    while -(-count // stride) > head_cap:
        stride *= 2
    tail_start = max(count - tail_window, 0)
    return [*range(0, tail_start, stride), *range(tail_start, count)]


def picard_iterate(space: Space, T: OperatorSpec, x0, max_iter: int = MAX_ITER_DEFAULT,
                   tol: float = TOL_DEFAULT, record_cap: int = RECORD_CAP_DEFAULT,
                   tail_window: int = TAIL_WINDOW_DEFAULT) -> PicardTrace:
    """Run the orbit x, Tx, T^2 x, ... and record a trace.

    Stops on an exact fixed point (zero step per the space's convention), on
    ``CONFIRM_STEPS`` consecutive steps below ``tol``, or after ``max_iter``
    steps.  On finite spaces a revisit of an earlier point (a cycle of length
    at least 2) stops the run early with a cycle annotation; under certified
    hypotheses such a cycle falsifies the convergence theorem and is
    surfaced via stop_reason budget-exhausted.  The whole orbit is held
    until the run ends; the trace keeps the points ``_kept_indices`` picks.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    validate_operator(space, T)
    points = [x0]
    steps: list[float] = []

    stop_reason = "budget-exhausted"
    fixed_point = None
    cycle = None
    below_tol = 0               # consecutive steps below tol

    for xn, d, frozen, cycle in islice(_orbit(space, T, x0), max_iter):
        steps.append(d)
        points.append(xn)
        if frozen:
            stop_reason = "exact-fixed-point"
            fixed_point = xn
            break
        if cycle is not None:
            break
        below_tol = below_tol + 1 if d < tol else 0
        if below_tol >= CONFIRM_STEPS:
            stop_reason = "tolerance-met"
            fixed_point = xn
            break

    # an exact stop is indexed by its zero step, any other stop by the steps taken
    k_stop = len(steps) - (stop_reason == "exact-fixed-point")
    kept = _kept_indices(len(points), record_cap, tail_window)
    return PicardTrace(
        space=space, x0=x0,
        orbit=tuple(points[i] for i in kept),
        indices=tuple(kept),
        step_dists=tuple(steps),
        stop_reason=stop_reason, fixed_point=fixed_point,
        k_stop=k_stop, cycle=cycle)


class _Walk:
    """Lazy access to the points of orbit steps from ``_orbit``; past a
    freeze or cycle the orbit repeats."""

    def __init__(self, steps, x0):
        self.steps = steps
        self.pts = [x0]
        self.repeat: tuple[int, int] | None = None   # (start, period)

    def point(self, k: int):
        while len(self.pts) <= k and self.repeat is None:
            xn, _, frozen, cycle = next(self.steps)
            self.pts.append(xn)
            last = len(self.pts) - 1
            if frozen:
                self.repeat = (last, 1)
            elif cycle is not None:
                self.repeat = (last - len(cycle), len(cycle))
            elif len(self.pts) > WALK_CAP_DEFAULT:
                raise OrbitTooShort(
                    f"orbit walk exceeded {WALK_CAP_DEFAULT} steps without settling")
        if k < len(self.pts):
            return self.pts[k]
        start, period = self.repeat
        return self.pts[start + (k - start) % period]


class OrbitWalker(_Walk):
    """Lazy orbit access; past a freeze or cycle the orbit repeats."""

    def __init__(self, space: Space, T: OperatorSpec, x0):
        if isinstance(space, FiniteSpace):
            validate_operator(space, T)
        super().__init__(_orbit(space, T, x0), x0)


def enumerate_fixed_points(space: FiniteSpace, T: FiniteMap) -> set[int]:
    """Exact fixed-point set of a finite self-map."""
    validate_operator(space, T)
    return {i for i, v in enumerate(T.mapping) if v == i}


def verify_g1_termination(trace: PicardTrace) -> bool:
    """True iff the orbit became exactly constant in finitely many steps.

    For instances certified with a positive-infimum gauge this must hold: an
    infinite non-repeating orbit would drive the gauge values to zero.
    """
    return trace.stop_reason == "exact-fixed-point"


def m_epsilon(space: Space, T: OperatorSpec, x0, n: int, eps: float, s: float,
              budget: int = 10_000) -> int:
    """Smallest m with d(x_{(m+1)n}, x_{mn}) < eps/(2s), scanning m = 1, 2, ...

    Since T^n x_{mn} = x_{(m+1)n}, this is the block-displacement index of the
    convergence argument.  Raises BudgetExhausted past the scan budget, which
    on a certified instance signals a hypothesis violation.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if not eps > 0.0:
        raise NonpositiveRadius("eps must be positive")
    thr = eps / (2.0 * s)
    walker = OrbitWalker(space, T, x0)
    distance = _point_distance(space, ())     # the walker checks T and x0
    for m in range(1, budget + 1):
        a = walker.point(m * n)
        b = walker.point((m + 1) * n)
        d = distance(b, a)
        if space.is_zero(d) or d < thr:
            return m
    raise BudgetExhausted(f"no block index within budget {budget}")


def _m_epsilon_on_trace(trace: PicardTrace, n: int, eps: float, s: float,
                        budget: int) -> int:
    """Smallest checkable block index on the recorded (or extended) orbit.

    Thinned traces may lack intermediate block indices; those are skipped,
    since any m with the block-displacement property is a valid witness.
    """
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


def verify_invariant_ball(space: Space, T: OperatorSpec, trace: PicardTrace,
                          eps: float, n: int, m: int) -> bool:
    """Check T^n(B(x_{mn}, eps)) stays inside B(x_{mn}, eps).

    Exhaustive over points of a finite space; on interval spaces the ball is
    an interval and gets a deterministic sample of ``BALL_SAMPLES`` points.
    ``n`` and ``m`` are meant to come from n_epsilon and m_epsilon for the
    same eps, which is what makes the containment a theorem on certified
    instances.
    """
    if not eps > 0.0:
        raise NonpositiveRadius("eps must be positive")
    center = trace.point_at(m * n)
    distance = _point_distance(space, (center,))
    if isinstance(space, FiniteSpace):
        validate_operator(space, T)         # once for all the walks below
        raw = space.points
    else:
        r = eps ** (1.0 / space.p)
        lo = max(space.lo, center - r)
        hi = min(space.hi, center + r)
        raw = [lo + (hi - lo) * i / (BALL_SAMPLES - 1) for i in range(BALL_SAMPLES)]
    candidates = [u for u in raw if distance(u, center) < eps]
    for u in candidates:
        v = _Walk(_orbit(space, T, u), u).point(n)
        if not distance(v, center) < eps:
            return False
    return True


def verify_step_chaining(trace: PicardTrace, n: int, eps: float,
                         s: float) -> tuple[int, bool]:
    """Find the block index m0 past which n-blocks stay eps-close to their base.

    Computes the first step index k0 after which all recorded steps are below
    eps/(n*s**n) (zero-class steps count as below any positive threshold),
    sets m0 = ceil((k0+1)/n), and then verifies d(x_{mn}, x_{mn+p}) < eps for
    all checkable m >= m0 and p in {0, ..., n-1}, together with the chained
    bound sum s^(i+1) d(x_{mn+i}, x_{mn+i+1}) < eps that implies it.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    space = trace.space
    steps = trace.step_dists
    try:
        sn = s ** n
    except OverflowError:
        sn = math.inf
    thr = eps / (n * sn)                       # 0.0 when s**n overflows

    k0 = len(steps)                            # back past the qualifying tail
    while k0 and (space.is_zero(steps[k0 - 1]) or steps[k0 - 1] < thr):
        k0 -= 1
    if k0 >= len(steps) and trace.stop_reason != "exact-fixed-point":
        raise TailNotSmall(
            f"no recorded tail with steps below {thr}")

    m0 = -(-(k0 + 1) // n)
    for base in range(m0 * n, trace.max_index + 1, n):
        try:
            block = [trace.point_at(base + p) for p in range(n)]
            block_steps = [trace.step_at(base + i) for i in range(n - 1)]
        except OrbitTooShort:
            continue
        acc = 0.0
        spow = 1.0
        for p in range(1, n):
            spow *= s
            d_step = block_steps[p - 1]
            if not space.is_zero(d_step):
                acc += spow * d_step
            d_direct = space.distance(block[0], block[p])
            if not (d_direct < eps and acc < eps):
                return m0, False
    return m0, True


def verify_cauchy_bound(space: Space, trace: PicardTrace, G, phi, eps: float,
                        n_budget: int = 10_000,
                        m_budget: int = 10_000) -> CauchyDiagnostics:
    """Assemble n, m, m0 and check d(x_{k1}, x_{k2}) <= 4*s^3*eps in the tail.

    k1, k2 range over recorded indices at or past m_bar * n with
    m_bar = max(m, m0); when the pair count would exceed ``PAIR_LIMIT`` the
    index list is strided deterministically.  Budget and truncation errors
    from the sub-steps propagate.
    """
    s = space.s
    n = n_epsilon(G, phi, s, eps, budget=n_budget)
    m = _m_epsilon_on_trace(trace, n, eps, s, m_budget)
    m0, _ = verify_step_chaining(trace, n, eps, s)
    m_bar = max(m, m0)
    cutoff = m_bar * n

    pos = bisect_left(trace.indices, cutoff)
    pts = list(trace.orbit[pos:])
    if trace.stop_reason == "exact-fixed-point":
        pts.append(trace.fixed_point)
    if not pts:
        raise OrbitTooShort(f"trace truncated before index {cutoff}")

    max_pts = int((2 * PAIR_LIMIT) ** 0.5) + 1
    if len(pts) > max_pts:
        stride = -(-len(pts) // max_pts)
        pts = pts[::stride] + [pts[-1]]

    distance = _point_distance(space, pts)
    max_obs = 0.0
    checked = 0
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            d = distance(pts[i], pts[j])
            checked += 1
            if d > max_obs:
                max_obs = d
    bound = 4.0 * s ** 3 * eps
    return CauchyDiagnostics(
        eps=eps, n=n, m=m, m0=m0, m_bar=m_bar, bound=bound,
        max_observed=max_obs, pairs_checked=checked,
        holds=max_obs <= bound)
