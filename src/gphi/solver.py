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
fall past the recorded stop are well defined.  Traces hold whole orbits, in
memory and in JSON.
"""

from __future__ import annotations

import math
from itertools import islice, starmap

from .contraction import FiniteMap, OperatorSpec, validate_operator
from .errors import (
    BudgetExhausted,
    ConstantOverflow,
    NonpositiveRadius,
    OrbitTooShort,
    PointOutOfDomain,
    TailNotSmall,
)
from .gauges import n_epsilon
from .spaces import (BALL_SAMPLES, FiniteSpace, Space, _Fields, _Record, space_from_json,
                     space_to_json)

MAX_ITER_DEFAULT = 10_000
CONFIRM_STEPS = 3
TOL_DEFAULT = 1e-10
STOP_REASONS = ("exact-fixed-point", "tolerance-met", "budget-exhausted")


class PicardTrace(_Fields):
    """Recorded orbit of a Picard iteration, x_k = orbit[k]: all of it, one
    point more than its steps."""

    space: Space
    x0: object
    orbit: tuple
    step_dists: tuple[float, ...]
    stop_reason: str            # one of STOP_REASONS
    fixed_point: object | None
    k_stop: int
    cycle: tuple | None = None

    @property
    def max_index(self) -> int:
        return len(self.orbit) - 1

    def point_at(self, k: int):
        """Orbit point x_k: recorded, or the fixed point past an exact stop."""
        if 0 <= k < len(self.orbit):
            return self.orbit[k]
        if self.stop_reason == "exact-fixed-point" and k >= self.k_stop:
            return self.fixed_point
        if self.cycle is not None and k > self.max_index:
            raise OrbitTooShort(
                f"orbit index {k} not recorded: the orbit cycles through {list(self.cycle)}")
        raise OrbitTooShort(f"orbit index {k} not recorded")

    def to_json(self) -> dict:
        return {
            "space": space_to_json(self.space),
            "x0": self.x0,
            "orbit": list(self.orbit),
            "indices": list(range(len(self.orbit))),
            "step_dists": list(self.step_dists),
            "stop_reason": self.stop_reason,
            "fixed_point": self.fixed_point,
            "k_stop": self.k_stop,
            "cycle": list(self.cycle) if self.cycle is not None else None,
        }


def trace_from_json(obj: dict) -> PicardTrace:
    """Load a trace; the points it names must lie in its space, its indices
    must be 0 .. len(orbit) - 1, its orbit one point longer than its steps,
    and its x0, fixed point, cycle, ``k_stop`` and steps must fit its orbit
    and stop reason as ``picard_iterate`` writes them, because the lemma
    checks read them without checking them again.  Each step is the
    distance between its two orbit points, bit for bit, and only the last
    step of an exact stop is zero-class."""
    space = space_from_json(obj["space"])
    cycle = obj.get("cycle")
    if (not all(isinstance(v, list) for v in (obj["orbit"], obj["indices"], obj["step_dists"]))
            or not isinstance(cycle, (list, type(None)))
            or not all(type(i) is int for i in obj["indices"])
            or not all(type(d) is not bool and isinstance(d, (int, float))
                       for d in obj["step_dists"])):
        raise ValueError("trace orbit, indices, steps or cycle has the wrong type")
    orbit, step_dists = tuple(obj["orbit"]), tuple(obj["step_dists"])
    fixed_point, stop_reason = obj["fixed_point"], obj["stop_reason"]
    exact = stop_reason == "exact-fixed-point"
    cycle = tuple(cycle) if cycle is not None else None
    named = [obj["x0"], *orbit, *(cycle or ())]
    if fixed_point is not None:
        named.append(fixed_point)
    for x in named:
        if not space.contains(x):
            raise PointOutOfDomain(f"trace point {x!r} not in space")
    if (obj["indices"] != list(range(len(orbit))) or len(orbit) != len(step_dists) + 1
            or stop_reason not in STOP_REASONS):
        raise ValueError("trace indices, steps or stop reason do not fit its orbit")
    if ((fixed_point is None) != (stop_reason == "budget-exhausted")
            or type(obj["k_stop"]) is not int
            or obj["k_stop"] != len(step_dists) - exact):
        raise ValueError("trace fixed point or k_stop does not fit its stop reason")
    if (obj["x0"] != orbit[0] or fixed_point not in (None, orbit[-1])
            or (cycle is not None and (stop_reason != "budget-exhausted" or len(cycle) < 2
                                       or cycle != orbit[orbit.index(orbit[-1]):-1]))):
        raise ValueError("trace x0, fixed point or cycle does not fit its orbit")
    fit = list(starmap(space._unchecked_distance, zip(orbit, orbit[1:])))   # checked points
    if (list(step_dists) != fit or [space.is_zero(d) for d in step_dists]
            != [False] * (len(step_dists) - exact) + [True] * exact):
        raise ValueError("trace steps do not fit its orbit or stop reason")
    return PicardTrace(
        space=space, x0=obj["x0"], orbit=orbit, step_dists=step_dists,
        stop_reason=stop_reason, fixed_point=fixed_point,
        k_stop=obj["k_stop"], cycle=cycle)


class CauchyDiagnostics(_Record):
    """Cauchy-bound quantities; ``pairs_checked`` is L(L-1)/2 for the L tail points."""

    eps: float
    n: int
    m: int
    m0: int
    m_bar: int
    bound: float
    max_observed: float
    pairs_checked: int
    holds: bool


def _orbit(space: Space, T: OperatorSpec, x0):
    """The steps of the orbit of x0 as (x_{k+1}, d(x_k, x_{k+1}), frozen, cycle).

    This is the one place the orbit's settling rules live.  A zero step
    (per the space's zero convention) sets ``frozen``: the orbit stays at
    x_{k+1} from then on.  On finite spaces a step onto an earlier point
    x_j sets ``cycle`` to the points x_j .. x_k, which then repeat.  The
    generator ends after a settling step and otherwise runs forever.

    x0 is checked when the first step is asked for, before it is taken.
    The caller has checked T, and every later point is an image under it,
    so the steps read ``T.eval`` and the distance without checks.
    """
    if not space.contains(x0):
        raise PointOutOfDomain(f"start point {x0!r} not in {space.noun}")
    seen = {x0: 0} if space.kind == "finite" else None
    x = x0
    k = 0
    while True:
        xn = T.eval(x)
        d = space._unchecked_distance(x, xn)
        k += 1
        if space.is_zero(d):
            yield xn, d, True, None
            return
        if seen is not None:
            if xn in seen:
                start = seen[xn]
                yield xn, d, False, tuple(p for p, i in seen.items() if i >= start)
                return
            seen[xn] = k
        yield xn, d, False, None
        x = xn


def picard_iterate(space: Space, T: OperatorSpec, x0, max_iter: int = MAX_ITER_DEFAULT,
                   tol: float = TOL_DEFAULT) -> PicardTrace:
    """Run the orbit x, Tx, T^2 x, ... and record a trace.

    Stops on an exact fixed point (zero step per the space's convention), on
    ``CONFIRM_STEPS`` consecutive steps below ``tol``, or after ``max_iter``
    steps.  On finite spaces a revisit of an earlier point (a cycle of length
    at least 2) stops the run early with a cycle annotation; under certified
    hypotheses such a cycle falsifies the convergence theorem and is
    surfaced via stop_reason budget-exhausted.  The trace holds every
    orbit point.
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
    return PicardTrace(
        space=space, x0=x0,
        orbit=tuple(points),
        step_dists=tuple(steps),
        stop_reason=stop_reason, fixed_point=fixed_point,
        k_stop=k_stop, cycle=cycle)


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


def _check_block(n: int, eps: float) -> None:
    """Refuse what no block lemma takes: n below 1, or eps not positive and finite."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if not 0.0 < eps < math.inf:
        raise NonpositiveRadius(f"eps must be {'finite' if eps == math.inf else 'positive'}")


def m_epsilon(trace: PicardTrace, n: int, eps: float, budget: int = 10_000) -> int:
    """Smallest m with d(x_{(m+1)n}, x_{mn}) < eps/(2s) on the recorded
    orbit, scanning m = 1, 2, ...

    Since T^n x_{mn} = x_{(m+1)n}, this is the block-displacement index of
    the convergence argument.  The first block point the trace lacks raises
    ``OrbitTooShort`` naming its index, and the cycle of a cycling trace.
    Raises BudgetExhausted past the scan budget, which on a certified
    instance signals a hypothesis violation.
    """
    _check_block(n, eps)
    space = trace.space
    thr = eps / (2.0 * space.s)
    for m in range(1, budget + 1):
        a = trace.point_at(m * n)
        b = trace.point_at((m + 1) * n)
        d = space.distance(b, a)
        if space.is_zero(d) or d < thr:
            return m
    raise BudgetExhausted(f"no block index within budget {budget}")


def _power_image(mapping, n: int) -> list[int]:
    """The image list of T^n for a checked finite map and n >= 0, by
    repeated squaring: O(N log n) reads, however long the orbits run."""
    image = list(range(len(mapping)))
    power = mapping
    while n:
        if n & 1:
            image = [power[v] for v in image]
        n >>= 1
        if n:
            power = [power[v] for v in power]
    return image


def verify_invariant_ball(T: OperatorSpec, trace: PicardTrace, eps: float, n: int,
                          m: int) -> bool:
    """Check T^n(B(x_{mn}, eps)) stays inside B(x_{mn}, eps) in the trace's space.

    Exhaustive over points of a finite space; on interval spaces the ball is
    an interval and gets a deterministic sample of ``BALL_SAMPLES`` points,
    each stepped n times by ``_orbit`` or to where its orbit freezes.
    ``n`` and ``m`` are meant to come from n_epsilon and m_epsilon for the
    same eps, which is what makes the containment a theorem on certified
    instances.
    """
    _check_block(n, eps)
    space = trace.space
    center = trace.point_at(m * n)
    if not space.contains(center):          # the centre is checked before the map
        raise PointOutOfDomain(f"point {center!r} not in space")
    validate_operator(space, T)
    if space.kind == "finite":
        return _ball_holds(space, center, eps, _power_image(T.mapping, n).__getitem__)

    def image_of(u):
        x = u
        for x, _, _, _ in islice(_orbit(space, T, u), n):
            pass
        return x
    return _ball_holds(space, center, eps, image_of)


def _ball_holds(space: Space, center, eps: float, image_of) -> bool:
    """True iff ``image_of``, read as T^n, maps every candidate ``space._ball``
    gives of B(center, eps) back inside it: a checked centre, images of a checked map."""
    return all(space._unchecked_distance(image_of(u), center) < eps
               for u in space._ball(center, eps))


def verify_step_chaining(trace: PicardTrace, n: int, eps: float) -> tuple[int, bool]:
    """Find the block index m0 past which n-blocks stay eps-close to their base.

    Computes the first step index k0 after which all recorded steps are below
    eps/(n*s**n) (zero-class steps count as below any positive threshold),
    sets m0 = ceil((k0+1)/n), and then verifies d(x_{mn}, x_{mn+p}) < eps for
    all checkable m >= m0 and p in {0, ..., n-1}, together with the chained
    bound sum s^(i+1) d(x_{mn+i}, x_{mn+i+1}) < eps that implies it.  With a
    valid s every scanned block passes, so the flag fails only through
    rounding or an understated s.
    """
    _check_block(n, eps)
    space = trace.space
    s = space.s
    steps = trace.step_dists
    thr = _small_step(s, n, eps)

    exact = trace.stop_reason == "exact-fixed-point"
    k0 = len(steps)                            # back past the qualifying tail
    while k0 and (space.is_zero(steps[k0 - 1]) or steps[k0 - 1] < thr):
        k0 -= 1
    if k0 >= len(steps) and not exact:
        raise TailNotSmall(
            f"no recorded tail with steps below {thr}")

    m0 = -(-(k0 + 1) // n)
    orbit, last = trace.orbit, trace.max_index - n + 1      # blocks that end in the record
    if exact:               # past an exact stop the orbit stays at its fixed point
        orbit += (trace.fixed_point,) * n
        steps += (0.0,) * n
        last = trace.max_index
    for base in range(m0 * n, last + 1, n):
        acc = 0.0
        spow = 1.0
        for p in range(1, n):
            spow *= s
            d_step = steps[base + p - 1]
            if not space.is_zero(d_step):
                acc += spow * d_step
            d_direct = space.distance(orbit[base], orbit[base + p])
            if not (d_direct < eps and acc < eps):
                return m0, False
    return m0, True


def _small_step(s: float, n: int, eps: float) -> float:
    """eps/(n*s**n), below which a step counts toward step chaining's tail;
    0.0 when s**n overflows."""
    try:
        sn = s ** n
    except OverflowError:
        sn = math.inf
    return eps / (n * sn)


def verify_cauchy_bound(trace: PicardTrace, G, phi, eps: float,
                        budget: int = 10_000) -> CauchyDiagnostics:
    """Assemble n, m, m0 and check d(x_{k1}, x_{k2}) <= 4*s^3*eps in the tail.

    k1, k2 range over every pair of orbit indices from m_bar * n, m_bar = max(m, m0).
    Budget errors, ConstantOverflow when the bound overflows the float range
    and the OrbitTooShort of an index the trace lacks propagate.
    """
    n = n_epsilon(G, phi, trace.space.s, eps, budget)
    m = m_epsilon(trace, n, eps, budget)
    m0, _ = verify_step_chaining(trace, n, eps)
    return _cauchy_tail(trace, eps, n, m, m0)


def _cauchy_bound(s: float, eps: float) -> float:
    """The Cauchy bound 4*s^3*eps; ConstantOverflow past the float range."""
    try:
        bound = 4.0 * s ** 3 * eps
    except OverflowError:
        bound = math.inf
    if bound == math.inf:
        raise ConstantOverflow(f"Cauchy bound 4*s^3*eps overflows: s = {s}, eps = {eps}")
    return bound


def _cauchy_tail(trace: PicardTrace, eps: float, n: int, m: int, m0: int) -> CauchyDiagnostics:
    """The tail check of ``verify_cauchy_bound``, given its n, m and m0: the
    diameter of the checked tail points, as ``space._diameter`` reads it."""
    space = trace.space
    bound = _cauchy_bound(space.s, eps)
    m_bar = max(m, m0)
    cutoff = m_bar * n

    tail = list(trace.orbit[cutoff:])
    if trace.stop_reason == "exact-fixed-point":
        tail.append(trace.fixed_point)          # x_k is the fixed point past the stop
    if not tail:
        raise OrbitTooShort(f"trace truncated before index {cutoff}")
    for x in tail:
        if not space.contains(x):
            raise PointOutOfDomain(f"point {x!r} not in space")

    max_obs = space._diameter(tail)
    return CauchyDiagnostics(
        eps=eps, n=n, m=m, m0=m0, m_bar=m_bar, bound=bound,
        max_observed=max_obs, pairs_checked=len(tail) * (len(tail) - 1) // 2,
        holds=max_obs <= bound)
