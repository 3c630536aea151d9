"""The finite fast path against reference scans that check every point.

On finite spaces the certifier and the orbit engine check the map and the
start point once and then index the distance matrix and the map directly.
The references below go through ``space.distance`` and ``apply`` on every
read, so any difference in pair order, values read or stopping rules shows
up as a mismatch.
"""

from itertools import combinations
from random import Random

import pytest
from hypothesis import given, strategies as st

from gphi.contraction import FiniteMap, apply, certify_condition_G
from gphi.errors import BudgetExhausted, OrbitTooShort, PointOutOfDomain
from gphi.gauges import gauge_eval, phi_eval
from gphi.harness import DEFAULT_GAUGE_CATALOG, DEFAULT_PHI_CATALOG, G1_GAUGE_CATALOG
from gphi.solver import (
    CONFIRM_STEPS,
    OrbitWalker,
    PicardTrace,
    m_epsilon,
    picard_iterate,
    trace_from_json,
    verify_invariant_ball,
)
from gphi.spaces import space_to_json, validate_finite_space

GAUGES = DEFAULT_GAUGE_CATALOG + G1_GAUGE_CATALOG
MAP_KINDS = ("random", "fixed-points", "two-cycle", "constant")


def reference_certificate(space, T, G, phi) -> dict:
    """Condition (G) over all pairs in lexicographic order, every read checked."""
    witness = None
    for x, y in combinations(space.points, 2):
        d = space.distance(x, y)
        if space.is_zero(d):
            continue
        dt = space.distance(apply(T, space, x), apply(T, space, y))
        if space.is_zero(dt):
            continue
        g_d, g_dt = gauge_eval(G, d), gauge_eval(G, dt)
        bound = phi_eval(phi, g_d)
        if not g_dt <= bound:
            witness = {"x": x, "y": y, "d_xy": d, "d_txty": dt, "g_of_d": g_d,
                       "g_of_dt": g_dt, "phi_bound": bound}
            break
    return {"verdict": "violated" if witness else "certified",
            "checked_pairs": space.n * (space.n - 1) // 2,
            "violation_witness": witness}


def reference_trace(space, T, x0, max_iter: int, tol: float) -> dict:
    """The Picard orbit with its stop rules, every step checked."""
    orbit, steps, seen = [x0], [], {x0: 0}
    stop, fixed, k_stop, cycle = "budget-exhausted", None, max_iter, None
    x = x0
    for k in range(max_iter):
        xn = apply(T, space, x)
        d = space.distance(x, xn)
        steps.append(d)
        orbit.append(xn)
        if space.is_zero(d):
            stop, fixed, k_stop = "exact-fixed-point", xn, k
            break
        if xn in seen:
            cycle, k_stop = orbit[seen[xn]:-1], k + 1
            break
        seen[xn] = k + 1
        if len(steps) >= CONFIRM_STEPS and all(s < tol for s in steps[-CONFIRM_STEPS:]):
            stop, fixed, k_stop = "tolerance-met", xn, k + 1
            break
        x = xn
    return {"orbit": orbit, "indices": list(range(len(orbit))), "step_dists": steps,
            "stop_reason": stop, "fixed_point": fixed, "k_stop": k_stop, "cycle": cycle}


def reference_point(space, T, x0, k: int):
    """x_k, constant from the first zero step on."""
    x = x0
    for _ in range(k):
        xn = apply(T, space, x)
        if space.is_zero(space.distance(x, xn)):
            return xn
        x = xn
    return x


def reference_m_epsilon(space, T, x0, n: int, eps: float, budget: int):
    thr = eps / (2.0 * space.s)
    for m in range(1, budget + 1):
        a = reference_point(space, T, x0, m * n)
        b = reference_point(space, T, x0, (m + 1) * n)
        d = space.distance(b, a)
        if space.is_zero(d) or d < thr:
            return m
    raise BudgetExhausted("no block index within budget")


def reference_ball(space, T, trace, eps: float, n: int, m: int) -> bool:
    center = trace.point_at(m * n)
    inside = [u for u in space.points if space.distance(u, center) < eps]
    return all(space.distance(reference_point(space, T, u, n), center) < eps
               for u in inside)


@st.composite
def instances(draw):
    """A random finite space (ties included) and a map of one of MAP_KINDS."""
    n = draw(st.integers(2, 12))
    rng = Random(draw(st.integers(0, 10 ** 6)))
    levels = (0.25, 0.5, 1.0, 2.0)
    dist = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = rng.choice(levels) if rng.random() < 0.3 else 1.0 - rng.random()
            dist[i][j] = dist[j][i] = v
    kind = draw(st.sampled_from(MAP_KINDS))
    image = [rng.randrange(n) for _ in range(n)]
    if kind == "fixed-points":
        for i in rng.sample(range(n), rng.randint(1, n)):
            image[i] = i
    elif kind == "two-cycle":
        a, b = rng.sample(range(n), 2)
        image[a], image[b] = b, a
    elif kind == "constant":
        image = [rng.randrange(n)] * n
    return validate_finite_space(dist), FiniteMap(tuple(image))


@given(instances())
def test_certificates_match_reference_scan(inst):
    space, T = inst
    for G in GAUGES:
        for phi in DEFAULT_PHI_CATALOG:
            cert = certify_condition_G(space, T, G, phi).to_json()
            ref = reference_certificate(space, T, G, phi)
            assert {k: cert[k] for k in ref} == ref


@given(instances(), st.sampled_from((0.0, 1e-10, 0.5, 2.5)), st.integers(1, 40))
def test_traces_match_reference_orbit(inst, tol, max_iter):
    space, T = inst
    for x0 in space.points:
        trace = picard_iterate(space, T, x0, max_iter=max_iter, tol=tol).to_json()
        ref = reference_trace(space, T, x0, max_iter, tol)
        assert {k: trace[k] for k in ref} == ref


@given(instances(), st.sampled_from((0.0, 1e-10, 0.5, 2.5)), st.integers(1, 40))
def test_reference_traces_load(inst, tol, max_iter):
    # the loader's stop-field rules are the reference's stopping rules
    space, T = inst
    for x0 in space.points:
        ref = reference_trace(space, T, x0, max_iter, tol)
        loaded = trace_from_json({**ref, "space": space_to_json(space), "x0": x0})
        assert loaded == picard_iterate(space, T, x0, max_iter=max_iter, tol=tol)


def outcome(f, *args):
    """f(*args), or the name of the error it raised."""
    try:
        return f(*args)
    except (BudgetExhausted, OrbitTooShort) as exc:
        return type(exc).__name__


@given(instances(), st.integers(1, 3), st.sampled_from((0.05, 0.5, 2.0)))
def test_lemmas_match_reference_orbit(inst, n, eps):
    space, T = inst
    for x0 in space.points:
        assert (outcome(m_epsilon, space, T, x0, n, eps, space.s, 20)
                == outcome(reference_m_epsilon, space, T, x0, n, eps, 20))
        # cycles stop the trace early, so some ball centres are not recorded
        trace = picard_iterate(space, T, x0, max_iter=64)
        for m in (1, 2):
            assert (outcome(verify_invariant_ball, space, T, trace, eps, n, m)
                    == outcome(reference_ball, space, T, trace, eps, n, m))


# --- malformed input -------------------------------------------------------------

THREE = validate_finite_space([[0.0, 1.0, 2.0], [1.0, 0.0, 4.0], [2.0, 4.0, 0.0]])
GOOD = FiniteMap((0, 0, 1))
LEAVING = FiniteMap((0, 5, 1))          # the image of point 1 is not a point


@pytest.mark.parametrize("x0", [3, -1, 1.0])
def test_out_of_range_start_point(x0):
    with pytest.raises(PointOutOfDomain):
        picard_iterate(THREE, GOOD, x0)
    with pytest.raises(PointOutOfDomain):
        m_epsilon(THREE, GOOD, x0, 1, 0.5, THREE.s)
    # the walker checks the start point when it is built, so it never hands
    # it out as point 0
    with pytest.raises(PointOutOfDomain, match="not in space"):
        OrbitWalker(THREE, GOOD, x0)


@pytest.mark.parametrize("center", [3, 4, -1])
def test_ball_center_outside_the_space(center):
    # a trace settled at a point the space lacks; -1 would index the matrix
    trace = PicardTrace(space=THREE, x0=center, orbit=(center,), indices=(0,),
                        step_dists=(), stop_reason="exact-fixed-point",
                        fixed_point=center, k_stop=0)
    with pytest.raises(PointOutOfDomain):
        verify_invariant_ball(THREE, GOOD, trace, 10.0, 1, 1)


def test_map_leaving_the_space():
    trace = picard_iterate(THREE, GOOD, 2)
    with pytest.raises(PointOutOfDomain):
        picard_iterate(THREE, LEAVING, 2)
    with pytest.raises(PointOutOfDomain):
        m_epsilon(THREE, LEAVING, 2, 1, 0.5, THREE.s)
    with pytest.raises(PointOutOfDomain):
        OrbitWalker(THREE, LEAVING, 2).point(3)
    with pytest.raises(PointOutOfDomain):
        verify_invariant_ball(THREE, LEAVING, trace, 10.0, 1, 1)


def test_map_leaving_the_space_off_the_orbit():
    # the orbit of 1 never reaches point 2, whose image is not a point; the
    # map is checked as a whole before the first step, as picard_iterate does
    unreached = FiniteMap((0, 0, 5))
    with pytest.raises(PointOutOfDomain):
        m_epsilon(THREE, unreached, 1, 1, 0.5, THREE.s)
    with pytest.raises(PointOutOfDomain):
        OrbitWalker(THREE, unreached, 1).point(2)


def test_map_of_the_wrong_length():
    # a short map must not reach the orbit steps, where it would be indexed
    for wrong in (FiniteMap((0, 0)), FiniteMap((0, 0, 1, 2))):
        with pytest.raises(ValueError, match="map length"):
            m_epsilon(THREE, wrong, 2, 1, 0.5, THREE.s)
        with pytest.raises(ValueError, match="map length"):
            OrbitWalker(THREE, wrong, 2).point(1)

