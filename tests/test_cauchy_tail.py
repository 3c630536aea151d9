"""The Cauchy tail check against every pair of tail points.

``_cauchy_tail`` takes the diameter of the tail x_k, k >= m_bar * n: the
largest matrix entry among the tail's distinct points on a finite space, the
distance of the tail's extremes on an interval.  ``all_pairs_tail`` below is
the reference: every pair of tail indices through the space's distance, none
skipped.  The two must agree bit for bit on ``max_observed`` and exactly on
``pairs_checked``.
"""

import json
import math
from random import Random

import pytest

from gphi.cli import run_cli
from gphi.contraction import AffineMap, FiniteMap
from gphi.errors import OrbitTooShort, PointOutOfDomain
from gphi.harness import generate_operator, generate_space
from gphi.solver import PicardTrace, _cauchy_tail, picard_iterate
from gphi.spaces import AnalyticSpace, validate_finite_space
from test_harness import uniform_map


def all_pairs_tail(trace, eps, n, m, m0):
    """Every pair of tail indices k1 < k2 through ``space.distance``."""
    space = trace.space
    cutoff = max(m, m0) * n
    ks = [*range(cutoff, trace.max_index + 1)]
    if trace.stop_reason == "exact-fixed-point":
        ks.append(trace.max_index + 1)          # x_k is the fixed point past the stop
    if not ks:
        raise OrbitTooShort(f"trace truncated before index {cutoff}")
    pts = [trace.point_at(k) for k in ks]
    max_obs = 0.0
    checked = 0
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            d = space.distance(pts[i], pts[j])
            checked += 1
            if d > max_obs:
                max_obs = d
    return max_obs, checked


def outcome(check, trace, n, m, m0):
    try:
        result = check(trace, 0.5, n, m, m0)
    except OrbitTooShort as exc:
        return ("raised", str(exc))
    if check is _cauchy_tail:
        assert result.holds == (result.max_observed <= result.bound)
        result = result.max_observed, result.pairs_checked
    max_obs, checked = result
    return (max_obs.hex(), checked)     # float.hex tells -0.0 from 0.0


def assert_agree(trace, cutoffs):
    for n, m, m0 in cutoffs:
        assert (outcome(_cauchy_tail, trace, n, m, m0)
                == outcome(all_pairs_tail, trace, n, m, m0)), (n, m, m0)


def cutoffs_of(trace):
    """(n, m, m0) triples whose cutoffs run from 1 to past the record."""
    last = trace.max_index + 3
    return [(1, k, 0) for k in range(1, last)] + [(2, 1, 3), (3, 2, 1), (5, 1, 1)]


def dyadic_chain(n):
    """d(i, j) = |2^-i - 2^-j| under the shift i -> i + 1, fixed at n - 1."""
    x = [2.0 ** -i for i in range(n)]
    space = validate_finite_space([[abs(a - b) for b in x] for a in x])
    return space, FiniteMap(tuple(min(i + 1, n - 1) for i in range(n)))


class TestFiniteTraces:
    def test_chain256(self):
        space, T = dyadic_chain(256)
        trace = picard_iterate(space, T, 0, max_iter=256, tol=0.0)
        assert trace.stop_reason == "exact-fixed-point" and len(trace.orbit) == 257
        assert_agree(trace, [(1, 1, 1), (3, 1, 1), (1, 128, 1), (7, 5, 30), (64, 2, 3),
                             (1, 255, 1), (1, 256, 1), (1, 257, 1), (300, 1, 1)])
        # the whole tail from x_3 on: the far pair x_3, x_256 gives 2^-3 - 2^-255
        diag = _cauchy_tail(trace, 0.5, 3, 1, 1)
        assert (diag.max_observed, diag.pairs_checked) == (0.125, 255 * 254 // 2)

    @pytest.mark.parametrize("seed", range(40))
    def test_exact_stops_and_cycles(self, seed):
        space = generate_space(f"tail:{seed}", 2 + seed % 9)
        T = (generate_operator(f"tail-op:{seed}", space) if seed % 2 == 0
             else uniform_map(f"tail-op:{seed}", space.n))
        for x0 in space.points:
            trace = picard_iterate(space, T, x0, max_iter=space.n, tol=0.0)
            assert_agree(trace, cutoffs_of(trace))

    def test_cycle(self):
        space, _ = dyadic_chain(5)
        trace = picard_iterate(space, FiniteMap((1, 2, 3, 4, 2)), 0, max_iter=20, tol=0.0)
        assert trace.cycle == (2, 3, 4) and trace.stop_reason == "budget-exhausted"
        assert_agree(trace, cutoffs_of(trace))

    def test_signed_zero_diagonal(self):
        # the step from a fixed point reads d(x, x) = -0.0; it never replaces 0.0
        space = validate_finite_space([[-0.0, 1.0], [1.0, 0.0]])
        trace = picard_iterate(space, FiniteMap((0, 0)), 0, max_iter=5, tol=0.0)
        assert math.copysign(1.0, trace.step_dists[0]) == -1.0
        assert_agree(trace, cutoffs_of(trace))
        assert _cauchy_tail(trace, 0.5, 1, 1, 1).max_observed.hex() == "0x0.0p+0"


class TestIntervalTraces:
    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    @pytest.mark.parametrize("a,b,x0", [
        (0.9, 0.0, 1.0),          # monotone, toward 0
        (0.97, 0.03, 0.0),        # monotone, toward 1 from below
        (-0.9, 0.9, 0.0),         # oscillating about 9/19
        (-0.99, 0.99, 1.0),       # oscillating, slowly
        (0.5, 0.25, 0.0),         # monotone, to an exact stop at 0.5
    ])
    def test_against_all_pairs(self, p, a, b, x0):
        space = AnalyticSpace(0.0, 1.0, p)
        trace = picard_iterate(space, AffineMap(a, b), x0, max_iter=300, tol=0.0)
        assert_agree(trace, [(1, k, 0) for k in (1, 2, 3, 50, 150, 299, 300, 301, 302)]
                     + [(7, 3, 5), (20, 2, 1)])

    def test_random_orbits(self):
        rng = Random(7)
        for _ in range(30):
            a = rng.uniform(-1.0, 1.0)
            b = rng.uniform(max(0.0, -a), min(1.0, 1.0 - a))   # maps [0, 1] into itself
            space = AnalyticSpace(0.0, 1.0, rng.choice([1.0, 1.5, 2.0, 3.0]))
            trace = picard_iterate(space, AffineMap(a, b), rng.random(), max_iter=200,
                                   tol=0.0)
            assert_agree(trace, [(1, rng.randrange(1, 210), 0) for _ in range(5)])


class TestTailPoints:
    @pytest.mark.parametrize("space,bad", [
        (validate_finite_space([[0.0, 1.0, 2.0], [1.0, 0.0, 2.0], [2.0, 2.0, 0.0]]), -1),
        (AnalyticSpace(0.0, 1.0, 1.0), math.nan),
        (AnalyticSpace(0.0, 1.0, 1.0), 1.5)])
    def test_every_tail_point_is_checked(self, space, bad):
        # a hand-built trace: -1 would index the matrix from its end, and a
        # NaN would hide from the tail's min and max
        inside = [0, 1, 2] if bad == -1 else [0.25, 0.5, 0.75]
        trace = PicardTrace(space=space, x0=inside[0], orbit=(*inside[:2], bad, inside[2]),
                            step_dists=(1.0, 1.0, 1.0),
                            stop_reason="budget-exhausted", fixed_point=None, k_stop=3)
        with pytest.raises(PointOutOfDomain):
            _cauchy_tail(trace, 0.5, 1, 1, 1)

    def test_oscillating_tail_diameter(self, tmp_path, capsys):
        # the tail x_831 .. x_2750, then the fixed point past the stop: 1921
        # points that alternate about the fixed point, so a sample of every
        # other one lies on one side and sees half of the diameter
        doc = {"space": {"lo": 0.0, "hi": 1.0, "p": 1.0},
               "operator": {"affine": {"a": -0.99, "b": 0.99}},
               "G": {"family": "identity"}, "phi": {"family": "linear", "c": 0.995}}
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(doc))
        argv = ["--tol", "0", "solve", str(path), "--x0", "0.0", "--max-iter", "3000",
                "--eps", "0.5"]
        assert run_cli(argv) == 0
        diag = json.loads(capsys.readouterr().out)["diagnostics"]
        assert (diag["n"], diag["m_bar"]) == (277, 3)
        assert diag["max_observed"] == 0.00023360487689400022
        assert diag["pairs_checked"] == 1921 * 1920 // 2
