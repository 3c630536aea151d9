"""Comparison functions, gauge functions, and their class certification.

Two function classes drive the contraction condition:

* comparison functions ``phi``: non-decreasing self-maps of (0, inf) whose
  n-fold iterates tend to 0 at every point;
* gauge functions ``G``: maps (0, inf) -> (0, inf), certified either by a
  positive infimum (class G1) or by the equivalence
  ``G(a_n) -> 0  iff  a_n -> 0`` (class G2).

Both limit conditions are only semi-decidable by finite evaluation, so
certification verdicts are three-valued (yes / no / inconclusive) and carry
evidence.  Built-in analytic families additionally expose closed forms for
their infima and interval sup/inf, which removes sampling doubt; tabulated
functions use right-constant steps, which makes sup/inf over intervals exact.

The module also computes the two quantitative thresholds used by the
convergence analysis: ``epsilon0`` (the radius below which a G2 gauge is
uniformly <= 1 near zero and uniformly positive away from zero) and
``n_epsilon`` (the iteration count after which distances below eps shrink
below eps/(2s) for any certified operator).
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left, bisect_right
from dataclasses import asdict, dataclass, field
from functools import cache
from operator import lt
from typing import Callable

from .errors import (
    BudgetExhausted,
    DomainRestricted,
    EmptyGrid,
    NonpositiveArgument,
    NotInvertible,
    NoValidEpsilon,
    NotStrictlyIncreasing,
)
from .spaces import _json_number

PHI_BUDGET_DEFAULT = 10 ** 6
PHI_TOL_DEFAULT = 1e-9
PER_DECADE_DEFAULT = 512
PHI_GRID = (0.01, 0.1, 1.0, 10.0, 100.0)   # where catalogs and the CLI certify phi
GRID_LO_DECADE = -9
GRID_HI_DECADE = 9

# Sampled infimum estimates below this floor are treated as "inf = 0".
INF_FLOOR = 1e-12

_DYADIC_DOWN = [2.0 ** -k for k in range(0, 80)]
_DYADIC_UP = [2.0 ** k for k in range(0, 80)]


def _safe_exp(x: float) -> float:
    # exp saturating to +inf instead of raising; the real value is finite but
    # beyond double range, and sup/inf comparisons stay sound with inf
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def log_grid(lo_decade: int = GRID_LO_DECADE, hi_decade: int = GRID_HI_DECADE,
             per_decade: int = PER_DECADE_DEFAULT) -> list[float]:
    """Log-spaced evaluation grid: per_decade points per decade, inclusive ends."""
    pts = []
    for dec in range(lo_decade, hi_decade):
        for i in range(per_decade):
            pts.append(10.0 ** (dec + i / per_decade))
    pts.append(10.0 ** hi_decade)
    return pts


# --- scalar forms (used by exp-of-F gauges and the adapter) -----------------

@dataclass(frozen=True)
class RealForm:
    """A named scalar function with optional analytic facts attached.

    ``inf_value`` is the infimum over (0, inf); ``diverges_iff_zero`` states
    whether ``fn(a_n) -> -inf`` holds exactly when ``a_n -> 0``.
    ``json_form`` is the loadable document for parameterized forms.
    """

    name: str
    fn: Callable[[float], float]
    inverse: Callable[[float], float] | None = None
    increasing: bool | None = None
    inf_value: float | None = None
    diverges_iff_zero: bool | None = None
    json_form: object = None

    def __call__(self, x: float) -> float:
        return self.fn(x)

    def describe(self):
        return self.json_form if self.json_form is not None else self.name


LN = RealForm("ln", math.log, math.exp, increasing=True,
              inf_value=-math.inf, diverges_iff_zero=True)

IDENTITY_FORM = RealForm("identity", lambda x: x, lambda y: y, increasing=True,
                         inf_value=0.0, diverges_iff_zero=False)


def affine_form(a: float, b: float) -> RealForm:
    """Form x -> a*x + b on (0, inf); a must be finite and nonzero, b finite."""
    if not (math.isfinite(a) and a != 0.0):
        raise ValueError("affine form needs a finite a != 0")
    if not math.isfinite(b):
        raise ValueError("affine form needs a finite b")
    inf_v = b if a > 0 else -math.inf
    return RealForm(f"affine({a!r},{b!r})", lambda x: a * x + b,
                    lambda y: (y - b) / a, increasing=a > 0,
                    inf_value=inf_v, diverges_iff_zero=False,
                    json_form={"affine": {"a": a, "b": b}})


def shift_form(tau: float) -> RealForm:
    """Form t -> t - tau (the classical contraction shift); tau must be finite."""
    if not math.isfinite(tau):
        raise ValueError("shift form needs a finite tau")
    return RealForm(f"shift({tau!r})", lambda t: t - tau, lambda y: y + tau,
                    increasing=True, inf_value=-tau,
                    diverges_iff_zero=False, json_form={"shift": tau})


def _breakpoints(points) -> tuple[tuple[float, float], ...]:
    """The (t, value) pairs of a step table as floats: at least one, with
    breakpoints t strictly increasing and none NaN.  The values are checked
    by the table's own rule."""
    pts = tuple((float(t), float(v)) for t, v in points)
    if not pts:
        raise ValueError("tabulated function needs at least one breakpoint")
    ts = [t for t, _ in pts]
    if any(map(math.isnan, ts)) or not all(map(lt, ts, ts[1:])):
        raise ValueError("breakpoints must be strictly increasing and not NaN")
    return pts


def _step_eval(points, t: float) -> float:
    # Right-constant: value at the largest breakpoint <= t; below the first
    # breakpoint, the first value.
    ts = [p[0] for p in points]
    idx = bisect_right(ts, t) - 1
    return points[max(idx, 0)][1]


@dataclass(frozen=True)
class _StepTable:
    """A right-constant step function of (t, value) breakpoints with
    positive values: the table behind step comparison functions and gauges."""

    points: tuple[tuple[float, float], ...]

    def __post_init__(self):
        pts = _breakpoints(self.points)
        if not all(v > 0.0 for _, v in pts):
            raise ValueError("tabulated values must be positive")
        object.__setattr__(self, "points", pts)

    def eval(self, t: float) -> float:
        return _step_eval(self.points, t)

    def describe(self) -> dict:
        return {"family": "tabulated", "points": [list(p) for p in self.points]}


# --- comparison function families -------------------------------------------

class _ClosedFormPhi:
    """A family whose membership facts are proved once for all parameters:
    it is non-decreasing and its iterates tend to 0 at every point."""

    def known_decay(self):
        return True

    def known_monotone(self):
        return True


@dataclass(frozen=True)
class LinearPhi(_ClosedFormPhi):
    """phi(t) = c * t with 0 < c < 1."""

    c: float

    def __post_init__(self):
        if not (0.0 < self.c < 1.0):
            raise ValueError("linear comparison function needs 0 < c < 1")

    def eval(self, t: float) -> float:
        return self.c * t

    def describe(self) -> dict:
        return {"family": "linear", "c": self.c}


@dataclass(frozen=True)
class HyperbolicPhi(_ClosedFormPhi):
    """phi(t) = t / (1 + a*t) with a > 0; iterates decay like t/(1 + n*a*t)."""

    a: float

    def __post_init__(self):
        if not 0.0 < self.a < math.inf:
            raise ValueError("hyperbolic comparison function needs a finite a > 0")

    def eval(self, t: float) -> float:
        return t / (1.0 + self.a * t)

    def describe(self) -> dict:
        return {"family": "hyperbolic", "a": self.a}


@dataclass(frozen=True)
class ShiftedPhi(_ClosedFormPhi):
    """phi(t) = exp(-tau) * t: a constant shift transported through exp/ln.

    ``base`` is optional provenance metadata naming the gauge the shift was
    paired with on the adapter path; it does not change the values.
    """

    tau: float
    base: object | None = None

    def __post_init__(self):
        if not 0.0 < self.tau < math.inf:
            raise ValueError("shift needs a finite tau > 0")

    def eval(self, t: float) -> float:
        return math.exp(-self.tau) * t

    def describe(self) -> dict:
        out = {"family": "shifted", "tau": self.tau}
        if self.base is not None:
            out["base"] = self.base.describe()
        return out


class TabulatedPhi(_StepTable):
    """Right-constant step function given by (t, phi(t)) breakpoints."""

    def known_decay(self):
        return None

    def known_monotone(self):
        vals = [v for _, v in self.points]
        return True if vals == sorted(vals) else False


@dataclass(frozen=True)
class ExpPsiLnPhi:
    """phi = exp . psi . ln, the comparison function induced by an adapter shift."""

    psi: RealForm

    def eval(self, t: float) -> float:
        return _safe_exp(self.psi.fn(math.log(t)))

    def known_decay(self):
        return None

    def known_monotone(self):
        return self.psi.increasing

    def describe(self) -> dict:
        return {"family": "exp_psi_ln", "psi": self.psi.describe()}


@dataclass(frozen=True)
class ConjugatePhi:
    """The composite G^-1 . phi . G for an invertible strictly increasing gauge.

    Membership of the inner function propagates: conjugation by a strictly
    increasing bijection of (0, inf) preserves monotonicity and iterate decay
    (the iterates are G^-1(phi^n(G(t)))).
    """

    gauge: object
    inner: object

    def eval(self, t: float) -> float:
        return self.gauge.inverse_eval(phi_eval(self.inner, self.gauge.eval(t)))

    def known_decay(self):
        return self.inner.known_decay()

    def known_monotone(self):
        return self.inner.known_monotone()

    def describe(self) -> dict:
        return {"family": "conjugate", "gauge": self.gauge.describe(),
                "inner": self.inner.describe()}


def phi_eval(phi, t: float) -> float:
    """Evaluate a comparison function at t > 0."""
    if not (isinstance(t, (int, float)) and math.isfinite(t) and t > 0.0):
        raise NonpositiveArgument(f"comparison functions take positive reals, got {t!r}")
    return phi.eval(float(t))


def phi_iterate(phi, t: float, n: int) -> float:
    """n-fold composition phi^n(t); n = 0 returns t."""
    if not (isinstance(t, (int, float)) and math.isfinite(t) and t > 0.0):
        raise NonpositiveArgument(f"comparison functions take positive reals, got {t!r}")
    if n < 0:
        raise ValueError("iteration count must be non-negative")
    u = float(t)
    for _ in range(n):
        u = phi.eval(u)
    return u


@dataclass(frozen=True)
class PhiCertificate:
    verdict: str                      # "member" | "non-member" | "inconclusive"
    witness: dict | None = None
    evidence: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return asdict(self)


def certify_phi(phi, grid, budget: int = PHI_BUDGET_DEFAULT,
                tol: float = PHI_TOL_DEFAULT) -> PhiCertificate:
    """Certify membership of phi in the comparison-function class on a grid.

    Checks positivity and monotonicity on the grid, rejects any point with
    phi(t) >= t (iterates from such a point can never decay), then settles
    iterate decay: closed-form families are decided analytically, opaque
    families by iterating each grid point until the value drops below
    ``tol`` or ``budget`` is exhausted.
    """
    pts = sorted(set(float(t) for t in grid))
    if not pts:
        raise EmptyGrid("certification grid is empty")
    if budget < 1:
        raise ValueError("budget must be at least 1")

    vals = []
    for i, t in enumerate(pts):
        v = phi_eval(phi, t)
        if not v > 0.0:
            return PhiCertificate("non-member",
                                  witness={"kind": "nonpositive-value", "t": t, "phi_t": v})
        if i and v < vals[-1]:
            return PhiCertificate(
                "non-member",
                witness={"kind": "monotonicity", "t1": pts[i - 1], "phi_t1": vals[-1],
                         "t2": t, "phi_t2": v})
        vals.append(v)

    for t, v in zip(pts, vals):
        if v >= t:
            # For a globally non-decreasing phi, phi(t) >= t forces
            # phi^n(t) >= t for all n: definitive stagnation.  Without that
            # knowledge the verdict stays inconclusive.
            verdict = "non-member" if phi.known_monotone() is True else "inconclusive"
            return PhiCertificate(
                verdict, witness={"kind": "stagnation", "t": t, "phi_t": v})

    decay = phi.known_decay()
    if decay is True:
        return PhiCertificate("member", evidence={
            "decay": "closed-form", "grid_points": len(pts), "tol": tol})
    if decay is False:
        return PhiCertificate("non-member",
                              witness={"kind": "known-non-convergent"})

    worst_k = 0
    for t in pts:
        u = t
        reached = False
        for k in range(1, budget + 1):
            u_next = phi.eval(u)
            if u_next < tol:
                worst_k = max(worst_k, k)
                reached = True
                break
            if u_next >= u:
                verdict = ("non-member" if phi.known_monotone() is True
                           else "inconclusive")
                return PhiCertificate(
                    verdict, witness={"kind": "stagnant-iterate", "t": t,
                                      "stuck_at": u_next, "k": k})
            u = u_next
        if not reached:
            return PhiCertificate(
                "inconclusive",
                witness={"kind": "budget", "t": t, "reached": u, "budget": budget},
                evidence={"tol": tol})
    return PhiCertificate("member", evidence={
        "decay": "iterated", "grid_points": len(pts), "tol": tol,
        "max_iterations": worst_k})


def check_phi_strict_decrease(phi, grid) -> tuple[bool, list[dict]]:
    """Check phi(t) < t on every grid point; reports witnesses, never raises."""
    witnesses = []
    for t in grid:
        v = phi.eval(float(t))
        if not v < t:
            witnesses.append({"t": float(t), "phi_t": v})
    return (not witnesses, witnesses)


# --- gauge families ----------------------------------------------------------

class _GaugeBase:
    """Interval sup/inf of a gauge by the endpoint rule.

    For a strictly increasing gauge the sup over (0, eps) is G(eps), and the
    inf over (thr, inf) or [eps, hi] is G(thr) or G(eps).  Other gauges
    answer None, and callers fall back to sampling.
    """

    def _endpoint(self, a: float):
        return self.eval(a) if self.strictly_increasing() else None

    def sup_below(self, eps: float):
        return self._endpoint(eps)

    def inf_above(self, thr: float):
        return self._endpoint(thr)

    def inf_from(self, eps: float, hi: float):
        return self._endpoint(eps)


@dataclass(frozen=True)
class IdentityGauge(_GaugeBase):
    """G(a) = a."""

    def eval(self, a: float) -> float:
        return a

    def known_inf(self):
        return 0.0

    def known_g2(self):
        return True

    def strictly_increasing(self):
        return True

    def inverse_eval(self, y: float) -> float:
        return y

    def describe(self) -> dict:
        return {"family": "identity"}


@dataclass(frozen=True)
class PowerGauge(_GaugeBase):
    """G(a) = a ** q with q > 0."""

    q: float

    def __post_init__(self):
        if not 0.0 < self.q < math.inf:
            raise ValueError("power gauge needs a finite q > 0")

    def eval(self, a: float) -> float:
        # saturates like _safe_exp: from q ~ 13 on, (2^79) ** q overflows
        try:
            return a ** self.q
        except OverflowError:
            return math.inf

    def known_inf(self):
        return 0.0

    def known_g2(self):
        return True

    def strictly_increasing(self):
        return True

    def inverse_eval(self, y: float) -> float:
        return y ** (1.0 / self.q)

    def describe(self) -> dict:
        return {"family": "power", "q": self.q}


@dataclass(frozen=True)
class AffinePlusGauge(_GaugeBase):
    """G(a) = c + a with c > 0; the infimum c keeps it in class G1."""

    c: float

    def __post_init__(self):
        if not 0.0 < self.c < math.inf:
            raise ValueError("affine-plus gauge needs a finite c > 0")

    def eval(self, a: float) -> float:
        return self.c + a

    def known_inf(self):
        return self.c

    def known_g2(self):
        return False

    def strictly_increasing(self):
        return True

    def inverse_eval(self, y: float) -> float:
        if not y > self.c:
            raise DomainRestricted(
                f"value {y} outside gauge range ({self.c}, inf)")
        return y - self.c

    def describe(self) -> dict:
        return {"family": "affine_plus", "c": self.c}


@dataclass(frozen=True)
class ExpOfFGauge(_GaugeBase):
    """G = exp(F) for a scalar form F on (0, inf)."""

    f: RealForm

    def eval(self, a: float) -> float:
        return _safe_exp(self.f.fn(a))

    def known_inf(self):
        if self.f.inf_value is None:
            return None
        return _safe_exp(self.f.inf_value)

    def known_g2(self):
        return self.f.diverges_iff_zero

    def strictly_increasing(self):
        return self.f.increasing is True

    def inverse_eval(self, y: float) -> float:
        if self.f.inverse is None:
            raise NotInvertible(f"form {self.f.name} exposes no inverse")
        return self.f.inverse(math.log(y))

    def describe(self) -> dict:
        return {"family": "exp_of_f", "f": self.f.describe()}


class TabulatedGauge(_StepTable, _GaugeBase):
    """Right-constant step gauge; its range is the finite set of table values."""

    def known_inf(self):
        return min(v for _, v in self.points)

    def known_g2(self):
        # A step gauge takes finitely many positive values, so G(a_n) cannot
        # tend to 0 along a_n -> 0.
        return False

    def strictly_increasing(self):
        return False

    def inverse_eval(self, y: float):
        raise NotInvertible("step gauges are not invertible")

    def _regions(self) -> list[tuple[float, float, float]]:
        """(left, right, value) of each step [left, right)."""
        ts = [t for t, _ in self.points[1:]] + [math.inf]
        # the first value extends to 0+
        return [(t if i > 0 else 0.0, right, v)
                for i, ((t, v), right) in enumerate(zip(self.points, ts))]

    def sup_below(self, eps: float):
        """sup over (0, eps)."""
        return max(v for left, _, v in self._regions() if left < eps)

    def inf_above(self, thr: float):
        """inf over (thr, inf)."""
        return min(v for _, right, v in self._regions() if right > thr)

    def inf_from(self, eps: float, hi: float):
        """inf over [eps, hi]: the step that starts at hi counts."""
        return min(v for left, right, v in self._regions()
                   if right > eps and left <= hi)


def gauge_eval(G, a: float) -> float:
    """Evaluate a gauge at a > 0."""
    if not (isinstance(a, (int, float)) and math.isfinite(a) and a > 0.0):
        raise NonpositiveArgument(f"gauges take positive reals, got {a!r}")
    return G.eval(float(a))


@cache
def _default_grid() -> tuple[float, ...]:
    # log_grid()'s defaults are module constants, so it is built once
    return tuple(log_grid())


def _grid_points(grid, what: str) -> list[float]:
    """The sorted distinct points of ``grid``; None means ``log_grid()``."""
    if grid is None:
        # strictly increasing and never empty
        return list(_default_grid())
    pts = list(map(float, grid))
    # a NaN fails < and takes the sort like any other unsorted grid
    if not all(map(lt, pts, pts[1:])):
        pts = sorted(set(pts))
    if not pts:
        raise EmptyGrid(f"{what} grid is empty")
    return pts


def _running_min(vals: list[float]) -> list[float]:
    """Running minima of vals from the right: numpy's minimum.accumulate of
    the reversed list, bit for bit.  NaN propagates and a tie takes the
    later value, which decides a zero's sign."""
    out, m = [], math.inf
    for v in reversed(vals):
        if not (m != m or m < v):
            m = v
        out.append(m)
    out.reverse()
    return out


class _Extrema:
    """sup and inf of G over intervals whose ends lie on a sorted grid.

    A query takes G's closed form when it has one, else samples G on the
    grid, plus probes between the grid and an open end.  Sups over (0, eps)
    and infs over [eps, grid max] read ``table()``: one evaluation of G per
    grid point, kept as running maxima from the left and running minima
    from the right.  An inf over (thr, inf) evaluates G only at the grid
    points above thr, since the rest cannot lower it.  A sampled sup over
    (0, eps) includes G(eps) and a sampled inf over (thr, inf) includes
    G(thr): for a continuous gauge these are the limits at the open ends,
    so the sampled sup never exceeds the true one nor the sampled inf falls
    below it, and for an increasing gauge both equal the closed form.
    ``sup_floor`` is a lower bound on the sup that does not decrease along
    the grid, so a search for the last eps with sup <= level can bisect on
    it and probe only from there down.  ``pts=None`` is the default grid,
    built once per process and copied only if a query samples.
    """

    def __init__(self, G, pts=None):
        self.G = G
        self.pts = pts
        self._table = None

    def _points(self) -> list[float]:
        if self.pts is None:
            self.pts = _grid_points(None, "default")
        return self.pts

    def table(self) -> tuple[list[float], list[float]]:
        """(running max of G over pts[:i+1], running min over pts[i:])."""
        if self._table is None:
            vals = [float(self.G.eval(t)) for t in self._points()]
            # numpy's maximum.accumulate, bit for bit, as _running_min is
            # minimum.accumulate; an inline loop, because a call per point
            # would double the cost
            running_max, m = [], vals[0]
            for v in vals:
                if not (m != m or m > v):
                    m = v
                running_max.append(m)
            self._table = (running_max, _running_min(vals))
        return self._table

    def sup_floor(self, i: int) -> float:
        """A lower bound on ``sup_below(i)`` that does not decrease in i:
        the closed form, else the running max of G over pts[:i+1], which
        stays NaN once it is NaN."""
        v = self.G.sup_below(self.pts[i])
        return self.table()[0][i] if v is None else v

    def sup_below(self, i: int) -> float:
        """sup of G over (0, pts[i])."""
        v = self.G.sup_below(self.pts[i])
        if v is None:
            probes = [self.pts[i] * 2.0 ** -k for k in range(1, 40)]
            v = max([self.table()[0][i]] + [self.G.eval(t) for t in probes if t > 0.0])
        return v

    def inf_from(self, i: int) -> float:
        """inf of G over [pts[i], pts[-1]]."""
        v = self.G.inf_from(self.pts[i], self.pts[-1])
        return self.table()[1][i] if v is None else v

    def inf_above(self, thr: float) -> float:
        """inf of G over (thr, inf)."""
        v = self.G.inf_above(thr)
        if v is None:
            pts = self._points()
            above = [float(self.G.eval(t)) for t in pts[bisect_right(pts, thr):]]
            probes = [thr] + [thr * (1.0 + 2.0 ** -k) for k in range(0, 40)]
            v = min(_running_min(above)[:1] + [self.G.eval(t) for t in probes])
        return v


@dataclass(frozen=True)
class ClassCertificate:
    in_g1: str                         # "yes" | "no" | "inconclusive"
    in_g2: str
    evidence: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        # a gauge value or estimate past the float range is written as null
        return json.loads(json.dumps(asdict(self)), parse_constant=lambda _: None)


def certify_gauge_class(G, grid=None) -> ClassCertificate:
    """Certify membership of a gauge in classes G1 and/or G2.

    G1 ("inf G > 0") is answered "yes" only from an analytic lower bound for
    the family; "no" always carries a sampled witness sequence driving the
    gauge below any positive level.  G2 is decided from family knowledge when
    available, otherwise by the sampling scheme: evaluate along a dyadic
    refinement a = 2^-k (direction a -> 0) and along a = 2^k together with
    the infimum over the grid (direction G -> 0 forces a -> 0).  Values below
    PHI_TOL_DEFAULT count as zero, so the grid should span at least
    [PHI_TOL_DEFAULT, 1/PHI_TOL_DEFAULT] on a log scale, as the default does.
    """
    grid = _grid_points(grid, "certification")

    down = [(a, G.eval(a)) for a in _DYADIC_DOWN]
    up = [(a, G.eval(a)) for a in _DYADIC_UP]
    down_tail = down[-12:]
    if G.strictly_increasing():
        # the endpoint rule, as in epsilon0 and n_epsilon
        inf_est, sup_est = float(G.eval(grid[0])), float(G.eval(grid[-1]))
    else:
        running_max, running_min = _Extrema(G, grid).table()
        inf_est, sup_est = running_min[0], running_max[-1]
    evidence: dict = {
        "grid_lo": grid[0], "grid_hi": grid[-1], "grid_points": len(grid),
        "refinement_tail": [[a, v] for a, v in down_tail],
        "inf_grid_estimate": inf_est,
        "sup_grid_estimate": sup_est,
    }

    ki = G.known_inf()
    if ki is not None:
        if ki > 0.0:
            in_g1 = "yes"
            evidence["inf_closed_form"] = ki
        else:
            in_g1 = "no"
            evidence["g1_witness"] = [[a, v] for a, v in down_tail]
    else:
        est = min(v for _, v in down)
        if est < PHI_TOL_DEFAULT:
            in_g1 = "no"
            evidence["g1_witness"] = [[a, v] for a, v in down if v < PHI_TOL_DEFAULT][:12]
        else:
            in_g1 = "inconclusive"

    stuck_up = [[a, v] for a, v in up if v < PHI_TOL_DEFAULT][:12]
    vanishes_away = {"kind": "vanishes-away-from-zero", "sequence": stuck_up}
    no_vanishing = {"kind": "values-do-not-vanish",
                    "sequence": [[a, v] for a, v in down_tail]}
    kg2 = G.known_g2()
    if kg2 is True:
        in_g2 = "yes"
        evidence["g2"] = "closed-form"
    elif kg2 is False:
        in_g2 = "no"
        if min(v for _, v in down_tail) < PHI_TOL_DEFAULT and stuck_up:
            # direction G -> 0 fails: gauge vanishes away from zero
            evidence["g2_witness"] = vanishes_away
        else:
            # direction a -> 0 fails: G approaches a nonzero limit
            evidence["g2_witness"] = no_vanishing
    else:
        to_zero = all(v < PHI_TOL_DEFAULT for _, v in down[-10:])
        # each region [eps, grid max], eps on the grid, lies in the whole grid
        if to_zero and inf_est > 0.0 and not stuck_up:
            in_g2 = "yes"
            evidence["g2"] = "sampled"
        elif not to_zero and min(v for _, v in down[-10:]) >= PHI_TOL_DEFAULT:
            in_g2 = "no"
            evidence["g2_witness"] = no_vanishing
        elif stuck_up:
            in_g2 = "no"
            evidence["g2_witness"] = vanishes_away
        else:
            in_g2 = "inconclusive"

    return ClassCertificate(in_g1=in_g1, in_g2=in_g2, evidence=evidence)


def classify_increasing_gauge(G, grid=None) -> str:
    """Dichotomy for strictly increasing gauges: returns "G1" or "G2".

    A strictly increasing gauge always lies in the union of the two classes:
    if its infimum is positive it is in G1, otherwise monotonicity forces
    G(a) -> 0 along a -> 0+ and the gauge is in G2.
    """
    pts = _grid_points(grid, "classification")
    prev_t, prev_v = pts[0], G.eval(pts[0])
    for t in pts[1:]:
        v = G.eval(t)
        # a tie at +inf is two values past the float range, not a witness
        if not (v > prev_v or v == prev_v == math.inf):
            raise NotStrictlyIncreasing(
                f"gauge not strictly increasing between {prev_t} and {t}",
                witness={"t1": prev_t, "v1": prev_v, "t2": t, "v2": v})
        prev_t, prev_v = t, v

    ki = G.known_inf()
    if ki is not None:
        return "G1" if ki > 0.0 else "G2"
    est = math.inf
    a = pts[0]
    for _ in range(120):
        est = min(est, G.eval(a))
        if est <= INF_FLOOR:
            break
        a *= 0.5
        if a == 0.0:
            break
    return "G1" if est > INF_FLOOR else "G2"


def epsilon0(G, grid=None, level: float = 1.0) -> float:
    """Largest grid value eps0 with sup G on (0, eps0) <= level and positive
    infima on every region [eps, grid-max] for grid eps below eps0.

    Presupposes a gauge certified in class G2; raises NoValidEpsilon when no
    grid value qualifies (which contradicts G2 membership and signals a
    certification failure upstream).
    """
    pts = _grid_points(grid, "epsilon0")
    ext = _Extrema(G, pts)
    # the regions [eps, grid max] for grid eps all lie inside the first one,
    # so their infima are all positive iff the first one's is; a strictly
    # increasing gauge's is G(grid min) > 0, even where the float underflows
    if G.strictly_increasing() or ext.inf_from(0) > 0.0:
        # sup_floor(i) <= level holds on a prefix of the grid, and past it
        # sup_below(i) <= level fails too: scan down from the prefix's end
        k = bisect_left(range(len(pts)), True,
                        key=lambda i: not ext.sup_floor(i) <= level)
        for i in range(k - 1, -1, -1):
            if ext.sup_below(i) <= level:
                return pts[i]
    raise NoValidEpsilon(
        f"no grid value has sup below {level}; gauge cannot be in G2")


def n_epsilon(G, phi, s: float, eps: float, level: float = 1.0,
              budget: int = 10_000) -> int:
    """Smallest n <= budget with inf of G over (eps/(2s), inf) > phi^n(level).

    The returned n witnesses the shrinking step of the convergence argument:
    for any operator certified against (G, phi), distances below eps map
    under T^n to distances below eps/(2s).  The comparison is strict, as the
    argument requires.  Callers must supply eps below the gauge's epsilon0
    for the given level and a certified comparison function.
    """
    if not eps > 0.0:
        raise NonpositiveArgument("eps must be positive")
    if not s >= 1.0:
        raise ValueError("b-metric constant must be >= 1")
    if not level > 0.0:
        raise NonpositiveArgument("level must be positive")
    thr = eps / (2.0 * s)
    target = _Extrema(G).inf_above(thr)
    u = level
    for n in range(1, budget + 1):
        u = phi.eval(u)
        if target > u:
            return n
    raise BudgetExhausted(
        f"phi^n({level}) did not drop below {target} within {budget} iterations")


# --- JSON interface ----------------------------------------------------------

def phi_from_json(obj: dict):
    fam = obj["family"]
    if fam == "linear":
        return LinearPhi(_json_number(obj["c"]))
    if fam == "hyperbolic":
        return HyperbolicPhi(_json_number(obj["a"]))
    if fam == "shifted":
        base = gauge_from_json(obj["base"]) if obj.get("base") else None
        return ShiftedPhi(_json_number(obj["tau"]), base=base)
    if fam == "tabulated":
        return TabulatedPhi(tuple((_json_number(t), _json_number(v)) for t, v in obj["points"]))
    raise ValueError(f"unknown comparison-function family {fam!r}")


def _form_from_json(obj) -> RealForm:
    if obj == "ln":
        return LN
    if obj == "identity":
        return IDENTITY_FORM
    if isinstance(obj, dict) and "affine" in obj:
        return affine_form(_json_number(obj["affine"]["a"]), _json_number(obj["affine"]["b"]))
    if isinstance(obj, dict) and "shift" in obj:
        return shift_form(_json_number(obj["shift"]))
    raise ValueError(f"unknown scalar form {obj!r}")


def gauge_from_json(obj: dict):
    fam = obj["family"]
    if fam == "identity":
        return IdentityGauge()
    if fam == "power":
        return PowerGauge(_json_number(obj["q"]))
    if fam == "affine_plus":
        return AffinePlusGauge(_json_number(obj["c"]))
    if fam == "exp_of_f":
        return ExpOfFGauge(_form_from_json(obj["f"]))
    if fam == "tabulated":
        return TabulatedGauge(tuple((_json_number(t), _json_number(v)) for t, v in obj["points"]))
    raise ValueError(f"unknown gauge family {fam!r}")
