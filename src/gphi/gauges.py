"""Comparison functions, gauge functions, and their class certification.

Two function classes drive the contraction condition:

* comparison functions ``phi``: non-decreasing self-maps of (0, inf) whose
  n-fold iterates tend to 0 at every point;
* gauge functions ``G``: maps (0, inf) -> (0, inf), certified either by a
  positive infimum (class G1) or by the equivalence
  ``G(a_n) -> 0  iff  a_n -> 0`` (class G2).

Both limit conditions are only semi-decidable by finite evaluation, so
certification verdicts are three-valued (yes / no / inconclusive) and carry
evidence.  A gauge's class is decided by its facts alone (closed-form
infimum, G2 membership, strict increase); samples are evidence.  Built-in
analytic families also expose closed forms for interval sup/inf, which
removes sampling doubt; tabulated functions use right-constant steps, which
makes sup/inf over intervals exact.

The module also computes the two quantitative thresholds used by the
convergence analysis: ``epsilon0`` (the radius below which a G2 gauge is
uniformly <= 1 near zero and uniformly positive away from zero) and
``n_epsilon`` (the iteration count after which distances below eps shrink
below eps/(2s) for any certified operator).
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from contextlib import suppress
from functools import cache, cached_property
from itertools import accumulate
from operator import itemgetter, lt
from typing import Callable

from .errors import (
    BudgetExhausted,
    DomainRestricted,
    EmptyGrid,
    NonpositiveArgument,
    NotInvertible,
    NoValidEpsilon,
)
from .spaces import _Fields, _Fresh, _Record, _json_number

PHI_TOL_DEFAULT = 1e-9
PER_DECADE_DEFAULT = 512
PHI_GRID = (0.01, 0.1, 1.0, 10.0, 100.0)   # where catalogs and the CLI certify phi
GRID_LO_DECADE = -9
GRID_HI_DECADE = 9

_DYADIC_DOWN = [2.0 ** -k for k in range(0, 80)]
_DYADIC_UP = [2.0 ** k for k in range(0, 80)]


def _safe_exp(x: float) -> float:
    # exp saturating to +inf instead of raising; the real value is finite but
    # beyond double range, and sup/inf comparisons stay sound with inf
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def log_grid(per_decade: int = PER_DECADE_DEFAULT) -> list[float]:
    """Log-spaced evaluation grid from 10**GRID_LO_DECADE to 10**GRID_HI_DECADE:
    per_decade points per decade, inclusive ends."""
    if per_decade < 1:
        raise ValueError(f"per_decade must be at least 1, got {per_decade}")
    pts = []
    for dec in range(GRID_LO_DECADE, GRID_HI_DECADE):
        for i in range(per_decade):
            pts.append(10.0 ** (dec + i / per_decade))
    pts.append(10.0 ** GRID_HI_DECADE)
    return pts


# --- scalar forms (used by exp-of-F gauges and the adapter) -----------------

class RealForm(_Fields):
    """A named scalar function with optional analytic facts attached.

    ``inf_value`` is the infimum over (0, inf); ``diverges_iff_zero`` states
    whether ``fn(a_n) -> -inf`` holds exactly when ``a_n -> 0``; a form
    whose two facts contradict each other is refused with a ValueError.
    ``json_form`` is the loadable document for parameterized forms.
    """

    name: str
    fn: Callable[[float], float]
    inverse: Callable[[float], float] | None = None
    increasing: bool | None = None
    inf_value: float | None = None
    diverges_iff_zero: bool | None = None
    json_form: object = None

    def __post_init__(self):
        # where both facts are given they must agree: G2 forces inf G = 0, that
        # is inf F = -inf, and an increasing F tends to -inf exactly as a -> 0
        dz = self.diverges_iff_zero
        if (self.inf_value is not None and dz is not None
                and dz != (self.inf_value == -math.inf) and (dz or self.increasing)):
            raise ValueError(f"form {self.name!r}: diverges_iff_zero={dz} contradicts "
                             f"inf_value={self.inf_value!r}")

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


def _psi_at(psi: RealForm, u: float, t: float | None = None) -> float:
    """psi(u), where u may be ln(t); where psi is undefined (a ValueError, as
    math.log raises below zero), DomainRestricted naming psi, u and t."""
    try:
        return psi.fn(u)
    except ValueError:
        at = f"{u!r}" if t is None else f"ln({t!r}) = {u!r}"
        raise DomainRestricted(f"psi {psi.describe()} is undefined at {at}",
                               witness={"psi": psi.describe(), "u": u, "t": t}) from None


class _StepTable(_Fields):
    """A right-constant step function of (t, value) breakpoints: the table
    behind step maps, comparison functions and gauges.  Breakpoints and
    values are finite, breakpoints strictly increasing, and the values obey
    the kind's own rule, ``_check_values``: positive here."""

    points: tuple[tuple[float, float], ...]

    def __post_init__(self):
        pts = tuple((float(t), float(v)) for t, v in self.points)
        if not pts:
            raise ValueError("tabulated function needs at least one breakpoint")
        if not all(math.isfinite(t) and math.isfinite(v) for t, v in pts):
            raise ValueError("breakpoints and values must be finite")
        ts, vals = zip(*pts)
        if not all(map(lt, ts, ts[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        self._check_values(vals)
        object.__setattr__(self, "points", pts)

    def _check_values(self, vals):
        if not all(v > 0.0 for v in vals):
            raise ValueError("tabulated values must be positive")

    def eval(self, t: float) -> float:
        # Right-constant: value at the largest breakpoint <= t; below the first
        # breakpoint, the first value.
        idx = bisect_right(self.points, t, key=itemgetter(0)) - 1
        return self.points[max(idx, 0)][1]

    def describe(self) -> dict:
        return {"family": "tabulated", "points": [list(p) for p in self.points]}


# --- comparison function families -------------------------------------------

class _ClosedFormPhi(_Fields):
    """A family whose membership facts are proved once for all parameters:
    it is non-decreasing and its iterates tend to 0 at every point."""

    def known_decay(self):
        return True

    def known_monotone(self):
        return True


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
    """Right-constant step function given by (t, phi(t)) breakpoints.

    Never a comparison function: every value is at least the table's least
    value, which is positive, so no iterate tends to 0."""

    def known_decay(self):
        return False

    def known_monotone(self):
        vals = [v for _, v in self.points]
        return True if vals == sorted(vals) else False


class ExpPsiLnPhi(_Fields):
    """phi = exp . psi . ln, the comparison function induced by an adapter shift."""

    psi: RealForm

    def eval(self, t: float) -> float:
        return _safe_exp(_psi_at(self.psi, math.log(t), t))

    def known_decay(self):
        # phi(t) = e^-c * t, c > 0, for psi(u) = u - c: a shift by c, or affine
        # with a = 1 and b = -c.  No other psi gives a fact, and none gives
        # False, since certify_phi's halving below the grid needs a floor
        form = self.psi.json_form
        if isinstance(form, dict) and form.get("affine", {}).get("a") == 1.0:
            form = {"shift": -form["affine"]["b"]}
        return True if isinstance(form, dict) and form.get("shift", 0.0) > 0.0 else None

    def known_monotone(self):
        return self.psi.increasing

    def describe(self) -> dict:
        return {"family": "exp_psi_ln", "psi": self.psi.describe()}


class ConjugatePhi(_Fields):
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


class PhiCertificate(_Record):
    verdict: str                      # "member" | "non-member" | "inconclusive"
    witness: dict | None = None
    evidence: dict = _Fresh(dict)


def certify_phi(phi, grid) -> PhiCertificate:
    """Certify membership of phi in the comparison-function class on a grid.

    Checks positivity and monotonicity on the grid, rejects any point with
    phi(t) >= t (iterates from such a point can never decay), then settles
    iterate decay from the family's facts alone: closed-form families are
    members, step tables, which never decay, are refused by a witness below
    the grid, and a family with no decay fact is "inconclusive", since no
    finite grid says what happens below it.
    """
    pts = sorted(set(float(t) for t in grid))
    if not pts:
        raise EmptyGrid("certification grid is empty")

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

    decay = phi.known_decay()
    for t, v in zip(pts, vals):
        if v >= t:
            # phi(t) >= t forces phi^n(t) >= t for all n if phi is known
            # non-decreasing; a phi known never to decay fails either way
            verdict = ("non-member" if phi.known_monotone() is True or decay is False
                       else "inconclusive")
            return PhiCertificate(
                verdict, witness={"kind": "stagnation", "t": t, "phi_t": v})

    if decay is True:
        return PhiCertificate("member", evidence={
            "decay": "closed-form", "grid_points": len(pts), "tol": PHI_TOL_DEFAULT})
    if decay is False:
        # phi stays above a positive floor, so halving below the grid reaches
        # a t under it, where phi(t) >= t
        t = pts[0] / 2.0
        while (v := phi.eval(t)) < t:
            t /= 2.0
        return PhiCertificate("non-member", witness={"kind": "stagnation", "t": t, "phi_t": v})

    return PhiCertificate("inconclusive", evidence={
        "decay": "unknown", "grid_points": len(pts)})


def check_phi_strict_decrease(phi, grid) -> tuple[bool, list[dict]]:
    """Check phi(t) < t on every grid point; reports witnesses, never raises."""
    witnesses = []
    for t in grid:
        v = phi.eval(float(t))
        if not v < t:
            witnesses.append({"t": float(t), "phi_t": v})
    return (not witnesses, witnesses)


# --- gauge families ----------------------------------------------------------

class _GaugeBase(_Fields):
    """Interval sup/inf of a gauge by the endpoint rule.

    For a strictly increasing gauge the sup over (0, eps) is G(eps) and the
    inf over (thr, inf) is G(thr); other gauges answer None, and callers sample.
    """

    def _endpoint(self, a: float):
        return self.eval(a) if self.strictly_increasing() else None

    def sup_below(self, eps: float):
        return self._endpoint(eps)

    def inf_above(self, thr: float):
        return self._endpoint(thr)


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

    @cached_property
    def _extremes(self):
        """(breakpoints, max of the values up to each step, min of the values
        from each step on): built on the first sup or inf and kept, outside
        the fields, so equality, hash, repr and asdict do not see it."""
        ts, vals = zip(*self.points)
        return ts, list(accumulate(vals, max)), list(accumulate(vals[::-1], min))[::-1]

    def sup_below(self, eps: float):
        """sup over (0, eps) of the steps [t, next t); the first reaches down to 0+."""
        ts, head_max, _ = self._extremes
        k = bisect_left(ts, eps)                # the steps i >= 1 starting below eps: 1 .. k-1
        if eps > 0.0:
            return head_max[max(k, 1) - 1]
        # the first step lies above eps; no caller passes eps <= 0
        return max(v for _, v in self.points[1:k])

    def inf_above(self, thr: float):
        """inf over (thr, inf) of the steps [t, next t); the last reaches up to inf."""
        ts, _, tail_min = self._extremes
        if not thr < math.inf:                  # NaN included
            raise ValueError(f"no step of the table lies above {thr}")
        # the steps ending above thr: from the one holding thr (or the first) on
        return tail_min[max(bisect_right(ts, thr) - 1, 0)]


def gauge_eval(G, a: float) -> float:
    """Evaluate a gauge at a > 0."""
    if not (isinstance(a, (int, float)) and math.isfinite(a) and a > 0.0):
        raise NonpositiveArgument(f"gauges take positive reals, got {a!r}")
    return G.eval(float(a))


@cache
def _default_grid() -> list[float]:
    # log_grid()'s defaults are module constants, so it is built once; the
    # list is shared, and every caller only indexes, slices or bisects it
    return log_grid()


def _grid_points(grid, what: str) -> list[float]:
    """The sorted distinct points of ``grid``, each a positive finite real;
    None means ``log_grid()``, the shared list."""
    if grid is None:
        # strictly increasing and never empty
        return _default_grid()
    pts = list(map(float, grid))
    if not pts:
        raise EmptyGrid(f"{what} grid is empty")
    # the ends of a strictly increasing grid bound every point; a NaN fails
    # every <, so an unsorted grid may keep one anywhere after the sort
    increasing = all(map(lt, pts, pts[1:]))
    for t in (pts[0], pts[-1]) if increasing else pts:
        if not 0.0 < t < math.inf:
            raise NonpositiveArgument(f"gauges take positive reals, got {t!r}")
    return pts if increasing else sorted(set(pts))


def _values(G, pts) -> list[float]:
    """float(G.eval(t)) at each point, in order.  An exp-of-F gauge calls F
    once per point and then takes exp, which returns floats, over all the
    logs in one C-level pass, falling back to _safe_exp (inf past the float
    range) without calling F again.  A form that raises stops at the same
    point as G.eval would; one that returns a non-number is called on every
    point before exp raises TypeError.  _least_value takes exp of the least
    log alone, a sampled value of G, unless the logs' sum is NaN or raises."""
    if type(G) is ExpOfFGauge:
        logs = list(map(G.f.fn, pts))
        try:
            return list(map(math.exp, logs))
        except OverflowError:
            return list(map(_safe_exp, logs))
    return list(map(float, map(G.eval, pts)))


def _least_value(G, pts) -> float:
    """_grid_min(_values(G, pts)), F called at the same points (see _inf_above)."""
    if type(G) is ExpOfFGauge:
        logs = list(map(G.f.fn, pts))
        with suppress(TypeError, OverflowError, RuntimeWarning):
            if not math.isnan(sum(logs, 0.0)):
                return _safe_exp(min(logs))
        return _grid_min(list(map(_safe_exp, logs)))
    return _grid_min(_values(G, pts))


def _grid_min(vals: list[float]) -> float:
    """The minimum of vals, bit for bit the last entry of numpy's
    minimum.accumulate over the reversed list: the first NaN wins, and of
    equal values the first wins, which decides a zero's sign.  A NaN makes
    the float sum NaN, so only a NaN sum (inf - inf gives one too) is
    scanned for the first NaN."""
    total = sum(vals)
    nan = None if total == total else next(filter(math.isnan, vals), None)
    return min(vals, default=math.inf) if nan is None else nan


_kept_table = (None, None, None)       # (gauge, points, table) of the last build


def _grid_table(G, pts: list[float]) -> tuple[list[float], float]:
    """G sampled once per grid point: (running max of G over pts[:i+1], grid
    minimum).  The running max is numpy's maximum.accumulate, bit for bit.
    The last table is kept and returned again for the same gauge object and
    equal points.  Equal gauges can evaluate apart, so the gauge is matched
    by identity, and it is held, so that its id is not reused."""
    global _kept_table
    kept_G, kept_pts, table = _kept_table
    if kept_G is G and kept_pts == pts:
        return table
    vals = _values(G, pts)
    # an inline loop, because a call per point would double the cost
    running_max, m = [], vals[0]
    for v in vals:
        if not (m != m or m > v):
            m = v
        running_max.append(m)
    table = running_max, _grid_min(vals)
    _kept_table = G, pts, table
    return table


def _inf_above(G, thr: float) -> float:
    """inf of G over (thr, inf): the closed form, or a step gauge's exact
    answer, else G sampled at the default grid's points above thr (the rest
    cannot lower it), at thr and at probes just above it.  For a continuous
    gauge G(thr) is the limit at the open end, so the sampled inf never
    falls below the true one.  Of an exp-of-F gauge the grid part is exp of
    the least log, G where F is least as exp is increasing, unless the logs'
    float sum is NaN (a NaN, both infinities) or raises (an int past the
    float range, a non-number, numpy's overflow warning as an error)."""
    v = G.inf_above(thr)
    if v is None:
        pts = _default_grid()
        above = pts[bisect_right(pts, thr):]
        probes = [thr] + [thr * (1.0 + 2.0 ** -k) for k in range(0, 40)]
        v = min(([_least_value(G, above)] if above else []) + _values(G, probes))
    return v


class ClassCertificate(_Record):
    in_g1: str                         # "yes" | "no" | "inconclusive"
    in_g2: str
    evidence: dict = _Fresh(dict)


def certify_gauge_class(G, grid=None) -> ClassCertificate:
    """Certify membership of a gauge in classes G1 and G2.

    The answers come from the gauge's facts alone: ``known_inf()`` (G1 iff
    the infimum is positive) and ``known_g2()``, which an exp-of-F gauge
    reads off its form's ``inf_value`` and ``diverges_iff_zero``.  The two
    classes exclude each other, so "yes" for one is "no" for the other, and
    a strictly increasing gauge lies in exactly one of them, so there one
    fact decides both.  With no deciding fact the answer is "inconclusive".
    The gauge is sampled along a = 2^-k (toward 0) and a = 2^k (toward inf)
    and on the grid; the samples are evidence only: the refinement tail,
    the grid inf and sup estimates, and the witness sequence a "no" carries.
    """
    grid = _grid_points(grid, "certification")

    down = list(zip(_DYADIC_DOWN, _values(G, _DYADIC_DOWN)))
    up = list(zip(_DYADIC_UP, _values(G, _DYADIC_UP)))
    down_tail = down[-12:]
    increasing = G.strictly_increasing()
    if increasing:
        # the endpoint rule, as in epsilon0 and n_epsilon
        inf_est, sup_est = float(G.eval(grid[0])), float(G.eval(grid[-1]))
    else:
        running_max, inf_est = _grid_table(G, grid)
        sup_est = running_max[-1]
    evidence: dict = {
        "grid_lo": grid[0], "grid_hi": grid[-1], "grid_points": len(grid),
        "refinement_tail": [[a, v] for a, v in down_tail],
        "inf_grid_estimate": inf_est,
        "sup_grid_estimate": sup_est,
    }

    ki, g2 = G.known_inf(), G.known_g2()
    g1 = None if ki is None else ki > 0.0
    # the classes exclude each other; an increasing gauge lies in one of them
    if g1 is None and g2 is not None and (g2 or increasing):
        g1 = not g2
    if g2 is None and g1 is not None and (g1 or increasing):
        g2 = not g1

    in_g1 = in_g2 = "inconclusive"
    if g1:
        in_g1 = "yes"
        if ki is not None:
            evidence["inf_closed_form"] = ki
    elif g1 is not None:
        in_g1 = "no"
        # the dyadic tail toward 0 or toward inf that ends lower: a
        # decreasing gauge falls toward its infimum as a -> inf
        up_tail = up[-12:]
        tail = up_tail if up_tail[-1][1] < down_tail[-1][1] else down_tail
        evidence["g1_witness"] = [[a, v] for a, v in tail]

    if g2:
        in_g2 = "yes"
        evidence["g2"] = "closed-form"
    elif g2 is not None:
        in_g2 = "no"
        stuck_up = [[a, v] for a, v in up if v < PHI_TOL_DEFAULT][:12]
        if min(v for _, v in down_tail) < PHI_TOL_DEFAULT and stuck_up:
            # direction G -> 0 fails: gauge vanishes away from zero
            evidence["g2_witness"] = {"kind": "vanishes-away-from-zero",
                                      "sequence": stuck_up}
        else:
            # direction a -> 0 fails: G approaches a nonzero limit
            evidence["g2_witness"] = {"kind": "values-do-not-vanish",
                                      "sequence": [[a, v] for a, v in down_tail]}

    return ClassCertificate(in_g1=in_g1, in_g2=in_g2, evidence=evidence)


def epsilon0(G, grid=None) -> float:
    """Largest grid value eps0 with sup G on (0, eps0) <= 1 and positive
    infima on every region [eps, grid-max] for grid eps below eps0.

    Presupposes a gauge certified in class G2; raises NoValidEpsilon when no
    grid value qualifies (which contradicts G2 membership and signals a
    certification failure upstream).
    """
    pts = _grid_points(grid, "epsilon0")
    # the infima on [eps, grid max] for grid eps are all positive iff the grid
    # minimum is; a strictly increasing gauge's is G(grid min) > 0, even where
    # the float underflows, and its sups have the closed form
    increasing = G.strictly_increasing()
    running_max, grid_min = (None, None) if increasing else _grid_table(G, pts)
    if increasing or grid_min > 0.0:

        def sup_floor(i):
            # a lower bound on the sup over (0, pts[i]) that does not decrease
            # in i: the closed form, else the running max, NaN once it is NaN
            v = G.sup_below(pts[i])
            return running_max[i] if v is None else v

        # sup_floor(i) <= 1 holds on a prefix of the grid, and past it the
        # sup fails too: scan down from the prefix's end.  A sampled sup over
        # (0, pts[i]) takes G at pts[i], its limit at the open end for a
        # continuous gauge, so it never exceeds the true sup
        k = bisect_left(range(len(pts)), True, key=lambda i: not sup_floor(i) <= 1.0)
        for i in range(k - 1, -1, -1):
            v = G.sup_below(pts[i])
            if v is None:
                probes = [pts[i] * 2.0 ** -j for j in range(1, 40)]
                v = max([running_max[i]] + _values(G, [t for t in probes if t > 0.0]))
            if v <= 1.0:
                return pts[i]
    raise NoValidEpsilon(
        "no grid value has sup below 1.0; gauge cannot be in G2")


def n_epsilon(G, phi, s: float, eps: float, budget: int = 10_000) -> int:
    """Smallest n <= budget with inf of G over (eps/(2s), inf) > phi^n(1).

    The returned n witnesses the shrinking step of the convergence argument:
    for any operator certified against (G, phi), distances below eps map
    under T^n to distances below eps/(2s).  The comparison is strict, as the
    argument requires.  Callers must supply eps below the gauge's epsilon0
    and a certified comparison function.
    """
    if not 0.0 < eps < math.inf:
        raise NonpositiveArgument(f"eps must be {'finite' if eps == math.inf else 'positive'}")
    if not s >= 1.0:
        raise ValueError("b-metric constant must be >= 1")
    thr = eps / (2.0 * s)
    target = _inf_above(G, thr)
    u = 1.0
    for n in range(1, budget + 1):
        u = phi.eval(u)
        if target > u:
            return n
    raise BudgetExhausted(
        f"phi^n(1.0) did not drop below {target} within {budget} iterations")


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
