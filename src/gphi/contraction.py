"""Self-maps, certification of the gauged contraction condition, and adapters.

The central check is condition (G): for every pair x, y with
``d(Tx, Ty) != 0``,

    G(d(Tx, Ty)) <= phi(G(d(x, y))).

On finite spaces the check is exhaustive over unordered pairs and yields a
definitive verdict; on interval spaces pairs are drawn from a seeded
low-discrepancy sequence and a clean sample is reported as
inconclusive-positive ("certified-on-sample").

Two adapters translate classical formulations into the gauged one:

* ``from_F_contraction``: an inequality ``F(d(Tx,Ty)) <= psi(F(d(x,y)))``
  is equivalent to condition (G) for ``G = exp(F)`` and
  ``phi = exp . psi . ln``.
* ``to_czerwik_form``: for a strictly increasing invertible gauge the
  condition is equivalent to the plain comparison-function inequality
  ``d(Tx,Ty) <= (G^-1 . phi . G)(d(x,y))``.
"""

from __future__ import annotations

import math
from itertools import combinations
from operator import le

from .errors import (
    DomainRestricted,
    NotInvertible,
    PointOutOfDomain,
    PsiNotDiverging,
    PsiNotNondecreasing,
)
from .gauges import (
    ConjugatePhi,
    ExpOfFGauge,
    ExpPsiLnPhi,
    RealForm,
    _StepTable,
    _psi_at,
    phi_eval,
)
from .spaces import (AnalyticSpace, FiniteSpace, Space, _Fields, _Fresh, _Record,
                     _is_numpy_scalar, _json_number)

SAMPLE_PAIRS_DEFAULT = 4096

# R2 low-discrepancy sequence increments (inverse powers of the plastic number).
_R2_A1 = 0.7548776662466927
_R2_A2 = 0.5698402909980532
_GOLDEN = 0.6180339887498949

_PSI_STARTS = (0.5, 1.0, 2.0)    # from_F_contraction iterates psi from each start
_PSI_ITERATES = 10_000           # at most this many times,
_PSI_FLOOR = -60.0               # until it drops below this floor


def _map_image(v) -> int:
    """A map entry as an int: an integer, or a float with an integral value.
    Whatever ``int()`` would round, parse or read as 0 or 1 is refused."""
    if (isinstance(v, int) and not isinstance(v, bool)) or _is_numpy_scalar(v, "integer"):
        return int(v)
    if isinstance(v, float) and v.is_integer():
        return int(v)
    raise ValueError(f"map entries must be integers, got {v!r}")


class FiniteMap(_Fields):
    """Self-map of a finite space given by an image array."""

    mapping: tuple[int, ...]

    def __post_init__(self):
        mapping = tuple(self.mapping)
        if not set(map(type, mapping)) <= {int}:       # plain ints are taken as they are
            mapping = tuple(map(_map_image, mapping))
        object.__setattr__(self, "mapping", mapping)

    def eval(self, x: int) -> int:
        return self.mapping[x]

    def describe(self) -> dict:
        return {"map": list(self.mapping)}


class AffineMap(_Fields):
    """x -> a*x + b on an interval space."""

    a: float
    b: float

    def eval(self, x: float) -> float:
        return self.a * x + self.b

    def describe(self) -> dict:
        return {"affine": {"a": self.a, "b": self.b}}


class TabulatedMap(_StepTable):
    """Monotone right-constant step map on an interval space."""

    def _check_values(self, vals):
        if not all(map(le, vals, vals[1:])):
            raise ValueError("tabulated map must be monotone non-decreasing")

    def describe(self) -> dict:
        return {"tabulated": [list(p) for p in self.points]}


OperatorSpec = FiniteMap | AffineMap | TabulatedMap


def validate_operator(space: Space, T: OperatorSpec) -> None:
    """Check the self-map property of T on the given space."""
    if isinstance(T, FiniteMap):
        if not isinstance(space, FiniteSpace):
            raise ValueError("finite map needs a finite space")
        n = space.n
        if len(T.mapping) != n:
            raise ValueError(f"map length {len(T.mapping)} != {n} points")
        if n and 0 <= min(T.mapping) and max(T.mapping) < n:
            return
        for i, v in enumerate(T.mapping):     # some image is bad: name the first
            if not 0 <= v < n:
                raise PointOutOfDomain(f"image of point {i} is {v}, outside the space")
    if not isinstance(space, AnalyticSpace):
        raise ValueError("analytic maps need an interval space")
    # both interval map kinds are monotone, so the image extremes sit at the
    # endpoints; a table value on a step the interval never reaches is free
    for x in (space.lo, space.hi):
        y = T.eval(x)
        if not space.contains(y):
            raise PointOutOfDomain(f"affine image {y} of {x} leaves the interval"
                                   if isinstance(T, AffineMap) else
                                   f"tabulated value {y} leaves the interval")


def apply(T: OperatorSpec, space: Space, x):
    """Apply the operator to a point of the space."""
    if not space.contains(x):
        raise PointOutOfDomain(f"point {x!r} not in {space.noun}")
    return T.eval(x)


class ViolationWitness(_Record):
    x: object
    y: object
    d_xy: float
    d_txty: float
    g_of_d: float
    g_of_dt: float
    phi_bound: float


class ContractionCertificate(_Record):
    verdict: str                      # "certified" | "violated" | "inconclusive"
    checked_pairs: int
    violation_witness: ViolationWitness | None
    sampling_mode: dict
    note: str | None = None
    provenance: dict = _Fresh(dict)


def _informative_pairs(space, T, pairs):
    """The pairs (x, y, d(x, y), d(Tx, Ty)) that condition (G) constrains.

    Pairs with a zero distance or a zero image distance satisfy the
    condition vacuously and are skipped.  The callers have run
    validate_operator, so images are read without checks.  On a finite
    space they draw distinct pairs from ``space.points``: the matrix and the
    map are indexed directly, the rows of x and Tx read once per run of
    pairs with equal x, and, as a validated matrix is zero only on its
    diagonal, only the image distance can be zero.  On an interval the
    sampled points are checked by ``space.distance``; a checked map is
    monotone with both end images inside, so every image is inside too.
    """
    if isinstance(space, FiniteSpace):
        dist, image = space.dist, T.mapping
        x_row = None
        for x, y in pairs:
            if x != x_row:
                x_row, row, image_row = x, dist[x], dist[image[x]]
            dt = image_row[image[y]]
            if dt != 0.0:                 # FiniteSpace.is_zero
                yield x, y, row[y], dt
        return
    for x, y in pairs:
        d = space.distance(x, y)
        if space.is_zero(d):
            # identified points carry no information (and Tx = Ty follows)
            continue
        dt = space._unchecked_distance(T.eval(x), T.eval(y))
        if not space.is_zero(dt):
            yield x, y, d, dt


def _sample_pairs(space: AnalyticSpace, seed: int, count: int):
    """Deterministic low-discrepancy pairs in the interval (R2 sequence): the
    points lo + t*(hi - lo), or, where hi - lo overflows, (1 - t)*lo + t*hi."""
    u = (0.5 + seed * _GOLDEN) % 1.0
    v = (0.25 + seed * _GOLDEN * _GOLDEN) % 1.0
    lo, hi, span = space.lo, space.hi, space.hi - space.lo
    at = (lambda t: lo + t * span) if span < math.inf else (lambda t: (1.0 - t) * lo + t * hi)
    for _ in range(count):
        u = (u + _R2_A1) % 1.0
        v = (v + _R2_A2) % 1.0
        yield at(u), at(v)


def certify_condition_G(space: Space, T: OperatorSpec, G, phi, *, seed: int = 0,
                        samples: int = SAMPLE_PAIRS_DEFAULT) -> ContractionCertificate:
    """Certify condition (G) for an operator on a space.

    The space picks the scan.  A finite space is scanned exhaustively over
    all unordered pairs in lexicographic order, for a definitive verdict; an
    interval is sampled at ``samples`` pairs drawn from ``seed``, and a clean
    sample is "inconclusive" with the note "certified-on-sample".  Pairs
    whose image distance is zero satisfy the condition vacuously and are
    skipped.  The violation witness, when present, is the first violating
    pair in the canonical order.  The distances are positive finite floats,
    validated matrix entries or interval distances past ``is_zero``, so G
    takes them without the check of ``gauge_eval``; the test is the strict
    float test ``G(dt) <= phi(G(d))``, a NaN on either side failing it; phi
    takes a positive finite float G(d) inline, any other through ``phi_eval``.
    """
    validate_operator(space, T)
    if isinstance(space, FiniteSpace):
        pairs = combinations(space.points, 2)
        checked = space.n * (space.n - 1) // 2
        sampling = {"kind": "exhaustive"}
        verdict, note = "certified", None
    else:
        if samples < 1:
            raise ValueError("samples must be at least 1")
        pairs = _sample_pairs(space, seed, samples)
        checked = samples
        sampling = {"kind": "random", "seed": seed, "count": samples}
        verdict, note = "inconclusive", "certified-on-sample"

    witness = None
    for x, y, d, dt in _informative_pairs(space, T, pairs):
        g_of_d, g_of_dt = G.eval(d), G.eval(dt)
        bound = (phi.eval(g_of_d) if type(g_of_d) is float and 0.0 < g_of_d < math.inf
                 else phi_eval(phi, g_of_d))
        if not g_of_dt <= bound:
            witness = ViolationWitness(x, y, d, dt, g_of_d, g_of_dt, bound)
            verdict, note = "violated", None
            break
    return ContractionCertificate(
        verdict, checked_pairs=checked, violation_witness=witness,
        sampling_mode=sampling, note=note,
        provenance={"gauge": G.describe(), "phi": phi.describe()})


def check_F_inequality(space: Space, T: OperatorSpec, F: RealForm,
                       psi: RealForm) -> ViolationWitness | None:
    """Directly check F(d(Tx,Ty)) <= psi(F(d(x,y))) over all unordered pairs.

    Finite spaces only; same canonical pair order, same vacuous-skip rule as
    the gauged certifier, so verdicts and witnesses are comparable.
    """
    if not isinstance(space, FiniteSpace):
        raise ValueError("direct F-inequality scan is exhaustive, finite spaces only")
    validate_operator(space, T)
    for x, y, d, dt in _informative_pairs(space, T, combinations(space.points, 2)):
        lhs = F.fn(dt)
        bound = psi.fn(F.fn(d))
        if lhs > bound:
            return ViolationWitness(
                x=x, y=y, d_xy=d, d_txty=dt,
                g_of_d=F.fn(d), g_of_dt=lhs, phi_bound=bound)
    return None


def from_F_contraction(F: RealForm, psi: RealForm) -> tuple[ExpOfFGauge, ExpPsiLnPhi]:
    """Translate an (F, psi) contraction pair into a gauge/comparison pair.

    Returns ``G = exp(F)`` and ``phi = exp . psi . ln``.  psi is checked
    only on samples: non-decreasing on a grid (PsiNotNondecreasing
    otherwise), and its iterates from each of ``_PSI_STARTS`` must keep
    falling (an iterate that stalls raises PsiNotDiverging); a sample where
    psi is undefined raises DomainRestricted.  Whether the returned phi is a
    comparison function is ``certify_phi``'s to decide.  The original
    inequality holds for a pair of points iff condition (G) holds for the
    returned pair.
    """
    prev_x = prev_v = None
    for x in [k / 4.0 for k in range(-40, 41)]:    # _PSI_STARTS among them
        v = _psi_at(psi, x)
        if prev_v is not None and v < prev_v:
            raise PsiNotNondecreasing(
                f"psi decreases between {prev_x} and {x}",
                witness={"x1": prev_x, "v1": prev_v, "x2": x, "v2": v})
        prev_x, prev_v = x, v

    for t in _PSI_STARTS:
        u = t
        for _ in range(_PSI_ITERATES):
            nxt = _psi_at(psi, u)
            if nxt < _PSI_FLOOR:
                break
            if nxt >= u:
                raise PsiNotDiverging(
                    f"psi iterates stall at {nxt} starting from {t}",
                    witness={"t": t, "stuck_at": nxt})
            u = nxt

    return ExpOfFGauge(F), ExpPsiLnPhi(psi)


def to_czerwik_form(G, phi) -> ConjugatePhi:
    """Composite comparison function G^-1 . phi . G for invertible gauges.

    Requires a strictly increasing gauge with a computable inverse.  When the
    gauge's range has a positive lower bound L, the composite leaves (0, inf)
    wherever phi dips to or below L; such gauges raise DomainRestricted with
    a witness argument.
    """
    if not G.strictly_increasing():
        raise NotInvertible("gauge is not strictly increasing")
    try:
        G.inverse_eval(G.eval(1.0))
    except DomainRestricted:
        pass
    low = G.known_inf()
    if low is not None and low > 0.0:
        probes = [low * (1.0 + 2.0 ** -k) for k in range(1, 50)]
        probes += [low * (1.0 + 2.0 ** k) for k in range(0, 20)]
        for u in probes:
            if phi_eval(phi, u) <= low:
                t = G.inverse_eval(u)
                raise DomainRestricted(
                    f"composite leaves (0, inf) near t = {t}",
                    witness={"t": t, "g_t": u, "phi_g_t": phi_eval(phi, u),
                             "range_low": low})
    return ConjugatePhi(gauge=G, inner=phi)


# --- JSON interface ----------------------------------------------------------

def operator_from_json(obj: dict) -> OperatorSpec:
    if "map" in obj:
        return FiniteMap(tuple(obj["map"]))
    if "affine" in obj:
        return AffineMap(a=_json_number(obj["affine"]["a"]), b=_json_number(obj["affine"]["b"]))
    if "tabulated" in obj:
        return TabulatedMap(tuple((_json_number(t), _json_number(v)) for t, v in obj["tabulated"]))
    raise ValueError("operator document must contain 'map', 'affine' or 'tabulated'")
