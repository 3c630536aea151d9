"""Random instance generation and the fuzz loop for the convergence theorem.

Every trial draws a finite b-metric space and a self-map, scans a catalog of
(gauge, comparison-function) pairs exhaustively for condition (G), and -- on
the first certified pair -- asserts the theorem's conclusion: a unique fixed
point reached by the orbit of every start point, plus the quantitative
lemma checks for the matching gauge class.  Break modes deliberately violate
one hypothesis and confirm that the pipeline routes those instances to
"certification failed" or "expected violation" rather than asserting
anything.

Determinism: all randomness flows through ``random.Random`` (Mersenne
Twister) seeded with strings of the form ``"{seed}:{trial}:{stream}"``;
Python's string seeding is the documented SHA-512 based scheme, stable
across platforms, so reports are byte-identical for a given configuration.
Spaces above PY_KERNEL_MAX_POINTS draw the same MT19937 stream through
numpy's legacy ``RandomState`` (frozen by NEP 19), loaded with the
generator's state: its doubles are those of ``Random.random``.
"""

from __future__ import annotations

import json
import math
import threading
from dataclasses import dataclass, field
from itertools import combinations, tee
from random import Random

from .contraction import (
    FiniteMap,
    _first_violation,
    _gauged_pairs,
    _informative_pairs,
    validate_operator,
)
from .errors import (BudgetExhausted, ConfigInvalid, ConstantOverflow, OrbitTooShort,
                     TailNotSmall)
from .gauges import (
    AffinePlusGauge,
    ExpOfFGauge,
    HyperbolicPhi,
    IdentityGauge,
    LinearPhi,
    PowerGauge,
    TabulatedPhi,
    IDENTITY_FORM,
    LN,
    PHI_GRID,
    certify_gauge_class,
    certify_phi,
    epsilon0,
    n_epsilon,
)
from .solver import (
    _ball_holds,
    _cauchy_tail,
    _power_image,
    enumerate_fixed_points,
    m_epsilon,
    picard_iterate,
    verify_g1_termination,
    verify_step_chaining,
)
from .spaces import (MAX_FINITE_POINTS, PY_KERNEL_MAX_POINTS, FiniteSpace, _Record,
                     space_to_json, validate_finite_space)

DEFAULT_GAUGE_CATALOG = (
    IdentityGauge(),
    PowerGauge(2.0),
    PowerGauge(0.5),
    AffinePlusGauge(1.0),
    ExpOfFGauge(LN),
)

DEFAULT_PHI_CATALOG = (
    LinearPhi(0.5),
    LinearPhi(0.9),
    HyperbolicPhi(1.0),
)

# Positive-infimum gauges, for runs that focus on the finite-termination branch.
G1_GAUGE_CATALOG = (
    AffinePlusGauge(1.0),
    ExpOfFGauge(IDENTITY_FORM),
)

# A step function pinned to the diagonal: its iterates stagnate, so it fails
# comparison-function certification.  Used by the drop-phi break mode.
BROKEN_PHI = TabulatedPhi(((0.25, 0.25), (1.0, 1.0), (4.0, 4.0)))

N_BUDGET = 10 ** 6           # scan budget of n_epsilon
M_BUDGET = 10 ** 4           # scan budget of m_epsilon

_LEMMAS = ("unique_fixed_point", "orbit_convergence", "g1_termination",
           "n_epsilon", "m_epsilon", "invariant_ball", "step_chaining",
           "cauchy_bound")


@dataclass(frozen=True)
class FuzzConfig:
    seed: int = 0
    trials: int = 100
    max_points: int = 8
    scale: float = 1.0
    gauge_catalog: tuple = DEFAULT_GAUGE_CATALOG
    phi_catalog: tuple = DEFAULT_PHI_CATALOG
    break_mode: str = "none"          # none | drop-contraction | drop-phi


@dataclass
class FuzzReport(_Record):
    config: dict
    trials_run: int = 0
    certified_count: int = 0
    theorem_holds_count: int = 0
    uncertified_count: int = 0
    expected_break_count: int = 0
    g1_instances: int = 0
    g2_instances: int = 0
    lemma_counts: dict = field(default_factory=lambda: {
        name: {"pass": 0, "fail": 0} for name in _LEMMAS})
    violations: list = field(default_factory=list)

    def to_json_str(self) -> str:
        return json.dumps(self.to_json(), indent=2, sort_keys=True)


_LEGACY_MT = threading.local()


def generate_space(seed, n: int, scale: float = 1.0) -> FiniteSpace:
    """Random valid finite space: symmetric entries uniform in (0, scale].

    Above PY_KERNEL_MAX_POINTS the entries come from numpy in one call,
    equal bit for bit to those of the loop that smaller spaces keep."""
    if n < 1:
        raise ConfigInvalid("space needs at least one point")
    rng = Random(seed)
    if n > PY_KERNEL_MAX_POINTS:
        return validate_finite_space(_drawn_array(rng, n, scale))
    matrix = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = scale * (1.0 - rng.random())      # uniform in (0, scale]
            matrix[i][j] = v
            matrix[j][i] = v
    return validate_finite_space(matrix)


def _drawn_array(rng: Random, n: int, scale: float):
    """The loop's matrix from numpy's legacy MT19937 in ``rng``'s state: its
    ``random_sample`` gives the doubles ``rng.random()`` would, in order.
    Each thread seeds one generator; ``set_state`` replaces all its state."""
    import numpy as np

    _, state, _ = rng.getstate()
    mt = getattr(_LEGACY_MT, "generator", None)
    if mt is None:
        mt = _LEGACY_MT.generator = np.random.RandomState()
    mt.set_state(("MT19937", np.array(state[:-1], dtype=np.uint32), state[-1]))
    d = np.zeros((n, n))
    # a boolean mask takes its values in row-major order: the loop's order
    d[~np.tri(n, dtype=bool)] = scale * (1.0 - mt.random_sample(n * (n - 1) // 2))
    d += d.T
    return d


def generate_operator(seed, space: FiniteSpace, bias_contractive: bool) -> FiniteMap:
    """Random self-map; when biased, points are pulled toward a random anchor.

    Draw order (base map, anchor, per-point coins) is fixed so outputs are a
    pure function of the seed.
    """
    rng = Random(seed)
    n = space.n
    base = [rng.randrange(n) for _ in range(n)]
    if not bias_contractive:
        return FiniteMap(tuple(base))
    anchor = rng.randrange(n)
    pulled = tuple(anchor if rng.random() < 0.7 else base[i] for i in range(n))
    return FiniteMap(pulled)


def _identity_map(n: int) -> FiniteMap:
    return FiniteMap(tuple(range(n)))


@dataclass(frozen=True)
class _CatalogGauge:
    gauge: object
    in_g1: bool
    eps0: float | None


def _prepare_catalogs(config: FuzzConfig):
    if not config.gauge_catalog or not config.phi_catalog:
        raise ConfigInvalid("catalogs must be non-empty")
    gauges = []
    for G in config.gauge_catalog:
        cert = certify_gauge_class(G)
        in_g1 = cert.in_g1 == "yes"
        in_g2 = cert.in_g2 == "yes"
        if not (in_g1 or in_g2):
            raise ConfigInvalid(
                f"catalog gauge {G.describe()} is in neither certified class")
        eps0 = epsilon0(G) if in_g2 else None
        gauges.append(_CatalogGauge(G, in_g1, eps0))
    phis = []
    for phi in config.phi_catalog:
        cert = certify_phi(phi, grid=PHI_GRID)
        if cert.verdict != "member":
            raise ConfigInvalid(
                f"catalog comparison function {phi.describe()} is not a member")
        phis.append(phi)
    return gauges, phis


def fuzz(config: FuzzConfig) -> FuzzReport:
    """Run the fuzz loop and return the report (violations empty = theorem held)."""
    if config.trials < 1:
        raise ConfigInvalid("trials must be at least 1")
    if not 2 <= config.max_points <= MAX_FINITE_POINTS:
        raise ConfigInvalid(f"max_points must be between 2 and {MAX_FINITE_POINTS}")
    if not 0.0 < config.scale < math.inf:
        raise ConfigInvalid("scale must be positive and finite")
    if config.break_mode not in ("none", "drop-contraction", "drop-phi"):
        raise ConfigInvalid(f"unknown break mode {config.break_mode!r}")

    gauges, phis = _prepare_catalogs(config)
    report = FuzzReport(config={
        "seed": config.seed, "trials": config.trials,
        "max_points": config.max_points, "scale": config.scale,
        "break_mode": config.break_mode,
        "bias_contractive": True,
        "gauges": [g.gauge.describe() for g in gauges],
        "phis": [p.describe() for p in phis],
    })

    if config.break_mode == "drop-phi":
        # the planted comparison function must fail certification
        broken_cert = certify_phi(BROKEN_PHI, grid=[0.25, 1.0, 4.0])
        if broken_cert.verdict == "member":
            raise ConfigInvalid("broken comparison function unexpectedly certified")
        # the only available comparison function is not a member, so no pair
        # can be certified: every trial routes to certification-failed
        report.trials_run = report.expected_break_count = report.uncertified_count = config.trials
        return report

    for trial in range(config.trials):
        report.trials_run += 1
        shape_rng = Random(f"{config.seed}:{trial}:shape")
        n = shape_rng.randint(2, config.max_points)
        space = generate_space(f"{config.seed}:{trial}:space", n, config.scale)
        T = generate_operator(f"{config.seed}:{trial}:operator", space, True)

        if config.break_mode == "drop-contraction":
            T = _identity_map(space.n)
            certified_anyway = _first_certified(space, T, gauges, phis)
            if certified_anyway is not None:
                entry, phi = certified_anyway
                report.violations.append(_bundle(
                    trial, "broken-instance-certified",
                    "an operator with multiple fixed points passed certification",
                    space, T, entry.gauge, phi, None))
            else:
                report.expected_break_count += 1
            continue

        chosen = _first_certified(space, T, gauges, phis)
        if chosen is None:
            report.uncertified_count += 1
            continue

        entry, phi = chosen
        report.certified_count += 1
        ok = _check_theorem(report, trial, space, T, entry, phi)
        if ok:
            report.theorem_holds_count += 1

    return report


def _first_certified(space, T, gauges, phis):
    """First (catalog gauge, phi) pair in catalog order certifying T, or None.

    The verdicts are those of ``certify_condition_G`` on each pair in turn,
    down to the pair at which an evaluation raises, but T is checked once,
    the informative pairs are drawn once for all gauges, and each gauge is
    evaluated once per pair for all phis.  The tees draw from their source
    only as deep as the deepest scan reaches.
    """
    validate_operator(space, T)
    informative = _informative_pairs(space, T, combinations(space.points, 2))
    for entry, pairs in zip(gauges, tee(informative, len(gauges))):
        rows = tee(_gauged_pairs(entry.gauge, pairs), len(phis))
        for phi, phi_rows in zip(phis, rows):
            if _first_violation(phi_rows, phi) is None:
                return entry, phi
    return None


def _bundle(trial, kind, detail, space, T, gauge, phi, trace) -> dict:
    return {
        "trial": trial,
        "kind": kind,
        "detail": detail,
        "space": space_to_json(space),
        "operator": T.describe(),
        "gauge": gauge.describe(),
        "phi": phi.describe(),
        "trace": trace.to_json() if trace is not None else None,
    }


def _check_theorem(report, trial, space, T, entry, phi) -> bool:
    """Assert the theorem's conclusion on one certified instance; True iff
    every lemma held, that is iff no violation was added."""
    violations_before = len(report.violations)

    def lemma(name, passed, kind, detail, trace=None) -> bool:
        # the one outcome rule: tally, and bundle the counterexample on failure
        report.lemma_counts[name]["pass" if passed else "fail"] += 1
        if not passed:
            report.violations.append(_bundle(
                trial, kind, detail, space, T, entry.gauge, phi, trace))
        return passed

    def attempt(check, *args, **kwargs):
        # a check out of budget, recorded orbit, small tail or float range fails its lemma
        try:
            return check(*args, **kwargs)
        except (BudgetExhausted, ConstantOverflow, OrbitTooShort, TailNotSmall):
            return None

    fps = enumerate_fixed_points(space, T)
    if not lemma("unique_fixed_point", len(fps) == 1, "fixed-point-count",
                 f"certified instance has fixed points {sorted(fps)}"):
        return False
    fp = next(iter(fps))

    # a finite orbit revisits a point within n steps, and only a zero step
    # is a fixed point
    traces = [picard_iterate(space, T, x0, max_iter=space.n, tol=0.0) for x0 in space.points]
    for trace in traces:
        lemma("orbit_convergence",
              trace.stop_reason == "exact-fixed-point" and trace.fixed_point == fp,
              "orbit-divergence",
              f"orbit from {trace.x0} stopped with {trace.stop_reason} "
              f"at {trace.fixed_point!r} instead of {fp}", trace)

    if entry.in_g1:
        report.g1_instances += 1
        for trace in traces:
            lemma("g1_termination", verify_g1_termination(trace), "g1-termination",
                  "positive-infimum gauge but orbit never became constant", trace)
        return len(report.violations) == violations_before

    report.g2_instances += 1
    eps = entry.eps0 / 2.0
    n = attempt(n_epsilon, entry.gauge, phi, space.s, eps, budget=N_BUDGET)
    if not lemma("n_epsilon", n is not None, "n-epsilon-budget",
                 "n_epsilon exhausted its budget"):
        return False

    image = _power_image(T.mapping, n).__getitem__
    for trace in traces:
        # one block scan of the recorded trace gives m, the step-chaining
        # lemma gives m0, and every ball reads T^n from the trial's image
        m = attempt(m_epsilon, trace, n, eps, M_BUDGET)
        if not lemma("m_epsilon", m is not None, "m-epsilon-budget",
                     "m_epsilon exhausted its budget", trace):
            continue
        ball = attempt(lambda: _ball_holds(space, trace.point_at(m * n), eps, image))
        lemma("invariant_ball", ball, "invariant-ball", "image of the ball escaped", trace)
        chain = attempt(verify_step_chaining, trace, n, eps)
        lemma("step_chaining", chain is not None and chain[1], "step-chaining",
              "block distances exceeded eps", trace)
        # without m0 the Cauchy lemma fails, as verify_cauchy_bound would raise
        diag = chain and attempt(_cauchy_tail, trace, eps, n, m, chain[0])
        lemma("cauchy_bound", diag is not None and diag.holds, "cauchy-bound",
              "tail pair distance exceeded 4*s^3*eps", trace)
    return len(report.violations) == violations_before
