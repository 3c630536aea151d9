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
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from itertools import combinations, tee
from random import Random

from .contraction import (
    FiniteMap,
    _first_violation,
    _gauged_pairs,
    _informative_pairs,
    validate_operator,
)
from .errors import BudgetExhausted, ConfigInvalid, OrbitTooShort, TailNotSmall
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
    certify_gauge_class,
    certify_phi,
    epsilon0,
    log_grid,
    n_epsilon,
)
from .solver import (
    enumerate_fixed_points,
    m_epsilon,
    picard_iterate,
    verify_cauchy_bound,
    verify_g1_termination,
    verify_invariant_ball,
    verify_step_chaining,
)
from .spaces import FiniteSpace, space_to_json, validate_finite_space

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
    bias_contractive: bool = True
    max_iter: int = 64
    n_budget: int = 10 ** 6
    m_budget: int = 10 ** 4


@dataclass
class FuzzReport:
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

    def to_json(self) -> dict:
        return asdict(self)

    def to_json_str(self) -> str:
        return json.dumps(self.to_json(), indent=2, sort_keys=True)


def generate_space(seed, n: int, scale: float = 1.0) -> FiniteSpace:
    """Random valid finite space: symmetric entries uniform in (0, scale]."""
    if n < 1:
        raise ConfigInvalid("space needs at least one point")
    rng = Random(seed)
    matrix = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = scale * (1.0 - rng.random())      # uniform in (0, scale]
            matrix[i][j] = v
            matrix[j][i] = v
    return validate_finite_space(matrix)


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
    in_g2: bool
    eps0: float | None


def _prepare_catalogs(config: FuzzConfig):
    if not config.gauge_catalog or not config.phi_catalog:
        raise ConfigInvalid("catalogs must be non-empty")
    grid = log_grid()
    gauges = []
    for G in config.gauge_catalog:
        cert = certify_gauge_class(G, grid)
        in_g1 = cert.in_g1 == "yes"
        in_g2 = cert.in_g2 == "yes"
        if not (in_g1 or in_g2):
            raise ConfigInvalid(
                f"catalog gauge {G.describe()} is in neither certified class")
        eps0 = epsilon0(G, grid) if in_g2 else None
        gauges.append(_CatalogGauge(G, in_g1, in_g2, eps0))
    phis = []
    for phi in config.phi_catalog:
        cert = certify_phi(phi, grid=[0.01, 0.1, 1.0, 10.0, 100.0])
        if cert.verdict != "member":
            raise ConfigInvalid(
                f"catalog comparison function {phi.describe()} is not a member")
        phis.append(phi)
    return gauges, phis


def fuzz(config: FuzzConfig) -> FuzzReport:
    """Run the fuzz loop and return the report (violations empty = theorem held)."""
    if config.trials < 1:
        raise ConfigInvalid("trials must be at least 1")
    if config.max_points < 2:
        raise ConfigInvalid("max_points must be at least 2")
    if config.scale <= 0.0:
        raise ConfigInvalid("scale must be positive")
    if config.break_mode not in ("none", "drop-contraction", "drop-phi"):
        raise ConfigInvalid(f"unknown break mode {config.break_mode!r}")

    gauges, phis = _prepare_catalogs(config)
    report = FuzzReport(config={
        "seed": config.seed, "trials": config.trials,
        "max_points": config.max_points, "scale": config.scale,
        "break_mode": config.break_mode,
        "bias_contractive": config.bias_contractive,
        "gauges": [g.gauge.describe() for g in gauges],
        "phis": [p.describe() for p in phis],
    })

    if config.break_mode == "drop-phi":
        # the planted comparison function must fail certification
        broken_cert = certify_phi(BROKEN_PHI, grid=[0.25, 1.0, 4.0])
        if broken_cert.verdict == "member":
            raise ConfigInvalid("broken comparison function unexpectedly certified")

    for trial in range(config.trials):
        report.trials_run += 1
        shape_rng = Random(f"{config.seed}:{trial}:shape")
        n = shape_rng.randint(2, config.max_points)
        space = generate_space(f"{config.seed}:{trial}:space", n, config.scale)
        T = generate_operator(f"{config.seed}:{trial}:operator", space,
                              config.bias_contractive)

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

        if config.break_mode == "drop-phi":
            # the only available comparison function is not a member, so
            # no pair can be certified: route to certification-failed
            report.expected_break_count += 1
            report.uncertified_count += 1
            continue

        chosen = _first_certified(space, T, gauges, phis)
        if chosen is None:
            report.uncertified_count += 1
            continue

        entry, phi = chosen
        report.certified_count += 1
        ok = _check_theorem(report, trial, space, T, entry, phi, config)
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


def _check_theorem(report, trial, space, T, entry, phi, config) -> bool:
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

    fps = enumerate_fixed_points(space, T)
    if not lemma("unique_fixed_point", len(fps) == 1, "fixed-point-count",
                 f"certified instance has fixed points {sorted(fps)}"):
        return False
    fp = next(iter(fps))

    traces = []
    for x0 in space.points:
        trace = picard_iterate(space, T, x0, max_iter=config.max_iter)
        traces.append(trace)
        lemma("orbit_convergence",
              trace.stop_reason == "exact-fixed-point" and trace.fixed_point == fp,
              "orbit-divergence",
              f"orbit from {x0} stopped with {trace.stop_reason} "
              f"at {trace.fixed_point!r} instead of {fp}", trace)

    if entry.in_g1:
        report.g1_instances += 1
        for trace in traces:
            lemma("g1_termination", verify_g1_termination(trace), "g1-termination",
                  "positive-infimum gauge but orbit never became constant", trace)
        return len(report.violations) == violations_before

    report.g2_instances += 1
    eps = entry.eps0 / 2.0
    try:
        n = n_epsilon(entry.gauge, phi, space.s, eps, budget=config.n_budget)
    except BudgetExhausted:
        n = None
    if not lemma("n_epsilon", n is not None, "n-epsilon-budget",
                 "n_epsilon exhausted its budget"):
        return False

    for trace in traces:
        try:
            m = m_epsilon(space, T, trace.x0, n, eps, space.s,
                          budget=config.m_budget)
        except BudgetExhausted:
            m = None
        if not lemma("m_epsilon", m is not None, "m-epsilon-budget",
                     "m_epsilon exhausted its budget", trace):
            continue
        lemma("invariant_ball", verify_invariant_ball(space, T, trace, eps, n, m),
              "invariant-ball", "image of the ball escaped", trace)
        try:
            _, chain_holds = verify_step_chaining(trace, n, eps, space.s)
        except TailNotSmall:
            chain_holds = False
        lemma("step_chaining", chain_holds, "step-chaining",
              "block distances exceeded eps", trace)
        try:
            diag = verify_cauchy_bound(
                space, trace, entry.gauge, phi, eps,
                n_budget=config.n_budget, m_budget=config.m_budget)
            cauchy = diag.holds
        except (BudgetExhausted, OrbitTooShort, TailNotSmall):
            cauchy = False
        lemma("cauchy_bound", cauchy, "cauchy-bound",
              "tail pair distance exceeded 4*s^3*eps", trace)
    return len(report.violations) == violations_before
