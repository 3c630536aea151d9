"""The harness's one lemma pass per certified trial against the per-trace
lemma loop it replaced.

``_reference_check_theorem`` is the earlier ``harness._check_theorem``,
kept verbatim: it records a trace from every start point with
``picard_iterate`` and calls ``m_epsilon``, ``_ball_holds``,
``verify_step_chaining`` and ``_cauchy_tail`` on each.  Run in place of the
harness's own, on fuzz runs, halving chains, the crafted failure instances
and seeded random functional graphs, it must give the same report: the
same JSON on fuzz runs, also with a shared seam (``enumerate_fixed_points``,
``n_epsilon``, ``_ball_holds``) forced to fail on both sides, and elsewhere
equal report records, whose JSON is a function of their fields.

``test_pass_matches_public_lemmas`` compares the values of
``harness._lemma_pass`` for every start point with the public lemmas on
``picard_iterate``'s trace of it: m, m0 and the chaining flag, the ball
verdict, and the Cauchy tail's diameter bit for bit.
"""

import random
import sys

import pytest

from gphi import harness, solver
from gphi.contraction import FiniteMap, certify_condition_G
from gphi.errors import BudgetExhausted, ConstantOverflow, OrbitTooShort, TailNotSmall
from gphi.gauges import IdentityGauge, LinearPhi, PowerGauge
from gphi.harness import (
    G1_GAUGE_CATALOG,
    N_BUDGET,
    FuzzConfig,
    FuzzReport,
    _bundle,
    _prepare_catalogs,
    enumerate_fixed_points,
    fuzz,
    n_epsilon,
)
from gphi.solver import (
    _ball_holds,
    _cauchy_tail,
    _power_image,
    m_epsilon,
    picard_iterate,
    verify_g1_termination,
    verify_invariant_ball,
    verify_step_chaining,
)
from gphi.spaces import replace, validate_finite_space
from test_block_index import walker_m_epsilon
from test_failure_pins import INSTANCES, crafted_instance

G1 = {"gauge_catalog": G1_GAUGE_CATALOG}
M_BUDGET = 10 ** 4          # the reference's scan budget of m_epsilon
PUBLIC_LEMMAS = ("verify_invariant_ball", "verify_cauchy_bound")


def _reference_check_theorem(report, trial, space, T, entry, phi) -> bool:
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


def _raise(exc):
    def fail(*args, **kwargs):
        raise exc("forced")
    return fail


def _compare(monkeypatch, run, forced=()):
    """Run ``run`` with the reference loop, then with the harness's own,
    each (name, replacement) of ``forced`` replacing that name on both
    sides; both must return the same report JSON, which is returned."""
    with monkeypatch.context() as patch:
        patch.setattr(harness, "_check_theorem", _reference_check_theorem)
        for name, replacement in forced:
            patch.setattr(sys.modules[__name__], name, replacement)
        reference = run()
    with monkeypatch.context() as patch:
        for name, replacement in forced:
            patch.setattr(harness, name, replacement)
        report = run()
    assert report == reference
    return report


def _check_both(space, T, entry, phi):
    # the verdict and report of each side on one instance; a report's JSON
    # is a function of its fields, which hold the bundles as JSON values
    sides = []
    for check in (_reference_check_theorem, harness._check_theorem):
        report = FuzzReport(config={})
        sides.append((check(report, 0, space, T, entry, phi), report))
    return sides


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("extra", [
    {"max_points": 8}, {"max_points": 32}, {"max_points": 64},
    {"max_points": 12, "scale": 1e3}, G1], ids=["n8", "n32", "n64", "scale", "g1"])
def test_fuzz_reports_equal(monkeypatch, seed, extra):
    config = FuzzConfig(seed=seed, trials=150, **extra)
    _compare(monkeypatch, lambda: fuzz(config).to_json_str())


# (name both sides call, replacement, extra config)
FORCED = [
    ("enumerate_fixed_points", lambda space, T: {0, 1}, {}),
    ("n_epsilon", _raise(BudgetExhausted), {}),
    ("_ball_holds", lambda *a, **k: False, {}),
]


@pytest.mark.parametrize("forced", FORCED, ids=[c[0] for c in FORCED])
def test_forced_failure_reports_equal(monkeypatch, forced):
    config = FuzzConfig(seed=0, trials=12, **forced[2])
    report = _compare(monkeypatch, lambda: fuzz(config).to_json_str(), [forced[:2]])
    assert '"violations": []' not in report


def _ball_at_the_fixed_point(space, centre, eps, image):
    # the ball fails around every centre but the fixed point, the only one
    # that T^n fixes
    return image(centre) == centre and solver._ball_holds(space, centre, eps, image)


@pytest.mark.parametrize("shape", ["tree", "two-cycle", "halving"])
def test_mixed_passes_and_failures_in_one_trial(monkeypatch, shape):
    # fuzz trials centre every ball at the fixed point; on these graphs some
    # start points have other centres, so one trial mixes points whose
    # lemmas all hold, tallied in bulk, with points whose ball lemma fails
    # and is bundled
    monkeypatch.setattr(harness, "_ball_holds", _ball_at_the_fixed_point)
    monkeypatch.setattr(sys.modules[__name__], "_ball_holds", _ball_at_the_fixed_point)
    entries = [_prepare_catalogs(FuzzConfig(gauge_catalog=(gauge,), phi_catalog=(phi,)))
               for gauge, phi in ((IdentityGauge(), LinearPhi(0.6)),
                                  (PowerGauge(0.5), LinearPhi(0.5)))]
    mixed = 0
    for k, (space, T, _) in enumerate(_graph_cases(shape)):
        (entry,), (phi,) = entries[k % 2]
        (held, reference), (own_held, own) = _check_both(space, T, entry, phi)
        assert (own_held, own.to_json_str()) == (held, reference.to_json_str())
        balls = own.lemma_counts["invariant_ball"]
        mixed += balls["pass"] > 0 and balls["fail"] > 0
    assert mixed > 0


@pytest.mark.parametrize("name", INSTANCES)
def test_crafted_instances_equal(name):
    reference, own = _check_both(*crafted_instance(name))
    assert own == reference and own[0] is False


GAUGES = {"identity": IdentityGauge(), "square": PowerGauge(2.0)}


def _halving_chain(size, scale):
    # x_i = scale * 2^-i with T x_i = x_{i+1}
    x = [scale * 2.0 ** -i for i in range(size)]
    space = validate_finite_space([[abs(a - b) for b in x] for a in x])
    return space, FiniteMap(tuple(min(i + 1, size - 1) for i in range(size)))


@pytest.mark.parametrize("variant", ["valid", "huge-s"])
@pytest.mark.parametrize("gauge_name", GAUGES)
@pytest.mark.parametrize("size,scale", [(24, 2.0 ** 8), (40, 2.0 ** 20)])
def test_halving_chains_equal(size, scale, gauge_name, variant):
    # fuzz orbits settle within a block, so m = m0 = 1 and T^n is constant
    # on them; on a halving chain m and m0 reach 8 and T^n moves every point
    # but the last n
    space, T = _halving_chain(size, scale)
    gauge = GAUGES[gauge_name]
    config = FuzzConfig(gauge_catalog=(gauge,), phi_catalog=(LinearPhi(0.6),))
    (entry,), (phi,) = _prepare_catalogs(config)
    if variant == "valid":
        assert certify_condition_G(space, T, gauge, phi).verdict == "certified"
    else:
        # the bound 4*s^3*eps overflows (s = 1 is the chain's own constant)
        space = replace(space, s=1e200)
    reference, own = _check_both(space, T, entry, phi)
    assert own == reference
    assert own[0] is (variant == "valid")


# --- the pass against the public lemmas, on seeded functional graphs -----------

S_VARIANTS = {"valid": None, "understated": 1.0, "huge": 1e200}
SHAPES = ("tree", "two-cycle", "two-fixed-points", "halving")
BLOCKS = (1, 2, 3, 5)
RADII = (0.25, 1.0)


def _functional_graph(rng, shape, size):
    """A seeded map of ``size`` points: a tree into one fixed point, or with
    a 2-cycle or a second fixed point that other points may fall into.
    Returns the map and the first fixed point."""
    order = list(range(size))
    rng.shuffle(order)
    mapping = [None] * size
    mapping[order[0]] = order[0]
    roots = {"tree": 1, "two-cycle": 3, "two-fixed-points": 2}[shape]
    if shape == "two-cycle":
        mapping[order[1]], mapping[order[2]] = order[2], order[1]
    elif shape == "two-fixed-points":
        mapping[order[1]] = order[1]
    for i in range(roots, size):
        # a long path now and then, else any point placed earlier
        j = i - 1 if rng.random() < 0.5 else rng.randrange(i)
        mapping[order[i]] = order[j]
    return FiniteMap(tuple(mapping)), order[0]


def _graph_cases(shape):
    """(space, T, fp) for the shape, sizes 2-64 (the halving chains 24 and 40)."""
    if shape == "halving":
        return [(*_halving_chain(size, scale), size - 1)
                for size, scale in ((24, 2.0 ** 8), (40, 2.0 ** 20))]
    rng = random.Random(f"lemma-pass:{shape}")
    cases = []
    for _ in range(24):
        size = rng.randint(3 if shape == "two-cycle" else 2, 64)
        T, fp = _functional_graph(rng, shape, size)
        spread = rng.choice([0.05, 0.3, 1.0, 3.0])
        # on half the spaces the steps are short and the other pairs long,
        # so that an understated s fails the chained blocks
        shrink = rng.choice([1.0, 0.02])
        matrix = [[0.0] * size for _ in range(size)]
        for i in range(size):
            for j in range(i + 1, size):
                step = T.mapping[i] == j or T.mapping[j] == i
                matrix[i][j] = matrix[j][i] = (
                    spread * (shrink if step else 1.0) * (1.0 - rng.random()))
        cases.append((validate_finite_space(matrix), T, fp))
    return cases


def _with_s(space, s):
    return space if s is None else replace(space, s=s)


@pytest.mark.parametrize("s_variant", S_VARIANTS)
@pytest.mark.parametrize("shape", SHAPES)
def test_pass_matches_public_lemmas(shape, s_variant):
    compared = 0
    for space, T, fp in _graph_cases(shape):
        space = _with_s(space, S_VARIANTS[s_variant])
        order = harness._paths_to(T.mapping, fp)
        traces = [picard_iterate(space, T, x0, max_iter=space.n, tol=0.0)
                  for x0 in space.points]
        reaches = [t.stop_reason == "exact-fixed-point" and t.fixed_point == fp for t in traces]
        assert sorted(order) == [x0 for x0 in space.points if reaches[x0]]
        for n in BLOCKS:
            image = _power_image(T.mapping, n)
            for eps in RADII:
                lemmas = harness._lemma_pass(space, T.mapping, order, n, eps, image)
                for trace, reached, values in zip(traces, reaches, lemmas):
                    assert (values is None) is not reached
                    if values is None:
                        continue
                    m = m_epsilon(trace, n, eps)
                    assert values.m == m
                    assert (values.m0, values.chained) == verify_step_chaining(trace, n, eps)
                    centre = trace.point_at(m * n)
                    assert values.ball == _ball_holds(space, centre, eps, image.__getitem__)
                    assert values.ball == verify_invariant_ball(T, trace, eps, n, m)
                    # the diameter does not read s, which may overflow the bound
                    tail = _cauchy_tail(replace(trace, space=_with_s(space, 1.0)),
                                        eps, n, m, values.m0)
                    assert values.diameter.hex() == tail.max_observed.hex()
                    compared += 1
    assert compared > 0


@pytest.mark.parametrize("s_variant", S_VARIANTS)
@pytest.mark.parametrize("shape", SHAPES)
def test_graph_reports_equal(shape, s_variant):
    # with n and eps from the catalog; the catalog entries alternate
    entries = [_prepare_catalogs(FuzzConfig(gauge_catalog=(gauge,), phi_catalog=(phi,)))
               for gauge, phi in ((IdentityGauge(), LinearPhi(0.6)),
                                  (PowerGauge(0.5), LinearPhi(0.5)))]
    for k, (space, T, _) in enumerate(_graph_cases(shape)):
        (entry,), (phi,) = entries[k % 2]
        reference, own = _check_both(_with_s(space, S_VARIANTS[s_variant]), T, entry, phi)
        assert own == reference


# --- what the harness no longer builds -----------------------------------------

def _forbid_public_lemmas(monkeypatch):
    # the harness neither binds nor calls the public lemmas that compute n,
    # m, m0 or T^n again
    for name in PUBLIC_LEMMAS:
        assert not hasattr(harness, name)
        monkeypatch.setattr(solver, name, _raise(AssertionError))


def test_passing_runs_build_no_trace(monkeypatch):
    # a passing trial records no trace and builds no Cauchy diagnostics
    _forbid_public_lemmas(monkeypatch)
    for name in ("picard_iterate", "_cauchy_tail", "m_epsilon", "verify_step_chaining"):
        monkeypatch.setattr(harness, name, _raise(AssertionError))
    for name in ("PicardTrace", "CauchyDiagnostics"):
        monkeypatch.setattr(solver, name, _raise(AssertionError))
    report = fuzz(FuzzConfig(seed=0, trials=1000))
    assert report.violations == [] and report.lemma_counts["cauchy_bound"]["pass"] > 0
    report = fuzz(FuzzConfig(seed=0, trials=200, **G1))
    assert report.violations == [] and report.lemma_counts["g1_termination"]["pass"] > 0


def test_cycling_orbits_fail_the_block_scan(monkeypatch):
    # T = (0, 2, 1) fixes 0 and swaps 1 and 2: the traces from 1 and 2 end
    # on the cycle, so their block scans run past the last recorded index
    # and fail the m_epsilon lemma, and the lemmas that need m are not run
    space = validate_finite_space([[0.0, 1.0, 2.0], [1.0, 0.0, 4.0], [2.0, 4.0, 0.0]])
    T = FiniteMap((0, 2, 1))
    config = FuzzConfig(gauge_catalog=(IdentityGauge(),), phi_catalog=(LinearPhi(0.6),))
    (entry,), (phi,) = _prepare_catalogs(config)
    _forbid_public_lemmas(monkeypatch)
    report = FuzzReport(config={})
    assert not harness._check_theorem(report, 0, space, T, entry, phi)
    assert report.g2_instances == 1
    assert {name: (c["pass"], c["fail"]) for name, c in report.lemma_counts.items()} == {
        "unique_fixed_point": (1, 0), "orbit_convergence": (1, 2), "g1_termination": (0, 0),
        "n_epsilon": (1, 0), "m_epsilon": (1, 2), "invariant_ball": (1, 0),
        "step_chaining": (1, 0), "cauchy_bound": (1, 0)}
    assert [(v["kind"], v["trace"]["x0"], v["trace"]["cycle"]) for v in report.violations] == [
        ("orbit-divergence", 1, [1, 2]), ("orbit-divergence", 2, [2, 1]),
        ("m-epsilon-budget", 1, [1, 2]), ("m-epsilon-budget", 2, [2, 1])]


def test_cauchy_bound_overflow_fails_its_lemma(monkeypatch):
    # with s = 1e200 the bound 4*s^3*eps overflows: the Cauchy lemma fails
    # with a bundle on every trace instead of the ConstantOverflow escaping
    space = replace(
        validate_finite_space([[0.0, 1.0, 2.0], [1.0, 0.0, 4.0], [2.0, 4.0, 0.0]]), s=1e200)
    T = FiniteMap((0, 0, 1))
    config = FuzzConfig(gauge_catalog=(IdentityGauge(),), phi_catalog=(LinearPhi(0.6),))
    (entry,), (phi,) = _prepare_catalogs(config)
    _forbid_public_lemmas(monkeypatch)
    report = FuzzReport(config={})
    assert not harness._check_theorem(report, 0, space, T, entry, phi)
    assert report.lemma_counts["cauchy_bound"] == {"pass": 0, "fail": 3}
    assert [(v["kind"], v["trace"]["x0"]) for v in report.violations] == [
        ("cauchy-bound", 0), ("cauchy-bound", 1), ("cauchy-bound", 2)]


@pytest.mark.parametrize("size,scale", [(24, 2.0 ** 8), (40, 2.0 ** 20)])
def test_public_lemmas_compose_on_loaded_traces(size, scale):
    # a trace read back from its JSON holds the whole orbit: m_epsilon gives
    # the orbit walker's m on it, and the ball that m names holds on every
    # start point
    space, T = _halving_chain(size, scale)
    config = FuzzConfig(gauge_catalog=(IdentityGauge(),), phi_catalog=(LinearPhi(0.6),))
    (entry,), (phi,) = _prepare_catalogs(config)
    eps = entry.eps0 / 2.0
    n = n_epsilon(entry.gauge, phi, space.s, eps, budget=N_BUDGET)
    for x0 in space.points:
        trace = picard_iterate(space, T, x0, max_iter=size, tol=0.0)
        loaded = solver.trace_from_json(trace.to_json())
        assert loaded == trace and len(loaded.orbit) == loaded.max_index + 1
        m = walker_m_epsilon(space, T, x0, n, eps, space.s)
        assert m_epsilon(loaded, n, eps) == m_epsilon(trace, n, eps) == m
        assert verify_invariant_ball(T, loaded, eps, n, m) is True
