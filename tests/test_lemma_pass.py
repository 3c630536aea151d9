"""The harness's one lemma pass per certified trial against the per-trace
lemma loop it replaced.

``_reference_check_theorem`` is the earlier ``harness._check_theorem``,
kept verbatim: it calls ``m_epsilon``, ``verify_invariant_ball``,
``verify_step_chaining`` and ``verify_cauchy_bound`` afresh on every trace.
Run in its place, on fuzz runs and on long halving chains, it must give the
same report JSON and the same lemma values as the harness's own, also with
each lemma forced to fail in turn and on traces that lack indices.  A forced
failure replaces, on each side, the name that side calls.
"""

import dataclasses
import json
import sys

import pytest

from gphi import harness, solver
from gphi.contraction import FiniteMap, certify_condition_G
from gphi.errors import BudgetExhausted, GphiError, OrbitTooShort, TailNotSmall
from gphi.gauges import IdentityGauge, LinearPhi, PowerGauge
from gphi.harness import (
    G1_GAUGE_CATALOG,
    M_BUDGET,
    N_BUDGET,
    FuzzConfig,
    FuzzReport,
    _bundle,
    _prepare_catalogs,
    enumerate_fixed_points,
    fuzz,
    m_epsilon,
    n_epsilon,
    picard_iterate,
    verify_cauchy_bound,
    verify_g1_termination,
    verify_invariant_ball,
    verify_step_chaining,
)
from gphi.spaces import validate_finite_space

G1 = {"gauge_catalog": G1_GAUGE_CATALOG}
_REAL_PICARD = harness.picard_iterate


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
        # a check out of budget, recorded orbit or small tail fails its lemma
        try:
            return check(*args, **kwargs)
        except (BudgetExhausted, OrbitTooShort, TailNotSmall):
            return None

    fps = enumerate_fixed_points(space, T)
    if not lemma("unique_fixed_point", len(fps) == 1, "fixed-point-count",
                 f"certified instance has fixed points {sorted(fps)}"):
        return False
    fp = next(iter(fps))

    traces = []
    for x0 in space.points:
        # a finite orbit revisits a point within n steps, and only a zero
        # step is a fixed point
        trace = picard_iterate(space, T, x0, max_iter=space.n, tol=0.0)
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
    n = attempt(n_epsilon, entry.gauge, phi, space.s, eps, budget=N_BUDGET)
    if not lemma("n_epsilon", n is not None, "n-epsilon-budget",
                 "n_epsilon exhausted its budget"):
        return False

    for trace in traces:
        m = attempt(m_epsilon, space, T, trace.x0, n, eps, space.s, budget=M_BUDGET)
        if not lemma("m_epsilon", m is not None, "m-epsilon-budget",
                     "m_epsilon exhausted its budget", trace):
            continue
        ball = attempt(verify_invariant_ball, space, T, trace, eps, n, m)
        lemma("invariant_ball", ball, "invariant-ball", "image of the ball escaped", trace)
        chain = attempt(verify_step_chaining, trace, n, eps, space.s)
        lemma("step_chaining", chain is not None and chain[1], "step-chaining",
              "block distances exceeded eps", trace)
        diag = attempt(verify_cauchy_bound, space, trace, entry.gauge, phi, eps,
                       n_budget=N_BUDGET, m_budget=M_BUDGET)
        lemma("cauchy_bound", diag is not None and diag.holds, "cauchy-bound",
              "tail pair distance exceeded 4*s^3*eps", trace)
    return len(report.violations) == violations_before


def _raise(exc):
    def fail(*args, **kwargs):
        raise exc("forced")
    return fail


def _budget_exhausted_trace(*args, **kwargs):
    trace = _REAL_PICARD(*args, **kwargs)
    return dataclasses.replace(trace, stop_reason="budget-exhausted")


def _ball_seen(space, T, trace, eps, n, m):
    # the centre and radius of the ball and T^n as the orbit walker reads it
    return _image_seen(space, trace.point_at(m * n), eps,
                       lambda u: solver._Walk(space, T, u).point(n))


def _image_seen(space, center, eps, image_of):
    return center, eps, [image_of(u) for u in space.points]


def _nothing_seen(*args, **kwargs):
    return ()


# (log key, name, what the log keeps of the arguments): the names the
# reference loop calls, then the ones the harness calls
REFERENCE_LEMMAS = [("m", "m_epsilon", _nothing_seen),
                    ("ball", "verify_invariant_ball", _ball_seen),
                    ("chain", "verify_step_chaining", _nothing_seen),
                    ("cauchy", "verify_cauchy_bound", _nothing_seen)]
HARNESS_LEMMAS = [*REFERENCE_LEMMAS, ("m", "_block_index", _nothing_seen),
                  ("ball", "_ball_holds", _image_seen),
                  ("cauchy", "_cauchy_tail", _nothing_seen)]


def _record(patch, module, lemmas, log):
    """Replace each lemma name in ``module`` by a version that logs what it
    saw of its arguments and then its result or the name of its error."""
    for key, name, seen in lemmas:
        def recorded(*args, _fn=getattr(module, name), _key=key, _seen=seen, **kwargs):
            try:
                result = _fn(*args, **kwargs)
            except GphiError as exc:
                log.append((_key, _seen(*args, **kwargs), type(exc).__name__))
                raise
            log.append((_key, _seen(*args, **kwargs), result))
            return result
        patch.setattr(module, name, recorded)


def _compare(monkeypatch, run, forced=()):
    """Run ``run`` with the reference loop, then with the harness's own; each
    (reference name, harness name, replacement) of ``forced`` replaces the
    name that side calls.  Both sides must return the same report JSON and
    log the same lemma values: the same centre, radius and T^n for the ball,
    and the same m, m0 and Cauchy diagnostics."""
    reference_log, log = [], []
    with monkeypatch.context() as patch:
        patch.setattr(harness, "_check_theorem", _reference_check_theorem)
        _record(patch, sys.modules[__name__], REFERENCE_LEMMAS, reference_log)
        for name, _, replacement in forced:
            patch.setattr(sys.modules[__name__], name, replacement)
        reference = run()
    with monkeypatch.context() as patch:
        _record(patch, harness, HARNESS_LEMMAS, log)
        for _, name, replacement in forced:
            patch.setattr(harness, name, replacement)
        report = run()
    assert report == reference
    assert log == reference_log
    return json.loads(report)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("extra", [
    {"max_points": 8}, {"max_points": 32}, {"max_points": 64},
    {"max_points": 12, "scale": 1e3}, G1], ids=["n8", "n32", "n64", "scale", "g1"])
def test_fuzz_reports_equal(monkeypatch, seed, extra):
    config = FuzzConfig(seed=seed, trials=150, **extra)
    _compare(monkeypatch, lambda: fuzz(config).to_json_str())


# (name the reference loop calls, name the harness calls, replacement, extra config)
FORCED = [
    ("enumerate_fixed_points", "enumerate_fixed_points", lambda space, T: {0, 1}, {}),
    ("picard_iterate", "picard_iterate", _budget_exhausted_trace, {}),
    ("picard_iterate", "picard_iterate", _budget_exhausted_trace, G1),
    ("verify_g1_termination", "verify_g1_termination", lambda trace: False, G1),
    ("n_epsilon", "n_epsilon", _raise(BudgetExhausted), {}),
    ("m_epsilon", "_block_index", _raise(BudgetExhausted), {}),
    ("verify_invariant_ball", "_ball_holds", lambda *a, **k: False, {}),
    ("verify_step_chaining", "verify_step_chaining", _raise(TailNotSmall), {}),
    ("verify_cauchy_bound", "_cauchy_tail", _raise(OrbitTooShort), {}),
]


@pytest.mark.parametrize("forced", FORCED, ids=[f"{c[1]}-g1" if c[3] else c[1] for c in FORCED])
def test_forced_failure_reports_equal(monkeypatch, forced):
    config = FuzzConfig(seed=0, trials=12, **forced[3])
    report = _compare(monkeypatch, lambda: fuzz(config).to_json_str(), [forced[:3]])
    assert report["violations"]


@pytest.mark.parametrize("variant", ["plain", "no-chaining", "thinned"])
@pytest.mark.parametrize("gauge", [IdentityGauge(), PowerGauge(2.0)], ids=["identity", "square"])
@pytest.mark.parametrize("size,scale", [(24, 2.0 ** 8), (40, 2.0 ** 20)])
def test_halving_chains_equal(monkeypatch, size, scale, gauge, variant):
    # fuzz orbits settle within a block, so m = m0 = 1 and T^n is constant
    # on them; on x_i = scale * 2^-i with T x_i = x_{i+1}, m and m0 reach 8
    # and T^n moves every point but the last n
    x = [scale * 2.0 ** -i for i in range(size)]
    space = validate_finite_space([[abs(a - b) for b in x] for a in x])
    T = FiniteMap(tuple(min(i + 1, size - 1) for i in range(size)))
    config = FuzzConfig(gauge_catalog=(gauge,), phi_catalog=(LinearPhi(0.6),))
    (entry,), (phi,) = _prepare_catalogs(config)
    assert certify_condition_G(space, T, gauge, phi).verdict == "certified"
    no_chaining = ("verify_step_chaining", "verify_step_chaining", _raise(TailNotSmall))
    forced = [no_chaining] if variant == "no-chaining" else []
    if variant == "thinned":
        # traces keep 16 strided head points and the last 4, so the exact
        # traces of orbits longer than 20 points lack indices
        monkeypatch.setattr(solver, "RECORD_CAP", 20)
        monkeypatch.setattr(solver, "TAIL_WINDOW", 4)

    def run():
        report = FuzzReport(config={})
        harness._check_theorem(report, 0, space, T, entry, phi)
        return report.to_json_str()

    report = _compare(monkeypatch, run, forced)
    if variant == "thinned":
        trace = picard_iterate(space, T, 0, max_iter=size, tol=0.0)
        assert trace.stop_reason == "exact-fixed-point"
        assert len(trace.indices) < trace.max_index + 1
    else:
        kinds = {v["kind"] for v in report["violations"]}
        assert kinds == ({"step-chaining"} if forced else set())


def test_plain_runs_share_the_lemma_inputs(monkeypatch):
    # every trace of a certified trial stops exactly, so the harness calls
    # none of the public lemmas that compute n, m or T^n again
    for name in ("m_epsilon", "verify_invariant_ball", "verify_cauchy_bound"):
        monkeypatch.setattr(harness, name, _raise(AssertionError))
    report = fuzz(FuzzConfig(seed=0, trials=40))
    assert report.g2_instances > 0 and report.violations == []
    assert report.lemma_counts["cauchy_bound"]["pass"] > 0



@pytest.mark.parametrize("size,scale", [(24, 2.0 ** 8), (40, 2.0 ** 20)])
def test_thinned_traces_read_the_trial_image(monkeypatch, size, scale):
    # a thinned trace takes m and the Cauchy tail from the public lemmas,
    # but its ball still reads T^n from the trial's image
    x = [scale * 2.0 ** -i for i in range(size)]
    space = validate_finite_space([[abs(a - b) for b in x] for a in x])
    T = FiniteMap(tuple(min(i + 1, size - 1) for i in range(size)))
    config = FuzzConfig(gauge_catalog=(IdentityGauge(),), phi_catalog=(LinearPhi(0.6),))
    (entry,), (phi,) = _prepare_catalogs(config)
    monkeypatch.setattr(solver, "RECORD_CAP", 20)
    monkeypatch.setattr(solver, "TAIL_WINDOW", 4)
    monkeypatch.setattr(harness, "verify_invariant_ball", _raise(AssertionError))
    report = FuzzReport(config={})
    harness._check_theorem(report, 0, space, T, entry, phi)
    assert report.lemma_counts["invariant_ball"]["pass"] > 0
