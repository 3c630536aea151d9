"""The harness's one lemma pass per certified trial against the per-trace
lemma loop it replaced.

``_reference_check_theorem`` is the earlier ``harness._check_theorem``,
kept verbatim but for the lemma signatures: it calls the orbit walker's
block scan (``walker_m_epsilon``, the scan ``m_epsilon`` ran before it read
the trace), ``verify_invariant_ball``, ``verify_step_chaining`` and
``verify_cauchy_bound`` afresh on every trace.
Run in its place, on fuzz runs and on long halving chains, it must give the
same report JSON and the same lemma values as the harness's own, also with
each lemma forced to fail in turn.  A forced failure replaces, on each side,
the name that side calls.

The harness reads every trace through one path: m from one block scan of
the recorded trace, m0 from its one step-chaining call, and the Cauchy tail
on those.  On traces a passing fuzz run never produces it departs from the
reference by design: a trace that stops short fails its block scan, and a
step-chaining lemma that raises takes the Cauchy lemma with it.  Those cases
pin the harness's report and still compare every lemma value the departure
does not touch.
"""

import dataclasses
import hashlib
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
    n_epsilon,
    picard_iterate,
    verify_g1_termination,
    verify_step_chaining,
)
from gphi.solver import m_epsilon, verify_cauchy_bound, verify_invariant_ball
from gphi.spaces import validate_finite_space
from test_block_index import OrbitWalk, walker_m_epsilon

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
        m = attempt(walker_m_epsilon, space, T, trace.x0, n, eps, space.s, budget=M_BUDGET)
        if not lemma("m_epsilon", m is not None, "m-epsilon-budget",
                     "m_epsilon exhausted its budget", trace):
            continue
        ball = attempt(verify_invariant_ball, T, trace, eps, n, m)
        lemma("invariant_ball", ball, "invariant-ball", "image of the ball escaped", trace)
        chain = attempt(verify_step_chaining, trace, n, eps)
        lemma("step_chaining", chain is not None and chain[1], "step-chaining",
              "block distances exceeded eps", trace)
        diag = attempt(verify_cauchy_bound, trace, entry.gauge, phi, eps,
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


def _ball_seen(T, trace, eps, n, m):
    # the centre and radius of the ball and T^n as the orbit walker reads it
    return _image_seen(trace.space, trace.point_at(m * n), eps,
                       lambda u: OrbitWalk(trace.space, T, u).point(n))


def _image_seen(space, center, eps, image_of):
    return center, eps, [image_of(u) for u in space.points]


def _nothing_seen(*args, **kwargs):
    return ()


# (log key, name, what the log keeps of the arguments): the names the
# reference loop calls, then the ones the harness calls
REFERENCE_LEMMAS = [("m", "walker_m_epsilon", _nothing_seen),
                    ("ball", "verify_invariant_ball", _ball_seen),
                    ("chain", "verify_step_chaining", _nothing_seen),
                    ("cauchy", "verify_cauchy_bound", _nothing_seen)]
HARNESS_LEMMAS = [("m", "m_epsilon", _nothing_seen),
                  ("ball", "_ball_holds", _image_seen),
                  ("chain", "verify_step_chaining", _nothing_seen),
                  ("cauchy", "_cauchy_tail", _nothing_seen)]
PUBLIC_LEMMAS = ("verify_invariant_ball", "verify_cauchy_bound")


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


def _compare(monkeypatch, run, forced=(), pin=None):
    """Run ``run`` with the reference loop, then with the harness's own; each
    (reference name, harness name, replacement) of ``forced`` replaces the
    name that side calls.  Both sides must return the same report JSON and
    log the same lemma values: the same centre, radius and T^n for the ball,
    and the same m, m0 and Cauchy diagnostics.  Where the harness departs
    from the reference, ``pin`` is (the log keys it departs on, the SHA-256
    of its report): the logs must agree on every other key and the report
    must differ from the reference's and match the digest.  Returns the
    harness's report and log."""
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
    if pin is None:
        assert report == reference
        assert log == reference_log
    else:
        keys, digest = pin
        assert report != reference
        assert [e for e in log if e[0] not in keys] == \
            [e for e in reference_log if e[0] not in keys]
        assert hashlib.sha256(report.encode()).hexdigest() == digest
    return json.loads(report), log


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("extra", [
    {"max_points": 8}, {"max_points": 32}, {"max_points": 64},
    {"max_points": 12, "scale": 1e3}, G1], ids=["n8", "n32", "n64", "scale", "g1"])
def test_fuzz_reports_equal(monkeypatch, seed, extra):
    config = FuzzConfig(seed=seed, trials=150, **extra)
    _compare(monkeypatch, lambda: fuzz(config).to_json_str())


# (name the reference loop calls, name the harness calls, replacement, extra
# config, pin where the harness departs from the reference)
FORCED = [
    ("enumerate_fixed_points", "enumerate_fixed_points", lambda space, T: {0, 1}, {}, None),
    # a trace that stops short fails the harness's block scan, not the ball
    # and the Cauchy bound
    ("picard_iterate", "picard_iterate", _budget_exhausted_trace, {},
     ({"m", "chain", "cauchy"},
      "f8e749e0c7d02b8f0345c72c4dd4f5e1d9e474f595d3a9dbf0145a6a34ad6432")),
    ("picard_iterate", "picard_iterate", _budget_exhausted_trace, G1, None),
    ("verify_g1_termination", "verify_g1_termination", lambda trace: False, G1, None),
    ("n_epsilon", "n_epsilon", _raise(BudgetExhausted), {}, None),
    ("walker_m_epsilon", "m_epsilon", _raise(BudgetExhausted), {}, None),
    ("verify_invariant_ball", "_ball_holds", lambda *a, **k: False, {}, None),
    # without m0 the harness fails the Cauchy bound too
    ("verify_step_chaining", "verify_step_chaining", _raise(TailNotSmall), {},
     ({"cauchy"}, "4a16fe056ba648d267a944f6700ef9a05f99ac18ac4ccfe74ffc2b2182850cb9")),
    ("verify_cauchy_bound", "_cauchy_tail", _raise(OrbitTooShort), {}, None),
]


@pytest.mark.parametrize("forced", FORCED, ids=[f"{c[1]}-g1" if c[3] else c[1] for c in FORCED])
def test_forced_failure_reports_equal(monkeypatch, forced):
    config = FuzzConfig(seed=0, trials=12, **forced[3])
    report, _ = _compare(monkeypatch, lambda: fuzz(config).to_json_str(), [forced[:3]],
                         forced[4])
    assert report["violations"]


GAUGES = {"identity": IdentityGauge(), "square": PowerGauge(2.0)}
NO_CHAINING = ("verify_step_chaining", "verify_step_chaining", _raise(TailNotSmall))

# Where the harness departs from the reference on a halving chain: without
# m0 it fails the Cauchy bound as well.
HALVING_PINS = {
    (24, "identity", "no-chaining"): (
        {"cauchy"}, "4ec853c4b41cf688eeb59ff43726044aaa69c9d34ebe2e9057a17527e50f2d33"),
    (24, "square", "no-chaining"): (
        {"cauchy"}, "50d531f02edb6371972275a1039897c63eea225117299217470d14be2e0ed5c5"),
    (40, "identity", "no-chaining"): (
        {"cauchy"}, "90020ceb613f1ba4e22a49d2d09854fa5675a750aae296e3f618e468a6fbc389"),
    (40, "square", "no-chaining"): (
        {"cauchy"}, "77f7c5615549d0c6379583b0527931f36a3e5377f9ff584955c1bc174e6312a2"),
}


def _halving_chain(size, scale):
    # x_i = scale * 2^-i with T x_i = x_{i+1}
    x = [scale * 2.0 ** -i for i in range(size)]
    space = validate_finite_space([[abs(a - b) for b in x] for a in x])
    return space, FiniteMap(tuple(min(i + 1, size - 1) for i in range(size)))


@pytest.mark.parametrize("variant", ["plain", "no-chaining"])
@pytest.mark.parametrize("gauge_name", GAUGES)
@pytest.mark.parametrize("size,scale", [(24, 2.0 ** 8), (40, 2.0 ** 20)])
def test_halving_chains_equal(monkeypatch, size, scale, gauge_name, variant):
    # fuzz orbits settle within a block, so m = m0 = 1 and T^n is constant
    # on them; on a halving chain m and m0 reach 8 and T^n moves every point
    # but the last n
    space, T = _halving_chain(size, scale)
    gauge = GAUGES[gauge_name]
    config = FuzzConfig(gauge_catalog=(gauge,), phi_catalog=(LinearPhi(0.6),))
    (entry,), (phi,) = _prepare_catalogs(config)
    assert certify_condition_G(space, T, gauge, phi).verdict == "certified"
    forced = [NO_CHAINING] if variant == "no-chaining" else []

    def run():
        report = FuzzReport(config={})
        harness._check_theorem(report, 0, space, T, entry, phi)
        return report.to_json_str()

    report, log = _compare(monkeypatch, run, forced,
                           HALVING_PINS.get((size, gauge_name, variant)))
    kinds = {v["kind"] for v in report["violations"]}
    assert kinds == ({"step-chaining", "cauchy-bound"} if forced else set())
    if not forced:
        # the m_epsilon lemma, the ball's centre x_{mn} and the Cauchy
        # diagnostics read one m for every start point
        ms = [result for key, _, result in log if key == "m"]
        centres = [seen[0] for key, seen, _ in log if key == "ball"]
        diags = [result for key, _, result in log if key == "cauchy"]
        assert len(ms) == len(centres) == len(diags) == size
        assert [diag.m for diag in diags] == ms
        assert centres == [min(x0 + m * diag.n, size - 1)
                           for x0, m, diag in zip(space.points, ms, diags)]


def _forbid_public_lemmas(monkeypatch):
    # the harness neither binds nor calls the public lemmas that compute n,
    # m, m0 or T^n again
    for name in PUBLIC_LEMMAS:
        assert not hasattr(harness, name)
        monkeypatch.setattr(solver, name, _raise(AssertionError))


def test_plain_runs_share_the_lemma_inputs(monkeypatch):
    _forbid_public_lemmas(monkeypatch)
    report = fuzz(FuzzConfig(seed=0, trials=40))
    assert report.g2_instances > 0 and report.violations == []
    assert report.lemma_counts["cauchy_bound"]["pass"] > 0


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
    space = dataclasses.replace(
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
