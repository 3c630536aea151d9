"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred.
"""

import hashlib
import json
import math
import time
from fractions import Fraction
from random import Random

import pytest

from gphi.cli import run_cli
from gphi.contraction import (
    AffineMap,
    FiniteMap,
    apply,
    certify_condition_G,
    check_F_inequality,
    from_F_contraction,
)
from gphi.gauges import (
    AffinePlusGauge,
    IdentityGauge,
    LinearPhi,
    LN,
    TabulatedPhi,
    certify_gauge_class,
    certify_phi,
    check_phi_strict_decrease,
    log_grid,
    shift_form,
)
from gphi.harness import (
    DEFAULT_GAUGE_CATALOG,
    DEFAULT_PHI_CATALOG,
    FuzzConfig,
    G1_GAUGE_CATALOG,
    fuzz,
    generate_operator,
    generate_space,
)
from gphi.solver import enumerate_fixed_points, picard_iterate
from gphi.spaces import AnalyticSpace, check_limit_bounds, validate_finite_space
from test_harness import uniform_map

THREE_POINT_MATRIX = [[0.0, 1.0, 2.0], [1.0, 0.0, 4.0], [2.0, 4.0, 0.0]]


def _line(num: int, ok: bool, detail: str):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def flagship_report():
    t0 = time.perf_counter()
    report = fuzz(FuzzConfig(seed=0, trials=1000, max_points=8))
    report.elapsed = time.perf_counter() - t0
    return report


def test_criterion_1_theorem_fuzz(flagship_report):
    rep = flagship_report
    ok = (rep.trials_run == 1000
          and rep.violations == []
          and rep.certified_count == rep.theorem_holds_count
          and rep.certified_count > 0
          and rep.lemma_counts["unique_fixed_point"]["fail"] == 0
          and rep.lemma_counts["orbit_convergence"]["fail"] == 0
          and rep.elapsed < 60.0)
    _line(1, ok,
          f"1000 trials, {rep.certified_count} certified, "
          f"{len(rep.violations)} violations, {rep.elapsed:.1f}s")


def test_criterion_2_strict_decrease():
    grid = [t for t in log_grid() if 1e-6 <= t <= 1e6]
    failures = {}
    for phi in DEFAULT_PHI_CATALOG:
        ok, witnesses = check_phi_strict_decrease(phi, grid)
        if not ok:
            failures[str(phi)] = witnesses[:3]
    _line(2, not failures,
          f"{len(DEFAULT_PHI_CATALOG)} catalog functions x {len(grid)} "
          f"grid points, exceptions: {failures or 'none'}")


def test_criterion_3_limit_bounds():
    bad = 0
    checked = 0
    for i in range(100):
        rng = Random(f"acceptance-3:{i}")
        p = float(rng.choice([1, 2, 3]))
        space = AnalyticSpace(0.0, 1.0, p)
        # moderate contraction factors keep the orbit long enough that the
        # default tail window sits in the converged regime
        a = rng.uniform(0.55, 0.85) * rng.choice([-1.0, 1.0])
        b_lo, b_hi = max(0.0, -a), min(1.0, 1.0 - a)
        b = b_lo + 0.5 * (b_hi - b_lo)
        T = AffineMap(a, b)
        trace = picard_iterate(space, T, rng.random(), max_iter=5000, tol=1e-13)
        assert trace.stop_reason == "exact-fixed-point"
        # window the estimate over the converged tail: points within
        # tol/(2s) of the limit keep both sandwich deficits below tol
        cut = 1e-8 / (2.0 * space.s)
        tail = 0
        for x in reversed(trace.orbit):
            if space.distance(x, trace.fixed_point) > cut:
                break
            tail += 1
        tail = max(tail, 1)
        for _ in range(10):
            probe = rng.random()
            rep = check_limit_bounds(space, trace.orbit, trace.fixed_point,
                                     probe, tail=tail, tol=1e-8)
            checked += 1
            bad += not rep.holds
    _line(3, bad == 0, f"{checked} probe checks on 100 convergent orbits, {bad} failed")


def test_criterion_4_equivalence():
    psi = shift_form(math.log(2.0))
    gauge, comp = from_F_contraction(LN, psi)
    mismatches = 0
    for i in range(100):
        space = generate_space(f"acceptance-4:{i}", 2 + i % 7)
        seed = f"acceptance-4-op:{i}"
        T = generate_operator(seed, space) if i % 2 == 0 else uniform_map(seed, space.n)
        cert = certify_condition_G(space, T, gauge, comp)
        direct = check_F_inequality(space, T, LN, psi)
        if cert.verdict == "certified":
            mismatches += direct is not None
        else:
            w = cert.violation_witness
            if direct is None or (w.x, w.y) != (direct.x, direct.y) \
                    or w.d_xy != direct.d_xy or w.d_txty != direct.d_txty:
                mismatches += 1

    ident, half = IdentityGauge(), LinearPhi(0.5)
    rng = Random("acceptance-4:args")
    value_ok = True
    for _ in range(100):
        t = 10.0 ** rng.uniform(-3, 3)
        value_ok &= math.isclose(gauge.eval(t), ident.eval(t), rel_tol=1e-12)
        value_ok &= math.isclose(comp.eval(t), half.eval(t), rel_tol=1e-12)
    _line(4, mismatches == 0 and value_ok,
          f"100 instances, {mismatches} verdict/witness mismatches; "
          f"adapter matches (identity, linear 1/2) within 1e-12: {value_ok}")


def test_criterion_5_g1_termination():
    rep = fuzz(FuzzConfig(seed=0, trials=200, gauge_catalog=G1_GAUGE_CATALOG))
    counts = rep.lemma_counts["g1_termination"]
    ok = (rep.violations == [] and rep.g1_instances > 0
          and counts["fail"] == 0 and counts["pass"] > 0)
    _line(5, ok,
          f"200 trials, {rep.g1_instances} certified positive-infimum instances, "
          f"{counts['pass']} orbits stopped exactly, {counts['fail']} did not")


def test_criterion_6_quantitative_pipeline(flagship_report):
    rep = flagship_report
    fails = {name: rep.lemma_counts[name]["fail"]
             for name in ("n_epsilon", "m_epsilon", "invariant_ball",
                          "step_chaining", "cauchy_bound")}
    passes = {name: rep.lemma_counts[name]["pass"] for name in fails}
    ok = (rep.g2_instances > 0
          and all(v == 0 for v in fails.values())
          and all(v > 0 for v in passes.values()))
    _line(6, ok,
          f"{rep.g2_instances} certified G2 instances, per-lemma failures {fails}")


def test_criterion_7_worked_micro_instances():
    # rational-arithmetic cross-check of the minimal constant
    n = 3
    best = Fraction(0)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if len({i, j, k}) == 3:
                    num = Fraction(THREE_POINT_MATRIX[i][j])
                    den = (Fraction(THREE_POINT_MATRIX[i][k])
                           + Fraction(THREE_POINT_MATRIX[k][j]))
                    best = max(best, num / den)
    space = validate_finite_space(THREE_POINT_MATRIX)
    rational_ok = best == Fraction(4, 3) and space.s == 4.0 / 3.0

    T = FiniteMap((0, 0, 1))
    cert = certify_condition_G(space, T, IdentityGauge(), LinearPhi(0.5))
    finite_ok = cert.verdict == "certified" \
        and enumerate_fixed_points(space, T) == {0}

    unit = AnalyticSpace(0.0, 1.0, 1.0)
    trace = picard_iterate(unit, AffineMap(0.5, 0.25), 0.0, tol=1e-10)
    affine_ok = trace.k_stop <= 40 and abs(trace.fixed_point - 0.5) <= 1e-10

    squared = AnalyticSpace(0.0, 1.0, 2.0)
    halving = AffineMap(0.5, 0.0)
    cert2 = certify_condition_G(squared, halving, IdentityGauge(), LinearPhi(0.5))
    ratio_ok = cert2.verdict != "violated" and cert2.violation_witness is None
    rng = Random("acceptance-7")
    for _ in range(20):
        x, y = rng.random(), rng.random()
        d = squared.distance(x, y)
        dt = squared.distance(apply(halving, squared, x), apply(halving, squared, y))
        if d > 0:
            ratio_ok &= math.isclose(dt, d / 4.0, rel_tol=1e-12)

    ok = rational_ok and finite_ok and affine_ok and ratio_ok
    _line(7, ok,
          f"constant 4/3: {rational_ok}, certified with fixed point 0: {finite_ok}, "
          f"affine orbit at 0.5 in {trace.k_stop} steps: {affine_ok}, "
          f"quarter-ratio contraction certified: {ratio_ok}")


def test_criterion_8_negative_controls():
    space = validate_finite_space(THREE_POINT_MATRIX)
    ident = FiniteMap((0, 1, 2))
    cert_fails = all(
        certify_condition_G(space, ident, G, phi).verdict == "violated"
        for G in DEFAULT_GAUGE_CATALOG for phi in DEFAULT_PHI_CATALOG)

    diag = TabulatedPhi(((0.25, 0.25), (1.0, 1.0), (4.0, 4.0)))
    phi_cert = certify_phi(diag, grid=[0.25, 1.0, 4.0])
    phi_fails = phi_cert.verdict == "non-member"

    cls = certify_gauge_class(AffinePlusGauge(1.0))
    witness = cls.evidence.get("g2_witness", {}).get("sequence", [])
    affine_ok = cls.in_g2 == "no" and len(witness) > 0

    ok = cert_fails and phi_fails and affine_ok
    _line(8, ok,
          f"identity map violated for all {len(DEFAULT_GAUGE_CATALOG) * len(DEFAULT_PHI_CATALOG)} "
          f"catalog pairs: {cert_fails}, identity comparison function rejected: "
          f"{phi_fails}, affine-plus gauge refused G2 with witness: {affine_ok}")


def test_criterion_9_determinism(capsys):
    assert run_cli(["fuzz", "--seed", "42", "--trials", "100"]) == 0
    first = capsys.readouterr().out
    assert run_cli(["fuzz", "--seed", "42", "--trials", "100"]) == 0
    second = capsys.readouterr().out
    ok = first == second and json.loads(first)["violations"] == []
    with capsys.disabled():
        _line(9, ok, f"two runs, byte-identical: {first == second}, "
                     f"{len(first)} bytes each")


# SHA-256 of FuzzReport.to_json_str() for the two seed-0 reference runs.
# Any change to these bytes is a change of observable behaviour and has to be
# justified as a bug fix.  The counts below restate what the bytes contain.
GOLDEN_FLAGSHIP_SHA256 = "17955ace9c2e11e692acc57509db07a8d9afb33399b0629d376ba526a76d178f"
GOLDEN_G1_SHA256 = "537da949e1bc2cbd369deef975f0642717e2a2a2bbabd4ffede1a30ff8574df7"


def _sha256(report) -> str:
    return hashlib.sha256(report.to_json_str().encode()).hexdigest()


def test_golden_report_bytes(flagship_report):
    rep = flagship_report
    assert (rep.trials_run, rep.certified_count, rep.uncertified_count) == (1000, 345, 655)
    assert (rep.g1_instances, rep.g2_instances, rep.theorem_holds_count) == (0, 345, 345)
    assert rep.lemma_counts["orbit_convergence"] == {"pass": 1290, "fail": 0}
    assert rep.lemma_counts["cauchy_bound"] == {"pass": 1290, "fail": 0}
    assert rep.violations == []
    assert _sha256(rep) == GOLDEN_FLAGSHIP_SHA256

    g1 = fuzz(FuzzConfig(seed=0, trials=200, gauge_catalog=G1_GAUGE_CATALOG))
    assert (g1.trials_run, g1.certified_count, g1.uncertified_count) == (200, 68, 132)
    assert (g1.g1_instances, g1.g2_instances, g1.theorem_holds_count) == (68, 0, 68)
    assert g1.lemma_counts["g1_termination"] == {"pass": 265, "fail": 0}
    assert g1.violations == []
    assert _sha256(g1) == GOLDEN_G1_SHA256


# The catalog scan also serves the break modes and larger spaces; these pin
# the identity-map break run and a run on up to 32 points.
GOLDEN_DROP_CONTRACTION_SHA256 = \
    "b266d4f9f428e8932aeaaec9cbc178f4ea0846c05cded2204e4ce68f4c555b8c"
GOLDEN_MAX32_SHA256 = "4dcc77cdb9774ba516034e680451fe5ab338419c7e072b624221a2e5f95949d6"
GOLDEN_DROP_PHI_SHA256 = "b511c3beea6a532851d2640b958d005d69c85e7ec46f0c30f96fb9c91ba85785"
# Recorded from the pure-Python draw loop, before spaces above the kernel
# cut-off drew their entries through numpy: up to 256 points, and at a
# scale whose entries are not dyadic fractions of the draws.
GOLDEN_MAX256_SHA256 = "186e78cda27090f0ec6e61575f52a181eef81efae25b19ec4157f7f4f7e847df"
GOLDEN_MAX64_SCALED_SHA256 = "3162883bbeb22324927c3846b39220f05452d4cf249d90fa89914984a266d3cc"
# Spaces of 17 to 25 points whose catalog scan reads a third row, each of
# which built a dense matrix while the drawn rows kept one.
GOLDEN_THIRD_ROW_SHA256 = "740b682b6493e562a17d1fb777fb283adf5cf783a6085640fc3792974cd24f99"


def test_golden_report_bytes_break_and_wide():
    broken = fuzz(FuzzConfig(seed=0, trials=200, break_mode="drop-contraction"))
    assert (broken.expected_break_count, broken.violations) == (200, [])
    assert _sha256(broken) == GOLDEN_DROP_CONTRACTION_SHA256

    wide = fuzz(FuzzConfig(seed=0, trials=200, max_points=32))
    assert (wide.certified_count, wide.uncertified_count) == (15, 185)
    assert wide.theorem_holds_count == 15 and wide.violations == []
    assert _sha256(wide) == GOLDEN_MAX32_SHA256

    dropped = fuzz(FuzzConfig(seed=0, trials=200, break_mode="drop-phi"))
    assert (dropped.expected_break_count, dropped.uncertified_count) == (200, 200)
    assert _sha256(dropped) == GOLDEN_DROP_PHI_SHA256

    widest = fuzz(FuzzConfig(seed=3, trials=12, max_points=256))
    assert (widest.uncertified_count, widest.violations) == (12, [])
    assert _sha256(widest) == GOLDEN_MAX256_SHA256

    scaled = fuzz(FuzzConfig(seed=0, trials=60, max_points=64, scale=3.7))
    assert (scaled.certified_count, scaled.theorem_holds_count) == (4, 4)
    assert _sha256(scaled) == GOLDEN_MAX64_SCALED_SHA256

    third_row = fuzz(FuzzConfig(seed=1, trials=300, max_points=32))
    assert third_row.violations == []
    assert _sha256(third_row) == GOLDEN_THIRD_ROW_SHA256
