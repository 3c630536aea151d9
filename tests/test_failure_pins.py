"""Report bytes of the fuzz harness's failure paths.

Every other fuzz test asserts an empty violation list, so these make each
lemma of the theorem check fail in turn and pin the SHA-256 of the
resulting report.  Each pin covers the lemma tallies, the violation kind and
detail, and the bundled counterexample (space, operator, gauge, phi and
trace).

Where the harness calls a name once per trial or once per ball centre
(``enumerate_fixed_points``, ``n_epsilon``, ``_ball_holds``,
``_first_certified``), a fuzz run with that name replaced forces the
failure.  The orbit lemmas are read off the map's functional graph in one
pass, so they fail on crafted instances passed straight to
``_check_theorem``, each of which makes its lemma fail for real.  Their
digests were computed with the per-trace lemma loop that the pass replaced,
and the pass reproduces them.

Two exception paths cannot happen on a finite trace, so no instance pins
them.  ``m_epsilon``'s ``BudgetExhausted``: on an orbit that reaches its
fixed point m <= ceil(depth / n) < 10**4, and a cycling trace runs out of
record after at most 257 points, which raises ``OrbitTooShort`` first.
``verify_step_chaining``'s ``TailNotSmall`` on an orbit that reaches its
fixed point: its trace stops exactly, on a zero step.  The reachable paths
are pinned instead: ``OrbitTooShort`` on a cycle, and ``TailNotSmall`` on a
cycling trace whose block scan found m.
"""

import hashlib
from collections import Counter

import pytest

from gphi import harness
from gphi.contraction import FiniteMap
from gphi.errors import BudgetExhausted
from gphi.gauges import IdentityGauge, LinearPhi, PowerGauge
from gphi.harness import (G1_GAUGE_CATALOG, FuzzConfig, FuzzReport, _prepare_catalogs,
                          fuzz)
from gphi.spaces import replace, validate_finite_space


def _raise(exc):
    def fail(*args, **kwargs):
        raise exc("forced")
    return fail


# (harness name, replacement, extra config, violation kinds, count)
CASES = [
    ("enumerate_fixed_points", lambda space, T: {0, 1}, {}, {"fixed-point-count"}, 2),
    ("n_epsilon", _raise(BudgetExhausted), {}, {"n-epsilon-budget"}, 2),
    ("_ball_holds", lambda *a, **k: False, {}, {"invariant-ball"}, 9),
    ("_first_certified", lambda space, T, gauges, phis: (gauges[0], phis[0]),
     {"break_mode": "drop-contraction"}, {"broken-instance-certified"}, 12),
]

# SHA-256 of FuzzReport.to_json_str() on FuzzConfig(seed=0, trials=12) with
# the named function replaced.
DIGESTS = {
    "enumerate_fixed_points":
        "e225b2fd808efa4fa127be0844052d4ecf4aafab9ea8f28825bc1612ae2332af",
    "n_epsilon": "c3c929e17cc4b81d9a3cf7e4e432452b3ee0a2126696685068acc6bf50ecc152",
    "_ball_holds":
        "40fedfcebcf87ec9c8115bf5c8438d6a34d5aeda6d8a2bc2c45a443ec7723272",
    "_first_certified": "648fc0906c1426d7ed342b6c39c59c26a3817009220aefa22a821857475cf507",
}


@pytest.mark.parametrize("name,replacement,extra,kinds,count", CASES,
                         ids=[c[0] for c in CASES])
def test_failure_report_bytes(monkeypatch, name, replacement, extra, kinds, count):
    monkeypatch.setattr(harness, name, replacement)
    report = fuzz(FuzzConfig(seed=0, trials=12, **extra))
    assert {v["kind"] for v in report.violations} == kinds
    assert len(report.violations) == count
    assert hashlib.sha256(report.to_json_str().encode()).hexdigest() == DIGESTS[name]


THREE = [[0.0, 1.0, 2.0], [1.0, 0.0, 4.0], [2.0, 4.0, 0.0]]


def _line(size, step):
    # the points i * step of a line; T moves each one a step towards 0
    x = [i * step for i in range(size)]
    return [[abs(a - b) for b in x] for a in x], tuple(max(i - 1, 0) for i in range(size))


def _near_path(size, near, far):
    # T x_i = x_{i+1}: neighbours on the path are `near` apart, all other pairs `far`
    matrix = [[0.0 if i == j else near if abs(i - j) == 1 else far for j in range(size)]
              for i in range(size)]
    return matrix, tuple(min(i + 1, size - 1) for i in range(size))


# name: (matrix, map, s or None for the validated constant, gauge, phi)
INSTANCES = {
    # 0 is fixed and 1, 2 swap: their orbits never stop, which fails orbit
    # convergence and, for a positive-infimum gauge, finite termination
    "swap-g1": (THREE, (0, 2, 1), None, G1_GAUGE_CATALOG[0], LinearPhi(0.6)),
    # 1 falls into the cycle 2 -> 3 -> 2, which fails the same two lemmas
    "tail-into-cycle-g1": (
        [[0.0, 1.0, 2.0, 3.0], [1.0, 0.0, 2.5, 1.5], [2.0, 2.5, 0.0, 4.0],
         [3.0, 1.5, 4.0, 0.0]],
        (0, 2, 3, 2), None, G1_GAUGE_CATALOG[1], LinearPhi(0.5)),
    # the block scan of a cycling trace reads past its record: OrbitTooShort
    # fails the m_epsilon lemma
    "swap-g2": (THREE, (0, 2, 1), None, IdentityGauge(), LinearPhi(0.6)),
    # on the cycle 0 -> 4 -> 3 -> 2 -> 0 the block scan finds m, but the
    # traces from 0 and 3 end on a step above eps/(n s^n): TailNotSmall
    # fails step chaining, and without m0 the Cauchy bound fails too
    "tail-not-small": (
        [[0.0, 0.033, 0.035, 0.01, 0.008], [0.033, 0.0, 0.01, 0.017, 0.02],
         [0.035, 0.01, 0.0, 0.002, 0.018], [0.01, 0.017, 0.002, 0.0, 0.033],
         [0.008, 0.02, 0.018, 0.033, 0.0]],
        (4, 1, 0, 2, 3), None, PowerGauge(0.5), LinearPhi(0.5)),
    # every orbit reaches 6, in steps of 0.1, but points two steps apart are
    # 1.0 apart: with s understated as 1 a block's direct distance exceeds eps
    "understated-s": (*_near_path(7, 0.1, 1.0), 1.0, IdentityGauge(), LinearPhi(0.6)),
    # every orbit walks down a line of 41 points 1/16 apart to 0, with
    # m = m0 = 1 and n = 3, so the tail from x_3 spans up to 37/16 > 4*s^3*eps
    "long-tail": (*_line(41, 1 / 16), None, IdentityGauge(), LinearPhi(0.6)),
}

# SHA-256 of the FuzzReport.to_json_str() that _check_theorem leaves on each
# instance, and the violation kinds with their counts
INSTANCE_PINS = {
    "swap-g1": ("b9f1d19d95197a9a526b57c98b6efd22a158293ece0f1c34205d4d83bb3c7b79",
                {"orbit-divergence": 2, "g1-termination": 2}),
    "tail-into-cycle-g1": (
        "c4f65a78a01cc1bce7097150c2860914799524abba08aeee6cb8ede8f73b6121",
        {"orbit-divergence": 3, "g1-termination": 3}),
    "swap-g2": ("c5561402f088cbe4e418ef02c2cad7049938963d60aaac6f1b75fac00ac69646",
                {"orbit-divergence": 2, "m-epsilon-budget": 2}),
    "tail-not-small": (
        "c4790f0f87d8039fc2b100cffc4074bdba83cee5b15704405451f2693b770588",
        {"orbit-divergence": 4, "step-chaining": 2, "cauchy-bound": 2}),
    "understated-s": ("9764f6e8875d83454153acb348148b72ab6070a416569efa7598f2efa835de48",
                      {"step-chaining": 2}),
    "long-tail": ("4d7916021aa9b4bfaa6873f64533e169f6f396403c89386dee3ca0d52efe1aaa",
                  {"invariant-ball": 30, "cauchy-bound": 5}),
}


def crafted_instance(name):
    """(space, T, catalog entry, phi) of the named instance."""
    matrix, mapping, s, gauge, phi = INSTANCES[name]
    space = validate_finite_space(matrix)
    if s is not None:
        space = replace(space, s=s)
    (entry,), (phi,) = _prepare_catalogs(FuzzConfig(gauge_catalog=(gauge,), phi_catalog=(phi,)))
    return space, FiniteMap(mapping), entry, phi


def check_crafted(name) -> FuzzReport:
    report = FuzzReport(config={})
    assert not harness._check_theorem(report, 0, *crafted_instance(name))
    return report


@pytest.mark.parametrize("name", INSTANCES)
def test_crafted_failure_report_bytes(name):
    report = check_crafted(name)
    digest, kinds = INSTANCE_PINS[name]
    assert Counter(v["kind"] for v in report.violations) == kinds
    assert hashlib.sha256(report.to_json_str().encode()).hexdigest() == digest
