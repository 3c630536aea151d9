"""Report bytes of the fuzz harness's failure paths.

Every other fuzz test asserts an empty violation list, so these force each
lemma of the theorem check to fail in turn -- by replacing one name that
``gphi.harness`` calls -- and pin the SHA-256 of the resulting report.  Each
pin covers the lemma tallies, the violation kind and detail, and the bundled
counterexample (space, operator, gauge, phi and trace).
"""

import dataclasses
import hashlib

import pytest

from gphi import harness
from gphi.errors import BudgetExhausted, OrbitTooShort, TailNotSmall
from gphi.harness import G1_GAUGE_CATALOG, FuzzConfig, fuzz

_REAL_PICARD = harness.picard_iterate
G1 = {"gauge_catalog": G1_GAUGE_CATALOG}


def _raise(exc):
    def fail(*args, **kwargs):
        raise exc("forced")
    return fail


def _budget_exhausted_trace(*args, **kwargs):
    trace = _REAL_PICARD(*args, **kwargs)
    return dataclasses.replace(trace, stop_reason="budget-exhausted")


# (harness name, replacement, extra config, violation kinds, count)
CASES = [
    ("enumerate_fixed_points", lambda space, T: {0, 1}, {}, {"fixed-point-count"}, 2),
    ("picard_iterate", _budget_exhausted_trace, G1,
     {"orbit-divergence", "g1-termination"}, 18),
    ("verify_g1_termination", lambda trace: False, G1, {"g1-termination"}, 9),
    ("n_epsilon", _raise(BudgetExhausted), {}, {"n-epsilon-budget"}, 2),
    ("m_epsilon", _raise(BudgetExhausted), {}, {"m-epsilon-budget"}, 9),
    ("verify_invariant_ball", lambda *a, **k: False, {}, {"invariant-ball"}, 9),
    ("verify_step_chaining", _raise(TailNotSmall), {}, {"step-chaining"}, 9),
    ("verify_cauchy_bound", _raise(OrbitTooShort), {}, {"cauchy-bound"}, 9),
    ("_first_certified", lambda space, T, gauges, phis: (gauges[0], phis[0]),
     {"break_mode": "drop-contraction"}, {"broken-instance-certified"}, 12),
]

# SHA-256 of FuzzReport.to_json_str() on FuzzConfig(seed=0, trials=12) with
# the named function replaced.
DIGESTS = {
    "enumerate_fixed_points":
        "e225b2fd808efa4fa127be0844052d4ecf4aafab9ea8f28825bc1612ae2332af",
    "picard_iterate": "59a15e2403876f7dafd5f4fd393c893cc0ef6f2f92c1b14d21687754616b17a1",
    "verify_g1_termination":
        "7f78ec3e9b29656399f47dec23c4d12cf82fcca6d2f971eee8a1c95fc0c7696b",
    "n_epsilon": "c3c929e17cc4b81d9a3cf7e4e432452b3ee0a2126696685068acc6bf50ecc152",
    "m_epsilon": "70f94cae708056b4f2589813b2890177f180b8652bc3743e00247da3f0df08fe",
    "verify_invariant_ball":
        "40fedfcebcf87ec9c8115bf5c8438d6a34d5aeda6d8a2bc2c45a443ec7723272",
    "verify_step_chaining":
        "d7f0d39a21c0e2012335f91e5373bb87fcd95c91acf120112d191a5e52ace17d",
    "verify_cauchy_bound":
        "496bdaeb8a5a70ce657ea2d1e288b1fd5beaa366001c1ef5cbebccc7feb24bf8",
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
