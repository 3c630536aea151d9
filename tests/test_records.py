"""Every result record writes its fields as strict JSON: a NaN or a float
past the range, such as a gauge value exp(F) that saturated, is null."""

import json
import math

import pytest

from gphi.contraction import ContractionCertificate, ViolationWitness
from gphi.gauges import ClassCertificate, PhiCertificate
from gphi.harness import FuzzReport
from gphi.solver import CauchyDiagnostics
from gphi.spaces import BoundReport, asdict

NAN, INF = math.nan, math.inf

WITNESS = ViolationWitness(x=0, y=2, d_xy=NAN, d_txty=INF, g_of_d=-INF, g_of_dt=INF,
                           phi_bound=1.5)

RECORDS = {
    "bound-report": BoundReport(lower=NAN, liminf_est=INF, limsup_est=-INF, upper=2.0,
                                holds=False),
    "phi-certificate": PhiCertificate("inconclusive", witness={"t": NAN, "phi_t": INF},
                                      evidence={"tol": -INF, "grid": (1.0, 2.0)}),
    "class-certificate": ClassCertificate("yes", "no", evidence={
        "inf_closed_form": INF, "sup_grid_estimate": NAN,
        "refinement_tail": [[0.5, -INF], [0.25, 0.125]]}),
    "violation-witness": WITNESS,
    "contraction-certificate": ContractionCertificate(
        verdict="violated", checked_pairs=3, violation_witness=WITNESS,
        sampling_mode={"kind": "exhaustive"}, provenance={"s": NAN}),
    "cauchy-diagnostics": CauchyDiagnostics(eps=NAN, n=1, m=2, m0=3, m_bar=4, bound=INF,
                                            max_observed=-INF, pairs_checked=10,
                                            holds=False),
    "fuzz-report": FuzzReport(config={"scale": NAN, "hi": INF, "lo": -INF}, trials_run=5),
}


def nulled(value):
    """``value`` with each non-finite float as None and each tuple a list."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {k: nulled(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [nulled(v) for v in value]
    return value


def non_finite(value) -> int:
    if isinstance(value, float):
        return not math.isfinite(value)
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, (list, tuple)):
        return sum(map(non_finite, value))
    return 0


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_non_finite_fields_are_null(name):
    record = RECORDS[name]
    fields = asdict(record)
    assert non_finite(fields) >= 3
    doc = record.to_json()
    assert doc == nulled(fields)
    json.dumps(doc, allow_nan=False)


def test_fuzz_report_text_is_strict():
    json.loads(RECORDS["fuzz-report"].to_json_str(),
               parse_constant=lambda name: pytest.fail(f"{name} is not JSON"))
