"""The records' contract, as callers see it.

Every record class of the package is built on ``gphi.spaces._Fields``.  Its
repr is ``Name(field=value, ...)``, each string below as the package printed
it when the records were dataclasses; equality needs the same class; a frozen
record hashes its field tuple and refuses assignment; defaults made per
record are fresh; and ``__post_init__`` checks still refuse bad fields.
"""

import math

import pytest

from gphi.contraction import (AffineMap, ContractionCertificate, FiniteMap, TabulatedMap,
                              ViolationWitness)
from gphi.errors import ConstantOverflow
from gphi.gauges import (LN, AffinePlusGauge, ClassCertificate, ConjugatePhi, ExpOfFGauge,
                         ExpPsiLnPhi, HyperbolicPhi, IdentityGauge, LinearPhi, PhiCertificate,
                         PowerGauge, RealForm, ShiftedPhi, TabulatedGauge, TabulatedPhi,
                         _StepTable)
from gphi.harness import FuzzConfig, FuzzReport, _CatalogGauge
from gphi.solver import CauchyDiagnostics, picard_iterate
from gphi.spaces import (AnalyticSpace, BoundReport, FiniteSpace, FrozenInstanceError, asdict,
                         replace, validate_finite_space)

TWO = ((0.0, 1.0), (1.0, 0.0))
WITNESS = (0, 2, 2.0, 1.0, 2.0, 1.0, 0.5)
WITNESS_REPR = ("ViolationWitness(x=0, y=2, d_xy=2.0, d_txty=1.0, g_of_d=2.0, g_of_dt=1.0, "
                "phi_bound=0.5)")
LN_REPR = ("RealForm(name='ln', fn=<built-in function log>, inverse=<built-in function exp>, "
           "increasing=True, inf_value=-inf, diverges_iff_zero=True, json_form=None)")
COUNTS = "{'pass': 0, 'fail': 0}"

REPRS = [
    pytest.param(lambda: FiniteSpace(dist=TWO, s=1.5),
                 "FiniteSpace(dist=((0.0, 1.0), (1.0, 0.0)), s=1.5)", id="FiniteSpace"),
    pytest.param(lambda: validate_finite_space([[0, 1, 2], [1, 0, 4], [2, 4, 0]]),
                 "FiniteSpace(dist=((0.0, 1.0, 2.0), (1.0, 0.0, 4.0), (2.0, 4.0, 0.0)), "
                 "s=1.3333333333333333)", id="FiniteSpace-lazy"),
    pytest.param(lambda: AnalyticSpace(0.0, 1.0, 2.0),
                 "AnalyticSpace(lo=0.0, hi=1.0, p=2.0)", id="AnalyticSpace"),
    pytest.param(lambda: BoundReport(lower=0.5, liminf_est=1.0, limsup_est=1.0, upper=2.0,
                                     holds=True),
                 "BoundReport(lower=0.5, liminf_est=1.0, limsup_est=1.0, upper=2.0, holds=True)",
                 id="BoundReport"),
    pytest.param(lambda: FiniteMap([0, 0.0, 1]), "FiniteMap(mapping=(0, 0, 1))", id="FiniteMap"),
    pytest.param(lambda: AffineMap(0.5, 0.25), "AffineMap(a=0.5, b=0.25)", id="AffineMap"),
    pytest.param(lambda: TabulatedMap(((0, 0.0), (0.5, 0.25))),
                 "TabulatedMap(points=((0.0, 0.0), (0.5, 0.25)))", id="TabulatedMap"),
    pytest.param(lambda: ViolationWitness(*WITNESS), WITNESS_REPR, id="ViolationWitness"),
    pytest.param(lambda: ContractionCertificate("violated", 3, ViolationWitness(*WITNESS),
                                                {"kind": "exhaustive"}),
                 "ContractionCertificate(verdict='violated', checked_pairs=3, "
                 f"violation_witness={WITNESS_REPR}, sampling_mode={{'kind': 'exhaustive'}}, "
                 "note=None, provenance={})", id="ContractionCertificate"),
    pytest.param(lambda: RealForm("ln", abs, increasing=True),
                 "RealForm(name='ln', fn=<built-in function abs>, inverse=None, "
                 "increasing=True, inf_value=None, diverges_iff_zero=None, json_form=None)",
                 id="RealForm"),
    pytest.param(lambda: _StepTable(((1, 2),)), "_StepTable(points=((1.0, 2.0),))",
                 id="_StepTable"),
    pytest.param(lambda: LinearPhi(0.5), "LinearPhi(c=0.5)", id="LinearPhi"),
    pytest.param(lambda: HyperbolicPhi(1.0), "HyperbolicPhi(a=1.0)", id="HyperbolicPhi"),
    pytest.param(lambda: ShiftedPhi(0.5, base=PowerGauge(2.0)),
                 "ShiftedPhi(tau=0.5, base=PowerGauge(q=2.0))", id="ShiftedPhi"),
    pytest.param(lambda: TabulatedPhi(((0.25, 0.25), (1.0, 0.5))),
                 "TabulatedPhi(points=((0.25, 0.25), (1.0, 0.5)))", id="TabulatedPhi"),
    pytest.param(lambda: ExpPsiLnPhi(LN), f"ExpPsiLnPhi(psi={LN_REPR})", id="ExpPsiLnPhi"),
    pytest.param(lambda: ConjugatePhi(PowerGauge(2.0), LinearPhi(0.5)),
                 "ConjugatePhi(gauge=PowerGauge(q=2.0), inner=LinearPhi(c=0.5))",
                 id="ConjugatePhi"),
    pytest.param(lambda: PhiCertificate("member", evidence={"decay": "closed-form"}),
                 "PhiCertificate(verdict='member', witness=None, "
                 "evidence={'decay': 'closed-form'})", id="PhiCertificate"),
    pytest.param(lambda: IdentityGauge(), "IdentityGauge()", id="IdentityGauge"),
    pytest.param(lambda: PowerGauge(2), "PowerGauge(q=2)", id="PowerGauge"),
    pytest.param(lambda: AffinePlusGauge(1.0), "AffinePlusGauge(c=1.0)", id="AffinePlusGauge"),
    pytest.param(lambda: ExpOfFGauge(LN), f"ExpOfFGauge(f={LN_REPR})", id="ExpOfFGauge"),
    pytest.param(lambda: TabulatedGauge(((0.5, 1.0), (1.0, 2.0))),
                 "TabulatedGauge(points=((0.5, 1.0), (1.0, 2.0)))", id="TabulatedGauge"),
    pytest.param(lambda: ClassCertificate("yes", "no"),
                 "ClassCertificate(in_g1='yes', in_g2='no', evidence={})", id="ClassCertificate"),
    pytest.param(lambda: picard_iterate(FiniteSpace(dist=TWO, s=1.0), FiniteMap((0, 0)), 1),
                 "PicardTrace(space=FiniteSpace(dist=((0.0, 1.0), (1.0, 0.0)), s=1.0), x0=1, "
                 "orbit=(1, 0, 0), step_dists=(1.0, 0.0), stop_reason='exact-fixed-point', "
                 "fixed_point=0, k_stop=1, cycle=None)", id="PicardTrace"),
    pytest.param(lambda: CauchyDiagnostics(0.5, 1, 2, 3, 4, 2.0, 0.25, 10, True),
                 "CauchyDiagnostics(eps=0.5, n=1, m=2, m0=3, m_bar=4, bound=2.0, "
                 "max_observed=0.25, pairs_checked=10, holds=True)", id="CauchyDiagnostics"),
    pytest.param(lambda: FuzzConfig(seed=3, gauge_catalog=(IdentityGauge(),),
                                    phi_catalog=(LinearPhi(0.5),)),
                 "FuzzConfig(seed=3, trials=100, max_points=8, scale=1.0, "
                 "gauge_catalog=(IdentityGauge(),), phi_catalog=(LinearPhi(c=0.5),), "
                 "break_mode='none')", id="FuzzConfig"),
    pytest.param(lambda: FuzzReport(config={"seed": 3}),
                 "FuzzReport(config={'seed': 3}, trials_run=0, certified_count=0, "
                 "theorem_holds_count=0, uncertified_count=0, expected_break_count=0, "
                 f"g1_instances=0, g2_instances=0, lemma_counts={{'unique_fixed_point': {COUNTS}, "
                 f"'orbit_convergence': {COUNTS}, 'g1_termination': {COUNTS}, "
                 f"'n_epsilon': {COUNTS}, 'm_epsilon': {COUNTS}, 'invariant_ball': {COUNTS}, "
                 f"'step_chaining': {COUNTS}, 'cauchy_bound': {COUNTS}}}, violations=[])",
                 id="FuzzReport"),
    pytest.param(lambda: _CatalogGauge(PowerGauge(2.0), False, 0.5),
                 "_CatalogGauge(gauge=PowerGauge(q=2.0), in_g1=False, eps0=0.5)",
                 id="_CatalogGauge"),
]


@pytest.mark.parametrize("make, text", REPRS)
def test_repr_is_the_dataclass_form(make, text):
    assert repr(make()) == text


def test_equality_needs_the_same_class():
    assert LinearPhi(0.5) != HyperbolicPhi(0.5)
    points = ((0.5, 1.0), (1.0, 2.0))
    assert TabulatedPhi(points) != TabulatedGauge(points)
    assert TabulatedGauge(points) == TabulatedGauge(points)
    assert LinearPhi(0.5) != (0.5,)


def test_equal_fields_hash_alike():
    assert PowerGauge(2) == PowerGauge(2.0)
    assert hash(PowerGauge(2)) == hash(PowerGauge(2.0)) == hash((2.0,))
    assert hash(IdentityGauge()) == hash(())
    assert len({LinearPhi(0.5), LinearPhi(0.5), HyperbolicPhi(0.5)}) == 2


def test_frozen_records_refuse_assignment():
    for record, name in ((LinearPhi(0.5), "c"), (FiniteSpace(dist=TWO, s=1.0), "s"),
                         (FuzzConfig(), "seed"), (IdentityGauge(), "q")):
        with pytest.raises(FrozenInstanceError, match=f"^cannot assign to field '{name}'$"):
            setattr(record, name, 2.0)
        with pytest.raises(FrozenInstanceError, match=f"^cannot delete field '{name}'$"):
            delattr(record, name)
    assert issubclass(FrozenInstanceError, AttributeError)
    assert LinearPhi(0.5).c == 0.5


def test_fuzz_report_is_mutable_and_unhashable():
    report = FuzzReport(config={})
    report.trials_run += 2
    report.violations.append("x")
    assert report.trials_run == 2 and report.violations == ["x"]
    assert report == replace(report)
    with pytest.raises(TypeError, match="unhashable"):
        hash(report)


def test_default_factories_are_fresh():
    a, b = FuzzReport(config={}), FuzzReport(config={})
    assert a.lemma_counts == b.lemma_counts and a.lemma_counts is not b.lemma_counts
    assert a.lemma_counts["cauchy_bound"] is not b.lemma_counts["cauchy_bound"]
    assert a.violations == b.violations == [] and a.violations is not b.violations
    made = [ContractionCertificate("certified", 0, None, {}) for _ in range(2)]
    assert made[0].provenance == {} and made[0].provenance is not made[1].provenance
    for cls, args in ((PhiCertificate, ("member",)), (ClassCertificate, ("yes", "no"))):
        assert cls(*args).evidence == {} and cls(*args).evidence is not cls(*args).evidence


def test_finite_space_constant_is_required_and_lazy():
    with pytest.raises(TypeError):
        FiniteSpace(TWO)
    with pytest.raises(TypeError):
        FiniteSpace(dist=TWO)
    space = FiniteSpace(dist=TWO, s=None)
    assert vars(space) == {"dist": TWO, "_s": None}
    assert space.s == 1.0 and vars(space) == {"dist": TWO, "_s": 1.0}
    with pytest.raises(ConstantOverflow):
        FiniteSpace(TWO, math.inf)
    assert FiniteSpace._fields == ("dist", "s")


def test_class_constants_are_not_fields():
    assert AnalyticSpace._fields == ("lo", "hi", "p")
    assert asdict(AnalyticSpace(0.0, 1.0, 2.0)) == {"lo": 0.0, "hi": 1.0, "p": 2.0}
    assert AnalyticSpace(0.0, 1.0, 2.0).kind == "interval"


def test_step_gauge_extremes_stay_invisible():
    points = ((0.5, 3.0), (1.0, 2.0), (2.0, 4.0))
    used, fresh = TabulatedGauge(points), TabulatedGauge(points)
    assert used.sup_below(1.5) == 3.0 and "_extremes" in vars(used)
    assert used == fresh and hash(used) == hash(fresh) and repr(used) == repr(fresh)
    assert asdict(used) == {"points": points}


def test_asdict_and_replace():
    cert = ContractionCertificate("violated", 3, ViolationWitness(*WITNESS), {"kind": "x"})
    doc = asdict(cert)
    assert doc["violation_witness"] == dict(zip(ViolationWitness._fields, WITNESS))
    assert doc["sampling_mode"] == {"kind": "x"} and doc["sampling_mode"] is not cert.sampling_mode
    assert replace(cert, note="n") == ContractionCertificate("violated", 3,
                                                             ViolationWitness(*WITNESS),
                                                             {"kind": "x"}, note="n")
    with pytest.raises(TypeError):
        replace(cert, nope=1)


@pytest.mark.parametrize("make, error, message", [
    (lambda: TabulatedPhi(()), ValueError, "tabulated function needs at least one breakpoint"),
    (lambda: TabulatedGauge(((1.0, 0.0),)), ValueError, "tabulated values must be positive"),
    (lambda: TabulatedMap(((0.0, 1.0), (1.0, 0.5))), ValueError,
     "tabulated map must be monotone non-decreasing"),
    (lambda: LinearPhi(1.5), ValueError, "linear comparison function needs 0 < c < 1"),
    (lambda: HyperbolicPhi(0.0), ValueError,
     "hyperbolic comparison function needs a finite a > 0"),
    (lambda: ShiftedPhi(-1.0), ValueError, "shift needs a finite tau > 0"),
    (lambda: PowerGauge(0.0), ValueError, "power gauge needs a finite q > 0"),
    (lambda: AffinePlusGauge(math.inf), ValueError, "affine-plus gauge needs a finite c > 0"),
    (lambda: AnalyticSpace(1.0, 0.0, 1.0), ValueError,
     "interval endpoints must be finite with lo < hi"),
    (lambda: AnalyticSpace(0.0, 1.0, 0.5), ValueError, "exponent p must be >= 1"),
    (lambda: FiniteMap([0, "1"]), ValueError, "map entries must be integers, got '1'"),
    (lambda: replace(LinearPhi(0.5), c=2.0), ValueError,
     "linear comparison function needs 0 < c < 1"),
])
def test_post_init_refusals_keep_their_messages(make, error, message):
    with pytest.raises(error) as err:
        make()
    assert str(err.value) == message


@pytest.mark.parametrize("make", [
    lambda: LinearPhi(),
    lambda: LinearPhi(0.5, 0.25),
    lambda: LinearPhi(0.5, c=0.5),
    lambda: LinearPhi(d=0.5),
    lambda: IdentityGauge(1.0),
    lambda: FuzzReport(),
])
def test_bad_arguments_raise_type_error(make):
    with pytest.raises(TypeError):
        make()
