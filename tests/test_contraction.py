import math
from random import Random

import pytest
from hypothesis import given, strategies as st

from gphi.contraction import (
    AffineMap,
    FiniteMap,
    TabulatedMap,
    apply,
    certify_condition_G,
    check_F_inequality,
    from_F_contraction,
    operator_from_json,
    to_czerwik_form,
    validate_operator,
)
from gphi.errors import (
    DomainRestricted,
    ModeUnsupportedWarning,
    NotInvertible,
    PointOutOfDomain,
    PsiNotDiverging,
    PsiNotNondecreasing,
)
from gphi.gauges import (
    AffinePlusGauge,
    ExpOfFGauge,
    HyperbolicPhi,
    IdentityGauge,
    IDENTITY_FORM,
    LinearPhi,
    LN,
    PowerGauge,
    TabulatedGauge,
    certify_phi,
    shift_form,
)
from gphi.harness import generate_operator, generate_space
from gphi.spaces import AnalyticSpace, validate_finite_space

THREE_POINT = validate_finite_space([[0.0, 1.0, 2.0], [1.0, 0.0, 4.0], [2.0, 4.0, 0.0]])
CATALOG = [(G, phi)
           for G in (IdentityGauge(), PowerGauge(2.0), PowerGauge(0.5),
                     AffinePlusGauge(1.0), ExpOfFGauge(LN))
           for phi in (LinearPhi(0.5), LinearPhi(0.9), HyperbolicPhi(1.0))]


class TestApply:
    def test_finite_lookup(self):
        assert apply(FiniteMap((0, 0, 1)), THREE_POINT, 2) == 1

    def test_affine(self):
        interval = AnalyticSpace(0.0, 1.0, 1.0)
        assert apply(AffineMap(0.5, 0.0), interval, 1.0) == 0.5
        assert apply(AffineMap(0.5, 0.25), interval, 0.0) == 0.25

    def test_out_of_domain(self):
        with pytest.raises(PointOutOfDomain):
            apply(FiniteMap((0, 0, 1)), THREE_POINT, 5)

    def test_self_map_validation(self):
        with pytest.raises(PointOutOfDomain):
            validate_operator(THREE_POINT, FiniteMap((0, 0, 5)))
        interval = AnalyticSpace(0.0, 1.0, 1.0)
        with pytest.raises(PointOutOfDomain):
            validate_operator(interval, AffineMap(2.0, 0.0))

    @pytest.mark.parametrize("mapping,message", [
        ((0, -1, 7), "image of point 1 is -1"),
        ((0, 9, -2), "image of point 1 is 9"),
        ((0, 0, 3), "image of point 2 is 3"),
        ((-5, 0, 0), "image of point 0 is -5")])
    def test_first_bad_image_named(self, mapping, message):
        with pytest.raises(PointOutOfDomain, match=f"^{message}, outside the space$"):
            validate_operator(THREE_POINT, FiniteMap(mapping))

    def test_tabulated_map(self):
        interval = AnalyticSpace(0.0, 1.0, 1.0)
        T = TabulatedMap(((0.0, 0.2), (0.5, 0.8)))
        assert apply(T, interval, 0.3) == 0.2
        assert apply(T, interval, 0.7) == 0.8
        with pytest.raises(ValueError):
            TabulatedMap(((0.0, 0.8), (0.5, 0.2)))   # not monotone

    @pytest.mark.parametrize("table", [
        (), ((math.nan, 0.2),), ((math.nan, 0.2), (0.5, 0.8)), ((0.0, 0.2), (math.nan, 0.8)),
        ((0.5, 0.2), (0.5, 0.8)), ((0.0, math.nan),), ((0.0, 0.2), (0.5, math.nan)),
        ((0.0, math.nan), (0.5, 0.8))])
    def test_tabulated_map_refused(self, table):
        # breakpoints strictly increasing and not NaN, values non-decreasing
        # and not NaN
        with pytest.raises(ValueError):
            TabulatedMap(table)


class TestCertifyConditionG:
    def test_worked_three_point(self):
        # pairs: (0,1) vacuous since T0 = T1; (0,2): G(1)=1 <= phi(2)=1;
        # (1,2): G(1)=1 <= phi(4)=2
        cert = certify_condition_G(THREE_POINT, FiniteMap((0, 0, 1)),
                                   IdentityGauge(), LinearPhi(0.5))
        assert cert.verdict == "certified"
        assert cert.checked_pairs == 3

    @pytest.mark.parametrize("G,phi", CATALOG, ids=str)
    def test_constant_map_vacuous(self, G, phi):
        cert = certify_condition_G(THREE_POINT, FiniteMap((0, 0, 0)), G, phi)
        assert cert.verdict == "certified"

    def test_identity_map_violated_with_first_witness(self):
        cert = certify_condition_G(THREE_POINT, FiniteMap((0, 1, 2)),
                                   IdentityGauge(), LinearPhi(0.5))
        assert cert.verdict == "violated"
        w = cert.violation_witness
        assert (w.x, w.y) == (0, 1)
        assert w.g_of_dt == 1.0
        assert w.phi_bound == 0.5
        assert w.g_of_dt > w.phi_bound
        assert w.d_txty != 0.0

    @given(st.integers(min_value=0, max_value=3000))
    def test_checked_pairs_count_and_witness_recheck(self, seed):
        space = generate_space(f"pairs:{seed}", 2 + seed % 6)
        T = generate_operator(f"op:{seed}", space, bias_contractive=False)
        cert = certify_condition_G(space, T, IdentityGauge(), LinearPhi(0.9))
        n = space.n
        assert cert.checked_pairs == n * (n - 1) // 2
        if cert.verdict == "violated":
            w = cert.violation_witness
            assert w.g_of_dt > w.phi_bound

    @given(st.integers(min_value=0, max_value=2000))
    def test_monotone_in_phi(self, seed):
        space = generate_space(f"mono:{seed}", 2 + seed % 5)
        T = generate_operator(f"mono-op:{seed}", space, bias_contractive=True)
        strong = certify_condition_G(space, T, IdentityGauge(), LinearPhi(0.5))
        weak = certify_condition_G(space, T, IdentityGauge(), LinearPhi(0.75))
        if strong.verdict == "certified":
            assert weak.verdict == "certified"

    def test_random_mode_on_finite_warns_and_scans(self):
        with pytest.warns(ModeUnsupportedWarning):
            cert = certify_condition_G(THREE_POINT, FiniteMap((0, 0, 1)),
                                       IdentityGauge(), LinearPhi(0.5),
                                       mode="random")
        assert cert.sampling_mode["kind"] == "exhaustive"

    def test_analytic_sampled_clean(self):
        space = AnalyticSpace(0.0, 1.0, 2.0)
        cert = certify_condition_G(space, AffineMap(0.5, 0.0),
                                   IdentityGauge(), LinearPhi(0.5))
        assert cert.verdict == "inconclusive"
        assert cert.note == "certified-on-sample"
        assert cert.violation_witness is None
        assert cert.checked_pairs == 4096

    @pytest.mark.parametrize("samples", [0, -5])
    def test_analytic_sample_count_must_be_positive(self, samples):
        # zero samples would certify on a sample of no pairs
        with pytest.raises(ValueError, match="samples must be at least 1"):
            certify_condition_G(AnalyticSpace(0.0, 1.0, 1.0), AffineMap(0.5, 0.0),
                                IdentityGauge(), LinearPhi(0.5), samples=samples)

    def test_analytic_sampled_violation_is_deterministic(self):
        space = AnalyticSpace(0.0, 1.0, 1.0)
        expand = TabulatedMap(((0.0, 0.0), (0.5, 1.0)))   # jump map, not contractive
        a = certify_condition_G(space, expand, IdentityGauge(), LinearPhi(0.5), seed=9)
        b = certify_condition_G(space, expand, IdentityGauge(), LinearPhi(0.5), seed=9)
        assert a.verdict == "violated"
        assert a.violation_witness == b.violation_witness

    @given(st.integers(min_value=0, max_value=300))
    def test_multiple_fixed_points_never_certify(self, seed):
        # uniqueness contrapositive: two fixed points force a violation for
        # every catalog pair, since phi(u) < u makes G(d) <= phi(G(d)) impossible
        space = generate_space(f"uniq:{seed}", 3 + seed % 5)
        base = generate_operator(f"uniq-op:{seed}", space, bias_contractive=True)
        pinned = FiniteMap((0, 1) + base.mapping[2:])
        for G, phi in CATALOG:
            cert = certify_condition_G(space, pinned, G, phi)
            assert cert.verdict == "violated"

    def test_certificate_serializes(self):
        cert = certify_condition_G(THREE_POINT, FiniteMap((0, 1, 2)),
                                   IdentityGauge(), LinearPhi(0.5))
        doc = cert.to_json()
        assert doc["verdict"] == "violated"
        assert doc["violation_witness"]["x"] == 0
        assert doc["provenance"]["gauge"] == {"family": "identity"}


class TestFromFContraction:
    def test_ln_shift_ln2_matches_identity_linear_half(self):
        G, phi = from_F_contraction(LN, shift_form(math.log(2.0)))
        ident, half = IdentityGauge(), LinearPhi(0.5)
        rng = Random(4)
        for _ in range(100):
            a = 10.0 ** rng.uniform(-3, 3)
            assert math.isclose(G.eval(a), ident.eval(a), rel_tol=1e-12)
            assert math.isclose(phi.eval(a), half.eval(a), rel_tol=1e-12)

    def test_ln_unit_shift_matches_linear_inv_e(self):
        G, phi = from_F_contraction(LN, shift_form(1.0))
        target = LinearPhi(math.exp(-1.0))
        for t in (0.1, 1.0, 7.0):
            assert math.isclose(phi.eval(t), target.eval(t), rel_tol=1e-12)

    def test_bounded_below_form_gives_g1_exponential(self):
        from gphi.gauges import certify_gauge_class
        G, phi = from_F_contraction(IDENTITY_FORM, shift_form(1.0))
        cert = certify_gauge_class(G)
        assert cert.in_g1 == "yes"
        for a in (0.5, 1.0, 2.0):
            assert math.isclose(G.eval(a), math.exp(a), rel_tol=1e-12)
            assert math.isclose(phi.eval(a), a / math.e, rel_tol=1e-12)

    def test_adapter_phi_is_certifiable(self):
        _, phi = from_F_contraction(LN, shift_form(math.log(2.0)))
        cert = certify_phi(phi, grid=[0.1, 1.0, 10.0])
        assert cert.verdict == "member"

    def test_decreasing_psi_rejected(self):
        from gphi.gauges import RealForm
        with pytest.raises(PsiNotNondecreasing) as err:
            from_F_contraction(LN, RealForm("neg", lambda t: -t, increasing=False))
        assert err.value.witness is not None

    def test_stalling_psi_rejected(self):
        from gphi.gauges import RealForm
        with pytest.raises(PsiNotDiverging):
            from_F_contraction(LN, RealForm("id", lambda t: t, increasing=True))

    @given(st.integers(min_value=0, max_value=500))
    def test_equivalence_with_direct_F_check(self, seed):
        # verdicts and witnesses of the gauged certifier match the direct
        # F-inequality scan over the same canonical pair order
        space = generate_space(f"equiv:{seed}", 2 + seed % 6)
        T = generate_operator(f"equiv-op:{seed}", space, bias_contractive=seed % 2 == 0)
        psi = shift_form(math.log(2.0))
        G, phi = from_F_contraction(LN, psi)
        cert = certify_condition_G(space, T, G, phi)
        direct = check_F_inequality(space, T, LN, psi)
        if cert.verdict == "certified":
            assert direct is None
        else:
            assert direct is not None
            w = cert.violation_witness
            assert (w.x, w.y) == (direct.x, direct.y)
            assert w.d_xy == direct.d_xy and w.d_txty == direct.d_txty


class TestCzerwikForm:
    def test_identity_conjugation_is_identity(self):
        comp = to_czerwik_form(IdentityGauge(), LinearPhi(0.5))
        for t in (0.25, 1.0, 8.0):
            assert comp.eval(t) == LinearPhi(0.5).eval(t)

    def test_power_two_gives_scaled_linear(self):
        comp = to_czerwik_form(PowerGauge(2.0), LinearPhi(0.5))
        for t in (0.5, 1.0, 4.0):
            assert math.isclose(comp.eval(t), t / math.sqrt(2.0), rel_tol=1e-12)

    def test_affine_plus_domain_restricted(self):
        with pytest.raises(DomainRestricted) as err:
            to_czerwik_form(AffinePlusGauge(1.0), LinearPhi(0.5))
        assert err.value.witness["range_low"] == 1.0

    def test_step_gauge_not_invertible(self):
        with pytest.raises(NotInvertible):
            to_czerwik_form(TabulatedGauge(((0.5, 0.1), (1.0, 0.9))), LinearPhi(0.5))

    @pytest.mark.parametrize("gauge", [IdentityGauge(), PowerGauge(2.0),
                                       PowerGauge(0.5)], ids=str)
    @pytest.mark.parametrize("phi", [LinearPhi(0.5), HyperbolicPhi(1.0)], ids=str)
    def test_composite_passes_certification(self, gauge, phi):
        comp = to_czerwik_form(gauge, phi)
        cert = certify_phi(comp, grid=[0.01, 0.1, 1.0, 10.0, 100.0])
        assert cert.verdict == "member"

    @given(st.integers(min_value=0, max_value=500))
    def test_composite_equivalent_to_plain_inequality(self, seed):
        # condition (G) with (G, phi) == plain comparison inequality with the
        # composite, which is condition (G) under the identity gauge
        space = generate_space(f"cz:{seed}", 2 + seed % 5)
        T = generate_operator(f"cz-op:{seed}", space, bias_contractive=True)
        gauge, phi = PowerGauge(2.0), LinearPhi(0.5)
        comp = to_czerwik_form(gauge, phi)
        lhs = certify_condition_G(space, T, gauge, phi)
        rhs = certify_condition_G(space, T, IdentityGauge(), comp)
        assert lhs.verdict == rhs.verdict
        if lhs.verdict == "violated":
            assert (lhs.violation_witness.x, lhs.violation_witness.y) == \
                (rhs.violation_witness.x, rhs.violation_witness.y)


class TestFiniteMapEntries:
    def test_integers_and_integral_floats(self):
        import numpy as np

        T = FiniteMap((np.int64(2), 1.0, 0, np.uint8(1)))
        assert T.mapping == (2, 1, 0, 1)
        assert all(type(v) is int for v in T.mapping)

    @pytest.mark.parametrize("entry", [0.9, -0.5, "0", True, False, None, math.nan, math.inf])
    def test_entries_int_would_change_are_refused(self, entry):
        with pytest.raises(ValueError, match="^map entries must be integers"):
            FiniteMap((0, entry))


class TestOperatorJson:
    def test_round_trip(self):
        for T in (FiniteMap((0, 0, 1)), AffineMap(0.5, 0.25),
                  TabulatedMap(((0.0, 0.2), (0.5, 0.8)))):
            assert operator_from_json(T.describe()).describe() == T.describe()
