import functools
import itertools
import json
import math
import random
import struct
import types
from bisect import bisect_right

import pytest
from hypothesis import given, settings, strategies as st

from gphi import gauges
from gphi.contraction import TabulatedMap, to_czerwik_form
from gphi.errors import (
    BudgetExhausted,
    EmptyGrid,
    NonpositiveArgument,
    NoValidEpsilon,
)
from gphi.gauges import (
    AffinePlusGauge,
    ConjugatePhi,
    ExpOfFGauge,
    ExpPsiLnPhi,
    HyperbolicPhi,
    IDENTITY_FORM,
    IdentityGauge,
    LinearPhi,
    LN,
    PHI_GRID,
    PowerGauge,
    RealForm,
    ShiftedPhi,
    TabulatedGauge,
    TabulatedPhi,
    affine_form,
    certify_gauge_class,
    certify_phi,
    check_phi_strict_decrease,
    epsilon0,
    gauge_eval,
    gauge_from_json,
    log_grid,
    n_epsilon,
    phi_eval,
    phi_from_json,
    phi_iterate,
    shift_form,
    _grid_points,
    _grid_table,
    _values,
)
from gphi.spaces import asdict, replace
from gphi.harness import DEFAULT_GAUGE_CATALOG, G1_GAUGE_CATALOG

CATALOG_PHIS = [LinearPhi(0.5), LinearPhi(0.9), HyperbolicPhi(1.0)]
DIAGONAL_PHI = TabulatedPhi(((0.25, 0.25), (1.0, 1.0), (4.0, 4.0)))
DYADIC_GRID = [2.0 ** k for k in range(-20, 21)]


class TestPhiEval:
    def test_linear(self):
        assert phi_eval(LinearPhi(0.5), 4.0) == 2.0

    def test_hyperbolic(self):
        assert phi_eval(HyperbolicPhi(1.0), 1.0) == 0.5

    def test_tabulated_right_constant(self):
        phi = TabulatedPhi(((1.0, 0.5), (2.0, 0.9)))
        assert phi_eval(phi, 1.5) == 0.5
        assert phi_eval(phi, 0.2) == 0.5   # below first breakpoint
        assert phi_eval(phi, 3.0) == 0.9   # right-constant extension

    @pytest.mark.parametrize("table,message", [
        ((), "tabulated function needs at least one breakpoint"),
        (((math.nan, 1.0),), "breakpoints and values must be finite"),
        (((math.nan, 1.0), (1.0, 2.0)), "breakpoints and values must be finite"),
        (((0.5, 1.0), (math.nan, 2.0)), "breakpoints and values must be finite"),
        (((0.5, math.nan),), "breakpoints and values must be finite"),
        (((0.5, math.nan), (1.0, 2.0)), "breakpoints and values must be finite"),
        (((0.5, 1.0), (1.0, math.nan)), "breakpoints and values must be finite"),
        (((0.5, math.inf), (1.0, 2.0)), "breakpoints and values must be finite"),
        (((0.5, 1.0), (1.0, math.inf)), "breakpoints and values must be finite"),
        (((0.5, -math.inf), (1.0, 2.0)), "breakpoints and values must be finite"),
        (((0.5, 1.0), (math.inf, 2.0)), "breakpoints and values must be finite"),
        (((-math.inf, 1.0), (0.5, 2.0)), "breakpoints and values must be finite"),
        (((1.0, -1.0), (0.5, math.nan)), "breakpoints and values must be finite"),
        (((1.0, 1.0), (1.0, 2.0)), "breakpoints must be strictly increasing"),
        (((1.0, 1.0), (0.5, 2.0)), "breakpoints must be strictly increasing"),
        (((1.0, 2.0), (0.5, -1.0)), "breakpoints must be strictly increasing")])
    @pytest.mark.parametrize("kind", [TabulatedPhi, TabulatedGauge, TabulatedMap])
    def test_tables_refused(self, kind, table, message):
        # one step table behind all three kinds: breakpoints and values
        # finite, breakpoints strictly increasing, checked before the values
        with pytest.raises(ValueError, match=f"^{message}$"):
            kind(table)

    @pytest.mark.parametrize("kind,table,message", [
        (TabulatedPhi, ((0.5, -1.0), (1.0, 0.0)), "tabulated values must be positive"),
        (TabulatedGauge, ((0.5, 0.0), (1.0, 1.0)), "tabulated values must be positive"),
        (TabulatedGauge, ((0.5, -1.0),), "tabulated values must be positive"),
        (TabulatedMap, ((0.5, 1.0), (1.0, 0.5)), "tabulated map must be monotone non-decreasing")])
    def test_value_rule_per_kind(self, kind, table, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            kind(table)
        # the other value rule admits the table: maps take any non-decreasing
        # values, step comparison functions any positive ones
        (TabulatedPhi if kind is TabulatedMap else TabulatedMap)(table)

    @pytest.mark.parametrize("kind,table,message", [
        (TabulatedPhi, ((0.5, 1.0), (1.0, 0.0)), "tabulated values must be positive"),
        (TabulatedGauge, ((0.5, 1.0), (1.0, 0.0)), "tabulated values must be positive"),
        (TabulatedMap, ((0.0, 0.2), (0.5, 0.8), (1.0, 0.5)),
         "tabulated map must be monotone non-decreasing")])
    def test_value_rule_reaches_past_the_first_value(self, kind, table, message):
        # the first values obey the rule; a later one breaks it
        with pytest.raises(ValueError, match=f"^{message}$"):
            kind(table)

    @pytest.mark.parametrize("size", [1, 2, 3, 7, 64, 513, 2000])
    def test_eval_is_the_linear_rule(self, size):
        # the value at the largest breakpoint <= t, else the first value, bit
        # for bit, probed below the first breakpoint, on each breakpoint,
        # between breakpoints and above the last
        rng = random.Random(f"step-table:{size}")
        ts = sorted(rng.sample(range(-10 ** 6, 10 ** 6), size))
        ts = [t / 64.0 for t in ts]
        vals = sorted(rng.choice((0.25, 1.0, 3.0)) if rng.random() < 0.3
                      else rng.uniform(0.1, 10.0) for _ in ts)
        between = [a + (b - a) * rng.random() for a, b in zip(ts, ts[1:])]
        probes = [ts[0] - 1.0, -math.inf, *ts, *between, ts[-1] + 1.0, math.inf]
        want = {}
        for t in probes:
            want[t] = vals[0]
            for b, v in zip(ts, vals):
                if b > t:
                    break
                want[t] = v
        for kind in (TabulatedPhi, TabulatedGauge, TabulatedMap):
            table = kind(tuple(zip(ts, vals)))
            assert {t: table.eval(t).hex() for t in probes} == {
                t: v.hex() for t, v in want.items()}

    def test_shifted_is_exponential_shrink(self):
        phi = ShiftedPhi(math.log(2.0))
        assert phi_eval(phi, 4.0) == pytest.approx(2.0, rel=1e-15)

    def test_nonpositive_argument(self):
        with pytest.raises(NonpositiveArgument):
            phi_eval(LinearPhi(0.5), 0.0)
        with pytest.raises(NonpositiveArgument):
            phi_eval(LinearPhi(0.5), -1.0)

    def test_linear_needs_contraction_factor(self):
        with pytest.raises(ValueError):
            LinearPhi(1.0)
        with pytest.raises(ValueError):
            LinearPhi(0.0)


class TestPhiIterate:
    def test_linear_closed_form(self):
        assert phi_iterate(LinearPhi(0.5), 1.0, 10) == 2.0 ** -10

    def test_hyperbolic_four_compositions(self):
        # oracle: four explicit compositions of t / (1 + t)
        f = lambda t: t / (1.0 + t)
        expected = f(f(f(f(1.0))))
        got = phi_iterate(HyperbolicPhi(1.0), 1.0, 4)
        assert got == expected
        assert got == pytest.approx(0.2, rel=1e-12)   # induction: 1/(1+4)

    def test_zero_iterations_is_identity(self):
        assert phi_iterate(HyperbolicPhi(1.0), 3.0, 0) == 3.0


class TestCertifyPhi:
    def test_linear_member(self):
        # oracle: 2^-k * t < 1e-9 for t <= 10 within k = 44
        k = 0
        t = 10.0
        while t >= 1e-9:
            t *= 0.5
            k += 1
        assert k <= 44
        cert = certify_phi(LinearPhi(0.5), grid=[0.1, 1.0, 10.0])
        assert cert.verdict == "member"

    def test_identity_diagonal_is_non_member(self):
        cert = certify_phi(DIAGONAL_PHI, grid=[0.25, 1.0, 4.0])
        assert cert.verdict == "non-member"
        assert cert.witness["kind"] == "stagnation"

    def test_hyperbolic_member_within_large_budget(self):
        # oracle: the closed form phi^n(t) = t/(1+n t) decays, so no
        # iteration is needed though it drops below 1e-9 only at n = 1e9
        assert 1.0 / (1.0 + 1e9) < 1e-9
        cert = certify_phi(HyperbolicPhi(1.0), grid=[1.0])
        assert cert.verdict == "member"

    def test_decreasing_table_fails_monotonicity(self):
        phi = TabulatedPhi(((1.0, 0.9), (2.0, 0.5)))
        cert = certify_phi(phi, grid=[1.0, 2.0])
        assert cert.verdict == "non-member"
        assert cert.witness["kind"] == "monotonicity"

    def test_tabulated_decay_certified_by_iteration(self):
        # iteration reaches tol, but every value is at least 5e-11: no decay
        phi = TabulatedPhi(((1e-10, 1e-10 / 2), (1.0, 1e-10)))
        cert = certify_phi(phi, grid=[0.5, 1.0])
        assert cert.verdict == "non-member"

    def test_step_table_under_tol_is_non_member(self):
        # iterates of every grid point fall to the floor 1e-10, under tol, and
        # stay there; below the floor phi(t) >= t
        phi = TabulatedPhi(((0, 1e-10), (0.005, 0.001), (0.05, 0.01), (0.5, 0.1),
                            (5, 1), (50, 10)))
        cert = certify_phi(phi, grid=PHI_GRID)
        assert cert.verdict == "non-member"
        assert cert.witness["kind"] == "stagnation"
        assert 0.0 < cert.witness["t"] < 1e-10
        assert cert.witness["phi_t"] == phi_eval(phi, cert.witness["t"]) == 1e-10

    def test_stagnating_non_monotone_table_is_non_member(self):
        # the grid misses the fall from 3.0 to 2.5, so phi(2) >= 2 alone
        # proves nothing; the table's positive floor decides
        phi = TabulatedPhi(((1.0, 0.5), (2.0, 3.0), (3.0, 2.5)))
        cert = certify_phi(phi, grid=[1.0, 2.0])
        assert cert.verdict == "non-member"
        assert cert.witness == {"kind": "stagnation", "t": 2.0, "phi_t": 3.0}

    def test_slow_tabulated_is_non_member(self):
        # positive plateau above tol: iterates stall there, below the grid
        phi = TabulatedPhi(((0.5, 0.25), (1.0, 0.5)))
        cert = certify_phi(phi, grid=[1.0])
        assert cert.verdict == "non-member"
        assert cert.witness == {"kind": "stagnation", "t": 0.25, "phi_t": 0.25}

    def test_empty_grid(self):
        with pytest.raises(EmptyGrid):
            certify_phi(LinearPhi(0.5), grid=[])

    def test_value_underflowing_to_zero_is_non_member(self):
        # exp(ln 1 - 800) underflows to 0.0
        cert = certify_phi(ExpPsiLnPhi(affine_form(1.0, -800.0)), grid=[1.0])
        assert cert.verdict == "non-member"
        assert cert.witness == {"kind": "nonpositive-value", "t": 1.0, "phi_t": 0.0}

    def test_slow_shift_is_closed_form_member(self):
        # phi(t) = t * exp(-1e-12) decays, though iterates from 1 would need
        # about 2e13 steps to fall below tol
        cert = certify_phi(ExpPsiLnPhi(shift_form(1e-12)), grid=[1.0])
        assert cert.verdict == "member" and cert.witness is None
        assert cert.evidence["decay"] == "closed-form"

    @pytest.mark.parametrize("phi", [
        ExpPsiLnPhi(affine_form(1.0, -0.5)),
        ConjugatePhi(PowerGauge(2.0), ExpPsiLnPhi(shift_form(1.0)))],
        ids=["unit-affine", "conjugate-shift"])
    def test_exp_psi_ln_closed_form_member(self, phi):
        cert = certify_phi(phi, grid=PHI_GRID)
        assert cert.verdict == "member"
        assert cert.evidence["decay"] == "closed-form"

    @pytest.mark.parametrize("psi, decay", [
        (shift_form(0.5), True), (shift_form(0.0), None), (shift_form(-1.0), None),
        (affine_form(1.0, -0.5), True), (affine_form(1.0, 0.5), None),
        (affine_form(2.0, -30.0), None), (affine_form(0.5, -1.0), None),
        (IDENTITY_FORM, None), (RealForm("opaque", lambda u: u - 1.0), None)],
        ids=["shift", "zero-shift", "negative-shift", "unit-affine", "rising-affine",
             "square", "root", "identity", "opaque"])
    def test_exp_psi_ln_decay_is_a_fact_of_psi(self, psi, decay):
        # only e^-c * t with c > 0 is known to decay, and nothing is known
        # not to: the halving below the grid needs a positive floor
        assert ExpPsiLnPhi(psi).known_decay() is decay

    @pytest.mark.parametrize("psi, t", [
        # u - 1 above -21, slope 1/2 below: phi(t) >= t for t below e^-25
        (RealForm("kink", lambda u: u - 1.0 if u > -21.0 else -25.0 + (u + 25.0) / 2.0,
                  increasing=True), 1e-12),
        # phi(t) = e^-30 * t^2 exceeds t above e^30
        (affine_form(2.0, -30.0), 1e14)], ids=["kink", "square"])
    def test_decay_on_the_grid_alone_is_not_membership(self, psi, t):
        # every grid point iterates below tol, yet off the grid phi(t) > t
        phi = ExpPsiLnPhi(psi)
        assert phi.eval(t) > t
        cert = certify_phi(phi, grid=PHI_GRID)
        assert cert.verdict == "inconclusive" and cert.witness is None
        assert cert.evidence == {"decay": "unknown", "grid_points": len(PHI_GRID)}


class TestStrictDecrease:
    @pytest.mark.parametrize("phi", CATALOG_PHIS, ids=str)
    def test_members_decrease_everywhere(self, phi):
        ok, witnesses = check_phi_strict_decrease(
            phi, [t for t in log_grid() if 1e-6 <= t <= 1e6])
        assert ok and witnesses == []

    def test_identity_reports_witness(self):
        ok, witnesses = check_phi_strict_decrease(DIAGONAL_PHI, [1.0])
        assert not ok
        assert witnesses[0]["t"] == 1.0

    @given(st.floats(min_value=1e-6, max_value=1e6))
    def test_hyperbolic_pointwise(self, t):
        assert HyperbolicPhi(1.0).eval(t) < t

    @pytest.mark.parametrize("phi", CATALOG_PHIS, ids=str)
    def test_member_iterates_eventually_small(self, phi):
        # iterate decay is the certifiable surrogate of the limit condition
        for t in (0.1, 1.0, 100.0):
            u = t
            for _ in range(10 ** 6):
                u = phi.eval(u)
                if u < 1e-5:
                    break
            assert u < 1e-5


class TestGaugeEval:
    def test_identity(self):
        assert gauge_eval(IdentityGauge(), 3.0) == 3.0

    def test_affine_plus(self):
        assert gauge_eval(AffinePlusGauge(1.0), 0.5) == 1.5

    def test_exp_of_ln(self):
        assert gauge_eval(ExpOfFGauge(LN), 2.0) == pytest.approx(2.0, rel=1e-12)

    def test_nonpositive(self):
        with pytest.raises(NonpositiveArgument):
            gauge_eval(IdentityGauge(), 0.0)


# a gauge of each form gauge_from_json admits, with its (G1, G2) answers
JSON_GAUGE_CLASSES = {
    "identity": ({"family": "identity"}, ("no", "yes")),
    "power": ({"family": "power", "q": 2.0}, ("no", "yes")),
    "affine_plus": ({"family": "affine_plus", "c": 1.0}, ("yes", "no")),
    "tabulated": ({"family": "tabulated", "points": [[0.5, 0.1], [1.0, 0.9]]}, ("yes", "no")),
    "exp-ln": ({"family": "exp_of_f", "f": "ln"}, ("no", "yes")),
    "exp-identity": ({"family": "exp_of_f", "f": "identity"}, ("yes", "no")),
    "exp-affine-rising": ({"family": "exp_of_f", "f": {"affine": {"a": 2.0, "b": -1.0}}},
                          ("yes", "no")),
    "exp-affine-falling": ({"family": "exp_of_f", "f": {"affine": {"a": -1.0, "b": 0.5}}},
                           ("no", "no")),
    "exp-shift": ({"family": "exp_of_f", "f": {"shift": 0.5}}, ("yes", "no")),
}


class TestCertifyGaugeClass:
    def test_affine_plus(self):
        cert = certify_gauge_class(AffinePlusGauge(1.0))
        assert cert.in_g1 == "yes"
        assert cert.in_g2 == "no"
        seq = cert.evidence["g2_witness"]["sequence"]
        assert seq, "a no-verdict must carry a witness sequence"
        # values along alpha -> 0 approach 1, not 0
        assert all(v > 0.9 for _, v in seq)

    def test_identity(self):
        cert = certify_gauge_class(IdentityGauge())
        assert cert.in_g1 == "no"
        assert cert.in_g2 == "yes"
        assert cert.evidence["g1_witness"]

    def test_power_two(self):
        cert = certify_gauge_class(PowerGauge(2.0))
        assert cert.in_g2 == "yes"

    def test_steep_power_saturates(self):
        cert = certify_gauge_class(PowerGauge(13.0))
        assert (cert.in_g1, cert.in_g2) == ("no", "yes")
        assert PowerGauge(13.0).eval(2.0 ** 79) == math.inf

    def test_tabulated_is_g1_only(self):
        cert = certify_gauge_class(TabulatedGauge(((0.5, 0.1), (1.0, 0.9))))
        assert cert.in_g1 == "yes"
        assert cert.in_g2 == "no"

    def test_known_no_g2_vanishing_away_from_zero(self):
        # G(a) = exp(-a - 30) stays below 1e-9 along a -> 0 and a -> inf alike
        cert = certify_gauge_class(ExpOfFGauge(affine_form(-1.0, -30.0)))
        assert cert.in_g2 == "no"
        assert cert.evidence["g2_witness"]["kind"] == "vanishes-away-from-zero"

    def test_g1_witness_of_a_decreasing_gauge_runs_toward_inf(self):
        # G(a) = exp(-a) has infimum 0 as a -> inf; toward 0 its values
        # are all 1.0, which witnessed nothing
        cert = certify_gauge_class(ExpOfFGauge(affine_form(-1.0, 0.0)))
        assert cert.in_g1 == "no"
        witness = cert.evidence["g1_witness"]
        assert [a for a, _ in witness] == [2.0 ** k for k in range(68, 80)]
        assert witness[-1][1] == 0.0

    @pytest.mark.parametrize("gauge", [
        IdentityGauge(), PowerGauge(2.0),
        # the two tails end on the same value: the tail toward 0 stays
        ExpOfFGauge(RealForm("flat-zero", lambda a: -math.inf, inf_value=-math.inf))],
        ids=["identity", "power-2", "tie"])
    def test_g1_witness_of_other_gauges_runs_toward_zero(self, gauge):
        cert = certify_gauge_class(gauge)
        assert cert.evidence["g1_witness"] == cert.evidence["refinement_tail"]

    # the second gauge's samples above 1 vanish, yet with no facts G2 stays open
    @pytest.mark.parametrize("above_one", [lambda a: 1.0, lambda a: 1.0 / a],
                             ids=["one", "vanishing"])
    def test_sampled_g2_inconclusive(self, above_one):
        cert = certify_gauge_class(dyadic_parity_gauge(above_one))
        assert cert.in_g2 == "inconclusive"
        assert "g2_witness" not in cert.evidence

    def test_shift_exponent_is_g1(self):
        # G(a) = exp(a - 0.5) has infimum exp(-0.5) over (0, inf).  The shift
        # form's infimum over all of R, -inf, once made it G2, with a G1
        # "witness" whose values never fell below 0.6065
        G = gauge_from_json({"family": "exp_of_f", "f": {"shift": 0.5}})
        assert G.known_inf() == math.exp(-0.5)
        cert = certify_gauge_class(G)
        assert (cert.in_g1, cert.in_g2) == ("yes", "no")
        assert cert.evidence["inf_closed_form"] == math.exp(-0.5)
        assert "g1_witness" not in cert.evidence

    def test_infimum_past_float_range_saturates(self):
        # exp(1000) overflows; the closed-form infimum saturates like eval
        G = ExpOfFGauge(affine_form(1.0, 1000.0))
        assert G.known_inf() == math.inf
        cert = certify_gauge_class(G)
        assert (cert.in_g1, cert.in_g2) == ("yes", "no")
        with pytest.raises(NonpositiveArgument):
            to_czerwik_form(G, LinearPhi(0.5))

    @pytest.mark.parametrize("c", [1e-10, 1e-11, 1e-13, 5e-9])
    def test_no_facts_no_verdict(self, c):
        # G(a) = a + c is in G1, with infimum c, and not in G2; no sample
        # toward 0 tells c from 0
        G = ExpOfFGauge(RealForm("a+c", lambda a: math.log(a + c), increasing=True))
        cert = certify_gauge_class(G)
        assert (cert.in_g1, cert.in_g2) == ("inconclusive", "inconclusive")
        assert not {"g1_witness", "g2", "g2_witness"} & cert.evidence.keys()

    @pytest.mark.parametrize("doc, expected", JSON_GAUGE_CLASSES.values(),
                             ids=JSON_GAUGE_CLASSES.keys())
    def test_every_json_family_is_decided(self, doc, expected):
        # every JSON gauge declares its facts, so no CLI class rests on samples
        cert = certify_gauge_class(gauge_from_json(doc))
        assert (cert.in_g1, cert.in_g2) == expected

    @pytest.mark.parametrize("form, expected", [
        # strictly increasing: one fact decides both classes
        (RealForm("log1p", math.log1p, increasing=True, inf_value=0.0), ("yes", "no")),
        (RealForm("log", math.log, increasing=True, diverges_iff_zero=True), ("no", "yes")),
        # otherwise a "yes" for one class is a "no" for the other, and a "no"
        # decides nothing more
        (RealForm("bump", lambda a: abs(math.log(a)), inf_value=0.0), ("yes", "no")),
        (RealForm("falling", lambda a: -a, inf_value=-math.inf), ("no", "inconclusive"))],
        ids=["inf-only", "g2-only", "inf-only-not-increasing", "no-only-not-increasing"])
    def test_one_fact(self, form, expected):
        cert = certify_gauge_class(ExpOfFGauge(form))
        assert (cert.in_g1, cert.in_g2) == expected

    @pytest.mark.parametrize("inf_value, diverges", [(-math.inf, False), (0.0, True)],
                             ids=["unbounded-without-g2", "g2-with-bounded-inf"])
    def test_contradicting_facts_are_refused(self, inf_value, diverges):
        # G2 forces inf F = -inf, and an increasing F with inf F = -inf tends
        # to it exactly as a -> 0; either pair of facts would certify
        # ("no", "no") or ("yes", "yes")
        with pytest.raises(ValueError, match="^form 'x': diverges_iff_zero="):
            RealForm("x", math.log, increasing=True, inf_value=inf_value,
                     diverges_iff_zero=diverges)
        # a falling F may reach -inf far from 0
        assert affine_form(-1.0, 0.0).inf_value == -math.inf

    @pytest.mark.parametrize("gauge", [
        IdentityGauge(), PowerGauge(2.0), PowerGauge(0.5),
        AffinePlusGauge(1.0), ExpOfFGauge(LN)], ids=str)
    def test_g1_yes_evidence_consistency(self, gauge):
        cert = certify_gauge_class(gauge)
        if cert.in_g1 == "yes":
            low = cert.evidence["inf_closed_form"]
            assert all(v >= low for _, v in cert.evidence["refinement_tail"])


class TestClassEvidenceEndpoints:
    """For a strictly increasing gauge the class certificate's grid inf and
    sup are G at the grid's ends; the certificate must be the one the
    sampled table gives, bit for bit.  Both are compared before ``to_json``,
    which writes an overflowed estimate as null."""

    @staticmethod
    def table_certificate(G, grid) -> str:
        doc = asdict(certify_gauge_class(G, grid))
        running_max, grid_min = _grid_table(G, _grid_points(grid, "table"))
        doc["evidence"]["inf_grid_estimate"] = grid_min
        doc["evidence"]["sup_grid_estimate"] = running_max[-1]
        return json.dumps(doc, sort_keys=True)

    def check(self, G, grid):
        assert G.strictly_increasing()
        got = json.dumps(asdict(certify_gauge_class(G, grid)), sort_keys=True)
        assert got == self.table_certificate(G, grid)

    # ids from describe(): str() of a gauge over a lambda form holds its address
    @pytest.mark.parametrize("gauge", DEFAULT_GAUGE_CATALOG + G1_GAUGE_CATALOG,
                             ids=lambda G: "-".join(map(str, G.describe().values())))
    def test_catalog_on_default_grid(self, gauge):
        self.check(gauge, None)

    @staticmethod
    def decade_grid(lo, hi, per_decade):
        # log-spaced from 10**lo to 10**hi, past the default grid's decades
        return [10.0 ** (dec + i / per_decade) for dec in range(lo, hi)
                for i in range(per_decade)] + [10.0 ** hi]

    grids = st.builds(decade_grid, st.integers(-12, 0), st.integers(1, 12),
                      st.integers(1, 64))

    @given(q=st.floats(0.0, 40.0, exclude_min=True), grid=grids)
    def test_power(self, q, grid):
        self.check(PowerGauge(q), grid)

    @given(c=st.floats(1e-300, 1e300), grid=grids)
    def test_affine_plus(self, c, grid):
        self.check(AffinePlusGauge(c), grid)

    @given(gauge=st.sampled_from(DEFAULT_GAUGE_CATALOG + G1_GAUGE_CATALOG), grid=grids)
    def test_catalog_on_random_grids(self, gauge, grid):
        self.check(gauge, grid)

    @pytest.mark.parametrize("q", [1e-300, 0.5, 13.0, 40.0])
    def test_power_on_default_grid(self, q):
        # underflow to 0.0 at the bottom of the grid and overflow to inf at
        # the top give runs of equal values
        self.check(PowerGauge(q), None)


class TestGridPoints:
    """Grids that are already strictly increasing skip the sort, with the
    same result; every point must be a positive finite real."""

    POSITIVE = st.floats(0.0, math.inf, exclude_min=True, exclude_max=True)

    @staticmethod
    def sorted_distinct(grid):
        return [repr(t) for t in sorted(set(float(t) for t in grid))]

    @given(st.lists(st.one_of(POSITIVE, st.integers(1, 5)), min_size=1))
    def test_any_grid(self, grid):
        assert [repr(t) for t in _grid_points(grid, "t")] == self.sorted_distinct(grid)

    @given(st.lists(POSITIVE, min_size=1, unique=True))
    def test_increasing_grid(self, grid):
        grid = sorted(grid)
        assert [repr(t) for t in _grid_points(grid, "t")] == self.sorted_distinct(grid)

    def test_signed_zeros_and_default(self):
        with pytest.raises(NonpositiveArgument, match=r"^gauges take positive reals, got -0\.0$"):
            _grid_points([-0.0, 0.0, 1.0], "t")
        assert _grid_points(None, "t") == log_grid()

    @pytest.mark.parametrize("grid, bad", [
        ([0.0, 1.0], "0.0"), ([-1.0, 1.0], "-1.0"), ([1.0, math.inf], "inf"),
        ([math.nan], "nan"), ([math.nan, 1.0], "nan"), ([2.0, math.nan, 1.0], "nan"),
        ([2.0, 1.0, math.nan, 3.0], "nan"), ([3, -2, 1], "-2.0")])
    def test_point_outside_positive_reals_refused(self, grid, bad):
        with pytest.raises(NonpositiveArgument, match=f"^gauges take positive reals, got {bad}$"):
            _grid_points(grid, "t")

    def test_gauge_functions_refuse_such_grids(self):
        # the grid rule names the point before any gauge sees it
        with pytest.raises(NonpositiveArgument, match="got 0.0$"):
            certify_gauge_class(ExpOfFGauge(LN), [0.0, 1.0])
        with pytest.raises(NonpositiveArgument, match="got -1.0$"):
            certify_gauge_class(IdentityGauge(), [-1.0, 1.0])
        with pytest.raises(NonpositiveArgument, match="got nan$"):
            epsilon0(IdentityGauge(), [math.nan, 1.0])

    def test_returns_a_new_list(self):
        grid = [1.0, 2.0, 3.0]
        pts = _grid_points(grid, "t")
        assert pts == grid and pts is not grid


class TestEpsilon0:
    def test_identity_unit_level(self):
        assert epsilon0(IdentityGauge()) == 1.0

    def test_power_two_unit_level(self):
        assert epsilon0(PowerGauge(2.0)) == 1.0

    def test_no_valid_epsilon(self):
        with pytest.raises(NoValidEpsilon):
            epsilon0(AffinePlusGauge(1.0), grid=DYADIC_GRID)

    def test_sampled_sup_includes_endpoint(self):
        # samples strictly below eps under-estimate sup G on (0, eps), which
        # put eps0 one grid step past the threshold 1 of G(a) = a
        opaque = ExpOfFGauge(RealForm("id", math.log))
        assert epsilon0(opaque) == 1.0
        grid = log_grid(per_decade=16)
        assert epsilon0(opaque, grid) == epsilon0(ExpOfFGauge(LN), grid) == 1.0

    def test_steep_power_underflow_at_grid_min(self):
        # (1e-9) ** 40 underflows to 0.0, yet G is positive on (0, inf)
        G = PowerGauge(40.0)
        assert G.eval(1e-9) == 0.0
        assert epsilon0(G, [t for t in log_grid() if t <= 1e3]) == epsilon0(G) == 1.0
        assert n_epsilon(G, LinearPhi(0.5), 1.0, 0.5) == 81


class TestTabulatedRegions:
    STEP = TabulatedGauge(((0.5, 0.1), (1.0, 0.9)))

    def test_epsilon0_on_grid_at_breakpoint(self):
        assert epsilon0(self.STEP, grid=[1.0]) == 1.0

    def test_sup_below_keeps_open_end(self):
        # (0, 1) stops short of the step at 1
        assert self.STEP.sup_below(1.0) == 0.1
        assert self.STEP.sup_below(1.5) == 0.9
        assert self.STEP.inf_above(1.0) == 0.9

    @staticmethod
    def _answer(f, x):
        try:
            return f(x)
        except ValueError:
            return ValueError

    @settings(max_examples=300)
    @given(st.lists(st.tuples(st.floats(-10.0, 10.0),
                              st.sampled_from([0.1, 0.5, 2.0]) | st.floats(1e-3, 10.0)),
                    min_size=1, max_size=12, unique_by=lambda p: p[0]))
    def test_extremes_match_a_scan_of_every_step(self, points):
        # a step's sup or inf read off a scan of the whole table, as the
        # definition states it: at, just below and just above every
        # breakpoint, at eps <= 0 and at the ends of the float range
        G = TabulatedGauge(tuple(sorted(points)))
        rights = [t for t, _ in G.points[1:]] + [math.inf]

        def sup_scan(eps):
            return max(v for i, (t, v) in enumerate(G.points) if (t if i else 0.0) < eps)

        def inf_scan(thr):
            return min(v for (_, v), right in zip(G.points, rights) if right > thr)

        probes = [0.0, -0.0, -1.0, 5e-324, 1e300, math.inf, -math.inf, math.nan]
        for t, _ in G.points:
            probes += [t, math.nextafter(t, -math.inf), math.nextafter(t, math.inf)]
        for x in probes:
            assert self._answer(G.sup_below, x) == self._answer(sup_scan, x), x
            assert self._answer(G.inf_above, x) == self._answer(inf_scan, x), x
        # the kept extremes stay out of equality, hash, repr and asdict
        fresh = TabulatedGauge(G.points)
        assert (G, hash(G), repr(G)) == (fresh, hash(fresh), repr(fresh))
        assert asdict(G) == {"points": G.points}


class Stripped:
    """A gauge's values without its closed forms, so every sup, inf and
    class fact is sampled."""

    def __init__(self, gauge):
        self.eval = gauge.eval

    def known_inf(self):
        return None

    def known_g2(self):
        return None

    def strictly_increasing(self):
        return False

    def sup_below(self, eps):
        return None

    def inf_above(self, thr):
        return None


class Scaled:
    """G / level, with the gauge's closed forms and class facts: its sup and
    inf tests against 1 are the gauge's tests against ``level``."""

    def __init__(self, gauge, level):
        self.gauge, self.level = gauge, level

    def eval(self, a):
        return self.gauge.eval(a) / self.level

    def _scaled(self, v):
        return None if v is None else v / self.level

    def known_inf(self):
        return self._scaled(self.gauge.known_inf())

    def known_g2(self):
        return self.gauge.known_g2()

    def strictly_increasing(self):
        return self.gauge.strictly_increasing()

    def sup_below(self, eps):
        return self._scaled(self.gauge.sup_below(eps))

    def inf_above(self, thr):
        return self._scaled(self.gauge.inf_above(thr))

    def describe(self):
        return {"scaled": self.level, "gauge": self.gauge.describe()}


class EndpointGauge(Stripped):
    """A duck-typed increasing gauge: its values, no class facts, and its
    sups and infs by the endpoint rule."""

    def sup_below(self, eps):
        return self.eval(eps)

    def inf_above(self, thr):
        return self.eval(thr)


ENDPOINT_TWINS = [IdentityGauge(), PowerGauge(0.5), PowerGauge(2.0), ExpOfFGauge(LN)]


@pytest.mark.parametrize(
    "twin", ENDPOINT_TWINS + [Scaled(G, level) for level in (0.25, 4.0) for G in ENDPOINT_TWINS],
    ids=lambda G: json.dumps(G.describe()))
def test_epsilon0_asks_a_gauge_only_for_sups_and_infs(twin):
    # a gauge needs eval, the fact methods, sup_below and inf_above; the
    # grid minimum behind epsilon0 is read off the table
    grid = log_grid(per_decade=16)
    assert epsilon0(EndpointGauge(twin), grid) == epsilon0(Stripped(twin), grid) \
        == epsilon0(twin, grid)


def dyadic_parity_gauge(above_one):
    """A gauge with no facts, equal to a at the points a = 2^-k < 1 of even k
    and to 1 at those of odd k (and likewise between them), and equal to
    ``above_one(a)`` from 1 on: G(a) has no limit as a -> 0."""

    def value(a):
        if a >= 1.0:
            return above_one(a)
        return a if math.floor(-math.log2(a)) % 2 == 0 else 1.0

    return Stripped(types.SimpleNamespace(eval=value))


SAMPLED_TWINS = list(dict.fromkeys(DEFAULT_GAUGE_CATALOG + G1_GAUGE_CATALOG))
# the catalog's thresholds at the levels 1/4 and 4
SAMPLED_TWINS += [Scaled(G, level) for level in (0.25, 4.0) for G in SAMPLED_TWINS]


class TestSampledPath:
    """Sampled answers agree with the closed-form twin or are more
    conservative."""

    @pytest.mark.parametrize("per_decade", [16, 32, 48])
    @pytest.mark.parametrize("twin", SAMPLED_TWINS, ids=lambda G: json.dumps(G.describe()))
    def test_differential(self, twin, per_decade):
        grid = log_grid(per_decade=per_decade)
        opaque = Stripped(twin)
        got, want = certify_gauge_class(opaque, grid), certify_gauge_class(twin, grid)
        for a, b in ((got.in_g1, want.in_g1), (got.in_g2, want.in_g2)):
            assert {a, b} != {"yes", "no"}
        try:
            closed = epsilon0(twin, grid)
        except NoValidEpsilon:
            with pytest.raises(NoValidEpsilon):
                epsilon0(opaque, grid)
            return
        eps0 = epsilon0(opaque, grid)
        assert eps0 <= closed
        assert twin.sup_below(eps0) <= 1.0
        # with s = 1 and phi(t) = t/2 the threshold eps0/4 can equal
        # phi^n(1) exactly, where the strict inequality is tight
        for phi in CATALOG_PHIS:
            n = n_epsilon(opaque, phi, 1.0, eps0 / 2.0)
            assert twin.inf_above(eps0 / 4.0) > phi_iterate(phi, 1.0, n)

    def test_linear_in_grid_size(self):
        # one evaluation per grid point for the table, plus 39 dyadic probes
        # below each grid point the downward scan visits: G(a) = a passes
        # level 1 at the first one, the grid point 1
        calls = []

        def log_counted(a):
            calls.append(a)
            return math.log(a)

        grid = log_grid(per_decade=16)
        assert epsilon0(ExpOfFGauge(RealForm("id", log_counted)), grid) == 1.0
        assert len(calls) == len(grid) + 39


class TestRunningExtrema:
    """The sampled table's running max is numpy's maximum.accumulate and its
    grid minimum the last entry of minimum.accumulate over the reversed
    values, bit for bit: NaN propagates and a tie takes the later value of
    the accumulation, which decides the sign of a zero."""

    VALUES = [0.0, -0.0, 1.0, -0.0, 0.0, math.nan, 2.0, -0.0, math.inf, 3.0]

    @staticmethod
    def bits(xs):
        return [(math.copysign(1.0, x), x) if x == x else "nan" for x in xs]

    @pytest.mark.parametrize("values", [VALUES, VALUES[:5], VALUES[1:5], VALUES[::-1],
                                        VALUES[6:]])
    def test_matches_numpy_accumulate(self, values):
        np = pytest.importorskip("numpy")
        G = Stripped(IdentityGauge())
        G.eval = lambda t: values[int(t)]
        running_max, grid_min = _grid_table(G, [float(i) for i in range(len(values))])
        vals = np.array(values, dtype=float)
        assert self.bits(running_max) == self.bits(np.maximum.accumulate(vals).tolist())
        assert self.bits([grid_min]) == self.bits([np.minimum.accumulate(vals[::-1])[-1]])


class TestNEpsilon:
    def test_worked_identity_half(self):
        assert n_epsilon(IdentityGauge(), LinearPhi(0.5), 1.0, 1.0) == 2

    def test_worked_identity_half_s2(self):
        assert n_epsilon(IdentityGauge(), LinearPhi(0.5), 2.0, 1.0) == 3

    def test_worked_identity_tenth(self):
        assert n_epsilon(IdentityGauge(), LinearPhi(0.1), 1.0, 1.0) == 1

    def test_budget_exhausted(self):
        with pytest.raises(BudgetExhausted):
            n_epsilon(PowerGauge(2.0), HyperbolicPhi(1.0), 100.0, 1e-3, budget=10)

    @pytest.mark.parametrize("gauge", [IdentityGauge(), TabulatedGauge(((0.5, 0.1), (1.0, 0.9)))],
                             ids=["closed-form", "step"])
    def test_infinite_eps_refused(self, gauge):
        # the region (eps/(2s), inf) is empty: a closed-form gauge answered
        # n = 1 from G(inf) = inf, a step gauge raised a bare ValueError
        with pytest.raises(NonpositiveArgument, match="^eps must be finite$"):
            n_epsilon(gauge, LinearPhi(0.5), 1.0, math.inf)

    @pytest.mark.parametrize("gauge", [IdentityGauge(), PowerGauge(2.0)], ids=str)
    @pytest.mark.parametrize("phi", CATALOG_PHIS, ids=str)
    def test_monotone_in_eps(self, gauge, phi):
        eps_values = [1.0, 0.5, 0.25, 0.125, 1e-2]
        ns = [n_epsilon(gauge, phi, 1.5, e, budget=10 ** 6) for e in eps_values]
        assert ns == sorted(ns), "shrinking eps must not shrink n"

    def test_lemma_implication_on_iterates(self):
        # the returned n really witnesses: G below 1 implies phi^n below the inf
        G, phi, s, eps = IdentityGauge(), LinearPhi(0.5), 2.0, 1.0
        n = n_epsilon(G, phi, s, eps)
        assert phi_iterate(phi, 1.0, n) < eps / (2.0 * s)


def full_table(G, pts):
    """G at every grid point, as running maxima from the left and running
    minima from the right; NaN propagates and a tie takes the later value."""
    vals = [float(G.eval(t)) for t in pts]
    running_max, m = [], vals[0]
    for v in vals:
        if not (m != m or m > v):
            m = v
        running_max.append(m)
    running_min, m = [], vals[-1]
    for v in reversed(vals):
        if not (m != m or m < v):
            m = v
        running_min.append(m)
    running_min.reverse()
    return running_max, running_min


def top_down_epsilon0(G, grid):
    """epsilon0 by the exhaustive scan: tabulate G over the whole grid, then
    try every grid point from the top down, probing below each one."""
    pts = log_grid() if grid is None else sorted(set(map(float, grid)))
    table = []

    def running(k):
        if not table:
            table.extend(full_table(G, pts))
        return table[k]

    def sup_below(i):
        v = G.sup_below(pts[i])
        if v is None:
            probes = [pts[i] * 2.0 ** -k for k in range(1, 40)]
            v = max([running(0)[i]] + [G.eval(t) for t in probes if t > 0.0])
        return v

    if G.strictly_increasing() or running(1)[0] > 0.0:
        for i in range(len(pts) - 1, -1, -1):
            if sup_below(i) <= 1.0:
                return pts[i]
    raise NoValidEpsilon("no grid value has sup below 1.0; gauge cannot be in G2")


@functools.cache
def default_grid_table(G):
    return full_table(G, log_grid())


def full_table_n_epsilon(G, phi, s, eps, budget=10_000):
    """n_epsilon with the inf over (thr, inf) read off the whole default
    grid's table."""
    thr = eps / (2.0 * s)
    target = G.inf_above(thr)
    if target is None:
        running_min = default_grid_table(G)[1]
        j = bisect_right(log_grid(), thr)
        probes = [thr] + [thr * (1.0 + 2.0 ** -k) for k in range(0, 40)]
        target = min(running_min[j:j + 1] + [G.eval(t) for t in probes])
    u = 1.0
    for n in range(1, budget + 1):
        u = phi.eval(u)
        if target > u:
            return n
    raise BudgetExhausted(
        f"phi^n(1.0) did not drop below {target} within {budget} iterations")


def outcome(f, *args):
    try:
        v = f(*args)
    except Exception as exc:
        return ("raised", type(exc), str(exc))
    # float.hex tells -0.0 from 0.0
    return ("value", v.hex() if isinstance(v, float) else v)


def _opaque(name, fn):
    return ExpOfFGauge(RealForm("opaque-" + name, fn))


THRESHOLD_GAUGES = [
    _opaque("ln", math.log),
    _opaque("power-0.5", lambda a: 0.5 * math.log(a)),
    _opaque("power-3", lambda a: 3.0 * math.log(a)),
    _opaque("quadratic", lambda a: math.log(a) + math.log1p(a)),
    _opaque("wiggly", lambda a: math.log(a) + 0.8 * math.sin(7.0 * math.log(a))),
    _opaque("nan-region", lambda a: math.nan if 1e-3 <= a < 1e-2 else math.log(a)),
    _opaque("nan-below-grid", lambda a: math.nan if a < 1e-10 else math.log(a)),
    _opaque("spike", lambda a: math.log(a) + (6.0 if 0.02 <= a < 0.021 else 0.0)),
    # a well at the grid point 1 that is too narrow for any probe to find
    _opaque("well", lambda a: -7.0 if 1.0 <= a < 1.0 + 1e-9 else math.log(a)),
    TabulatedGauge(((0.5, 0.1), (1.0, 0.9), (3.0, 2.0))),
    TabulatedGauge(((1e-3, 2.0), (0.1, 0.2), (10.0, 5.0))),
    *(PowerGauge(q) for q in (1e-3, 0.5, 1.0, 2.0, 13.0, 40.0)),
    IdentityGauge(),
    AffinePlusGauge(0.25),
    ExpOfFGauge(affine_form(2.0, -1.0)),
    ExpOfFGauge(LN),
]
# the thresholds at the levels 0.3 and 2.5, between other step values
THRESHOLD_GAUGES += [Scaled(G, level) for level in (0.3, 2.5) for G in THRESHOLD_GAUGES]

THRESHOLD_GRIDS = {
    "default": None,
    **{f"density-{d}": log_grid(per_decade=d) for d in (4, 8, 16, 32, 64, 128)},
    "three-points": [0.5, 1.0, 2.0],
}


def _gauge_id(G):
    if isinstance(G, Scaled):
        return f"{_gauge_id(G.gauge)}/{G.level}"
    return G.f.name if isinstance(G, ExpOfFGauge) else json.dumps(G.describe())


class TestThresholdScansPinned:
    """epsilon0 and n_epsilon evaluate G only where their answer can depend
    on it; they must return what the exhaustive scans return, or raise the
    same error with the same message."""

    @pytest.mark.parametrize("grid", THRESHOLD_GRIDS.values(), ids=THRESHOLD_GRIDS.keys())
    @pytest.mark.parametrize("gauge", THRESHOLD_GAUGES, ids=_gauge_id)
    def test_epsilon0(self, gauge, grid):
        assert outcome(epsilon0, gauge, grid) == outcome(top_down_epsilon0, gauge, grid)

    @pytest.mark.parametrize("gauge", THRESHOLD_GAUGES, ids=_gauge_id)
    def test_n_epsilon(self, gauge):
        # with s = 1, eps = 2 puts the threshold on the grid point 1 and
        # eps = 1.998 puts it just below, so that 1 is the first point above
        for phi, s, eps in itertools.product(
                CATALOG_PHIS, (1.0, 1.5), (1e-6, 0.37, 1.998, 2.0, 5.0)):
            want = outcome(full_table_n_epsilon, gauge, phi, s, eps)
            got = outcome(n_epsilon, gauge, phi, s, eps)
            assert got == want, (phi, s, eps)


class TestThresholdEvaluations:
    """n_epsilon evaluates an opaque gauge only where its answer can depend
    on it, on a default grid built once."""

    @staticmethod
    def counted():
        calls = []

        def log_counted(a):
            calls.append(a)
            return math.log(a)

        return ExpOfFGauge(RealForm("counted", log_counted)), calls

    @pytest.mark.parametrize("call, evals", [
        (lambda G: epsilon0(G), 15),
        (lambda G: epsilon0(G, log_grid(per_decade=16)), 10),
        (lambda G: certify_gauge_class(G), 162),
        (lambda G: n_epsilon(G, LinearPhi(0.5), 1.0, 0.3), 1)],
        ids=["epsilon0-default", "epsilon0-16", "class", "n_epsilon"])
    def test_no_grid_table_for_an_increasing_gauge(self, call, evals):
        # the closed forms answer: a bisection, the 160 dyadic points and
        # the two grid ends, or one endpoint, never a value per grid point
        opaque, calls = self.counted()
        call(ExpOfFGauge(replace(opaque.f, increasing=True, inf_value=-math.inf,
                                 diverges_iff_zero=True)))
        assert len(calls) == evals

    def test_n_epsilon_skips_grid_at_or_below_thr(self):
        G, calls = self.counted()
        thr = 0.3 / 2.0             # not a grid point
        n_epsilon(G, LinearPhi(0.5), 1.0, 0.3)
        pts = log_grid()
        j = bisect_right(pts, thr)
        assert not set(pts[:j]) & set(calls)
        # the grid above thr, thr itself and 40 probes just above it
        assert len(calls) == len(pts) - j + 41

    def test_default_grid_built_once(self, monkeypatch):
        built = []

        def counted_log_grid(*args):
            built.append(args)
            return log_grid(*args)

        monkeypatch.setattr(gauges, "log_grid", counted_log_grid)
        gauges._default_grid.cache_clear()
        try:
            G, _ = self.counted()
            for eps in (0.3, 0.5, 1.0):
                n_epsilon(G, LinearPhi(0.5), 1.0, eps)
        finally:
            gauges._default_grid.cache_clear()
        assert built == [()]


def _numpy_form():
    np = pytest.importorskip("numpy")
    return RealForm("numpy-float64", lambda a: np.float64(math.log(a)))


MAPPED_GAUGES = {
    # exp(800 - a) overflows below a ~ 90; the reference's cache needs a
    # hashable gauge, and the affine form's json_form is a dict
    "overflow": lambda: ExpOfFGauge(replace(affine_form(-1.0, 800.0),
                                            json_form=None)),
    "minus-inf": lambda: _opaque("minus-inf",
                                 lambda a: -math.inf if a < 1e-3 else math.log(a)),
    "nan": lambda: _opaque("nan", lambda a: math.nan if 1e-3 <= a < 1e-2 else math.log(a)),
    "int": lambda: _opaque("int", lambda a: round(math.log(a))),
    "int-past-float-range": lambda: _opaque(
        "int-past-float-range", lambda a: 10 ** 400 if a > 1e3 else round(math.log(a))),
    "numpy-float64": lambda: ExpOfFGauge(_numpy_form()),
    "tabulated": lambda: TabulatedGauge(((0.5, 0.1), (1.0, 0.9), (3.0, 2.0))),
    "stripped-overflow": lambda: Stripped(ExpOfFGauge(affine_form(-1.0, 800.0))),
    # a gauge other than exp-of-F whose values are ints: the helper floats them
    "stripped-int": lambda: Stripped(types.SimpleNamespace(eval=lambda a: 1 + round(a))),
}

# the dyadic points of the class check and a grid, past both float ends of exp
MAPPED_POINTS = [2.0 ** k for k in range(-79, 80)] + log_grid(per_decade=16)


def bits(xs):
    """Each value's type and IEEE bits: -0.0, 0.0 and NaN all count."""
    return [(type(x), struct.pack("<d", x)) for x in xs]


class TestMappedValues:
    """_values is float(G.eval(t)) at each point, bit for bit; an exp-of-F
    gauge takes F once per point and exp over the logs, with inf past the
    float range."""

    @pytest.mark.parametrize("make", MAPPED_GAUGES.values(), ids=MAPPED_GAUGES.keys())
    def test_values(self, make):
        G = make()
        assert bits(_values(G, MAPPED_POINTS)) == bits([float(G.eval(t)) for t in MAPPED_POINTS])

    def test_overflow_saturates(self):
        G = MAPPED_GAUGES["overflow"]()
        assert _values(G, [1.0, 1e3]) == [math.inf, math.exp(-200.0)]
        G = MAPPED_GAUGES["int-past-float-range"]()
        assert _values(G, [1.0, 1e4]) == [1.0, math.inf]

    @pytest.mark.parametrize("make", MAPPED_GAUGES.values(), ids=MAPPED_GAUGES.keys())
    def test_table(self, make):
        G, pts = make(), log_grid(per_decade=16)
        running_max, grid_min = _grid_table(G, pts)
        want_max, want_min = full_table(G, pts)
        assert bits(running_max) == bits(want_max)
        assert bits([grid_min]) == bits(want_min[:1])

    @pytest.mark.parametrize("make", MAPPED_GAUGES.values(), ids=MAPPED_GAUGES.keys())
    def test_thresholds(self, make):
        G = make()
        for grid in map(THRESHOLD_GRIDS.get, ("default", "density-16", "three-points")):
            assert outcome(epsilon0, G, grid) == outcome(top_down_epsilon0, G, grid)
        for phi, s, eps in itertools.product(CATALOG_PHIS, (1.0, 1.5), (1e-6, 0.37, 2.0)):
            want = outcome(full_table_n_epsilon, G, phi, s, eps)
            assert outcome(n_epsilon, G, phi, s, eps) == want, (phi, s, eps)

    @staticmethod
    def counted(value_at):
        """An exp-of-F gauge whose form returns value_at(k, a) on its k-th call."""
        calls = []

        def fn(a):
            calls.append(a)
            return value_at(len(calls) - 1, a)

        return ExpOfFGauge(RealForm("counted", fn)), calls

    def test_overflow_calls_f_once_per_point(self):
        G, calls = self.counted(lambda k, a: 800.0 - a)
        assert _values(G, MAPPED_POINTS)[0] == math.inf
        assert calls == MAPPED_POINTS

    @pytest.mark.parametrize("k", [0, 5, len(MAPPED_POINTS) - 1])
    def test_raising_form_stops_at_the_same_point(self, k):
        def value_at(i, a):
            if i == k:
                raise ZeroDivisionError(f"no value at {a!r}")
            return math.log(a)

        G, calls = self.counted(value_at)
        with pytest.raises(ZeroDivisionError) as got:
            _values(G, MAPPED_POINTS)
        assert len(calls) == k + 1
        G, calls = self.counted(value_at)
        with pytest.raises(ZeroDivisionError) as want:
            [G.eval(t) for t in MAPPED_POINTS]
        assert len(calls) == k + 1
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("k", [0, 5])
    def test_non_number_form(self, k):
        # the same TypeError as G.eval, once F has been called on every point
        G, calls = self.counted(lambda i, a: None if i == k else math.log(a))
        with pytest.raises(TypeError) as got:
            _values(G, MAPPED_POINTS)
        assert calls == MAPPED_POINTS
        G, calls = self.counted(lambda i, a: None if i == k else math.log(a))
        with pytest.raises(TypeError) as want:
            [G.eval(t) for t in MAPPED_POINTS]
        assert len(calls) == k + 1
        assert str(got.value) == str(want.value)

    def test_non_number_of_another_gauge_stops_at_its_point(self):
        calls = []

        def value(a):
            calls.append(a)
            return None if len(calls) == 6 else a

        with pytest.raises(TypeError):
            _values(Stripped(types.SimpleNamespace(eval=value)), MAPPED_POINTS)
        assert calls == MAPPED_POINTS[:6]


class TestFiniteParameters:
    """Family parameters are finite: inf and NaN are refused at construction
    with the parameter named, where an infinite one made phi zero or a
    gauge infinite everywhere."""

    NON_FINITE = [math.inf, -math.inf, math.nan]

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_power_gauge(self, bad):
        with pytest.raises(ValueError, match="^power gauge needs a finite q > 0$"):
            PowerGauge(bad)

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_affine_plus_gauge(self, bad):
        with pytest.raises(ValueError, match="^affine-plus gauge needs a finite c > 0$"):
            AffinePlusGauge(bad)

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_hyperbolic_phi(self, bad):
        with pytest.raises(ValueError,
                           match="^hyperbolic comparison function needs a finite a > 0$"):
            HyperbolicPhi(bad)

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_shifted_phi(self, bad):
        with pytest.raises(ValueError, match="^shift needs a finite tau > 0$"):
            ShiftedPhi(bad)

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_shift_form(self, bad):
        with pytest.raises(ValueError, match="^shift form needs a finite tau$"):
            gauges.shift_form(bad)

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_affine_form(self, bad):
        with pytest.raises(ValueError, match="^affine form needs a finite a != 0$"):
            affine_form(bad, 0.5)
        with pytest.raises(ValueError, match="^affine form needs a finite b$"):
            affine_form(2.0, bad)

    @pytest.mark.parametrize("per_decade", [0, -3])
    def test_log_grid_needs_a_point_per_decade(self, per_decade):
        # these gave the one-point grid [1e9] to certify on
        with pytest.raises(ValueError,
                           match=f"^per_decade must be at least 1, got {per_decade}$"):
            log_grid(per_decade=per_decade)

    def test_finite_parameters_still_build(self):
        assert PowerGauge(1e300).q == 1e300 and AffinePlusGauge(1e-300).c == 1e-300
        assert HyperbolicPhi(1e300).a == 1e300 and ShiftedPhi(700.0).tau == 700.0
        assert gauges.shift_form(-2.5)(1.0) == 3.5 and affine_form(-1e300, 1e300)(1.0) == 0.0


class TestJsonForms:
    def test_shifted_phi_keeps_its_base(self):
        doc = {"family": "shifted", "tau": 0.7, "base": {"family": "power", "q": 2.0}}
        assert phi_from_json(doc).describe() == doc

    def test_phi_round_trip(self):
        for phi in CATALOG_PHIS + [ShiftedPhi(0.7), DIAGONAL_PHI]:
            again = phi_from_json(phi.describe())
            assert again.describe() == phi.describe()

    def test_gauge_round_trip(self):
        from gphi.gauges import affine_form
        for gauge in [IdentityGauge(), PowerGauge(2.0), AffinePlusGauge(1.0),
                      ExpOfFGauge(LN), ExpOfFGauge(affine_form(2.0, 0.5)),
                      TabulatedGauge(((0.5, 0.1), (1.0, 0.9)))]:
            again = gauge_from_json(gauge.describe())
            assert again.describe() == gauge.describe()
            assert again.eval(0.75) == gauge.eval(0.75)
