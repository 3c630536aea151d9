import dataclasses
import functools
import itertools
import json
import math
from bisect import bisect_right

import pytest
from hypothesis import given, strategies as st

from gphi import gauges
from gphi.contraction import to_czerwik_form
from gphi.errors import (
    BudgetExhausted,
    EmptyGrid,
    NonpositiveArgument,
    NotStrictlyIncreasing,
    NoValidEpsilon,
)
from gphi.gauges import (
    AffinePlusGauge,
    ExpOfFGauge,
    HyperbolicPhi,
    IDENTITY_FORM,
    IdentityGauge,
    LinearPhi,
    LN,
    PowerGauge,
    RealForm,
    ShiftedPhi,
    TabulatedGauge,
    TabulatedPhi,
    affine_form,
    certify_gauge_class,
    certify_phi,
    check_phi_strict_decrease,
    classify_increasing_gauge,
    epsilon0,
    gauge_eval,
    gauge_from_json,
    log_grid,
    n_epsilon,
    phi_eval,
    phi_from_json,
    phi_iterate,
    _Extrema,
    _grid_points,
)
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

    @pytest.mark.parametrize("table", [
        (), ((math.nan, 1.0),), ((math.nan, 1.0), (1.0, 2.0)), ((0.5, 1.0), (math.nan, 2.0)),
        ((1.0, 1.0), (1.0, 2.0)), ((1.0, 1.0), (0.5, 2.0)),
        ((0.5, math.nan),), ((0.5, 1.0), (1.0, math.nan)), ((0.5, 1.0), (1.0, 0.0))])
    @pytest.mark.parametrize("kind", [TabulatedPhi, TabulatedGauge])
    def test_tables_refused(self, kind, table):
        # breakpoints strictly increasing and not NaN, values positive
        with pytest.raises(ValueError):
            kind(table)

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
        cert = certify_phi(LinearPhi(0.5), grid=[0.1, 1.0, 10.0], budget=100, tol=1e-9)
        assert cert.verdict == "member"

    def test_identity_diagonal_is_non_member(self):
        cert = certify_phi(DIAGONAL_PHI, grid=[0.25, 1.0, 4.0])
        assert cert.verdict == "non-member"
        assert cert.witness["kind"] == "stagnation"

    def test_hyperbolic_member_within_large_budget(self):
        # oracle: closed form phi^n(t) = t/(1+n t) drops below 1e-5 at n = 1e5
        assert 1.0 / (1.0 + 1e5) < 1e-5
        cert = certify_phi(HyperbolicPhi(1.0), grid=[1.0], budget=10 ** 6, tol=1e-5)
        assert cert.verdict == "member"

    def test_decreasing_table_fails_monotonicity(self):
        phi = TabulatedPhi(((1.0, 0.9), (2.0, 0.5)))
        cert = certify_phi(phi, grid=[1.0, 2.0])
        assert cert.verdict == "non-member"
        assert cert.witness["kind"] == "monotonicity"

    def test_tabulated_decay_certified_by_iteration(self):
        phi = TabulatedPhi(((1e-10, 1e-10 / 2), (1.0, 1e-10)))
        cert = certify_phi(phi, grid=[0.5, 1.0], tol=1e-9)
        assert cert.verdict == "member"

    def test_slow_tabulated_inconclusive(self):
        # positive plateau above tol: iterates stall there
        phi = TabulatedPhi(((0.5, 0.25), (1.0, 0.5)))
        cert = certify_phi(phi, grid=[1.0], budget=50, tol=1e-9)
        assert cert.verdict in ("non-member", "inconclusive")
        assert cert.witness is not None

    def test_empty_grid(self):
        with pytest.raises(EmptyGrid):
            certify_phi(LinearPhi(0.5), grid=[])


class TestStrictDecrease:
    @pytest.mark.parametrize("phi", CATALOG_PHIS, ids=str)
    def test_members_decrease_everywhere(self, phi):
        ok, witnesses = check_phi_strict_decrease(phi, log_grid(-6, 6))
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
        doc = dataclasses.asdict(certify_gauge_class(G, grid))
        running_max, running_min = _Extrema(G, _grid_points(grid, "table")).table()
        doc["evidence"]["inf_grid_estimate"] = running_min[0]
        doc["evidence"]["sup_grid_estimate"] = running_max[-1]
        return json.dumps(doc, sort_keys=True)

    def check(self, G, grid):
        assert G.strictly_increasing()
        got = json.dumps(dataclasses.asdict(certify_gauge_class(G, grid)), sort_keys=True)
        assert got == self.table_certificate(G, grid)

    # ids from describe(): str() of a gauge over a lambda form holds its address
    @pytest.mark.parametrize("gauge", DEFAULT_GAUGE_CATALOG + G1_GAUGE_CATALOG,
                             ids=lambda G: "-".join(map(str, G.describe().values())))
    def test_catalog_on_default_grid(self, gauge):
        self.check(gauge, None)

    grids = st.builds(log_grid, st.integers(-12, 0), st.integers(1, 12),
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
    same result."""

    @staticmethod
    def sorted_distinct(grid):
        return [repr(t) for t in sorted(set(float(t) for t in grid))]

    @given(st.lists(st.one_of(st.floats(allow_nan=False), st.integers(-5, 5)),
                    min_size=1))
    def test_any_grid(self, grid):
        assert [repr(t) for t in _grid_points(grid, "t")] == self.sorted_distinct(grid)

    @given(st.lists(st.floats(allow_nan=False), min_size=1, unique=True))
    def test_increasing_grid(self, grid):
        grid = sorted(grid)
        assert [repr(t) for t in _grid_points(grid, "t")] == self.sorted_distinct(grid)

    def test_signed_zeros_and_default(self):
        assert [repr(t) for t in _grid_points([-0.0, 0.0, 1.0], "t")] == \
            self.sorted_distinct([-0.0, 0.0, 1.0])
        assert _grid_points(None, "t") == log_grid()

    def test_returns_a_new_list(self):
        grid = [1.0, 2.0, 3.0]
        pts = _grid_points(grid, "t")
        assert pts == grid and pts is not grid


class TestClassifyIncreasingGauge:
    def test_affine_plus_is_g1(self):
        assert classify_increasing_gauge(AffinePlusGauge(1.0)) == "G1"

    def test_identity_is_g2(self):
        assert classify_increasing_gauge(IdentityGauge()) == "G2"

    def test_power_three_is_g2(self):
        assert classify_increasing_gauge(PowerGauge(3.0)) == "G2"

    def test_step_gauge_rejected(self):
        with pytest.raises(NotStrictlyIncreasing) as err:
            classify_increasing_gauge(TabulatedGauge(((0.5, 0.1), (1.0, 0.9))))
        assert err.value.witness is not None

    def test_tie_at_inf_is_no_witness(self):
        # exp(a) saturates to inf from a ~ 710 on; the gauge still increases
        G = ExpOfFGauge(IDENTITY_FORM)
        assert G.eval(710.5) == G.eval(713.7) == math.inf
        assert classify_increasing_gauge(G) == "G1"

    def test_shift_exponent_is_g1(self):
        # G(a) = exp(a - 0.5) has infimum exp(-0.5) over (0, inf).  The shift
        # form's infimum over all of R, -inf, once made it G2, with a G1
        # "witness" whose values never fell below 0.6065
        G = gauge_from_json({"family": "exp_of_f", "f": {"shift": 0.5}})
        assert G.known_inf() == math.exp(-0.5)
        assert classify_increasing_gauge(G) == "G1"
        cert = certify_gauge_class(G)
        assert (cert.in_g1, cert.in_g2) == ("yes", "no")
        assert cert.evidence["inf_closed_form"] == math.exp(-0.5)
        assert "g1_witness" not in cert.evidence

    def test_drop_from_inf_is_a_witness(self):
        G = ExpOfFGauge(RealForm("peak", lambda a: 800.0 if a < 1.0 else a))
        with pytest.raises(NotStrictlyIncreasing):
            classify_increasing_gauge(G)

    def test_infimum_past_float_range_saturates(self):
        # exp(1000) overflows; the closed-form infimum saturates like eval
        G = ExpOfFGauge(affine_form(1.0, 1000.0))
        assert G.known_inf() == math.inf
        assert classify_increasing_gauge(G) == "G1"
        with pytest.raises(NonpositiveArgument):
            to_czerwik_form(G, LinearPhi(0.5))


class TestEpsilon0:
    def test_identity_unit_level(self):
        assert epsilon0(IdentityGauge(), level=1.0) == 1.0

    def test_power_two_unit_level(self):
        assert epsilon0(PowerGauge(2.0), level=1.0) == 1.0

    def test_power_two_quarter_level(self):
        # alpha^2 <= 1/4 exactly up to alpha = 1/2
        assert epsilon0(PowerGauge(2.0), grid=DYADIC_GRID, level=0.25) == 0.5

    def test_no_valid_epsilon(self):
        with pytest.raises(NoValidEpsilon):
            epsilon0(AffinePlusGauge(1.0), grid=DYADIC_GRID, level=0.5)

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
        assert epsilon0(G, log_grid(-9, 3)) == epsilon0(G) == 1.0
        assert n_epsilon(G, LinearPhi(0.5), 1.0, 0.5) == 81


class TestTabulatedRegions:
    STEP = TabulatedGauge(((0.5, 0.1), (1.0, 0.9)))

    def test_inf_from_includes_step_starting_at_right_end(self):
        # [1, 1] is the single point 1, where the second step takes over
        assert self.STEP.inf_from(1.0, 1.0) == 0.9
        assert self.STEP.inf_from(0.5, 1.0) == 0.1

    def test_epsilon0_on_grid_at_breakpoint(self):
        assert epsilon0(self.STEP, grid=[1.0]) == 1.0

    def test_sup_below_keeps_open_end(self):
        # (0, 1) stops short of the step at 1
        assert self.STEP.sup_below(1.0) == 0.1
        assert self.STEP.sup_below(1.5) == 0.9
        assert self.STEP.inf_above(1.0) == 0.9


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

    def inf_from(self, eps, hi):
        return None


class TestSampledPath:
    """Sampled answers agree with the closed-form twin or are more
    conservative."""

    @pytest.mark.parametrize("per_decade", [16, 32, 48])
    @pytest.mark.parametrize("twin", list(dict.fromkeys(DEFAULT_GAUGE_CATALOG + G1_GAUGE_CATALOG)),
                             ids=lambda G: json.dumps(G.describe()))
    def test_differential(self, twin, per_decade):
        grid = log_grid(per_decade=per_decade)
        opaque = Stripped(twin)
        got, want = certify_gauge_class(opaque, grid), certify_gauge_class(twin, grid)
        for a, b in ((got.in_g1, want.in_g1), (got.in_g2, want.in_g2)):
            assert {a, b} != {"yes", "no"}
        for level in (0.25, 1.0, 4.0):
            try:
                closed = epsilon0(twin, grid, level)
            except NoValidEpsilon:
                with pytest.raises(NoValidEpsilon):
                    epsilon0(opaque, grid, level)
                continue
            eps0 = epsilon0(opaque, grid, level)
            assert eps0 <= closed
            assert twin.sup_below(eps0) <= level
            # with s = 1 and phi(t) = t/2 the threshold eps0/4 can equal
            # phi^n(level) exactly, where the strict inequality is tight
            for phi in CATALOG_PHIS:
                n = n_epsilon(opaque, phi, 1.0, eps0 / 2.0, level=level)
                assert twin.inf_above(eps0 / 4.0) > phi_iterate(phi, level, n)

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
    """The sampled table's running max and min are numpy's accumulate,
    bit for bit: NaN propagates and a tie takes the later value, which
    decides the sign of a zero."""

    VALUES = [0.0, -0.0, 1.0, -0.0, 0.0, math.nan, 2.0, -0.0, math.inf, 3.0]

    @staticmethod
    def bits(xs):
        return [(math.copysign(1.0, x), x) if x == x else "nan" for x in xs]

    @pytest.mark.parametrize("values", [VALUES, VALUES[:5], VALUES[::-1], VALUES[6:]])
    def test_matches_numpy_accumulate(self, values):
        np = pytest.importorskip("numpy")
        G = Stripped(IdentityGauge())
        G.eval = lambda t: values[int(t)]
        running_max, running_min = _Extrema(G, [float(i) for i in range(len(values))]).table()
        vals = np.array(values, dtype=float)
        assert self.bits(running_max) == self.bits(np.maximum.accumulate(vals).tolist())
        assert self.bits(running_min) == self.bits(
            np.minimum.accumulate(vals[::-1])[::-1].tolist())


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

    @pytest.mark.parametrize("gauge", [IdentityGauge(), PowerGauge(2.0)], ids=str)
    @pytest.mark.parametrize("phi", CATALOG_PHIS, ids=str)
    def test_monotone_in_eps(self, gauge, phi):
        eps_values = [1.0, 0.5, 0.25, 0.125, 1e-2]
        ns = [n_epsilon(gauge, phi, 1.5, e, budget=10 ** 6) for e in eps_values]
        assert ns == sorted(ns), "shrinking eps must not shrink n"

    def test_lemma_implication_on_iterates(self):
        # the returned n really witnesses: G below level implies phi^n below the inf
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


def top_down_epsilon0(G, grid, level):
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

    def inf_from_first():
        v = G.inf_from(pts[0], pts[-1])
        return running(1)[0] if v is None else v

    if G.strictly_increasing() or inf_from_first() > 0.0:
        for i in range(len(pts) - 1, -1, -1):
            if sup_below(i) <= level:
                return pts[i]
    raise NoValidEpsilon(
        f"no grid value has sup below {level}; gauge cannot be in G2")


@functools.cache
def default_grid_table(G):
    return full_table(G, log_grid())


def full_table_n_epsilon(G, phi, s, eps, level, budget=10_000):
    """n_epsilon with the inf over (thr, inf) read off the whole default
    grid's table."""
    thr = eps / (2.0 * s)
    target = G.inf_above(thr)
    if target is None:
        running_min = default_grid_table(G)[1]
        j = bisect_right(log_grid(), thr)
        probes = [thr] + [thr * (1.0 + 2.0 ** -k) for k in range(0, 40)]
        target = min(running_min[j:j + 1] + [G.eval(t) for t in probes])
    u = level
    for n in range(1, budget + 1):
        u = phi.eval(u)
        if target > u:
            return n
    raise BudgetExhausted(
        f"phi^n({level}) did not drop below {target} within {budget} iterations")


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

THRESHOLD_GRIDS = {
    "default": None,
    **{f"density-{d}": log_grid(per_decade=d) for d in (4, 8, 16, 32, 64, 128)},
    "three-points": [0.5, 1.0, 2.0],
}

THRESHOLD_LEVELS = (0.3, 1.0, 2.5)


def _gauge_id(G):
    return G.f.name if isinstance(G, ExpOfFGauge) else json.dumps(G.describe())


class TestThresholdScansPinned:
    """epsilon0 and n_epsilon evaluate G only where their answer can depend
    on it; they must return what the exhaustive scans return, or raise the
    same error with the same message."""

    @pytest.mark.parametrize("grid", THRESHOLD_GRIDS.values(), ids=THRESHOLD_GRIDS.keys())
    @pytest.mark.parametrize("gauge", THRESHOLD_GAUGES, ids=_gauge_id)
    def test_epsilon0(self, gauge, grid):
        for level in THRESHOLD_LEVELS:
            want = outcome(top_down_epsilon0, gauge, grid, level)
            assert outcome(epsilon0, gauge, grid, level) == want, level

    @pytest.mark.parametrize("gauge", THRESHOLD_GAUGES, ids=_gauge_id)
    def test_n_epsilon(self, gauge):
        # with s = 1, eps = 2 puts the threshold on the grid point 1 and
        # eps = 1.998 puts it just below, so that 1 is the first point above
        for phi, s, eps, level in itertools.product(
                CATALOG_PHIS, (1.0, 1.5), (1e-6, 0.37, 1.998, 2.0, 5.0), THRESHOLD_LEVELS):
            want = outcome(full_table_n_epsilon, gauge, phi, s, eps, level)
            got = outcome(n_epsilon, gauge, phi, s, eps, level)
            assert got == want, (phi, s, eps, level)


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

    def test_finite_parameters_still_build(self):
        assert PowerGauge(1e300).q == 1e300 and AffinePlusGauge(1e-300).c == 1e-300
        assert HyperbolicPhi(1e300).a == 1e300 and ShiftedPhi(700.0).tau == 700.0
        assert gauges.shift_form(-2.5)(1.0) == 3.5 and affine_form(-1e300, 1e300)(1.0) == 0.0


class TestJsonForms:
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
