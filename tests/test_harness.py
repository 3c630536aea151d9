import json
from fractions import Fraction
from random import Random

import pytest

import gphi.harness as harness
from gphi.contraction import FiniteMap, certify_condition_G
from gphi.errors import ConfigInvalid
from gphi.gauges import AffinePlusGauge, IdentityGauge, LinearPhi, PowerGauge, TabulatedPhi
from gphi.harness import (
    BROKEN_PHI,
    DEFAULT_GAUGE_CATALOG,
    DEFAULT_PHI_CATALOG,
    FuzzConfig,
    FuzzReport,
    G1_GAUGE_CATALOG,
    _check_theorem,
    _first_certified,
    _prepare_catalogs,
    fuzz,
    generate_operator,
    generate_space,
)
from gphi.spaces import MAX_FINITE_POINTS, validate_finite_space


def brute_force_min_constant(matrix):
    n = len(matrix)
    best = Fraction(1)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if len({i, j, k}) < 3:
                    continue
                denom = Fraction(matrix[i][k]) + Fraction(matrix[k][j])
                if denom > 0:
                    best = max(best, Fraction(matrix[i][j]) / denom)
    return best


def uniform_map(seed, n: int) -> FiniteMap:
    """A self-map of n points drawn uniformly from ``Random(seed)``: the base
    map that ``generate_operator`` draws first and then pulls to its anchor."""
    rng = Random(seed)
    return FiniteMap(tuple(rng.randrange(n) for _ in range(n)))


class TestGenerateSpace:
    def test_deterministic(self):
        assert generate_space(123, 5) == generate_space(123, 5)

    def test_single_point(self):
        space = generate_space(0, 1)
        assert space.n == 1 and space.s == 1.0

    def test_entries_in_range(self):
        space = generate_space(7, 6, scale=2.0)
        for i in range(6):
            for j in range(6):
                if i != j:
                    assert 0.0 < space.dist[i][j] <= 2.0

    def test_constant_matches_independent_scan(self):
        space = generate_space(99, 5)
        oracle = brute_force_min_constant([list(r) for r in space.dist])
        assert space.s >= 1.0
        assert abs(space.s - float(oracle)) <= 4e-16 * float(oracle)


class TestGenerateOperator:
    def test_deterministic(self):
        space = generate_space(5, 6)
        a = generate_operator(11, space)
        b = generate_operator(11, space)
        assert a == b

    def test_single_point_space(self):
        space = generate_space(0, 1)
        assert generate_operator(0, space).mapping == (0,)

    def test_bias_raises_certification_rate(self):
        space = generate_space(42, 5)

        def rate(bias):
            hits = 0
            for k in range(1000):
                seed = f"bias:{bias}:{k}"
                T = generate_operator(seed, space) if bias else uniform_map(seed, space.n)
                cert = certify_condition_G(space, T, IdentityGauge(), LinearPhi(0.9))
                hits += cert.verdict == "certified"
            return hits

        assert rate(True) > rate(False)


class TestFuzz:
    def test_zero_trials_rejected(self):
        with pytest.raises(ConfigInvalid):
            fuzz(FuzzConfig(trials=0))

    def test_one_point_spaces_rejected(self):
        with pytest.raises(ConfigInvalid):
            fuzz(FuzzConfig(trials=10, max_points=1))

    def test_too_many_points_rejected_before_any_trial(self):
        # a few trials may draw no space past the limit; the config is still bad
        with pytest.raises(ConfigInvalid, match="max_points"):
            fuzz(FuzzConfig(trials=3, max_points=MAX_FINITE_POINTS + 44))

    def test_numpy_integer_counts_report_as_ints(self):
        # the report records the counts operator.index gave, which JSON encodes
        import numpy as np
        counted = fuzz(FuzzConfig(seed=3, trials=np.int64(12), max_points=np.int32(8)))
        assert counted.to_json_str() == fuzz(FuzzConfig(seed=3, trials=12)).to_json_str()

    @pytest.mark.parametrize("scale", [0.0, -1.0, float("nan"), float("inf")])
    def test_scale_not_positive_and_finite_rejected(self, scale):
        with pytest.raises(ConfigInvalid, match="^scale must be positive and finite$"):
            fuzz(FuzzConfig(trials=3, scale=scale))

    @pytest.mark.parametrize("scale", ["nan", "inf"])
    def test_non_finite_scale_exits_one_as_config_error(self, scale, capsys):
        from gphi.cli import run_cli
        assert run_cli(["fuzz", "--trials", "3", "--scale", scale]) == 1
        err = capsys.readouterr().err
        assert "ConfigInvalid" in err and "NonFiniteEntry" not in err

    def test_bogus_phi_catalog_rejected(self):
        with pytest.raises(ConfigInvalid):
            fuzz(FuzzConfig(trials=5, phi_catalog=(BROKEN_PHI,)))

    def test_bogus_gauge_catalog_rejected(self):
        from gphi.gauges import ExpOfFGauge, affine_form
        # exp(-a) vanishes at infinity and has zero infimum: in neither class
        bad = ExpOfFGauge(affine_form(-1.0, 0.0))
        with pytest.raises(ConfigInvalid):
            fuzz(FuzzConfig(trials=5, gauge_catalog=(bad,)))

    def test_stagnating_phi_catalog_rejected(self):
        bad = TabulatedPhi(((1.0, 0.5), (2.0, 1.9)))   # phi(2) stagnates at 1.9
        with pytest.raises(ConfigInvalid):
            fuzz(FuzzConfig(trials=5, phi_catalog=(bad,)))

    @pytest.fixture
    def certified(self, monkeypatch):
        """Every gauge and comparison function that the harness certifies."""
        seen = []
        for name in ("certify_gauge_class", "certify_phi"):
            real = getattr(harness, name)
            monkeypatch.setattr(harness, name, lambda f, *args, real=real, **kwargs:
                                seen.append(f) or real(f, *args, **kwargs))
        return seen

    def test_catalog_certified_once_across_calls(self, certified):
        # objects that no other test holds, so nothing is kept for them yet
        gauges, phis = (PowerGauge(3.0), AffinePlusGauge(2.0)), (LinearPhi(0.75),)
        config = FuzzConfig(seed=5, trials=3, gauge_catalog=gauges, phi_catalog=phis)
        assert fuzz(config).to_json_str() == fuzz(config).to_json_str()
        assert list(map(id, certified)) == list(map(id, gauges + phis))

    def test_unhashable_catalog_certified_on_every_call(self, certified):
        gauges = [IdentityGauge()]
        config = FuzzConfig(seed=5, trials=3, gauge_catalog=gauges)
        assert fuzz(config).to_json_str() == fuzz(config).to_json_str()
        assert sum(G is gauges[0] for G in certified) == 2

    def test_bad_catalog_rejected_on_every_call(self, certified):
        bad = TabulatedPhi(((1.0, 0.5), (2.0, 1.9)))   # phi(2) stagnates at 1.9
        config = FuzzConfig(trials=5, phi_catalog=(bad,))
        for _ in range(2):
            with pytest.raises(ConfigInvalid):
                fuzz(config)
        assert sum(phi is bad for phi in certified) == 2

    def test_equal_catalog_describes_its_own_gauges(self):
        # PowerGauge(2) == PowerGauge(2.0), but the report prints q as given
        for q in (2, 2.0, 2):
            text = fuzz(FuzzConfig(trials=1, gauge_catalog=(PowerGauge(q),))).to_json_str()
            assert f'"q": {q!r}\n' in text

    def test_small_run_holds(self):
        rep = fuzz(FuzzConfig(seed=3, trials=60))
        assert rep.violations == []
        assert rep.trials_run == 60
        assert rep.certified_count == rep.theorem_holds_count
        assert rep.certified_count + rep.uncertified_count == 60

    def test_report_deterministic(self):
        a = fuzz(FuzzConfig(seed=42, trials=50)).to_json_str()
        b = fuzz(FuzzConfig(seed=42, trials=50)).to_json_str()
        assert a == b

    def test_report_json_parses(self):
        rep = fuzz(FuzzConfig(seed=1, trials=20))
        doc = json.loads(rep.to_json_str())
        assert doc["trials_run"] == 20
        assert set(doc["lemma_counts"]) == {
            "unique_fixed_point", "orbit_convergence", "g1_termination",
            "n_epsilon", "m_epsilon", "invariant_ball", "step_chaining",
            "cauchy_bound"}

    def test_drop_contraction_detected_everywhere(self):
        rep = fuzz(FuzzConfig(seed=9, trials=40, break_mode="drop-contraction"))
        assert rep.expected_break_count == 40
        assert rep.certified_count == 0
        assert rep.violations == []

    def test_drop_phi_routes_to_cert_failure(self):
        rep = fuzz(FuzzConfig(seed=9, trials=40, break_mode="drop-phi"))
        assert rep.expected_break_count == 40
        assert rep.certified_count == 0
        assert rep.theorem_holds_count == 0
        assert rep.violations == []

    def test_g1_catalog_exercises_termination_branch(self):
        rep = fuzz(FuzzConfig(seed=5, trials=80, gauge_catalog=G1_GAUGE_CATALOG))
        assert rep.g1_instances > 0
        assert rep.lemma_counts["g1_termination"]["fail"] == 0
        assert rep.violations == []

    def test_default_catalogs_cover_both_classes(self):
        from gphi.gauges import certify_gauge_class
        verdicts = {g.describe()["family"]: certify_gauge_class(g)
                    for g in DEFAULT_GAUGE_CATALOG}
        assert any(c.in_g1 == "yes" for c in verdicts.values())
        assert any(c.in_g2 == "yes" for c in verdicts.values())
        assert len(DEFAULT_PHI_CATALOG) == 3


def dyadic_chain(rng, n):
    """The chain d(i, j) = |2^-i - 2^-j|, scaled by a power of two and
    relabelled at random, under the halving shift i -> min(i + 1, n - 1).
    Halving commutes with float rounding, so G = id and phi = t/2 certify
    it exactly; its orbits take up to n - 1 steps, and their late steps
    are far below 1e-10."""
    scale = 2.0 ** rng.randint(-8, 8)
    x = [scale * 2.0 ** -i for i in range(n)]
    label = list(range(n))
    rng.shuffle(label)
    dist = [[0.0] * n for _ in range(n)]
    mapping = [0] * n
    for i in range(n):
        row = dist[label[i]]
        for j in range(n):
            row[label[j]] = abs(x[i] - x[j])
        mapping[label[i]] = label[min(i + 1, n - 1)]
    return validate_finite_space(dist), FiniteMap(tuple(mapping))


class TestCertifiedChains:
    """Every lemma holds on a certified chain: the harness runs each orbit
    to its exact fixed point, however small its steps become."""

    # MAX_FINITE_POINTS is the longest path a trial can hold
    @pytest.mark.parametrize("n", [32, 128, MAX_FINITE_POINTS])
    def test_theorem_holds(self, n):
        space, T = dyadic_chain(Random(n), n)
        gauges, phis = _prepare_catalogs(FuzzConfig(
            gauge_catalog=(IdentityGauge(),), phi_catalog=(LinearPhi(0.5),)))
        entry, phi = _first_certified(space, T, gauges, phis)
        report = FuzzReport(config={})
        assert _check_theorem(report, 0, space, T, entry, phi)
        assert report.violations == []
        assert all(c["fail"] == 0 for c in report.lemma_counts.values())
        assert report.lemma_counts["orbit_convergence"]["pass"] == n
