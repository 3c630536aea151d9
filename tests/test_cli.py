import json
import math
import re

import pytest

from gphi.cli import run_cli

THREE_POINT_INSTANCE = {
    "space": {"dist": [[0.0, 1.0, 2.0], [1.0, 0.0, 4.0], [2.0, 4.0, 0.0]]},
    "operator": {"map": [0, 0, 1]},
    "G": {"family": "identity"},
    "phi": {"family": "linear", "c": 0.5},
}

IDENTITY_INSTANCE = {
    "space": {"dist": [[0.0, 1.0, 2.0], [1.0, 0.0, 4.0], [2.0, 4.0, 0.0]]},
    "operator": {"map": [0, 1, 2]},
    "G": {"family": "identity"},
    "phi": {"family": "linear", "c": 0.5},
}

# phi leaves slack above the true contraction ratio 1/2: the affine offset
# makes image distances inexact at the ulp level, and certification is strict
ANALYTIC_INSTANCE = {
    "space": {"lo": 0.0, "hi": 1.0, "p": 1.0},
    "operator": {"affine": {"a": 0.5, "b": 0.25}},
    "G": {"family": "identity"},
    "phi": {"family": "linear", "c": 0.6},
}


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def write(tmp_path, name, doc):
    """Write ``doc`` as JSON, or as it is if it is already text."""
    path = tmp_path / name
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    return str(path)


class TestCertify:
    def test_certified_exits_zero(self, tmp_path, capsys):
        path = write(tmp_path, "inst.json", THREE_POINT_INSTANCE)
        assert run_cli(["certify", path]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdict"] == "certified"
        assert doc["checked_pairs"] == 3

    def test_violated_exits_two(self, tmp_path, capsys):
        path = write(tmp_path, "inst.json", IDENTITY_INSTANCE)
        assert run_cli(["certify", path]) == 2
        doc = json.loads(capsys.readouterr().out)
        assert doc["violation_witness"]["x"] == 0
        assert doc["violation_witness"]["y"] == 1

    def test_analytic_inconclusive_exits_three(self, tmp_path, capsys):
        path = write(tmp_path, "inst.json", ANALYTIC_INSTANCE)
        assert run_cli(["certify", path]) == 3
        doc = json.loads(capsys.readouterr().out)
        assert doc["note"] == "certified-on-sample"

    def test_malformed_file_exits_one(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert run_cli(["certify", str(path)]) == 1
        assert "error" in capsys.readouterr().err

    def test_missing_file_exits_one(self, capsys):
        assert run_cli(["certify", "/nonexistent/instance.json"]) == 1
        assert capsys.readouterr().err

    @pytest.mark.parametrize("samples", ["0", "-5"])
    def test_nonpositive_samples_exit_one(self, tmp_path, capsys, samples):
        path = write(tmp_path, "inst.json", ANALYTIC_INSTANCE)
        assert run_cli(["certify", path, "--samples", samples]) == 1
        out = capsys.readouterr()
        assert out.out == "" and "samples must be at least 1" in out.err

    def test_bad_schema_exits_one(self, tmp_path, capsys):
        path = write(tmp_path, "inst.json", {"space": {"lo": 0, "hi": 1, "p": 1}})
        assert run_cli(["certify", path]) == 1
        assert capsys.readouterr().err

    def test_witness_past_float_range_is_null(self, tmp_path, capsys):
        # G = exp(identity) saturates at d(T0, T1) = 800: printed as Infinity
        inst = {"space": {"dist": [[0, 1, 800], [1, 0, 800.5], [800, 800.5, 0]]},
                "operator": {"map": [0, 2, 0]}, "G": {"family": "exp_of_f", "f": "identity"},
                "phi": {"family": "linear", "c": 0.5}}
        assert run_cli(["certify", write(tmp_path, "inst.json", inst)]) == 2
        doc = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
        w = doc["violation_witness"]
        assert (w["x"], w["y"], w["d_txty"], w["g_of_dt"]) == (0, 1, 800.0, None)

    def test_infinite_table_value_exits_one(self, tmp_path, capsys):
        # exited 2 with Infinity inside the certificate's provenance
        inst = dict(THREE_POINT_INSTANCE, G={
            "family": "tabulated", "points": [[0.5, math.inf], [1.0, 2.0]]})
        assert run_cli(["certify", write(tmp_path, "inst.json", inst)]) == 1
        out = capsys.readouterr()
        assert out.out == "" and out.err == (
            "error: ValueError: breakpoints and values must be finite\n")


# every instance number must be a JSON number within the float range and
# every map entry an integer: none of these is parsed from a string, read
# from a boolean or null, or rounded
COERCED = {
    "dist-string": dict(THREE_POINT_INSTANCE, space={"dist": [[0, "1"], ["1", 0]]},
                        operator={"map": [0, 0]}),
    "dist-true": dict(THREE_POINT_INSTANCE, space={"dist": [[0, True], [True, 0]]},
                      operator={"map": [0, 0]}),
    "dist-string-20": dict(THREE_POINT_INSTANCE, operator={"map": [0] * 20}, space={"dist": [
        [abs(i - j) if {i, j} != {0, 1} else "1" for j in range(20)] for i in range(20)]}),
    "s-string": dict(THREE_POINT_INSTANCE, space={**THREE_POINT_INSTANCE["space"], "s": "2"}),
    "map-fraction": dict(THREE_POINT_INSTANCE, operator={"map": [0.9, 0, 1]}),
    "map-string": dict(THREE_POINT_INSTANCE, operator={"map": [0, "0", 1]}),
    "map-true": dict(THREE_POINT_INSTANCE, operator={"map": [0, 0, True]}),
    "map-null": dict(THREE_POINT_INSTANCE, operator={"map": [0, 0, None]}),
    "lo-string": dict(ANALYTIC_INSTANCE, space={"lo": "0", "hi": 1.0, "p": 1.0}),
    "p-true": dict(ANALYTIC_INSTANCE, space={"lo": 0.0, "hi": 1.0, "p": True}),
    "affine-string": dict(ANALYTIC_INSTANCE, operator={"affine": {"a": "0.5", "b": 0.25}}),
    "tabulated-map-string": dict(ANALYTIC_INSTANCE,
                                 operator={"tabulated": [[0.0, "0.1"], [0.5, 0.2]]}),
    "phi-string": dict(THREE_POINT_INSTANCE, phi={"family": "linear", "c": "0.5"}),
    "phi-true": dict(THREE_POINT_INSTANCE, phi={"family": "hyperbolic", "a": True}),
    "phi-tau-string": dict(THREE_POINT_INSTANCE, phi={"family": "shifted", "tau": "1"}),
    "phi-tabulated-string": dict(THREE_POINT_INSTANCE, phi={
        "family": "tabulated", "points": [[0.5, "0.25"], [1.0, 0.5]]}),
    "gauge-string": dict(THREE_POINT_INSTANCE, G={"family": "power", "q": "2"}),
    "gauge-true": dict(THREE_POINT_INSTANCE, G={"family": "affine_plus", "c": True}),
    "form-string": dict(THREE_POINT_INSTANCE, G={"family": "exp_of_f", "f": {"shift": "1"}}),
    "gauge-tabulated-string": dict(THREE_POINT_INSTANCE, G={
        "family": "tabulated", "points": [[0.5, "1"], [1.0, 2.0]]}),
    "phi-past-float-range": dict(THREE_POINT_INSTANCE,
                                 phi={"family": "linear", "c": 10 ** 400}),
}


# NaN fails every comparison, so checks written as `x < bound` let it pass
NAN_INSTANCES = {
    "gauge-breakpoint": dict(THREE_POINT_INSTANCE, G={
        "family": "tabulated", "points": [[math.nan, 1.0], [1.0, 2.0]]}),
    "gauge-value": dict(THREE_POINT_INSTANCE, G={
        "family": "tabulated", "points": [[1.0, math.nan]]}),
    "phi-breakpoint": dict(THREE_POINT_INSTANCE, phi={
        "family": "tabulated", "points": [[math.nan, 0.5]]}),
    "map-breakpoint": dict(ANALYTIC_INSTANCE, operator={
        "tabulated": [[0.0, 0.2], [math.nan, 0.8]]}),
    "map-value": dict(ANALYTIC_INSTANCE, operator={"tabulated": [[0.0, math.nan]]}),
    "declared-s": dict(THREE_POINT_INSTANCE, space={
        **THREE_POINT_INSTANCE["space"], "s": math.nan}),
}


class TestNanInstances:
    @pytest.mark.parametrize("name", sorted(NAN_INSTANCES))
    def test_certify_exits_one(self, tmp_path, capsys, name):
        assert run_cli(["certify", write(tmp_path, "inst.json", NAN_INSTANCES[name])]) == 1
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith("error: ")

    def test_solve_refuses_declared_nan_constant(self, tmp_path, capsys):
        # solve wrote "s": NaN, which is not JSON
        inst = dict(NAN_INSTANCES["declared-s"], G={"family": "affine_plus", "c": 1.0})
        assert run_cli(["solve", write(tmp_path, "inst.json", inst), "--x0", "2"]) == 1
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith(
            "error: ConstantTooSmall: declared constant nan below computed minimum ")

    def test_report_refuses_declared_nan_constant(self, tmp_path, capsys):
        # report printed "constant s = nan"
        trace = {"space": {"dist": [[0, 1], [1, 0]], "s": math.nan}, "x0": 0,
                 "orbit": [0, 0], "indices": [0, 1], "step_dists": [0.0],
                 "stop_reason": "exact-fixed-point", "fixed_point": 0, "k_stop": 0}
        assert run_cli(["report", write(tmp_path, "trace.json", trace)]) == 1
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith("error: ConstantTooSmall: ")


# an infinite or NaN family parameter; with a NaN shift, certify blamed phi
# and solve exited 0 with the gauge in neither class
NON_FINITE_PARAMETERS = {
    "exp-of-shift-nan": ({"family": "exp_of_f", "f": {"shift": math.nan}}, None,
                         "shift form needs a finite tau"),
    "exp-of-affine-inf": ({"family": "exp_of_f", "f": {"affine": {"a": 1.0, "b": math.inf}}},
                          None, "affine form needs a finite b"),
    "power-inf": ({"family": "power", "q": math.inf}, None, "power gauge needs a finite q > 0"),
    "hyperbolic-inf": (None, {"family": "hyperbolic", "a": math.inf},
                       "hyperbolic comparison function needs a finite a > 0"),
}


@pytest.mark.parametrize("command", [["certify"], ["solve", "--x0", "2"]])
@pytest.mark.parametrize("name", sorted(NON_FINITE_PARAMETERS))
def test_non_finite_parameters_exit_one(tmp_path, capsys, name, command):
    G, phi, message = NON_FINITE_PARAMETERS[name]
    inst = dict(THREE_POINT_INSTANCE, G=G or THREE_POINT_INSTANCE["G"],
                phi=phi or THREE_POINT_INSTANCE["phi"])
    path = write(tmp_path, "inst.json", inst)
    assert run_cli([command[0], path, *command[1:]]) == 1
    out = capsys.readouterr()
    assert out.out == "" and out.err == f"error: ValueError: {message}\n"


WIDE_INSTANCE = dict(ANALYTIC_INSTANCE, space={"lo": 0, "hi": 1e200, "p": 2},
                     operator={"affine": {"a": 0.5, "b": 0}})

# a number past the float range, in the input or in a distance computed from
# it: each raises OverflowError out of the command, with a message that
# names the entry, the points and p, or p
PAST_FLOAT_RANGE = {
    "matrix-entry-3": (["certify"], dict(THREE_POINT_INSTANCE, space={
        "dist": [[0, 1, 10 ** 400], [1, 0, 1], [10 ** 400, 1, 0]]}),
        r"matrix entry \(0, 2\) is beyond the float range"),
    "matrix-entry-20": (["certify"], dict(THREE_POINT_INSTANCE, operator={"map": [0] * 20},
                                          space={"dist": [
        [0 if i == j else 10 ** 400 if {i, j} == {0, 1} else 1 for j in range(20)]
        for i in range(20)]}), r"matrix entry \(0, 1\) is beyond the float range"),
    "interval-distance": (["certify"], WIDE_INSTANCE,
                          r"\|\S+e\+199 - \S+e\+199\| \*\* 2\.0 overflows the float range"),
    "interval-start": (["solve", "--x0", "1e200"], WIDE_INSTANCE,
                       r"\|1e\+200 - 5e\+199\| \*\* 2\.0 overflows the float range"),
    "interval-constant": (["solve", "--x0", "0.5"], dict(ANALYTIC_INSTANCE, space={
        "lo": 0, "hi": 1, "p": 2000}),
        r"2 \*\* \(p - 1\) overflows the float range at p = 2000\.0"),
    "trace-step": (["report"], {"space": {"lo": 0, "hi": 1e200, "p": 2}, "x0": 1e200,
                                "orbit": [1e200, 0.0], "indices": [0, 1], "step_dists": [1.0],
                                "stop_reason": "budget-exhausted", "fixed_point": None,
                                "k_stop": 1, "cycle": None},
                   r"\|1e\+200 - 0\.0\| \*\* 2\.0 overflows the float range"),
}


@pytest.mark.parametrize("name", sorted(PAST_FLOAT_RANGE))
def test_past_float_range_exits_one(tmp_path, capsys, name):
    command, doc, message = PAST_FLOAT_RANGE[name]
    path = write(tmp_path, "doc.json", doc)
    assert run_cli([command[0], path, *command[1:]]) == 1
    out = capsys.readouterr()
    assert out.out == "" and re.fullmatch(f"error: OverflowError: {message}\n", out.err)


# nested past the JSON parser's recursion limit
DEEP_JSON = "[" * 100_000 + "]" * 100_000
DEEP_JSON_MESSAGE = ("RecursionError: maximum recursion depth exceeded while decoding a "
                     "JSON array from a unicode string")

# refusals of documents that name no known family, form or space, that pair
# a map with the wrong kind of space, or that the JSON parser cannot read
REFUSALS = {
    "gauge-family": (["certify"], dict(THREE_POINT_INSTANCE, G={"family": "cubic"}),
                     "ValueError: unknown gauge family 'cubic'"),
    "phi-family": (["certify"], dict(THREE_POINT_INSTANCE, phi={"family": "cubic"}),
                   "ValueError: unknown comparison-function family 'cubic'"),
    "scalar-form": (["certify"], dict(THREE_POINT_INSTANCE,
                                      G={"family": "exp_of_f", "f": "sqrt"}),
                    "ValueError: unknown scalar form 'sqrt'"),
    "operator-form": (["certify"], dict(THREE_POINT_INSTANCE, operator={"shift": 1}),
                      "ValueError: operator document must contain 'map', 'affine' or "
                      "'tabulated'"),
    "space-form": (["certify"], dict(THREE_POINT_INSTANCE, space={"n": 3}),
                   "ValueError: space document must contain either 'dist' or 'lo'/'hi'/'p'"),
    "finite-map-on-interval": (["certify"], dict(ANALYTIC_INSTANCE, operator={"map": [0]}),
                               "ValueError: finite map needs a finite space"),
    "affine-map-on-finite": (["certify"], dict(THREE_POINT_INSTANCE,
                                               operator=ANALYTIC_INSTANCE["operator"]),
                             "ValueError: analytic maps need an interval space"),
    "tabulated-value-leaves": (["certify"], dict(ANALYTIC_INSTANCE,
                                                 operator={"tabulated": [[0.0, 2.0]]}),
                               "PointOutOfDomain: tabulated value 2.0 leaves the interval"),
    "interval-ends": (["certify"], dict(ANALYTIC_INSTANCE, space={"lo": 1, "hi": 1, "p": 1}),
                      "ValueError: interval endpoints must be finite with lo < hi"),
    "interval-exponent": (["certify"], dict(ANALYTIC_INSTANCE,
                                            space={"lo": 0, "hi": 1, "p": 0.5}),
                          "ValueError: exponent p must be >= 1"),
    "exhaustive-on-interval": (["certify", "--mode", "exhaustive"], ANALYTIC_INSTANCE,
                               "ValueError: exhaustive certification is not available on "
                               "interval spaces"),
    "report-without-trace": (["report"], {"foo": 1},
                             "ValueError: document carries no trace"),
    "deep-nesting": (["certify"], DEEP_JSON, DEEP_JSON_MESSAGE),
    "report-deep-nesting": (["report"], DEEP_JSON, DEEP_JSON_MESSAGE),
}


@pytest.mark.parametrize("name", sorted(REFUSALS))
def test_refused_documents_exit_one(tmp_path, capsys, name):
    command, doc, message = REFUSALS[name]
    path = write(tmp_path, "doc.json", doc)
    assert run_cli([command[0], path, *command[1:]]) == 1
    out = capsys.readouterr()
    assert out.out == "" and out.err == f"error: {message}\n"


class TestCoercedNumbers:
    @pytest.mark.parametrize("name", sorted(COERCED))
    def test_certify_exits_one(self, tmp_path, capsys, name):
        assert run_cli(["certify", write(tmp_path, "inst.json", COERCED[name])]) == 1
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith("error: ValueError: ")

    def test_solve_exits_one(self, tmp_path, capsys):
        doc = dict(COERCED["dist-string"], operator={"map": [0.9, "0"]})
        assert run_cli(["solve", write(tmp_path, "inst.json", doc), "--x0", "1"]) == 1
        assert capsys.readouterr().out == ""

    def test_integral_numbers_still_load(self, tmp_path, capsys):
        doc = dict(THREE_POINT_INSTANCE, space={"dist": [[0, 1, 2], [1, 0, 4], [2, 4, 0]]},
                   operator={"map": [0.0, 0, 1.0]})
        assert run_cli(["certify", write(tmp_path, "inst.json", doc)]) == 0
        assert json.loads(capsys.readouterr().out)["verdict"] == "certified"


# instance values of the wrong JSON shape, where loading indexes into them
MALFORMED = {
    "affine-number": dict(ANALYTIC_INSTANCE, operator={"affine": 5}),
    "gauge-number": dict(THREE_POINT_INSTANCE, G=5),
    "phi-list": dict(THREE_POINT_INSTANCE, phi=[0.5]),
    "top-level-list": [1, 2],
}


class TestMalformedShapes:
    @pytest.mark.parametrize("name", sorted(MALFORMED))
    @pytest.mark.parametrize("command", [["certify"], ["solve", "--x0", "0"]])
    def test_exits_one(self, tmp_path, capsys, name, command):
        path = write(tmp_path, "inst.json", MALFORMED[name])
        assert run_cli([command[0], path, *command[1:]]) == 1
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith("error: ValueError: malformed instance: ")

    def test_type_error_past_loading_surfaces(self, tmp_path, monkeypatch):
        # only loading turns a TypeError into bad input; one raised while
        # certifying is a fault of the program and must not be hidden
        def broken(*args, **kwargs):
            raise TypeError("certifier fault")

        monkeypatch.setattr("gphi.cli.certify_condition_G", broken)
        with pytest.raises(TypeError, match="certifier fault"):
            run_cli(["certify", write(tmp_path, "inst.json", THREE_POINT_INSTANCE)])


class TestSolve:
    def test_constant_overflow_exits_one(self, tmp_path, capsys):
        # d(0, 1) over its detour through 2 is 5e599: s would print as
        # Infinity, which is not JSON
        dist = [[0, 1e300, 1e-300], [1e300, 0, 1e-300], [1e-300, 1e-300, 0]]
        inst = dict(THREE_POINT_INSTANCE, space={"dist": dist})
        path = write(tmp_path, "inst.json", inst)
        assert run_cli(["solve", path, "--x0", "0"]) == 1
        out = capsys.readouterr()
        assert out.out == "" and "ConstantOverflow" in out.err

    def test_affine_reaches_half(self, tmp_path, capsys):
        path = write(tmp_path, "inst.json", ANALYTIC_INSTANCE)
        assert run_cli(["solve", path, "--x0", "0"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert abs(doc["trace"]["fixed_point"] - 0.5) < 1e-10
        assert doc["diagnostics"]["holds"] is True
        assert doc["eps"] == 0.5

    def test_finite_solve(self, tmp_path, capsys):
        path = write(tmp_path, "inst.json", THREE_POINT_INSTANCE)
        assert run_cli(["solve", path, "--x0", "2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["trace"]["fixed_point"] == 0
        assert doc["trace"]["orbit"] == [2, 1, 0, 0]

    @pytest.mark.parametrize("budget, error, n, m", [
        ("5", "BudgetExhausted: no block index within budget 5", None, None),
        ("8", None, 1, 8)])
    def test_budget_reaches_m_epsilon(self, tmp_path, capsys, budget, error, n, m):
        # x_k = 100 / 2^k and eps = 0.5: n = 1, and the first block step
        # below eps/(2s) = 0.25 is from x_8 to x_9, so m = 8; a budget below
        # it exhausts the m_epsilon scan
        inst = dict(ANALYTIC_INSTANCE, space={"lo": 0.0, "hi": 100.0, "p": 1.0},
                    operator={"affine": {"a": 0.5, "b": 0.0}},
                    phi={"family": "linear", "c": 0.1})
        path = write(tmp_path, "inst.json", inst)
        assert run_cli(["--budget", budget, "solve", path, "--x0", "100"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc.get("diagnostics_error") == error
        diag = doc.get("diagnostics", {})
        assert (diag.get("n"), diag.get("m")) == (n, m)

    def test_explicit_eps(self, tmp_path, capsys):
        path = write(tmp_path, "inst.json", ANALYTIC_INSTANCE)
        assert run_cli(["solve", path, "--x0", "0", "--eps", "0.25"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["eps"] == 0.25

    @pytest.mark.parametrize("eps", ["nan", "inf", "-inf"])
    def test_nonfinite_eps_exits_one(self, tmp_path, capsys, eps):
        # json.dumps would print NaN or Infinity, which is not JSON
        path = write(tmp_path, "inst.json", ANALYTIC_INSTANCE)
        assert run_cli(["solve", path, "--x0", "0", f"--eps={eps}"]) == 1
        out = capsys.readouterr()
        assert out.out == "" and "--eps must be finite" in out.err

    @pytest.mark.parametrize("eps", ["0", "-0.5"])
    def test_nonpositive_eps_reported_in_diagnostics(self, tmp_path, capsys, eps):
        path = write(tmp_path, "inst.json", ANALYTIC_INSTANCE)
        assert run_cli(["solve", path, "--x0", "0", f"--eps={eps}"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert "diagnostics" not in doc
        assert doc["diagnostics_error"].startswith("NonpositiveArgument")

    @pytest.mark.parametrize("s,eps", [(1e200, []), (None, ["--eps", "1e308"])],
                             ids=["declared-s", "eps"])
    def test_cauchy_bound_overflow_reported_in_diagnostics(self, tmp_path, capsys, s, eps):
        # 4*s^3*eps past the float range: s ** 3 raised OverflowError through
        # the CLI, and a finite s printed "bound": Infinity, which is not JSON
        space = dict(THREE_POINT_INSTANCE["space"], s=s)
        path = write(tmp_path, "inst.json", dict(THREE_POINT_INSTANCE, space=space))
        assert run_cli(["solve", path, "--x0", "2", *eps]) == 0
        doc = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
        assert "diagnostics" not in doc
        assert doc["diagnostics_error"].startswith(
            "ConstantOverflow: Cauchy bound 4*s^3*eps overflows: s = ")

    def test_steep_power_gauge(self, tmp_path, capsys):
        # a ** 20 overflows on the dyadic refinement of the gauge class check
        inst = dict(THREE_POINT_INSTANCE, G={"family": "power", "q": 20.0})
        path = write(tmp_path, "inst.json", inst)
        assert run_cli(["solve", path, "--x0", "2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["gauge_class"]["in_g2"] == "yes"
        assert doc["diagnostics"]["holds"] is True

    def test_gauge_infimum_past_float_range(self, tmp_path, capsys):
        # the closed-form infimum exp(1000) saturates instead of raising, and
        # is written as null, not as Infinity
        G = {"family": "exp_of_f", "f": {"affine": {"a": 1.0, "b": 1000.0}}}
        path = write(tmp_path, "inst.json", dict(THREE_POINT_INSTANCE, G=G))
        assert run_cli(["solve", path, "--x0", "2"]) == 0
        out = capsys.readouterr().out
        cls = json.loads(out, parse_constant=_reject_constant)["gauge_class"]
        assert (cls["in_g1"], cls["in_g2"]) == ("yes", "no")
        assert cls["evidence"]["inf_closed_form"] is None

    def test_gauge_sup_past_float_range(self, tmp_path, capsys):
        # exp(t) overflows at the top of the grid: the sup estimate is null
        G = {"family": "exp_of_f", "f": "identity"}
        path = write(tmp_path, "inst.json", dict(THREE_POINT_INSTANCE, G=G))
        assert run_cli(["solve", path, "--x0", "2"]) == 0
        out = capsys.readouterr().out
        cls = json.loads(out, parse_constant=_reject_constant)["gauge_class"]
        assert cls["evidence"]["sup_grid_estimate"] is None


class TestReport:
    def test_summarizes_solve_output(self, tmp_path, capsys):
        inst = write(tmp_path, "inst.json", ANALYTIC_INSTANCE)
        assert run_cli(["solve", inst, "--x0", "0"]) == 0
        solve_out = capsys.readouterr().out
        trace_path = tmp_path / "trace.json"
        trace_path.write_text(solve_out)
        assert run_cli(["report", str(trace_path)]) == 0
        text = capsys.readouterr().out
        assert "fixed point" in text
        assert "cauchy diagnostics" in text

    @pytest.mark.parametrize("kept", [
        [*range(0, 97, 8), 97, 98, 99, 100],        # strided head and last 4
        [*range(0, 100)]])                          # x_100 cut off
    def test_partial_trace_exits_one(self, tmp_path, capsys, kept):
        # a trace document holds every orbit point: one with gaps or cut
        # short would have the lemmas read points it does not record
        inst = dict(ANALYTIC_INSTANCE, operator={"affine": {"a": 0.9, "b": 0.05}},
                    phi={"family": "linear", "c": 0.95})
        path = write(tmp_path, "inst.json", inst)
        assert run_cli(["--tol", "0", "solve", path, "--x0", "0", "--max-iter", "100"]) == 0
        doc = json.loads(capsys.readouterr().out)
        trace = doc["trace"]
        assert trace["indices"] == [*range(101)] and len(trace["step_dists"]) == 100
        trace.update(orbit=[trace["orbit"][k] for k in kept], indices=kept)
        assert run_cli(["report", write(tmp_path, "trace.json", doc)]) == 1
        out = capsys.readouterr()
        assert out.out == "" and out.err == (
            "error: ValueError: trace indices, steps or stop reason do not fit its orbit\n")

    def test_boolean_trace_exits_one(self, tmp_path, capsys):
        # True == 1 and False == 0: this trace printed "start point: True"
        trace = {"space": {"dist": [[0, 1], [1, 0]]}, "x0": True, "orbit": [True, False, False],
                 "indices": [0, 1, 2], "step_dists": [1.0, 0.0],
                 "stop_reason": "exact-fixed-point", "fixed_point": False, "k_stop": 1}
        assert run_cli(["report", write(tmp_path, "trace.json", trace)]) == 1
        out = capsys.readouterr()
        assert out.out == "" and out.err == (
            "error: PointOutOfDomain: trace point True not in space\n")
        trace.update(x0=1, orbit=[1, 0, 0], fixed_point=0)
        assert run_cli(["report", write(tmp_path, "trace.json", trace)]) == 0
        assert capsys.readouterr().out.startswith(
            "space: finite, constant s = 1.0\nstart point: 1\n")

    def test_malformed_trace(self, tmp_path, capsys):
        path = tmp_path / "trace.json"
        path.write_text("[1, 2, 3]")
        assert run_cli(["report", str(path)]) == 1

    @pytest.mark.parametrize("inst,expected", [
        (dict(THREE_POINT_INSTANCE, operator={"map": [1, 2, 0]}),
         "space: finite, constant s = 1.3333333333333333\n"
         "start point: 0\n"
         "orbit points recorded: 4 (stop at k = 3, reason: budget-exhausted)\n"
         "fixed point: None\n"
         "cycle detected: [0, 1, 2]\n"
         "last step distance: 2.0\n"
         "diagnostics unavailable: OrbitTooShort: orbit index 6 not recorded: "
         "the orbit cycles through [0, 1, 2]\n"),
        (dict(ANALYTIC_INSTANCE, space={"lo": 0.0, "hi": 1.0, "p": 2.0}),
         "space: interval, constant s = 2.0\n"
         "start point: 0.0\n"
         "orbit points recorded: 19 (stop at k = 18, reason: tolerance-met)\n"
         "fixed point: 0.4999980926513672\n"
         "last step distance: 3.637978807091713e-12\n"
         "cauchy diagnostics: eps = 0.5, n = 5, m = 1, m0 = 1, bound = 16.0, "
         "max observed = 0.00024408102399320342, holds = True\n")])
    def test_report_bytes_of_solve_output(self, tmp_path, capsys, inst, expected):
        assert run_cli(["solve", write(tmp_path, "inst.json", inst), "--x0", "0"]) == 0
        trace_path = tmp_path / "trace.json"
        trace_path.write_text(capsys.readouterr().out)
        assert run_cli(["report", str(trace_path)]) == 0
        assert capsys.readouterr().out == expected

    def test_constant_of_the_loaded_space(self, tmp_path, capsys):
        # no declared s: d(0, 2) = 3 over the detour 1 + 1 makes the minimal
        # constant 1.5, which the report must print rather than a guess
        trace = {"space": {"dist": [[0, 1, 3], [1, 0, 1], [3, 1, 0]]}, "x0": 0,
                 "orbit": [0, 0], "indices": [0, 1], "step_dists": [0.0],
                 "stop_reason": "exact-fixed-point", "fixed_point": 0, "k_stop": 0}
        assert run_cli(["report", write(tmp_path, "trace.json", trace)]) == 0
        assert capsys.readouterr().out.startswith("space: finite, constant s = 1.5\n")

    @pytest.mark.parametrize("changes", [
        {"x0": 7, "orbit": [7], "stop_reason": "whatever", "k_stop": 5},
        {"orbit": 5},
        {"cycle": 5},
        {"space": 5},
        {"x0": 1},
        {"stop_reason": "tolerance-met", "fixed_point": 0, "cycle": [0]},
        {"stop_reason": "tolerance-met", "fixed_point": 1}])
    def test_invalid_trace_exits_one(self, tmp_path, capsys, changes):
        trace = {"space": {"dist": [[0, 1], [1, 0]]}, "x0": 0, "orbit": [0],
                 "indices": [0], "step_dists": [], "stop_reason": "budget-exhausted",
                 "fixed_point": None, "k_stop": 0, **changes}
        assert run_cli(["report", write(tmp_path, "trace.json", trace)]) == 1
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith("error: ")

    @pytest.mark.parametrize("steps", [[0.001, 0, 0], [4, 1, 5]])
    def test_steps_off_the_orbit_exit_one(self, tmp_path, capsys, steps):
        # report printed the edited steps' last one as the last step distance
        assert run_cli(["solve", write(tmp_path, "inst.json", THREE_POINT_INSTANCE),
                        "--x0", "2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["trace"]["step_dists"] == [4.0, 1.0, 0.0]
        assert run_cli(["report", write(tmp_path, "solve.json", doc)]) == 0
        capsys.readouterr()
        doc["trace"]["step_dists"] = steps
        assert run_cli(["report", write(tmp_path, "solve.json", doc)]) == 1
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith(
            "error: ValueError: trace steps do not fit its orbit")

    @pytest.mark.parametrize("diagnostics", [5, [1], "holds", {"eps": 0.5}])
    def test_invalid_diagnostics_exit_one(self, tmp_path, capsys, diagnostics):
        trace = {"space": {"dist": [[0, 1], [1, 0]]}, "x0": 0, "orbit": [0, 0],
                 "indices": [0, 1], "step_dists": [0.0],
                 "stop_reason": "exact-fixed-point", "fixed_point": 0, "k_stop": 0}
        doc = {"trace": trace, "diagnostics": diagnostics}
        assert run_cli(["report", write(tmp_path, "solve.json", doc)]) == 1
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith("error: ")


class TestFuzzCommand:
    def test_byte_identical_reruns(self, capsys):
        assert run_cli(["fuzz", "--seed", "42", "--trials", "30"]) == 0
        first = capsys.readouterr().out
        assert run_cli(["fuzz", "--seed", "42", "--trials", "30"]) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_break_mode_exits_zero(self, capsys):
        assert run_cli(["fuzz", "--seed", "1", "--trials", "10",
                        "--break", "drop-contraction"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["expected_break_count"] == 10

    def test_bad_trials_exits_one(self, capsys):
        assert run_cli(["fuzz", "--seed", "1", "--trials", "0"]) == 1
        assert capsys.readouterr().err

    def test_too_many_points_exits_one(self, capsys):
        assert run_cli(["fuzz", "--trials", "3", "--max-points", "300"]) == 1
        assert "ConfigInvalid" in capsys.readouterr().err


class TestGlobalFlags:
    def test_flags_accepted(self, tmp_path, capsys):
        path = write(tmp_path, "inst.json", ANALYTIC_INSTANCE)
        code = run_cli(["--tol", "1e-8", "--budget", "100000",
                        "--grid-density", "128", "solve", path, "--x0", "0.125"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert abs(doc["trace"]["fixed_point"] - 0.5) < 1e-6

    @pytest.mark.parametrize("G", [{"family": "affine_plus", "c": 1.0}, {"family": "identity"}])
    @pytest.mark.parametrize("density", ["0", "-1"])
    def test_nonpositive_grid_density_exits_one(self, tmp_path, capsys, G, density):
        # a one-point grid certified the affine gauge and blamed the identity
        path = write(tmp_path, "inst.json", dict(THREE_POINT_INSTANCE, G=G))
        assert run_cli(["--grid-density", density, "solve", path, "--x0", "2"]) == 1
        out = capsys.readouterr()
        assert out.out == "" and out.err == (
            f"error: ValueError: per_decade must be at least 1, got {density}\n")


class TestArgparseExits:
    @pytest.mark.parametrize("argv", [[], ["bogus"], ["certify"]])
    def test_usage_errors_exit_two(self, capsys, argv):
        assert run_cli(argv) == 2
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith("usage: gphi ")

    def test_help_exits_zero(self, capsys):
        assert run_cli(["--help"]) == 0
        assert capsys.readouterr().out.startswith("usage: gphi ")
