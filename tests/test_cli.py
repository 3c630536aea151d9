import json

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


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
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

    def test_bad_schema_exits_one(self, tmp_path, capsys):
        path = write(tmp_path, "inst.json", {"space": {"lo": 0, "hi": 1, "p": 1}})
        assert run_cli(["certify", path]) == 1
        assert capsys.readouterr().err


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

    def test_explicit_eps(self, tmp_path, capsys):
        path = write(tmp_path, "inst.json", ANALYTIC_INSTANCE)
        assert run_cli(["solve", path, "--x0", "0", "--eps", "0.25"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["eps"] == 0.25

    def test_steep_power_gauge(self, tmp_path, capsys):
        # a ** 20 overflows on the dyadic refinement of the gauge class check
        inst = dict(THREE_POINT_INSTANCE, G={"family": "power", "q": 20.0})
        path = write(tmp_path, "inst.json", inst)
        assert run_cli(["solve", path, "--x0", "2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["gauge_class"]["in_g2"] == "yes"
        assert doc["diagnostics"]["holds"] is True


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

    def test_malformed_trace(self, tmp_path, capsys):
        path = tmp_path / "trace.json"
        path.write_text("[1, 2, 3]")
        assert run_cli(["report", str(path)]) == 1


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


class TestGlobalFlags:
    def test_flags_accepted(self, tmp_path, capsys):
        path = write(tmp_path, "inst.json", ANALYTIC_INSTANCE)
        code = run_cli(["--tol", "1e-8", "--budget", "100000",
                        "--grid-density", "128", "solve", path, "--x0", "0.125"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert abs(doc["trace"]["fixed_point"] - 0.5) < 1e-6
