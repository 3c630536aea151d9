"""A CLI call loads only what its command runs.

numpy stays unloaded unless the constant of a finite space above the
pure-Python kernel's cut-off is read, or the fuzz harness draws such a
space: validation, and its refusals, never load it.  The fuzz harness
itself stays unloaded until ``fuzz`` runs or one of its names is read from
the package, and the solver until ``solve``, ``report`` or the harness
needs it.

Each check runs in a fresh interpreter, because a module stays in
``sys.modules`` once any test in this process has imported it.
"""

import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gphi
from gphi.spaces import MAX_FINITE_POINTS, PY_KERNEL_MAX_POINTS

SRC = str(Path(gphi.__file__).resolve().parent.parent)

SMALL = {"space": {"dist": [[0.0, 1.0, 2.0], [1.0, 0.0, 4.0], [2.0, 4.0, 0.0]]},
         "operator": {"map": [0, 0, 1]},
         "G": {"family": "identity"}, "phi": {"family": "linear", "c": 0.5}}
INTERVAL = {"space": {"lo": 0.0, "hi": 1.0, "p": 1.0},
            "operator": {"affine": {"a": 0.5, "b": 0.25}},
            "G": {"family": "identity"}, "phi": {"family": "linear", "c": 0.6}}
LARGE_N = 64
# off-diagonal entries in [1, 2] satisfy the triangle inequality
LARGE = {"space": {"dist": [[0.0 if i == j else 1.0 + ((i + j) % 5) / 4.0
                             for j in range(LARGE_N)] for i in range(LARGE_N)]},
         "operator": {"map": [0] * LARGE_N},
         "G": {"family": "identity"}, "phi": {"family": "linear", "c": 0.5}}

SCRIPT = """
import contextlib, io, json, sys
steps = []
def note(label, code=None):
    steps.append([label, code, "numpy" in sys.modules, "gphi.harness" in sys.modules])
import gphi
note("import gphi")
import gphi.cli
note("import gphi.cli")
for label, argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        note(label, gphi.cli.run_cli(argv))
print(json.dumps(steps))
"""


def _steps(calls):
    """[label, exit code, numpy loaded, harness loaded] after each call, in a
    fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", SCRIPT, json.dumps(calls)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_numpy_loaded_only_for_large_finite_spaces(tmp_path):
    assert LARGE_N > PY_KERNEL_MAX_POINTS
    paths = {}
    for name, doc in (("small", SMALL), ("interval", INTERVAL), ("large", LARGE)):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(doc))
    calls = [("small certify", ["certify", str(paths["small"])]),
             ("small solve", ["solve", str(paths["small"]), "--x0", "2"]),
             ("interval certify", ["certify", str(paths["interval"])]),
             ("large certify", ["certify", str(paths["large"])]),
             ("large solve", ["solve", str(paths["large"]), "--x0", "2"])]
    steps = _steps(calls)
    # every call got a verdict (exit 1 is malformed input)
    assert all(code != 1 for _, code, _, _ in steps), steps
    # certify never reads s; solve writes it, and above the cut-off numpy computes it
    assert [(label, numpy, harness) for label, _, numpy, harness in steps] == [
        ("import gphi", False, False), ("import gphi.cli", False, False),
        ("small certify", False, False), ("small solve", False, False),
        ("interval certify", False, False), ("large certify", False, False),
        ("large solve", True, False)]


def test_refused_matrices_leave_numpy_unloaded(tmp_path):
    # the parse refuses a non-number entry, a ragged row and more rows than
    # the cap in pure Python
    n = MAX_FINITE_POINTS + 1
    matrices = {"true entry": [[0, True], [True, 0]], "null entry": [[0, None], [None, 0]],
                "ragged row": [[0, 1], [1]],
                f"{n} rows": [[float(i != j) for j in range(n)] for i in range(n)]}
    calls = []
    for label, dist in matrices.items():
        path = tmp_path / f"{len(calls)}.json"
        path.write_text(json.dumps(dict(SMALL, space={"dist": dist})))
        calls.append((label, ["certify", str(path)]))
    assert _steps(calls)[2:] == [[label, 1, False, False] for label in matrices]


def test_numpy_loaded_only_for_fuzz_spaces_above_the_cut_off():
    # the default --max-points draws at most 8 points; seed 0's first trial
    # at --max-points 32 draws 31
    steps = _steps([("fuzz default", ["fuzz", "--trials", "20"]),
                    ("fuzz wide", ["fuzz", "--trials", "5", "--max-points", "32"])])
    assert steps[2:] == [["fuzz default", 0, False, True], ["fuzz wide", 0, True, True]]


def test_solver_loaded_only_by_solve(tmp_path):
    path = tmp_path / "small.json"
    path.write_text(json.dumps(SMALL))
    script = """
import contextlib, io, json, sys
loaded = []
import gphi
loaded.append(["import gphi", None, "gphi.solver" in sys.modules])
import gphi.cli
loaded.append(["import gphi.cli", None, "gphi.solver" in sys.modules])
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = gphi.cli.run_cli(argv)
    loaded.append([argv[0], code, "gphi.solver" in sys.modules])
print(json.dumps(loaded))
"""
    calls = [["certify", str(path)], ["solve", str(path), "--x0", "2"]]
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(calls)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [["import gphi", None, False],
                                       ["import gphi.cli", None, False],
                                       ["certify", 0, False], ["solve", 0, True]]


def test_package_serves_the_solver_names():
    import gphi.solver

    assert gphi.picard_iterate is gphi.solver.picard_iterate
    assert gphi.PicardTrace is gphi.solver.PicardTrace


# what ``from gphi import *`` bound when the package imported the harness eagerly
STAR_NAMES = {
    "AffineMap", "AffinePlusGauge", "AnalyticSpace", "BoundReport", "CauchyDiagnostics",
    "ClassCertificate", "ConjugatePhi", "ContractionCertificate", "DEFAULT_GAUGE_CATALOG",
    "DEFAULT_PHI_CATALOG", "ExpOfFGauge", "ExpPsiLnPhi", "FiniteMap", "FiniteSpace",
    "FuzzConfig", "FuzzReport", "G1_GAUGE_CATALOG", "HyperbolicPhi", "IDENTITY_FORM",
    "IdentityGauge", "LN", "LinearPhi", "PhiCertificate", "PicardTrace", "PowerGauge",
    "RealForm", "ShiftedPhi", "TabulatedGauge", "TabulatedMap", "TabulatedPhi",
    "affine_form", "apply", "ball_membership", "certify_condition_G", "certify_gauge_class",
    "certify_phi", "check_F_inequality", "check_limit_bounds", "check_phi_strict_decrease",
    "contraction", "enumerate_fixed_points", "epsilon0",
    "errors", "from_F_contraction", "fuzz", "gauge_eval", "gauge_from_json", "gauges",
    "generate_operator", "generate_space", "harness", "log_grid", "m_epsilon", "n_epsilon",
    "operator_from_json", "phi_eval", "phi_from_json", "phi_iterate", "picard_iterate",
    "shift_form", "solver", "space_from_json", "space_to_json", "spaces", "to_czerwik_form",
    "trace_from_json", "validate_finite_space", "verify_cauchy_bound",
    "verify_g1_termination", "verify_invariant_ball", "verify_step_chaining",
}


def test_package_serves_the_harness_names():
    import gphi.harness

    assert gphi.FuzzConfig is gphi.harness.FuzzConfig
    assert gphi.fuzz is gphi.harness.fuzz
    namespace = {}
    exec("from gphi import *", namespace)
    assert set(namespace) - {"__builtins__"} == STAR_NAMES
    assert all(namespace[name] is getattr(gphi, name) for name in STAR_NAMES)
    with pytest.raises(AttributeError, match="^module 'gphi' has no attribute 'nope'$"):
        gphi.nope


def test_import_gphi_loads_no_submodule():
    script = "import json, sys, gphi; print(json.dumps([m for m in sys.modules if m.startswith('gphi.')]))"
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", script],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []




def test_package_serves_its_submodules():
    # through the table, even where an import already bound the attribute
    assert {"contraction", "errors", "gauges", "spaces"} <= gphi._LAZY.keys()
    for name in gphi._LAZY:
        assert gphi.__getattr__(name) is importlib.import_module(f"gphi.{name}")


def test_every_public_name_is_its_modules_own_object():
    for name in set(gphi.__all__) - gphi._LAZY.keys():
        obj = getattr(gphi, name)
        owner = importlib.import_module(f"gphi.{gphi._LAZY_NAMES[name]}")
        assert obj is getattr(owner, name), name
        if inspect.isclass(obj) or inspect.isfunction(obj):
            assert obj.__module__ == owner.__name__, name


def test_certify_and_solve_load_neither_dataclasses_nor_inspect(tmp_path):
    # the package's records come from its own base in gphi.spaces; dataclasses
    # would load inspect and exec each generated method at import
    paths = {}
    for name, doc in (("small", SMALL), ("interval", INTERVAL)):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(doc))
    script = """
import contextlib, io, json, sys
loaded = []
import gphi.cli
loaded.append(["import gphi.cli", None, sorted({"dataclasses", "inspect"} & sys.modules.keys())])
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = gphi.cli.run_cli(argv)
    loaded.append([argv[0], code, sorted({"dataclasses", "inspect"} & sys.modules.keys())])
print(json.dumps(loaded))
"""
    calls = [["certify", str(paths["small"])], ["certify", str(paths["interval"])],
             ["solve", str(paths["small"]), "--x0", "2"]]
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(calls)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [["import gphi.cli", None, []], ["certify", 0, []],
                                       ["certify", 3, []], ["solve", 0, []]]
