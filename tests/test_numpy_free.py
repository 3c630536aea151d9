"""numpy stays unloaded unless a finite space above the pure-Python
kernel's cut-off is validated or, in the fuzz harness, drawn.

Each check runs in a fresh interpreter, because numpy stays in
``sys.modules`` once any test in this process has imported it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import gphi
from gphi.spaces import PY_KERNEL_MAX_POINTS

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
    steps.append([label, code, "numpy" in sys.modules])
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
    """[label, exit code, numpy loaded] after each call, in a fresh interpreter."""
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
             ("large certify", ["certify", str(paths["large"])])]
    steps = _steps(calls)
    # every call got a verdict (exit 1 is malformed input)
    assert all(code != 1 for _, code, _ in steps), steps
    assert [(label, loaded) for label, _, loaded in steps] == [
        ("import gphi", False), ("import gphi.cli", False),
        ("small certify", False), ("small solve", False),
        ("interval certify", False), ("large certify", True)]


def test_numpy_loaded_only_for_fuzz_spaces_above_the_cut_off():
    # the default --max-points draws at most 8 points; seed 0's first trial
    # at --max-points 32 draws 31
    steps = _steps([("fuzz default", ["fuzz", "--trials", "20"]),
                    ("fuzz wide", ["fuzz", "--trials", "5", "--max-points", "32"])])
    assert steps[2:] == [["fuzz default", 0, False], ["fuzz wide", 0, True]]
