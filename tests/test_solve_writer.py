"""``gphi solve`` prints exactly ``json.dumps(out, indent=2, sort_keys=True)``.

A finite trace's matrix is written apart, one repr per entry pair, and
spliced into the rest of the document; the oracle here stays the stdlib
encoder on the same ``out`` that the command built.  The instances reach
the float range's ends (the smallest subnormal, the smallest normal, the
largest float), integers, 17-digit values, a -0.0 diagonal and a declared
constant.
"""

import contextlib
import io
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from gphi import cli
from gphi.cli import run_cli
from gphi.spaces import dist_to_json, validate_finite_space

# Off-diagonal entries of one matrix come from one scale, so that no
# triangle drives the constant past the float range.
TINY = st.one_of(st.sampled_from([5e-324, 1e-323, 2.2250738585072014e-308]),
                 st.floats(5e-324, 1e-300))
MIDDLE = st.one_of(st.integers(1, 2 ** 53), st.floats(1e-6, 1e6),
                   st.sampled_from([0.1, 0.30000000000000004, 1.0000000000000002,
                                    12345678.901234567]))
HUGE = st.one_of(st.sampled_from([1.7976931348623157e308, 1e308]),
                 st.floats(1e300, 1.7976931348623157e308), st.integers(1, 10 ** 6))


@st.composite
def finite_instances(draw):
    """(instance document, x0): a symmetric matrix of 1 to 12 points with a
    0.0, -0.0 or 0 diagonal, an arbitrary self-map and, or not, a declared
    constant at or above the minimal one."""
    n = draw(st.integers(1, 12))
    entries = draw(st.sampled_from([TINY, MIDDLE, HUGE]))
    dist = [[draw(st.sampled_from([0.0, -0.0, 0])) if i == j else None for j in range(n)]
            for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            dist[i][j] = dist[j][i] = draw(entries)
    space = {"dist": dist}
    scale = draw(st.sampled_from([None, 1.0, 1.5]))
    if scale is not None:
        space["s"] = scale * validate_finite_space(dist).s
    doc = {"space": space, "operator": {"map": draw(st.lists(st.integers(0, n - 1),
                                                             min_size=n, max_size=n))},
           "G": {"family": "identity"}, "phi": {"family": "linear", "c": 0.5}}
    return doc, draw(st.integers(0, n - 1))


@pytest.fixture(scope="module")
def instance_path(tmp_path_factory):
    return tmp_path_factory.mktemp("solve_writer") / "instance.json"


def solve(path, doc, x0):
    """(exit code, stdout, the ``out`` that solve handed to its writer)."""
    path.write_text(json.dumps(doc))
    stdout = io.StringIO()
    with mock.patch.object(cli, "_solve_json", wraps=cli._solve_json) as writer, \
            contextlib.redirect_stdout(stdout):
        code = run_cli(["solve", str(path), "--x0", str(x0)])
    return code, stdout.getvalue(), writer.call_args.args[0]


@given(finite_instances())
@example(({"space": {"dist": [[-0.0]]}, "operator": {"map": [0]},
           "G": {"family": "identity"}, "phi": {"family": "linear", "c": 0.5}}, 0))
@example(({"space": {"dist": [[0.0, 5e-324, 2.2250738585072014e-308],
                              [5e-324, -0.0, 5e-324],
                              [2.2250738585072014e-308, 5e-324, 0]], "s": 1e16},
           "operator": {"map": [1, 1, 0]},
           "G": {"family": "identity"}, "phi": {"family": "linear", "c": 0.5}}, 2))
@example(({"space": {"dist": [[0, 1.7976931348623157e308, 7],
                              [1.7976931348623157e308, 0, 12345678.901234567],
                              [7, 12345678.901234567, -0.0]]},
           "operator": {"map": [2, 2, 2]},
           "G": {"family": "identity"}, "phi": {"family": "linear", "c": 0.5}}, 0))
def test_finite_solve_prints_the_stdlib_encoding(instance_path, case):
    doc, x0 = case
    code, stdout, out = solve(instance_path, doc, x0)
    assert code == 0
    assert stdout == json.dumps(out, indent=2, sort_keys=True) + "\n"
    assert len(out["trace"]["space"]["dist"]) == len(doc["space"]["dist"])


def test_interval_solve_never_splices(instance_path):
    doc = {"space": {"lo": 0.0, "hi": 1.0, "p": 2.0},
           "operator": {"affine": {"a": 0.5, "b": 0.25}},
           "G": {"family": "identity"}, "phi": {"family": "linear", "c": 0.6}}
    with mock.patch.object(cli, "dist_to_json", side_effect=AssertionError("spliced")):
        code, stdout, out = solve(instance_path, doc, 0.0)
    assert code == 0
    assert stdout == json.dumps(out, indent=2, sort_keys=True) + "\n"


def test_mark_printed_twice_falls_back_to_the_stdlib(instance_path):
    doc = {"space": {"dist": [[0.0, 0.1], [0.1, 0.0]]}, "operator": {"map": [0, 0]},
           "G": {"family": "identity"}, "phi": {"family": "linear", "c": 0.5}}
    _, _, out = solve(instance_path, doc, 1)
    space = validate_finite_space(doc["space"]["dist"])
    for forged in (cli._DIST_MARK, '"' + cli._DIST_MARK):
        out["diagnostics_error"] = forged
        with mock.patch.object(cli, "dist_to_json", side_effect=AssertionError("spliced")):
            assert cli._solve_json(out, space) == json.dumps(out, indent=2, sort_keys=True)


@pytest.mark.parametrize("pad", ["", "  ", "      "])
@pytest.mark.parametrize("rows", [
    [[-0.0]],
    [[0.0, 1.0], [1.0, -0.0]],
    [[0.0, 0.1, 3.0], [0.1, 0.0, 1e-5], [3.0, 1e-5, 0.0]]])
@pytest.mark.parametrize("make", [lambda rows: rows, np.array], ids=["rows", "array"])
def test_dist_to_json_is_the_indented_stdlib_encoding(rows, pad, make):
    space = validate_finite_space(make(rows))
    expected = json.dumps([list(row) for row in space.dist], indent=2)
    assert dist_to_json(space, pad) == expected.replace("\n", "\n" + pad)
