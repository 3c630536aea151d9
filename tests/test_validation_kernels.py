"""Validation of finite spaces against a spec stated in this file.

``validate_finite_space`` parses every matrix, a list of rows or an array
read through its ``tolist()``, to float rows and checks them in pure
Python.  The reference is ``spec``: it parses the matrix, walks the five checks in order
over the float rows, each naming its first failure in row-major order, and
takes the constant from ``k_loop_min_constant``.  On every input, on both
sides of the cut-off, the public function must return the same distances
and a bit-equal constant, or raise the same error with the same message
and witness.
"""

import json
import math
from itertools import combinations
from random import Random
from unittest import mock
from unittest.mock import ANY

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gphi import spaces
from gphi.errors import (
    AsymmetricMatrix,
    ConstantOverflow,
    NegativeEntry,
    NonFiniteEntry,
    NonzeroDiagonal,
    TooManyPoints,
    ZeroOffDiagonal,
)
from gphi.spaces import MAX_FINITE_POINTS, PY_KERNEL_MAX_POINTS, replace, validate_finite_space


def outcome(matrix):
    try:
        fs = validate_finite_space(matrix)
    except Exception as exc:
        return ("raised", type(exc), str(exc), getattr(exc, "witness", None))
    # float.hex rejects non-floats and tells -0.0 from 0.0
    return ("space", tuple(tuple(map(float.hex, row)) for row in fs.dist), fs.s.hex())


def refused(error, message, witness=None):
    return ("raised", error, message, witness)


def spec(matrix, max_points):
    """The outcome validation must have, stated without gphi's checks.

    Parse: a string, boolean, null, dict or complex entry is refused, then
    a matrix that is not square and non-empty (numpy's message for a ragged list is not
    pinned), then an int beyond the float range, then too many points.
    Then the five checks over the float rows, in order.  Each refusal but
    the shape's, the cap's and the first check's names its first failing
    entry in row-major order.
    """
    if not isinstance(matrix, np.ndarray):
        if any(type(v) in (bool, str, type(None), dict, complex) for row in matrix for v in row):
            return refused(ValueError,
                           "matrix entries must be numbers, not strings, booleans or null")
        if not matrix or any(len(row) != len(matrix) for row in matrix):
            return refused(ValueError, ANY)
    d = []
    for i, row in enumerate(matrix):
        d.append([])
        for j, v in enumerate(row):
            try:
                d[i].append(float(v))
            except OverflowError:
                return refused(OverflowError, f"matrix entry ({i}, {j}) is beyond the float range")
    n = len(d)
    if n > max_points:
        return refused(TooManyPoints, f"{n} points exceeds cap {max_points}")
    pairs = [(i, j) for i in range(n) for j in range(n)]
    if not all(math.isfinite(d[i][j]) for i, j in pairs):
        return refused(NonFiniteEntry, "matrix entries must be finite")
    checks = [
        (NegativeEntry, "negative distance at ({}, {})", lambda i, j: d[i][j] < 0.0),
        (NonzeroDiagonal, "nonzero diagonal at ({}, {})",
         lambda i, j: i == j and d[i][j] != 0.0),
        (AsymmetricMatrix, "asymmetry at ({}, {})", lambda i, j: d[i][j] != d[j][i]),
        (ZeroOffDiagonal, "zero distance between distinct points ({}, {})",
         lambda i, j: i != j and d[i][j] == 0.0),
    ]
    for error, message, bad in checks:
        for i, j in pairs:
            if bad(i, j):
                return refused(error, message.format(i, j), (i, j))
    s = k_loop_min_constant(np.array(d))
    if s == math.inf:
        return refused(ConstantOverflow, "the b-metric constant overflows the float range")
    return ("space", tuple(tuple(map(float.hex, row)) for row in d), s.hex())


def assert_meets_spec(matrix, max_points=MAX_FINITE_POINTS):
    # the cap is a module constant, read at call time: a small one puts the
    # cap's refusal among the others
    with mock.patch.object(spaces, "MAX_FINITE_POINTS", max_points):
        got = outcome(matrix)
    assert got == spec(matrix, max_points)


def symmetric(n: int, draw_entry) -> list[list]:
    d = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d[i][j] = d[j][i] = draw_entry()
    return d


POSITIVE = st.one_of(
    st.floats(min_value=0.0, max_value=1e300, exclude_min=True),
    st.integers(min_value=1, max_value=2 ** 64))
# both sides of the cut-off between the two paths
sizes = st.integers(min_value=1, max_value=40)


@st.composite
def valid_matrices(draw):
    # past the first 64 entries a matrix repeats drawn ones, or drawing
    # would cost more than the tests of a 40-point matrix
    n = draw(sizes)
    rng = Random(draw(st.integers(min_value=0, max_value=2 ** 32)))
    pool = []

    def entry():
        if len(pool) == 64:
            return rng.choice(pool)
        pool.append(draw(POSITIVE))
        return pool[-1]
    return symmetric(n, entry)


FAMILIES = {
    "uniform": lambda rng: 1.0 - rng.random(),
    "lognormal": lambda rng: rng.lognormvariate(0.0, 3.0),
    "pareto": lambda rng: rng.paretovariate(0.5),
    # few distinct dyadic values: many tied detours, exact sums
    "dyadic": lambda rng: rng.randint(1, 8) / 4,
    "extreme": lambda rng: rng.choice([1e-300, 1e300]) * (1.0 - rng.random()),
}


@st.composite
def heavy_tailed(draw):
    n = draw(sizes)
    rng = Random(draw(st.integers(min_value=0, max_value=2 ** 32)))
    kind = draw(st.sampled_from(["uniform", "lognormal", "pareto"]))
    return symmetric(n, lambda: FAMILIES[kind](rng))


BAD_NUMBERS = [-1.0, -0.0, 0.0, 0, -3, math.nan, math.inf, -math.inf, 2.5, 7]
NON_FLOATS = [10 ** 400, True, False, None, "1.5", "x", {}, 1j]


@st.composite
def malformed(draw, parses=False):
    """A valid or heavy-tailed matrix with entries replaced, at one or both
    of a mirrored pair, and sometimes one entry set apart from its mirror
    by a positive number; unless it must parse to a float array, an entry
    may be a non-number and a row may be cut short or the matrix made
    tuples."""
    d = draw(st.one_of(valid_matrices(), heavy_tailed()))
    n = len(d)
    bad = st.sampled_from(BAD_NUMBERS if parses else BAD_NUMBERS + NON_FLOATS)
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        d[i][j] = draw(bad)
        if draw(st.booleans()):
            d[j][i] = d[i][j]
    if draw(st.booleans()):
        d[draw(st.integers(0, n - 1))][draw(st.integers(0, n - 1))] = draw(POSITIVE)
    if parses:
        return d
    if draw(st.booleans()):
        del d[draw(st.integers(0, n - 1))][-1]
    if draw(st.booleans()):
        d = tuple(tuple(row) for row in d)
    return d


MAX_POINTS = st.one_of(st.just(MAX_FINITE_POINTS), st.sampled_from([1, 2, 3, 20]))


# a tiny detour under a huge distance makes the constant overflow; the
# function and the spec raise ConstantOverflow, and numpy's overflow
# warning stays inside
@pytest.mark.filterwarnings("error:overflow encountered:RuntimeWarning")
class TestMeetsSpec:
    @settings(max_examples=200, deadline=None)
    @given(st.one_of(valid_matrices(), heavy_tailed()))
    def test_valid(self, d):
        assert_meets_spec(d)

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(valid_matrices(), heavy_tailed()))
    def test_valid_arrays(self, d):
        assert_meets_spec(np.array(d, dtype=float))

    @settings(max_examples=200, deadline=None)
    @given(malformed(), MAX_POINTS)
    def test_malformed(self, d, max_points):
        assert_meets_spec(d, max_points)

    @settings(max_examples=200, deadline=None)
    @given(malformed(parses=True), MAX_POINTS)
    def test_malformed_arrays(self, d, max_points):
        assert_meets_spec(np.array(d, dtype=float), max_points)

    @pytest.mark.parametrize("n", [3, PY_KERNEL_MAX_POINTS + 1, 40])
    def test_first_witness_in_row_major_order(self, n):
        # each matrix fails its check at (2, 0) and (2, 1), and at their
        # mirror images where it is mirrored: (0, 2) comes first in
        # row-major order, (2, 0) in column-major order
        for entry, mirrored, error in [(-1.0, True, NegativeEntry),
                                       (2.5, False, AsymmetricMatrix),
                                       (0.0, True, ZeroOffDiagonal)]:
            d = symmetric(n, lambda: 1.5)
            d[2][0] = d[2][1] = entry
            if mirrored:
                d[0][2] = d[1][2] = entry
            assert_meets_spec(d)
            assert_meets_spec(np.array(d))
            with pytest.raises(error) as info:
                validate_finite_space(d)
            assert info.value.witness == (0, 2)

    @pytest.mark.parametrize("entry", [10 ** 400, -10 ** 400, 2 ** 1024 - 2 ** 970],
                             ids=["1e400", "-1e400", "least"])
    @pytest.mark.parametrize("n", [3, PY_KERNEL_MAX_POINTS + 1, 40])
    def test_first_entry_past_float_range(self, n, entry):
        # float() overflows at (2, 0), (2, 1) and their mirror images, but
        # rounds (0, 1) down to the largest float; the message named no entry
        d = symmetric(n, lambda: 1.5)
        d[0][1] = d[1][0] = 2 ** 1024 - 2 ** 970 - 1
        d[2][0] = d[2][1] = d[0][2] = d[1][2] = entry
        assert_meets_spec(d)
        with pytest.raises(OverflowError,
                           match=r"^matrix entry \(0, 2\) is beyond the float range$"):
            validate_finite_space(d)

    def test_shapes(self):
        for d in ([], [[]], [1.0, 2.0], [[0.0, 1.0]], [[0.0, 1.0], [1.0, 0.0], [1.0, 1.0]],
                  (), 3):
            with pytest.raises(ValueError, match="^matrix must be square and non-empty$"):
                validate_finite_space(d)
        for d in ([[0.0, 1.0], [1.0]], [[0.0, [1.0]], [1.0, 0.0]], "ab"):
            with pytest.raises(ValueError):
                validate_finite_space(d)

    def test_constant_overflow(self):
        d = [[0, 1e300, 1e-300], [1e300, 0, 1e-300], [1e-300, 1e-300, 0]]
        assert_meets_spec(d)
        with pytest.raises(ConstantOverflow):
            validate_finite_space(d)

    @pytest.mark.parametrize("n", [2, PY_KERNEL_MAX_POINTS + 1])
    def test_signed_zero_diagonal_is_kept(self, n):
        d = symmetric(n, lambda: 1.0)
        d[0][0] = -0.0
        assert_meets_spec(d)
        assert_meets_spec(np.array(d))
        assert math.copysign(1.0, validate_finite_space(d).dist[0][0]) == -1.0

    def test_a_list_and_an_array_give_tuple_rows(self):
        d = symmetric(MAX_FINITE_POINTS, lambda: 1.5)
        for given in (d, np.array(d)):
            dist = validate_finite_space(given).dist
            assert type(dist) is tuple and all(type(row) is tuple for row in dist)

    @pytest.mark.parametrize("entry", [True, False, None, "1", "1.5", {}, {"a": 1}, 1j, 1 + 0j])
    @pytest.mark.parametrize("n", [2, PY_KERNEL_MAX_POINTS + 1])
    def test_non_number_entries_are_refused(self, entry, n):
        # np.asarray(..., dtype=float) would parse "1" and read True as 1.0
        d = symmetric(n, lambda: 1.5)
        d[0][1] = d[1][0] = entry
        assert_meets_spec(d)
        with pytest.raises(ValueError, match="^matrix entries must be numbers"):
            validate_finite_space(d)

    def test_numpy_non_numbers_are_refused(self):
        d = [[0.0, 1.5], [1.5, 0.0]]
        for bad in (np.array(d) > 0, np.array(d).astype(str),
                    [[0.0, np.bool_(True)], [np.bool_(True), 0.0]],
                    [[0.0, np.complex64(1.5)], [np.complex64(1.5), 0.0]],
                    np.array(d, dtype=complex)):
            with pytest.raises(ValueError, match="^matrix entries must be numbers"):
                validate_finite_space(bad)
        assert validate_finite_space(np.array(d)).dist == ((0.0, 1.5), (1.5, 0.0))


def one_bad_entry_places(n):
    """(i, j, mirrored): the first, a middle and the last pair off the
    diagonal, alone or mirrored, and the first and last diagonal entries."""
    pairs = {(0, 1), (n // 3, n // 3 + n // 2), (n - 2, n - 1)} if n > 1 else set()
    return sorted({(i, j, mirrored) for i, j in pairs for mirrored in (False, True)}
                  | {(0, 0, False), (n - 1, n - 1, False)})


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("bad", BAD_NUMBERS, ids=repr)
@pytest.mark.parametrize("layout", [np.ascontiguousarray, np.asfortranarray], ids=["C", "F"])
@pytest.mark.parametrize("n", [1, 2, 16, 256])
def test_array_with_one_bad_entry_meets_spec(n, layout, bad):
    # the numpy kernel's bulk accept must refuse every such matrix that the
    # spec refuses, whatever the entry's place and the array's memory order
    for i, j, mirrored in one_bad_entry_places(n):
        d = family_matrix(n, "uniform", seed=n)
        d[i, j] = bad
        if mirrored:
            d[j, i] = bad
        d = layout(d)
        assert outcome(d) == spec(d, MAX_FINITE_POINTS), (i, j, mirrored)


class TestKeptMatrix:
    """A matrix given as an array keeps the tuple of its float rows, out of
    the caller's reach, and a space the harness draws builds a row of floats
    on the row's first read; ``dist`` must behave as the tuple of those
    rows."""

    @pytest.mark.parametrize("n", [1, 2, PY_KERNEL_MAX_POINTS, PY_KERNEL_MAX_POINTS + 1,
                                   MAX_FINITE_POINTS])
    def test_small_array_equals_the_list_space(self, n):
        d = family_matrix(n, "lognormal", seed=n)
        fs, listed = validate_finite_space(d), validate_finite_space(d.tolist())
        assert fs == listed and listed == fs
        assert hash(fs) == hash(listed) and repr(fs) == repr(listed)

    @pytest.mark.parametrize("n", [PY_KERNEL_MAX_POINTS + 1, MAX_FINITE_POINTS])
    def test_rows_behave_as_tuple_rows(self, n):
        from gphi.harness import _Rows, generate_space

        random = Random("rows").random
        rows = tuple(map(tuple, symmetric(n, lambda: 1.0 - random())))
        fs = generate_space("rows", n)
        assert fs.s.hex() == k_loop_min_constant(np.array(rows)).hex()
        assert type(fs.dist) is _Rows
        assert fs.dist == rows and rows == fs.dist and not fs.dist != rows
        assert fs.dist != rows[:-1] and fs.dist != [list(row) for row in rows]
        assert len(fs.dist) == n and tuple(fs.dist) == rows and list(fs.dist) == list(rows)
        assert fs.dist[-1] == rows[-1] and fs.dist[-n] == rows[0]
        assert fs.dist[1:3] == rows[1:3] and fs.dist[::-1] == rows[::-1]
        for bad in (n, -n - 1):
            with pytest.raises(IndexError):
                fs.dist[bad]
        assert hash(fs.dist) == hash(rows) and repr(fs.dist) == repr(rows)
        tupled = spaces.FiniteSpace(dist=rows, s=fs.s)
        assert fs == tupled and hash(fs) == hash(tupled) and repr(fs) == repr(tupled)
        declared = replace(fs, s=2.0 * fs.s)
        assert declared.dist == rows and declared.s == 2.0 * fs.s
        assert declared == replace(tupled, s=2.0 * fs.s)
        assert (json.dumps(spaces.space_to_json(fs))
                == json.dumps(spaces.space_to_json(tupled)))

    @pytest.mark.filterwarnings("ignore:the matrix subclass:PendingDeprecationWarning")
    @pytest.mark.parametrize("form", [np.asarray, np.asmatrix,
                                      lambda d: np.vstack([d, d])[:len(d)]],
                             ids=["array", "matrix", "view"])
    def test_kept_matrix_is_a_private_read_only_copy(self, form):
        n = 2 * PY_KERNEL_MAX_POINTS
        d = family_matrix(n, "uniform", seed=n)
        expected = validate_finite_space(d.copy())
        given = form(d)
        fs = validate_finite_space(given)
        given[0, 1] = given[1, 0] = 1e9
        given[2] = 7.0
        assert fs.dist == expected.dist and fs.s == expected.s

    def test_uncertified_trial_builds_only_the_rows_it_reads(self, monkeypatch):
        import gphi.harness as harness

        space = harness.generate_space("rows", MAX_FINITE_POINTS)
        T = harness.generate_operator("rows:op", space)
        gauges, phis = harness._prepare_catalogs(harness.FuzzConfig())
        built = []
        gather = harness._Rows._gather
        monkeypatch.setattr(harness._Rows, "_gather",
                            lambda rows, i: built.append(i) or gather(rows, i))
        drawn = []

        def counted_pairs(points, r):
            for pair in combinations(points, r):
                drawn.append(pair)
                yield pair

        monkeypatch.setattr(harness, "combinations", counted_pairs)
        assert harness._first_certified(space, T, gauges, phis) is None
        read = {x for x, _ in drawn} | {T.mapping[x] for x, _ in drawn}
        assert len(built) == len(set(built)) and set(built) == read
        assert len(built) < MAX_FINITE_POINTS // 4


def k_loop_min_constant(d) -> float:
    """The numpy ``_min_constant`` as a full n x n reduction over k, kept
    as the reference the kernel must match bit for bit: the least float
    s >= 1 with no d > s*via, reached from the rounded max ratio by ulps."""
    with np.errstate(over="ignore"):
        via = d.copy()
        for k in range(d.shape[0]):
            np.minimum(via, d[:, k, None] + d[None, k, :], out=via)
        off = ~np.eye(d.shape[0], dtype=bool)
        d, via = d[off], via[off]
        s = max(1.0, float(np.max(d / via))) if d.size else 1.0
        while np.any(d > s * via):
            s = math.nextafter(s, math.inf)
        while s > 1.0 and not np.any(d > math.nextafter(s, -math.inf) * via):
            s = math.nextafter(s, -math.inf)
    return s


def family_matrix(n: int, family: str, seed: int):
    rng = Random(seed)
    return np.array(symmetric(n, lambda: FAMILIES[family](rng)))


def assert_pinned(d):
    assert spaces._min_constant(d).hex() == k_loop_min_constant(d).hex()


def overflowing(n: int):
    """A uniform matrix whose first three points give a ratio of inf."""
    d = family_matrix(n, "uniform", n)
    d[0, 1] = d[1, 0] = 1e300
    d[0, 2:] = d[2:, 0] = d[1, 2:] = d[2:, 1] = 1e-300
    return d


@pytest.mark.filterwarnings("error:overflow encountered:RuntimeWarning")
class TestMinConstantPinned:
    """``spaces._min_constant`` against the k-loop reference."""

    @pytest.mark.parametrize("family", ["uniform", "lognormal", "pareto", "dyadic"])
    @pytest.mark.parametrize("n", [1, 2, 3, 13, 64, 129, 200, 256])
    def test_corpus(self, n, family):
        assert_pinned(family_matrix(n, family, seed=1000 * n + len(family)))

    @pytest.mark.parametrize("n", [3, 64])
    def test_overflow_to_inf(self, n):
        d = overflowing(n)
        assert k_loop_min_constant(d) == math.inf
        assert_pinned(d)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=1, max_value=40), st.sampled_from(sorted(FAMILIES)),
           st.integers(min_value=0, max_value=2 ** 32))
    def test_families(self, n, family, seed):
        assert_pinned(family_matrix(n, family, seed))


def covers(d, s: float) -> bool:
    """Every triple meets the float test d[i][j] <= s*(d[i][k] + d[k][j])."""
    n = len(d)
    return all(d[i][j] <= s * (d[i][k] + d[k][j])
               for i in range(n) for j in range(n) for k in range(n))


class TestFloatMinimal:
    """Both kernels give the least float s >= 1 that covers every triple."""

    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=2, max_value=19),
           st.sampled_from(["uniform", "lognormal", "pareto"]),
           st.integers(min_value=0, max_value=2 ** 32))
    def test_least_covering_float(self, n, family, seed):
        d = family_matrix(n, family, seed)
        rows = tuple(map(tuple, d.tolist()))
        s = spaces._min_constant_rows(rows)
        assert spaces._min_constant(d).hex() == s.hex()
        assert covers(rows, s)
        below = math.nextafter(s, -math.inf)
        assert below < 1.0 or not covers(rows, below)

    def test_rounded_ratio_stepped_down(self):
        rows = ((0.0, 0.039, 0.052), (0.039, 0.0, 2.737), (0.052, 2.737, 0.0))
        s = 30.076923076923077
        assert max(2.737 / (0.039 + 0.052), 1.0) > s
        assert spaces._min_constant_rows(rows) == spaces._min_constant(np.array(rows)) == s
