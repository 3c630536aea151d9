"""The pure-Python validation kernel against the numpy kernel.

``validate_finite_space`` checks a square list of at most
``PY_KERNEL_MAX_POINTS`` rows of plain numbers in pure Python and parses
everything else with numpy.  The numpy kernel is the reference: on every
input the public function must return the same distances and a bit-equal
constant, or raise the same error with the same message and witness.
"""

import math
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from gphi import spaces
from gphi.errors import ConstantOverflow
from gphi.spaces import MAX_FINITE_POINTS, PY_KERNEL_MAX_POINTS, validate_finite_space


def outcome(validate, matrix, max_points):
    try:
        fs = validate(matrix, max_points)
    except Exception as exc:
        return ("raised", type(exc), str(exc), getattr(exc, "witness", None))
    # float.hex rejects non-floats and tells -0.0 from 0.0
    return ("space", tuple(tuple(map(float.hex, row)) for row in fs.dist), fs.s.hex())


def assert_kernels_agree(matrix, max_points=MAX_FINITE_POINTS):
    assert (outcome(validate_finite_space, matrix, max_points)
            == outcome(spaces._validate_array, matrix, max_points))


def symmetric(n: int, draw_entry) -> list[list]:
    d = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d[i][j] = d[j][i] = draw_entry()
    return d


POSITIVE = st.one_of(
    st.floats(min_value=0.0, max_value=1e300, exclude_min=True),
    st.integers(min_value=1, max_value=2 ** 64))
sizes = st.integers(min_value=1, max_value=PY_KERNEL_MAX_POINTS)


@st.composite
def valid_matrices(draw):
    n = draw(sizes)
    return symmetric(n, lambda: draw(POSITIVE))


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


BAD_ENTRIES = st.sampled_from([
    -1.0, -0.0, 0.0, 0, -3, math.nan, math.inf, -math.inf, 2.5, 7, 10 ** 400,
    True, False, None, "1.5", "x"])


@st.composite
def malformed(draw):
    """A valid or heavy-tailed matrix with entries replaced, at one or both
    of a mirrored pair, and sometimes a row cut short or made a tuple."""
    d = draw(st.one_of(valid_matrices(), heavy_tailed()))
    n = len(d)
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        d[i][j] = draw(BAD_ENTRIES)
        if draw(st.booleans()):
            d[j][i] = d[i][j]
    if draw(st.booleans()):
        del d[draw(st.integers(0, n - 1))][-1]
    if draw(st.booleans()):
        d = tuple(tuple(row) for row in d)
    return d


# a tiny detour under a huge distance makes the constant overflow; both
# kernels raise ConstantOverflow, and numpy's overflow warning stays inside
@pytest.mark.filterwarnings("error:overflow encountered:RuntimeWarning")
class TestKernelsAgree:
    @settings(max_examples=200, deadline=None)
    @given(st.one_of(valid_matrices(), heavy_tailed()))
    def test_valid(self, d):
        assert spaces._plain_rows(d) is not None      # the Python kernel runs
        assert_kernels_agree(d)

    @settings(max_examples=200, deadline=None)
    @given(malformed(), st.sampled_from([1, 2, 3, MAX_FINITE_POINTS]))
    def test_malformed(self, d, max_points):
        assert_kernels_agree(d, max_points)

    def test_shapes(self):
        for d in ([], [[]], [1.0, 2.0], [[0.0, 1.0]], [[0.0, 1.0], [1.0, 0.0], [1.0, 1.0]],
                  [[0.0, 1.0], [1.0]], [[0.0, [1.0]], [1.0, 0.0]], (), "ab", 3):
            assert_kernels_agree(d)

    def test_constant_overflow(self):
        d = [[0, 1e300, 1e-300], [1e300, 0, 1e-300], [1e-300, 1e-300, 0]]
        assert spaces._plain_rows(d) is not None
        assert_kernels_agree(d)
        with pytest.raises(ConstantOverflow):
            validate_finite_space(d)

    def test_signed_zero_diagonal_is_kept(self):
        d = [[-0.0, 1.0], [1.0, 0.0]]
        assert spaces._plain_rows(d) is not None
        assert_kernels_agree(d)

    def test_large_matrices_take_the_numpy_kernel(self):
        d = symmetric(PY_KERNEL_MAX_POINTS + 1, lambda: 1.5)
        assert spaces._plain_rows(d) is None
        assert spaces._plain_rows(d[:-1]) is None            # not square
        assert spaces._plain_rows([row[:-1] for row in d[:-1]]) is not None

    @pytest.mark.parametrize("entry", [True, False, None, "1", "1.5"])
    @pytest.mark.parametrize("n", [2, PY_KERNEL_MAX_POINTS + 1])
    def test_non_number_entries_are_refused(self, entry, n):
        # np.asarray(..., dtype=float) would parse "1" and read True as 1.0
        d = symmetric(n, lambda: 1.5)
        d[0][1] = d[1][0] = entry
        assert_kernels_agree(d)
        with pytest.raises(ValueError, match="^matrix entries must be numbers"):
            validate_finite_space(d)

    def test_numpy_non_numbers_are_refused(self):
        import numpy as np

        d = [[0.0, 1.5], [1.5, 0.0]]
        for bad in (np.array(d) > 0, np.array(d).astype(str),
                    [[0.0, np.bool_(True)], [np.bool_(True), 0.0]]):
            with pytest.raises(ValueError, match="^matrix entries must be numbers"):
                validate_finite_space(bad)
        assert validate_finite_space(np.array(d)).dist == ((0.0, 1.5), (1.5, 0.0))


def k_loop_min_constant(d) -> float:
    """The numpy ``_min_constant`` as a full n x n reduction over k, kept
    verbatim as the reference the kernel must match bit for bit."""
    import numpy as np

    with np.errstate(over="ignore"):
        via = d.copy()
        for k in range(d.shape[0]):
            np.minimum(via, d[:, k, None] + d[None, k, :], out=via)
        off = ~np.eye(d.shape[0], dtype=bool)
        d, via = d[off], via[off]
        s = max(1.0, float(np.max(d / via))) if d.size else 1.0
        while np.any(d > s * via):
            s = math.nextafter(s, math.inf)
    return s


def family_matrix(n: int, family: str, seed: int):
    import numpy as np

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
