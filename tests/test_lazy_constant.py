"""The minimal constant of a validated finite space is computed on first read.

``validate_finite_space`` makes only the O(n^2) checks and leaves ``s`` to
its first read, which runs ``_min_constant_rows`` up to
``PY_KERNEL_MAX_POINTS`` points and ``_min_constant`` above, and keeps the
value.  Only a matrix whose max/min off-diagonal ratio cannot rule out an
overflow has its constant computed during validation, so that
``ConstantOverflow`` still comes from validation itself.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gphi import spaces
from gphi.errors import ConstantOverflow
from gphi.harness import FuzzConfig, fuzz, generate_space
from gphi.spaces import (PY_KERNEL_MAX_POINTS, FiniteSpace, FrozenInstanceError, replace,
                         space_to_json, validate_finite_space)

from test_validation_kernels import (family_matrix, heavy_tailed, k_loop_min_constant,
                                     overflowing, valid_matrices)

KERNELS = ("_min_constant_rows", "_min_constant")
SIZES = [1, 2, PY_KERNEL_MAX_POINTS, 16, 64, 256]


def kernel_for(n: int) -> str:
    return KERNELS[n > PY_KERNEL_MAX_POINTS]


@pytest.fixture
def kernel_calls(monkeypatch):
    """The names of the constant kernels called, in call order."""
    calls = []
    for name in KERNELS:
        def counted(d, kernel=getattr(spaces, name), name=name):
            calls.append(name)
            return kernel(d)
        monkeypatch.setattr(spaces, name, counted)
    return calls


@pytest.fixture
def no_kernel(monkeypatch):
    def refuse(d):
        raise AssertionError("the constant kernel ran")
    for name in KERNELS:
        monkeypatch.setattr(spaces, name, refuse)


@pytest.mark.parametrize("form", ["list", "array"])
@pytest.mark.parametrize("n", SIZES)
def test_validation_does_not_run_the_kernel(n, form, no_kernel):
    d = family_matrix(n, "lognormal", seed=n)
    fs = validate_finite_space(d.tolist() if form == "list" else d)
    assert fs.n == n
    with pytest.raises(AssertionError, match="the constant kernel ran"):
        fs.s


@pytest.mark.parametrize("form", ["list", "array"])
@pytest.mark.parametrize("n", SIZES)
def test_first_read_runs_the_kernel_once(n, form, kernel_calls):
    d = family_matrix(n, "pareto", seed=n)
    fs = validate_finite_space(d.tolist() if form == "list" else d)
    assert kernel_calls == []
    first = fs.s
    assert kernel_calls == [kernel_for(n)]
    assert fs.s is first
    assert kernel_calls == [kernel_for(n)]
    assert first.hex() == k_loop_min_constant(d).hex()


@pytest.mark.parametrize("form", ["list", "array"])
@pytest.mark.parametrize("n", [n for n in SIZES if n > PY_KERNEL_MAX_POINTS])
def test_first_read_passes_the_kept_matrix(n, form, monkeypatch):
    d = family_matrix(n, "lognormal", seed=n)
    fs = validate_finite_space(d.tolist() if form == "list" else d)
    received = []

    def spy(matrix, kernel=spaces._min_constant):
        received.append(matrix)
        return kernel(matrix)

    monkeypatch.setattr(spaces, "_min_constant", spy)
    assert fs.s.hex() == k_loop_min_constant(d).hex()
    assert len(received) == 1
    # a validated space keeps its tuple rows; the kernel reads an array of them
    assert type(fs.dist) is tuple
    assert type(received[0]) is np.ndarray and received[0].tolist() == list(map(list, fs.dist))


@pytest.mark.parametrize("n", [n for n in SIZES if n > PY_KERNEL_MAX_POINTS])
def test_first_read_of_a_drawn_space_passes_its_matrix(n, monkeypatch):
    # a drawn space keeps its triangle, and the kernel reads the matrix built
    # from it, not a copy
    fs = generate_space(f"kept:{n}", n)
    received = []

    def spy(matrix, kernel=spaces._min_constant):
        received.append(matrix)
        return kernel(matrix)

    monkeypatch.setattr(spaces, "_min_constant", spy)
    assert fs.s.hex() == k_loop_min_constant(fs.dist.matrix).hex()
    assert len(received) == 1 and received[0] is fs.dist.matrix


class TestKernelsBitEqual:
    """Small matrices read their constant from the row kernel, so it must
    match the numpy kernel bit for bit, as validation once compared them."""

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(valid_matrices(), heavy_tailed()))
    def test_rows_kernel_matches_numpy(self, d):
        import numpy as np

        rows = tuple(tuple(map(float, row)) for row in d)
        assert (spaces._min_constant_rows(rows).hex()
                == spaces._min_constant(np.array(rows)).hex())


class TestDataclass:
    DIST = ((0.0, 1.0, 2.0), (1.0, 0.0, 4.0), (2.0, 4.0, 0.0))

    def test_given_constant_is_kept(self, no_kernel):
        assert FiniteSpace(dist=self.DIST, s=1.5).s == 1.5
        assert replace(FiniteSpace(dist=self.DIST, s=1.5), s=2.0).s == 2.0

    def test_constant_stays_required(self):
        with pytest.raises(TypeError):
            FiniteSpace(dist=self.DIST)
        with pytest.raises(FrozenInstanceError, match="cannot assign to field 's'"):
            validate_finite_space(self.DIST).s = 2.0

    def test_equality_hash_repr_and_json(self):
        fs = validate_finite_space(self.DIST)
        again = validate_finite_space([list(row) for row in self.DIST])
        assert fs == again and hash(fs) == hash(again)
        assert fs != replace(again, s=math.nextafter(fs.s, math.inf))
        assert repr(fs) == f"FiniteSpace(dist={self.DIST!r}, s=1.3333333333333333)"
        assert space_to_json(fs) == {"dist": [list(row) for row in self.DIST],
                                     "s": 1.3333333333333333}

    def test_infinite_constant_is_refused(self):
        with pytest.raises(ConstantOverflow):
            FiniteSpace(dist=self.DIST, s=math.inf)
        with pytest.raises(ConstantOverflow):
            replace(validate_finite_space(self.DIST), s=math.inf)


@pytest.mark.filterwarnings("error:overflow encountered:RuntimeWarning")
class TestOverflow:
    @pytest.mark.parametrize("form", ["list", "array"])
    @pytest.mark.parametrize("n", [3, 64])
    def test_overflow_raises_from_validation(self, n, form):
        d = overflowing(n)
        with pytest.raises(ConstantOverflow):
            validate_finite_space(d.tolist() if form == "list" else d)

    def test_ratio_at_the_bound_computes_the_constant_in_validation(self, kernel_calls):
        big = spaces._FINITE_RATIO_BOUND
        fs = validate_finite_space([[0.0, 1.0, big], [1.0, 0.0, big], [big, big, 0.0]])
        assert kernel_calls == ["_min_constant_rows"]
        assert fs.s == 1.0

    @pytest.mark.parametrize("form", ["list", "array"])
    @pytest.mark.parametrize("n", [3, 16])
    def test_large_entries_of_small_ratio_wait(self, n, form, kernel_calls):
        d = family_matrix(n, "uniform", seed=n) * 1e305
        fs = validate_finite_space(d.tolist() if form == "list" else d)
        assert kernel_calls == []
        assert fs.s.hex() == k_loop_min_constant(d).hex()

    def test_ratio_below_the_bound_waits(self, kernel_calls):
        big = spaces._FINITE_RATIO_BOUND / 2.0
        fs = validate_finite_space([[0.0, 1.0, big], [1.0, 0.0, big], [big, big, 0.0]])
        assert kernel_calls == []
        assert fs.s == 1.0


# the wide run certifies no trial, so it reads no constant at all
@pytest.mark.parametrize("max_points, g2", [(8, 6), (256, 0)])
def test_fuzz_reads_the_constant_of_g2_instances_only(max_points, g2, kernel_calls):
    report = fuzz(FuzzConfig(seed=7, trials=30, max_points=max_points))
    assert report.g2_instances == g2
    assert len(kernel_calls) == g2
