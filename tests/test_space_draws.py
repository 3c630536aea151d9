"""``generate_space`` against the pure-Python draw loop it replaced above
PY_KERNEL_MAX_POINTS.

Spaces of more than PY_KERNEL_MAX_POINTS points take their draws from
numpy's legacy MT19937 ``RandomState`` loaded with the state of
``Random(seed)``; every entry must equal the loop's, bit for bit, and bad
scales must fail with the loop's error and witness.  A freshly seeded
generator refills its 624-word state at the first draw and again after
every 312 doubles (two words each): n = 26 (325 draws) is the first size
whose matrix spans a refill, n = 36 (630 draws) the first to span two.
"""

from random import Random

import pytest

from gphi.errors import ConfigInvalid, NonFiniteEntry, ZeroOffDiagonal
from gphi.harness import generate_space
from gphi.spaces import PY_KERNEL_MAX_POINTS, validate_finite_space

SIZES = (2, 15, 16, 17, 25, 26, 35, 36, 37, 200, 256)
SEEDS = (11, "4:7:space")
SCALES = (1.0, 0.37, 2.0 ** -30, 1e3)
# the smallest subnormal: about half of scale * (1 - u) rounds to 0
TINY = 5e-324


def loop_space(seed, n: int, scale: float = 1.0):
    """The draw loop of ``generate_space`` as it was, verbatim."""
    if n < 1:
        raise ConfigInvalid("space needs at least one point")
    rng = Random(seed)
    matrix = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = scale * (1.0 - rng.random())      # uniform in (0, scale]
            matrix[i][j] = v
            matrix[j][i] = v
    return validate_finite_space(matrix)


def hexes(space):
    return [[v.hex() for v in row] for row in space.dist]


def test_sizes_straddle_the_kernel_cut_off():
    assert PY_KERNEL_MAX_POINTS in SIZES and PY_KERNEL_MAX_POINTS + 1 in SIZES


@pytest.mark.parametrize("scale", SCALES, ids=repr)
@pytest.mark.parametrize("seed", SEEDS, ids=repr)
@pytest.mark.parametrize("n", SIZES)
def test_entries_equal_the_loop(n, seed, scale):
    space = generate_space(seed, n, scale)
    assert space.n == n
    assert all(type(v) is float for row in space.dist for v in row)
    assert hexes(space) == hexes(loop_space(seed, n, scale))


def _error(seed, n, scale, make):
    with pytest.raises((ZeroOffDiagonal, NonFiniteEntry)) as info:
        make(seed, n, scale)
    return type(info.value), str(info.value), getattr(info.value, "witness", None)


@pytest.mark.parametrize("n", (15, 16, 36, 256))
def test_underflowing_scale_raises_the_loops_zero_witness(n):
    got = _error(SEEDS[1], n, TINY, generate_space)
    assert got == _error(SEEDS[1], n, TINY, loop_space)
    assert got[0] is ZeroOffDiagonal and got[2] is not None


@pytest.mark.parametrize("n", (15, 16, 256))
def test_infinite_scale_raises_the_loops_non_finite_entry(n):
    got = _error(SEEDS[0], n, float("inf"), generate_space)
    assert got == _error(SEEDS[0], n, float("inf"), loop_space)
    assert got[0] is NonFiniteEntry
