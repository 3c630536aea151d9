"""The fuzz harness's draws against the stdlib loops they replaced.

Spaces of more than PY_KERNEL_MAX_POINTS points take their draws from
numpy's legacy MT19937 ``RandomState`` seeded with the ``init_by_array``
key that ``Random.seed`` derives from the seed (a seed of another type
loads the state of ``Random(seed)``); the generator must hold the state of
``Random(seed)``, every entry must equal the loop's, bit for bit, and bad
scales must fail with the loop's error and witness.  A freshly seeded
generator refills its 624-word state at the first draw and again after
every 312 doubles (two words each): n = 26 (325 draws) is the first size
whose matrix spans a refill, n = 36 (630 draws) the first to span two.
``generate_operator`` draws its indices as ``Random.randrange`` does.
"""

import sys
import threading
from random import Random

import pytest

from gphi.contraction import FiniteMap
from gphi.errors import ConfigInvalid, NonFiniteEntry, ZeroOffDiagonal
from gphi.harness import _LEGACY_MT, _drawn_array, generate_operator, generate_space
from gphi.spaces import PY_KERNEL_MAX_POINTS, validate_finite_space

SIZES = (2, 15, 16, 17, 25, 26, 35, 36, 37, 200, 256)
# a float seed has no init_by_array key: its draws load Random's state
SEEDS = (11, "4:7:space", 2.5)
# a seed of each kind that Random.seed turns into a key: one word (0 to
# 2**32 - 1, and -5 through its absolute value), two words, and strings
# and bytes through SHA-512
KEY_SEEDS = (0, 1, 11, 2 ** 32 - 1, 2 ** 32, -5, "", "é:0:space", "x" * 1000, b"abc")
# n = 2**k rejects about half of the getrandbits(k + 1) draws
OPERATOR_SIZES = (1, 2, 3, 8, 15, 16, 64, 128, 255, 256)
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


def loop_operator(seed, space) -> FiniteMap:
    """``generate_operator`` as it was, verbatim: its indices from the
    stdlib's ``randrange``."""
    rng = Random(seed)
    n = space.n
    base = [rng.randrange(n) for _ in range(n)]
    anchor = rng.randrange(n)
    pulled = tuple(anchor if rng.random() < 0.7 else base[i] for i in range(n))
    return FiniteMap(pulled)


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


@pytest.mark.parametrize("seed", KEY_SEEDS, ids=lambda seed: repr(seed)[:12])
def test_drawn_generator_holds_the_state_of_random(seed):
    # a one-point matrix draws nothing, so the generator is as seeded
    _drawn_array(seed, 1, 1.0)
    _, key, pos, _, _ = _LEGACY_MT.generator.get_state()
    _, state, _ = Random(seed).getstate()
    assert (key.tolist(), pos) == (list(state[:-1]), state[-1])


@pytest.mark.parametrize("n", OPERATOR_SIZES)
def test_operator_equals_the_randrange_draws(n):
    space = generate_space(0, n)
    for k in range(20):
        seed = f"{k}:{n}:operator"
        assert generate_operator(seed, space) == loop_operator(seed, space)


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


def test_threads_draw_the_loops_entries():
    """Each thread loads its own legacy generator: draws made at once in
    several threads, switching often, still equal the loop's."""
    seeds = [f"thread:{k}" for k in range(6)]
    expected = {seed: hexes(loop_space(seed, 36)) for seed in seeds}
    got = {}

    def draw(seed):
        for _ in range(20):
            assert hexes(generate_space(seed, 36)) == expected[seed]
        got[seed] = True

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=draw, args=(seed,)) for seed in seeds]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert sorted(got) == sorted(seeds)
