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
A draw that passes is checked data: no validation runs on it.  Above the
cut-off the space keeps the vector it drew: its first rows read are
gathered from that triangle, and its dense matrix is built only when the
constant, a refusal or a further row reads it.
"""

import sys
import threading
from functools import lru_cache
from itertools import combinations
from random import Random

import numpy as np
import pytest

import gphi.harness
import gphi.spaces
from gphi.contraction import FiniteMap
from gphi.errors import (ConfigInvalid, GphiError, NegativeEntry, NonFiniteEntry, TooManyPoints,
                         ZeroOffDiagonal)
from gphi.harness import _LEGACY_MT, _drawn_array, generate_operator, generate_space
from gphi.spaces import MAX_FINITE_POINTS, PY_KERNEL_MAX_POINTS, _Rows, validate_finite_space

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
# how a test reads a drawn space's rows: each once, in order or shuffled,
# after its matrix was read, or each row as the first (and the mirrored row
# as the second) of a fresh draw, so that every row is gathered
READS = ("in order", "shuffled", "matrix first", "each gathered")


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


@lru_cache(maxsize=4)          # the reads of one draw run one after another
def loop_hexes(seed, n: int, scale: float = 1.0):
    return hexes(loop_space(seed, n, scale))


def read_hexes(seed, n: int, scale: float, read: str):
    """The hex entries of ``generate_space``'s rows, read as ``read`` says."""
    order = list(range(n))
    if read == "each gathered":
        rows = {}
        for i in order:
            dist = generate_space(seed, n, scale).dist
            rows[i], rows[n - 1 - i] = dist[i], dist[-1 - i]
    else:
        space = generate_space(seed, n, scale)
        if read == "shuffled":
            Random(n).shuffle(order)
        if read == "matrix first" and type(space.dist) is _Rows:
            space.dist.matrix
        rows = {i: space.dist[i] for i in order}
    return [[v.hex() for v in rows[i]] for i in range(n)]


def test_sizes_straddle_the_kernel_cut_off():
    assert PY_KERNEL_MAX_POINTS in SIZES and PY_KERNEL_MAX_POINTS + 1 in SIZES


@pytest.mark.parametrize("read", READS)
@pytest.mark.parametrize("scale", SCALES, ids=repr)
@pytest.mark.parametrize("seed", SEEDS, ids=repr)
@pytest.mark.parametrize("n", SIZES)
def test_entries_equal_the_loop(n, seed, scale, read):
    space = generate_space(seed, n, scale)
    assert space.n == n
    assert all(type(v) is float for row in space.dist for v in row)
    assert read_hexes(seed, n, scale, read) == loop_hexes(seed, n, scale)


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


def _refusal(seed, n, scale, make):
    with pytest.raises(GphiError) as info:
        make(seed, n, scale)
    return type(info.value), str(info.value), info.value.witness


@pytest.mark.parametrize("n", (257, 300))
def test_too_many_points_raises_the_loops_cap(n):
    got = _refusal(SEEDS[1], n, 1.0, generate_space)
    assert got == _refusal(SEEDS[1], n, 1.0, loop_space)
    assert got == (TooManyPoints, f"{n} points exceeds cap 256", None)


@pytest.mark.parametrize("scale, kind", [(0.0, ZeroOffDiagonal), (-0.0, ZeroOffDiagonal),
                                         (-1.0, NegativeEntry), (float("nan"), NonFiniteEntry),
                                         (float("-inf"), NonFiniteEntry)], ids=repr)
@pytest.mark.parametrize("n", (15, 16))
def test_bad_scale_raises_the_loops_refusal(n, scale, kind):
    got = _refusal(SEEDS[0], n, scale, generate_space)
    assert got == _refusal(SEEDS[0], n, scale, loop_space)
    assert got[0] is kind


@pytest.mark.parametrize("seed", SEEDS, ids=repr)
@pytest.mark.parametrize("n", SIZES)
def test_accepted_draw_is_not_validated(n, seed, monkeypatch):
    calls = []
    for module in (gphi.harness, gphi.spaces):
        def spy(matrix, name=module.__name__, validate=module.validate_finite_space):
            calls.append(name)
            return validate(matrix)
        monkeypatch.setattr(module, "validate_finite_space", spy)
    space = generate_space(seed, n, 0.37)
    assert calls == []
    if n <= PY_KERNEL_MAX_POINTS:
        assert type(space.dist) is tuple
        assert all(type(row) is tuple for row in space.dist)
        assert all(type(v) is float for row in space.dist for v in row)
    else:
        assert type(space.dist) is _Rows
        matrix = space.dist.matrix
        assert type(matrix) is np.ndarray and matrix.dtype == np.float64
        assert matrix.flags.c_contiguous and not matrix.flags.writeable
        assert [[v.hex() for v in row] for row in matrix.tolist()] == loop_hexes(seed, n, 0.37)
        assert space.dist.matrix is matrix
        with pytest.raises(ValueError):
            matrix[0, 1] = 1.0
    assert space.s.hex() == loop_space(seed, n, 0.37).s.hex()


@pytest.mark.parametrize("seed", ("rows", "0:0:space", 11))
def test_refused_scan_gathers_its_rows_without_the_matrix(seed, monkeypatch):
    """An uncertified 256-point trial whose catalog scan is refused within
    the pairs of x = 0 reads two rows, those of 0 and of its image: both are
    gathered from the drawn triangle, and the dense matrix is never built."""
    space = generate_space(seed, MAX_FINITE_POINTS)
    T = generate_operator(f"{seed}:operator", space)
    gauges, phis = gphi.harness._prepare_catalogs(gphi.harness.FuzzConfig())
    gathered, built, drawn = [], [], []
    row, matrix = _Rows._row, _Rows.matrix
    monkeypatch.setattr(_Rows, "_row", lambda rows, i: gathered.append(i) or row(rows, i))
    monkeypatch.setattr(_Rows, "matrix",
                        property(lambda rows: built.append(rows) or matrix.fget(rows)))

    def counted_pairs(points, r):
        for pair in combinations(points, r):
            drawn.append(pair)
            yield pair

    monkeypatch.setattr(gphi.harness, "combinations", counted_pairs)
    assert gphi.harness._first_certified(space, T, gauges, phis) is None
    read = {x for x, _ in drawn} | {T.mapping[x] for x, _ in drawn}
    assert read == {0, T.mapping[0]} and T.mapping[0] != 0
    assert sorted(gathered) == sorted(read) and built == []
    assert space.dist._matrix is None


@pytest.mark.parametrize("read", ("matrix", "row"))
def test_matrix_built_midway_by_another_reader(read, monkeypatch):
    """A drawn space releases its vector once its matrix is set.  A reader
    that found no matrix, and in whose read another thread builds it (here
    at the reader's next ``len``), still reads the drawn vector."""
    n = PY_KERNEL_MAX_POINTS + 1
    dist = generate_space(SEEDS[0], n).dist
    length, interrupted = _Rows.__len__, []

    def other_thread_builds(rows):
        if rows is dist and not interrupted:
            interrupted.append(True)
            assert rows.matrix is not None
        return length(rows)

    monkeypatch.setattr(_Rows, "__len__", other_thread_builds)
    got = dist.matrix.tolist() if read == "matrix" else [dist[n - 2]]
    assert interrupted and dist._upper is None
    expected = loop_hexes(SEEDS[0], n)
    assert [[v.hex() for v in row] for row in got] == (expected if read == "matrix"
                                                        else expected[n - 2:n - 1])


def test_threads_draw_the_loops_entries():
    """Each thread loads its own legacy generator: draws made at once in
    several threads, switching often, still equal the loop's.  The threads
    also read the rows of shared drawn spaces, each in its own order, so
    that they gather rows and build the matrix at once."""
    seeds = [f"thread:{k}" for k in range(6)]
    expected = {seed: hexes(loop_space(seed, 36)) for seed in seeds}
    shared = [generate_space("thread:shared", 36) for _ in range(20)]
    got = {}

    def draw(seed):
        order = list(range(36))
        Random(seed).shuffle(order)
        for space in shared:
            assert hexes(generate_space(seed, 36)) == expected[seed]
            rows = {i: space.dist[i] for i in order}
            assert [[v.hex() for v in rows[i]] for i in range(36)] == loop_hexes("thread:shared", 36)
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
