"""The fuzz harness's draws against the stdlib loops they replaced.

Spaces of more than PY_KERNEL_MAX_POINTS points take their draws from
numpy's legacy MT19937 seeded with the ``init_by_array`` key that
``Random.seed`` derives from the seed (a seed of another type loads the
state of ``Random(seed)``); the generator must hold the state of
``Random(seed)``, every entry must equal the loop's, bit for bit, and bad
scales must fail with the loop's error and witness.  A freshly seeded
generator refills its 624-word state at the first draw and again after
every 312 doubles (two words each): n = 26 (325 draws) is the first size
whose matrix spans a refill, n = 36 (630 draws) the first to span two.
``generate_operator`` draws its indices as ``Random.randrange`` does.
Spaces of at most PY_KERNEL_MAX_POINTS points, operators and ``fuzz``'s
trial sizes each draw from their own ``_random.Random``, seeded with the
int that ``Random.seed`` derives from a str, bytes or int seed; it must
draw what ``Random(seed)`` draws, also while another one draws, and the
rows built from the per-n index table must be those of the row loop they
replaced.  A draw that passes is checked data: no validation runs on it.
Above the cut-off the space's rows (``harness._Rows``) draw only the
prefix of the triangle that their reads reach, and every row is gathered
from that prefix; the constant reads an array of the rows, and must equal
the k-loop reference.
"""

import sys
import threading
import weakref
from collections import Counter
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
from gphi.harness import (_LEGACY_MT, FuzzConfig, _Rows, _seeded, fuzz, generate_operator,
                          generate_space)
from gphi.spaces import MAX_FINITE_POINTS, PY_KERNEL_MAX_POINTS, validate_finite_space

from test_validation_kernels import k_loop_min_constant

SIZES = (2, 15, 16, 17, 25, 26, 35, 36, 37, 200, 256)
# a float seed has no init_by_array key: its draws load Random's state
SEEDS = (11, "4:7:space", 2.5)


class LyingAbs(int):
    """An int whose ``abs`` is not its absolute value: ``Random`` seeds with
    ``int.__abs__`` all the same."""

    def __abs__(self):
        return 5


# a seed of each kind that Random.seed turns into a key: one word (0 to
# 2**32 - 1, and -5 and LyingAbs(-3) through their absolute value), two
# words, and strings and bytes through SHA-512
KEY_SEEDS = (0, 1, 11, 2 ** 32 - 1, 2 ** 32, -5, LyingAbs(-3), "", "é:0:space", "x" * 1000,
             b"abc")
# seeds that _seeded reads as an int
INT_SEEDS = ("0:1:space", "", b"abc", 0, -5, True, 2 ** 200, -2 ** 64, LyingAbs(-3))
# fuzz's size draw: one bit (2), a width of 2**k (3, 17), rejections
# (8, 16, 64, 256) and the kernel cut-off (15, 16)
SIZE_CAPS = (2, 3, 8, 15, 16, 17, 64, 256)
# n = 2**k rejects about half of the getrandbits(k + 1) draws
OPERATOR_SIZES = (1, 2, 3, 8, 15, 16, 64, 128, 255, 256)
SCALES = (1.0, 0.37, 2.0 ** -30, 1e3)
# the smallest subnormal: about half of scale * (1 - u) rounds to 0
TINY = 5e-324
# how a test reads a drawn space's rows: each once, in order or shuffled,
# after its constant was read, or each row as the first (and the mirrored
# row as the second) of a fresh draw
READS = ("in order", "shuffled", "s first", "each gathered")


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
        if read == "s first":
            assert space.s.hex() == loop_s(seed, n, scale).hex()
        rows = {i: space.dist[i] for i in order}
    return [[v.hex() for v in rows[i]] for i in range(n)]


def total(n: int) -> int:
    return n * (n - 1) // 2


def prefix_of_row(i: int, n: int = MAX_FINITE_POINTS) -> int:
    """The entries of the drawn triangle, in row-major order, up to the
    last one of row i: the rows above it and row i's own n - 1 - i."""
    return i * (2 * n - i - 1) // 2 + n - 1 - i


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
    # rows drawn one entry deep leave the generator one double past the
    # state it was seeded with
    _Rows(seed, 2, 1.0)._prefix(1)
    _, key, pos, _, _ = _LEGACY_MT.legacy.get_state()
    rng = Random(seed)
    rng.random()
    _, state, _ = rng.getstate()
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


@pytest.mark.parametrize("n", (MAX_FINITE_POINTS + 1, 1000))
def test_too_many_points_raises_before_drawing(n, monkeypatch):
    # the draw and the rows of 1000 points cost n**2 time and memory
    draws = []
    monkeypatch.setattr(gphi.harness, "_Rows", lambda *args: draws.append(args))
    monkeypatch.setattr(gphi.harness, "_seeded", lambda seed: draws.append(seed))
    with pytest.raises(TooManyPoints, match=f"^{n} points exceeds cap {MAX_FINITE_POINTS}$"):
        generate_space(SEEDS[1], n)
    assert draws == []


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
        assert hexes(space) == loop_hexes(seed, n, 0.37)
    assert space.s.hex() == loop_space(seed, n, 0.37).s.hex()
    assert space.s.hex() == loop_s(seed, n, 0.37).hex()


@pytest.mark.parametrize("seed", ("rows", "0:0:space", 11))
def test_refused_scan_gathers_only_its_two_rows(seed, monkeypatch):
    """An uncertified 256-point trial whose catalog scan is refused within
    the pairs of x = 0 reads two rows, those of 0 and of its image: each is
    gathered once from the drawn triangle, which is drawn no further."""
    space = generate_space(seed, MAX_FINITE_POINTS)
    T = generate_operator(f"{seed}:operator", space)
    gauges, phis = gphi.harness._prepare_catalogs(gphi.harness.FuzzConfig())
    gathered, drawn = [], []
    gather = _Rows._gather
    monkeypatch.setattr(_Rows, "_gather", lambda rows, i: gathered.append(i) or gather(rows, i))

    def counted_pairs(points, r):
        for pair in combinations(points, r):
            drawn.append(pair)
            yield pair

    monkeypatch.setattr(gphi.harness, "combinations", counted_pairs)
    assert gphi.harness._first_certified(space, T, gauges, phis) is None
    read = {x for x, _ in drawn} | {T.mapping[x] for x, _ in drawn}
    assert read == {0, T.mapping[0]} and T.mapping[0] != 0
    assert sorted(gathered) == sorted(read)
    # the draw stops at the end of the later row's own entries
    assert space.dist._filled == max(map(prefix_of_row, read)) < total(space.n)


@pytest.mark.parametrize("read", ("s", "row"))
def test_triangle_drawn_midway_by_another_reader(read, monkeypatch):
    """A reader in whose read another thread draws the whole triangle (here
    by reading the last row at the reader's next ``len``) still reads the
    loop's entries, and the constant of the loop's rows."""
    n = PY_KERNEL_MAX_POINTS + 1
    space = generate_space(SEEDS[0], n)
    dist, length, interrupted = space.dist, _Rows.__len__, []

    def other_thread_draws(rows):
        if rows is dist and not interrupted:
            interrupted.append(True)
            rows[n - 1]
            assert rows._filled == total(n)
        return length(rows)

    monkeypatch.setattr(_Rows, "__len__", other_thread_draws)
    expected = loop_hexes(SEEDS[0], n)
    if read == "s":
        assert space.s.hex() == loop_s(SEEDS[0], n, 1.0).hex()
    else:
        assert [v.hex() for v in dist[n - 2]] == expected[n - 2]
    assert interrupted
    assert hexes(space) == expected


def test_threads_draw_the_loops_entries():
    """Each thread loads its own legacy generator: draws made at once in
    several threads, switching often, still equal the loop's.  The threads
    also read the rows of shared drawn spaces, each in its own order, so
    that they gather rows at once."""
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


def loop_rows(drawn, n: int):
    """The row loop of ``generate_space`` that the index table replaced,
    verbatim."""
    rows, start = [], 0
    for i in range(n):      # row i: column i of the rows above, 0, its own draws
        end = start + n - 1 - i
        rows.append((*[row[i] for row in rows], 0.0, *drawn[start:end]))
        start = end
    return tuple(rows)


@pytest.mark.parametrize("n", range(1, PY_KERNEL_MAX_POINTS + 1))
def test_table_rows_equal_the_row_loop(n):
    # distinct entries, so that a wrong index picks a wrong value
    random = Random(f"rows:{n}").random
    drawn = [1.0 - random() for _ in range(n * (n - 1) // 2)]
    rows = generate_space(f"rows:{n}", n).dist
    assert rows == loop_rows(drawn, n)
    assert all(type(row) is tuple for row in rows)


@pytest.mark.parametrize("seed", INT_SEEDS, ids=lambda seed: repr(seed)[:12])
def test_seeded_generators_draw_what_random_draws(seed):
    mt, rng = _seeded(seed), Random(seed)
    assert [mt.random() for _ in range(700)] == [rng.random() for _ in range(700)]
    mt, rng = _seeded(seed), Random(seed)
    assert [mt.getrandbits(k) for k in range(1, 40)] == [rng.getrandbits(k) for k in range(1, 40)]
    # two generators read in turn each draw their own seed's stream
    a, b = _seeded(seed), _seeded("interleaved")
    pairs = ((a, Random(seed)), (b, Random("interleaved")))
    for k in range(1, 40):
        for mt, rng in pairs:
            assert mt.random() == rng.random()
            assert mt.getrandbits(k) == rng.getrandbits(k)


@pytest.mark.parametrize("seed", (1.5, -0.0, None, bytearray(b"abc")), ids=repr)
def test_other_seeds_draw_from_random(seed):
    try:
        expected = Random(seed).getstate()
    except TypeError:               # Python 3.10 refuses a bytearray seed
        with pytest.raises(TypeError):
            _seeded(seed)
        return
    rng = _seeded(seed)
    assert type(rng) is Random
    if seed is not None:            # None seeds from the system's entropy
        assert rng.getstate() == expected


@pytest.mark.parametrize("seed", ([1], {"a": 1}, {1}), ids=lambda seed: type(seed).__name__)
def test_unsupported_seed_raises_randoms_error(seed):
    with pytest.raises(TypeError) as expected:
        Random(seed)
    with pytest.raises(TypeError) as got:
        generate_space(seed, 5)
    assert str(got.value) == str(expected.value)


@pytest.mark.parametrize("max_points", SIZE_CAPS)
def test_fuzz_sizes_are_randint_draws(max_points, monkeypatch):
    sizes = []
    draw = gphi.harness.generate_space
    monkeypatch.setattr(gphi.harness, "generate_space",
                        lambda seed, n, scale: sizes.append(n) or draw(seed, n, scale))
    trials = 12 if max_points > 64 else 60
    fuzz(FuzzConfig(seed=3, trials=trials, max_points=max_points))
    assert sizes == [Random(f"3:{trial}:shape").randint(2, max_points)
                     for trial in range(trials)]


def test_threads_interleave_small_draws():
    """Small draws made at once in two threads, switching often, still
    equal the loops'."""
    seeds = [f"small:{k}" for k in range(40)]
    expected = {seed: (hexes(loop_space(seed, 8)), loop_operator(seed, loop_space(seed, 8)))
                for seed in seeds}
    got = Counter()

    def draw(name):
        for _ in range(5):
            for seed in seeds:
                space = generate_space(seed, 8)
                if (hexes(space), generate_operator(seed, space)) == expected[seed]:
                    got[name] += 1

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=draw, args=(name,)) for name in "ab"]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert got == {"a": 5 * len(seeds), "b": 5 * len(seeds)}


# sizes above the cut-off, the cap among them; seeds of each kind, through
# init_by_array (str, int, bytes) or Random's state (bytearray, float)
PREFIX_SIZES = (16, 17, 100, 255, 256)
PREFIX_SEEDS = ("4:7:space", 11, b"abc", bytearray(b"abc"), 2.5)
# what a space's first reads are: row 0 then row n - 1, whose own entries
# end the triangle, a middle row alone, every row in a shuffled order, or s
FIRST_READS = ("row 0, row n - 1", "middle row", "shuffled rows", "s")


def drawn_rows(seed, n: int, scale: float = 0.37):
    """The rows of the loop's entries, ``scale * (1 - Random(seed).random())``."""
    random = Random(seed).random
    return loop_rows([scale * (1.0 - random()) for _ in range(total(n))], n)


def loop_s(seed, n: int, scale: float) -> float:
    """The k-loop reference constant of the loop's rows."""
    return k_loop_min_constant(np.array(drawn_rows(seed, n, scale)))


def assert_rows(got, expected):
    assert {i: [v.hex() for v in row] for i, row in got.items()} == \
        {i: [v.hex() for v in expected[i]] for i in got}


@pytest.mark.parametrize("first", FIRST_READS)
@pytest.mark.parametrize("seed", PREFIX_SEEDS, ids=repr)
@pytest.mark.parametrize("n", PREFIX_SIZES)
def test_prefix_draws_equal_random(n, seed, first):
    """Whatever a wide space reads first, its entries are the doubles of
    ``Random(seed).random()``, and a row drawn alone draws the prefix that
    ends with its own entries."""
    try:
        expected = drawn_rows(seed, n)
    except TypeError:               # Python 3.10 refuses a bytearray seed
        with pytest.raises(TypeError):
            generate_space(seed, n, 0.37)
        return
    space = generate_space(seed, n, 0.37)
    dist, got = space.dist, {}
    assert dist._filled == 0
    if first == "row 0, row n - 1":
        got = {0: dist[0], n - 1: dist[n - 1]}
        assert dist._filled == total(n)
    elif first == "middle row":
        got = {n // 2: dist[n // 2]}
        assert dist._filled == prefix_of_row(n // 2, n)
    elif first == "shuffled rows":
        order = list(range(n))
        Random(n).shuffle(order)
        got = {i: dist[i] for i in order}
        assert dist._filled == total(n)
    else:
        space.s
        assert dist._filled == total(n)
    assert_rows(got, expected)
    assert_rows(dict(enumerate(dist)), expected)
    assert space.s.hex() == k_loop_min_constant(np.array(expected)).hex()


@pytest.mark.parametrize("n", (16, 100, 256))
def test_spaces_drawn_before_either_is_read(n):
    """Two spaces whose reads alternate take the thread's generator from
    each other: each read reseeds it and skips what its space drew before."""
    a, b = generate_space("two:a", n, 0.37), generate_space("two:b", n, 0.37)
    got = {"two:a": {}, "two:b": {}}
    for seed, space, i in (("two:b", b, n // 2), ("two:a", a, 0), ("two:b", b, n - 1),
                           ("two:a", a, n - 1)):
        got[seed][i] = space.dist[i]
    for seed, space in (("two:a", a), ("two:b", b)):
        expected = drawn_rows(seed, n)
        assert_rows(got[seed], expected)
        assert_rows(dict(enumerate(space.dist)), expected)


def test_read_from_another_thread():
    """A row read in another thread draws on from where this thread's draw
    stopped, through that thread's own generator, and this thread's next
    draw skips what the other drew."""
    n = MAX_FINITE_POINTS
    space = generate_space("other:thread", n, 0.37)
    got = {0: space.dist[0]}

    def read():
        got[n // 2] = space.dist[n // 2]

    thread = threading.Thread(target=read)
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive()
    assert space.dist._filled == prefix_of_row(n // 2)
    expected = drawn_rows("other:thread", n)
    assert_rows(got, expected)
    assert_rows(dict(enumerate(space.dist)), expected)


def test_generator_holds_its_stream_weakly():
    """The thread's generator does not keep the last space it drew alive."""
    space = generate_space("weak", 100)
    space.dist[0]
    held = weakref.ref(space.dist)
    del space
    assert held() is None
