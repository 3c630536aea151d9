"""``verify_step_chaining`` against a spec written from its docstring.

``spec_blocks`` and ``spec_step_chaining`` use no gphi code.  They read a
trace as plain data: the recorded orbit x_0 .. x_K, the stop reason, the
fixed point, the metric, the space's zero rule and its constant s.  Past
an exact stop the orbit is its fixed point.  A block is checkable when every one of its n
points is known; the spec scans blocks until they lie wholly past the
record, so it also covers blocks that run past an exact stop.

With the space's own constant every block passes, since the chained
bound implies the direct one.  The finite traces therefore also run with
s understated to 1, where a block that is skipped or misread changes the
verdict.  Among them are traces that stop on tolerance or budget whose
only failing block is the last one the record holds.
"""

from random import Random

import pytest

from gphi.contraction import AffineMap, FiniteMap
from gphi.errors import TailNotSmall
from gphi.solver import picard_iterate, verify_step_chaining
from gphi.spaces import AnalyticSpace, replace, validate_finite_space
from test_harness import dyadic_chain
from test_lemma_pass import _halving_chain

INTERVAL_ZERO = 1e-12           # an interval step below this is zero-class
BLOCK_SIZES = range(1, 6)
EPSILONS = [2.0 ** -k for k in (-1, 1, 3, 6, 10, 16, 24, 40, 60)]


def spec_blocks(orbit, stop_reason, fixed_point, dist, zero, s, n, eps):
    """m0 and the verdict of every checkable block from m0 on, as
    (base, holds) pairs, or None where no recorded tail of steps lies below
    the threshold."""
    exact = stop_reason == "exact-fixed-point"
    last = len(orbit) - 1

    def x(k):
        return orbit[k] if k <= last else fixed_point

    try:
        thr = eps / (n * s ** n)
    except OverflowError:
        thr = 0.0
    below = [zero(d) or d < thr for d in (dist(orbit[k], orbit[k + 1]) for k in range(last))]
    # k0: the first step index from which every recorded step is below thr
    k0 = min(k for k in range(last + 1) if all(below[k:]))
    if k0 == last and not exact:
        return None
    m0 = (k0 + 1 + n - 1) // n                  # ceil((k0 + 1) / n)

    verdicts = []
    base = m0 * n
    # a block is known if it ends in the record or lies past an exact stop;
    # past the record by more than a block, every block is the fixed point
    while base + n - 1 <= last or (exact and base <= last + 2 * n):
        holds, chained, s_power = True, 0.0, 1.0
        for p in range(1, n):
            s_power *= s
            step = dist(x(base + p - 1), x(base + p))
            if not zero(step):
                chained += s_power * step
            holds = holds and dist(x(base), x(base + p)) < eps and chained < eps
        verdicts.append((base, holds))
        base += n
    return m0, verdicts


def spec_step_chaining(*view_n_eps):
    """(m0, holds), or None where the spec finds no tail."""
    found = spec_blocks(*view_n_eps)
    return found and (found[0], all(holds for _, holds in found[1]))


def _view(trace, dist, zero, s):
    return trace.orbit, trace.stop_reason, trace.fixed_point, dist, zero, s


def _finite_views(space, T, max_iters, tols=(0.0,)):
    """Every trace of T on ``space`` under each budget and tolerance, once
    with the space's constant and once with s understated to 1."""
    matrix = [list(row) for row in space.dist]

    def dist(a, b):
        return matrix[a][b]

    def zero(d):
        return d == 0.0

    views = []
    for s in {space.s, 1.0}:
        run_space = replace(space, s=s)
        for x0 in space.points:
            for max_iter in max_iters:
                for tol in tols:
                    trace = picard_iterate(run_space, T, x0, max_iter=max_iter, tol=tol)
                    views.append((trace, _view(trace, dist, zero, s)))
    return views


def _random_finite(seed):
    rng = Random(seed)
    size = rng.randint(2, 8)
    entries = [[0.0] * size for _ in range(size)]
    for i in range(size):
        for j in range(i + 1, size):
            entries[i][j] = entries[j][i] = rng.choice((1.0, 0.5, 0.25)) * (1.0 - rng.random())
    mapping = [rng.randrange(size) for _ in range(size)]
    if seed % 2:                # a tree into one fixed point: every orbit stops exactly
        order = list(range(size))
        rng.shuffle(order)
        mapping = [order[0]] * size
        for depth, v in enumerate(order[1:], 1):
            mapping[v] = order[rng.randrange(depth)]
    return validate_finite_space(entries), FiniteMap(tuple(mapping))


def _close_neighbours(size, cycle):
    # d(i, i + 1) = 2^-i and d(i, j) = 4 otherwise, under the shift toward
    # the last point or round the cycle: every block of three points or more
    # fails once s is understated to 1
    space = validate_finite_space([[0.0 if i == j else 2.0 ** -min(i, j) if abs(i - j) == 1
                                    else 4.0 for j in range(size)] for i in range(size)])
    return space, FiniteMap(tuple((i + 1) % size if cycle else min(i + 1, size - 1)
                                  for i in range(size)))


def _interval_views():
    space = AnalyticSpace(0.0, 1.0, 2.0)

    def dist(a, b):
        return abs(a - b) ** 2.0

    def zero(d):
        return d < INTERVAL_ZERO

    views = []
    for a, b in ((0.5, 0.0), (0.5, 0.25), (-0.5, 0.75), (0.9, 0.05), (0.25, 0.5)):
        for x0 in (0.0, 1.0, 0.3):
            for max_iter in (1, 2, 3, 4, 6, 9, 13, 40, 10_000):
                for tol in (0.0, 1e-4, 1e-10):
                    trace = picard_iterate(space, AffineMap(a, b), x0, max_iter=max_iter, tol=tol)
                    views.append((trace, _view(trace, dist, zero, space.s)))
    return views


def _family(name):
    if name == "random-finite":
        views = []
        for seed in range(24):
            space, T = _random_finite(seed)
            views += _finite_views(space, T, (1, 2, 3, 5, 9), tols=(0.0, 0.3))
        return views
    if name == "close-neighbours":
        return [v for size, cycle in ((9, False), (14, False), (7, True)) for v in _finite_views(
            *_close_neighbours(size, cycle), range(1, size + 1), tols=(0.0, 2.0 ** -7))]
    if name == "dyadic-chains":
        return [v for size in (9, 32) for v in _finite_views(
            *dyadic_chain(Random(size), size), (3, 7, 8, size), tols=(0.0, 1e-10))]
    if name == "halving-chains":
        return [v for size, scale in ((24, 2.0 ** 8), (40, 2.0 ** 20)) for v in _finite_views(
            *_halving_chain(size, scale), (5, 12, size), tols=(0.0, 1e-3))]
    return _interval_views()


def _gphi(trace, n, eps):
    try:
        return verify_step_chaining(trace, n, eps)
    except TailNotSmall:
        return None


# what each family must reach for its equality to mean something: stop
# reasons, failing blocks, m0 >= 2, blocks past an exact stop, and a failing
# last block that ends on the last recorded point
REACH = {
    "random-finite": {"exact-fixed-point", "tolerance-met", "budget-exhausted", "cycle",
                      "no-tail", "m0>=2"},
    "close-neighbours": {"exact-fixed-point", "tolerance-met", "budget-exhausted", "cycle",
                         "fails", "no-tail", "m0>=2", "past-the-stop", "last-block-fails"},
    "dyadic-chains": {"exact-fixed-point", "tolerance-met", "budget-exhausted", "no-tail",
                      "m0>=2", "past-the-stop"},
    "halving-chains": {"exact-fixed-point", "tolerance-met", "budget-exhausted", "no-tail",
                       "m0>=2", "past-the-stop"},
    "interval-squared": {"exact-fixed-point", "tolerance-met", "budget-exhausted", "no-tail",
                         "m0>=2", "past-the-stop"},
}


@pytest.mark.parametrize("family", REACH)
def test_step_chaining_meets_its_spec(family):
    reached, mismatches = set(), []
    for trace, view in _family(family):
        reached.add(trace.stop_reason)
        if trace.cycle is not None:
            reached.add("cycle")
        last = len(trace.orbit) - 1
        exact = trace.stop_reason == "exact-fixed-point"
        for n in BLOCK_SIZES:
            for eps in EPSILONS:
                found = spec_blocks(*view, n, eps)
                want = spec_step_chaining(*view, n, eps)
                got = _gphi(trace, n, eps)
                if got != want:
                    mismatches.append((trace.orbit, trace.stop_reason, view[-1], n, eps, got, want))
                if found is None:
                    reached.add("no-tail")
                    continue
                m0, verdicts = found
                failed = [base for base, holds in verdicts if not holds]
                if m0 >= 2:
                    reached.add("m0>=2")
                if exact and any(base < last - 1 and base + n - 1 > last for base, _ in verdicts):
                    reached.add("past-the-stop")
                if failed:
                    reached.add("fails")
                if not exact and failed == [last - n + 1]:
                    reached.add("last-block-fails")
    assert mismatches[:5] == []
    assert reached >= REACH[family]
