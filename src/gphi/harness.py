"""Random instance generation and the fuzz loop for the convergence theorem.

Every trial draws a finite b-metric space and a self-map, scans a catalog of
(gauge, comparison-function) pairs exhaustively for condition (G), and -- on
the first certified pair -- asserts the theorem's conclusion: a unique fixed
point reached by the orbit of every start point, plus the quantitative
lemma checks for the matching gauge class.  The scan draws a trial's
informative pairs once for all gauges and evaluates each gauge once per
pair for all comparison functions, in one plain loop over two lists
(``_first_certified``).  Break modes deliberately violate
one hypothesis and confirm that the pipeline routes those instances to
"certification failed" or "expected violation" rather than asserting
anything.

The lemmas of a certified trial come from one pass over T's functional
graph: the points whose orbit reaches the fixed point are found once, and
each one's own path to it gives the block index m, the ball at x_{mn}
(checked once per distinct centre), k0 and m0 with the chained blocks,
and the Cauchy tail's diameter (kept per vertex).  These are the values
the public lemmas of ``gphi.solver`` give on the start point's trace.  A
trace is recorded only for a start point whose orbit ends on a cycle,
where those lemmas run on it, and for the bundle of a failed lemma.

Determinism: all randomness is the stream of ``random.Random`` (Mersenne
Twister) seeded with strings of the form ``"{seed}:{trial}:{stream}"``;
Python's string seeding is the documented SHA-512 based scheme, stable
across platforms, so reports are byte-identical for a given configuration.
A trial's size draw, its space of at most PY_KERNEL_MAX_POINTS points and
its map each draw from a ``_random.Random`` seeded with the int
``Random.seed`` derives from the stream's seed, so each draws what
``Random(seed)`` would.  Spaces above PY_KERNEL_MAX_POINTS draw the same
MT19937 stream through numpy's legacy ``RandomState`` (frozen by NEP 19),
seeded through ``init_by_array`` with that int cut into 32-bit words: its
doubles are those of ``Random.random``.  A space of at most
PY_KERNEL_MAX_POINTS points builds each row with one ``itemgetter``,
which picks the row's n entries from the drawn triangle.

What the harness draws is checked data by construction and is not
checked again: a map it drew is not checked before the scan, and a space
it drew, symmetric with a zero diagonal, has its entries in
[fl(scale * 2**-53), scale], checked data once that range is positive and
finite.  A space from another scale goes to ``validate_finite_space`` to
name the refusal.  Above PY_KERNEL_MAX_POINTS the space draws nothing
until read: its ``_Rows`` hold the stream and the rows, and each row read
draws the prefix of the triangle that ends with the row's own entries and
is gathered from it.  A trial that the catalog scan refuses reads two
rows, those of 0 and of its image, and draws no further.
"""

from __future__ import annotations

import _random
import json
import math
import operator
import threading
import weakref
from itertools import chain, combinations
from random import Random
from typing import NamedTuple

# the SHA-512 that Random.seed hashes with (hashlib would load OpenSSL);
# random's own _sha512 is None on 3.13 until a str or bytes seed fills it in
try:
    from _sha2 import sha512 as _sha512         # 3.12 and later
except ImportError:
    try:
        from _sha512 import sha512 as _sha512   # 3.10 and 3.11
    except ImportError:
        from hashlib import sha512 as _sha512

from .contraction import FiniteMap, _informative_pairs
from .errors import (BudgetExhausted, ConfigInvalid, ConstantOverflow, OrbitTooShort,
                     TailNotSmall, TooManyPoints)
from .gauges import (
    AffinePlusGauge,
    ExpOfFGauge,
    HyperbolicPhi,
    IdentityGauge,
    LinearPhi,
    PowerGauge,
    TabulatedPhi,
    IDENTITY_FORM,
    LN,
    PHI_GRID,
    certify_gauge_class,
    certify_phi,
    epsilon0,
    n_epsilon,
    phi_eval,
)
from .solver import (
    _ball_holds,
    _cauchy_bound,
    _cauchy_tail,
    _power_image,
    _small_step,
    enumerate_fixed_points,
    m_epsilon,
    picard_iterate,
    verify_step_chaining,
)
from .spaces import (MAX_FINITE_POINTS, PY_KERNEL_MAX_POINTS, FiniteSpace, _checked_space,
                     _Fields, _Fresh, _Record, space_to_json, validate_finite_space)

DEFAULT_GAUGE_CATALOG = (
    IdentityGauge(),
    PowerGauge(2.0),
    PowerGauge(0.5),
    AffinePlusGauge(1.0),
    ExpOfFGauge(LN),
)

DEFAULT_PHI_CATALOG = (
    LinearPhi(0.5),
    LinearPhi(0.9),
    HyperbolicPhi(1.0),
)

# Positive-infimum gauges, for runs that focus on the finite-termination branch.
G1_GAUGE_CATALOG = (
    AffinePlusGauge(1.0),
    ExpOfFGauge(IDENTITY_FORM),
)

# A step function pinned to the diagonal: its iterates stagnate, so it fails
# comparison-function certification.  Used by the drop-phi break mode.
BROKEN_PHI = TabulatedPhi(((0.25, 0.25), (1.0, 1.0), (4.0, 4.0)))

N_BUDGET = 10 ** 6           # scan budget of n_epsilon

_LEMMAS = ("unique_fixed_point", "orbit_convergence", "g1_termination",
           "n_epsilon", "m_epsilon", "invariant_ball", "step_chaining",
           "cauchy_bound")


class FuzzConfig(_Fields):
    seed: int = 0
    trials: int = 100
    max_points: int = 8
    scale: float = 1.0
    gauge_catalog: tuple = DEFAULT_GAUGE_CATALOG
    phi_catalog: tuple = DEFAULT_PHI_CATALOG
    break_mode: str = "none"          # none | drop-contraction | drop-phi


class FuzzReport(_Record, frozen=False):
    config: dict
    trials_run: int = 0
    certified_count: int = 0
    theorem_holds_count: int = 0
    uncertified_count: int = 0
    expected_break_count: int = 0
    g1_instances: int = 0
    g2_instances: int = 0
    lemma_counts: dict = _Fresh(lambda: {name: {"pass": 0, "fail": 0} for name in _LEMMAS})
    violations: list = _Fresh(list)

    def to_json_str(self) -> str:
        return json.dumps(self.to_json(), indent=2, sort_keys=True)


_LEGACY_MT = threading.local()
# (gauge catalog, phi catalog) -> (those catalogs, their certified entries)
_KEPT_CATALOGS = {}
_KEPT_CATALOGS_MAX = 16


def generate_space(seed, n: int, scale: float = 1.0) -> FiniteSpace:
    """Random valid finite space: symmetric entries uniform in (0, scale].

    The entries above the diagonal are drawn in row-major order, as
    ``scale * (1 - Random(seed).random())`` each, and mirrored below it.
    Above PY_KERNEL_MAX_POINTS nothing is drawn here: the space's ``_Rows``
    draw the prefix of the triangle that their reads reach.  As 1 - u lies
    in [2**-53, 1], every entry lies in [lo, hi] = [fl(scale * 2**-53),
    scale], so once 0 < lo and hi < inf the draw is checked data before any
    entry is drawn; any other draw is drawn whole and goes to
    ``validate_finite_space`` as tuple rows, which names the refusal as it
    would for the loop's matrix.  An n that ``operator.index`` refuses
    raises ConfigInvalid, and one past MAX_FINITE_POINTS TooManyPoints,
    before anything is drawn."""
    n = _count("n", n)
    if n < 1:
        raise ConfigInvalid("space needs at least one point")
    if n > MAX_FINITE_POINTS:
        raise TooManyPoints(f"{n} points exceeds cap {MAX_FINITE_POINTS}")
    lo, hi = scale * 2.0 ** -53, scale
    if n > PY_KERNEL_MAX_POINTS:
        dist = _Rows(seed, n, scale)
    else:
        random = _seeded(seed).random
        drawn = [scale * (1.0 - random()) for _ in range(n * (n - 1) // 2)]
        drawn.append(0.0)
        dist = tuple([pick(drawn) for pick in _ROW_PICKS[n]])
    if not (0.0 < lo and hi < math.inf):
        return validate_finite_space(tuple(dist))
    return _checked_space(dist, lo, hi)


def _count(name: str, value) -> int:
    """``value`` as ``operator.index`` gives it; a value it refuses, such as
    a float, is refused naming the field."""
    try:
        return operator.index(value)
    except TypeError:
        raise ConfigInvalid(f"{name} must be an integer, not {value!r}") from None


class _Rows:
    """The rows of a space of more than PY_KERNEL_MAX_POINTS points, whose
    entries above the diagonal, in row-major order, are drawn only as far as
    its reads reach: MT19937's stream can only be read in order.  It holds
    the seed's ``_mt_key`` (or ``Random(seed)``'s state for a seed with no
    key), the scale and one float64 buffer of the triangle, into which
    numpy's legacy MT19937 draws the doubles of ``Random(seed).random()``;
    1 - u and the product with the scale are taken in place.  A row is
    gathered from the shortest prefix that holds it on its first read, made
    a tuple of floats and kept; the whole compares, hashes and prints as
    their tuple."""

    __slots__ = ("_seed", "_scale", "_buffer", "_filled", "_lock", "_built", "__weakref__")

    def __init__(self, seed, n: int, scale: float):
        import numpy as np

        key = _mt_key(seed)
        if key is None:
            _, state, _ = Random(seed).getstate()
            key = ("MT19937", np.array(state[:-1], dtype=np.uint32), state[-1])
        self._seed, self._scale, self._filled = key, scale, 0
        self._buffer, self._lock = np.empty(n * (n - 1) // 2), threading.Lock()
        self._built = [None] * n

    def _prefix(self, count: int):
        """The buffer, with at least its first ``count`` entries drawn.  Each
        thread keeps one generator and a weak reference to the rows whose
        stream it holds, with its place there: a draw goes on from that
        place while it holds this stream, and otherwise reseeds it and skips
        the entries drawn before.  The lock orders the draws, each of which
        writes its entries in three steps; ``_filled`` entries are final."""
        import numpy as np

        with self._lock:
            if self._filled >= count:
                return self._buffer
            mt = _LEGACY_MT
            if not hasattr(mt, "legacy"):
                bits = np.random.MT19937()
                mt.legacy, mt.draw = np.random.RandomState(bits), np.random.Generator(bits).random
            held, at = getattr(mt, "held", (None, 0))
            if held is None or held() is not self:
                reseed = mt.legacy.seed if type(self._seed) is list else mt.legacy.set_state
                reseed(self._seed)
                at = 0
            mt.draw(self._filled - at)          # the entries drawn before
            drawn = self._buffer[self._filled:count]
            mt.draw(out=drawn)
            np.subtract(1.0, drawn, out=drawn)
            drawn *= self._scale
            mt.held, self._filled = (weakref.ref(self), count), count
            return self._buffer

    def __len__(self) -> int:
        return len(self._built)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(map(self.__getitem__, range(len(self))[i]))
        row = self._built[i]
        if row is None:
            row = self._built[i] = self._gather(i % len(self))
        return row

    def _gather(self, i: int) -> tuple:
        """Row i read off the triangle up to the end of its own slice: column
        i, 0.0, then the slice.  Row k's slice starts at k (2n - k - 1) / 2,
        so entry (0, i) lies at i - 1 and entry (k, i), 0 < k < i, n - 1 - k
        past entry (k - 1, i)."""
        import numpy as np

        n = len(self)
        steps = np.arange(n - 1, n - 1 - i, -1)
        steps[:1] = i - 1
        start = i * (2 * n - i - 1) // 2
        upper = self._prefix(start + n - 1 - i)
        return (*upper[steps.cumsum()].tolist(), 0.0,
                *upper[start:start + n - 1 - i].tolist())

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))

    def __eq__(self, other):
        return tuple(self) == other if isinstance(other, (tuple, _Rows)) else NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return repr(tuple(self))


def _seed_int(seed) -> int | None:
    """The int that CPython's ``Random.seed`` (version 2) hands its C seeding:
    a str's UTF-8 bytes, or a bytes seed, followed by their SHA-512 and read
    as one big-endian int, or an int's absolute value, taken as ``int``
    takes it whatever ``__abs__`` a subclass defines.  None for every other
    seed, a bytearray included: Python 3.10's ``Random`` refuses one, later
    versions take it, and ``Random(seed)`` gives each version's answer."""
    if isinstance(seed, str):
        seed = seed.encode()
    elif isinstance(seed, int):
        return int.__abs__(seed)
    elif not isinstance(seed, bytes):
        return None
    return int.from_bytes(seed + _sha512(seed).digest(), "big")


def _mt_key(seed) -> list[int] | None:
    """The ``init_by_array`` key of ``Random(seed)``: the 32-bit words of
    ``_seed_int(seed)``, low word first (one word for 0), or None.  The key
    is a list: numpy seeds a scalar, or an array that squeezes to one, with
    ``init_genrand`` instead."""
    seed = _seed_int(seed)
    if seed is None:
        return None
    return [seed >> shift & 0xFFFFFFFF for shift in range(0, seed.bit_length() or 1, 32)]


def _seeded(seed):
    """A generator in the state of ``Random(seed)``, for its ``random`` and
    ``getrandbits`` draws: a ``_random.Random`` seeded with the int that
    ``_seed_int`` reads, through the C-level seeding that ``Random.seed``
    ends in, or ``Random(seed)`` for every other seed."""
    key = _seed_int(seed)
    return Random(seed) if key is None else _random.Random(key)


def _row_pick(n: int) -> tuple:
    """One itemgetter per row of a space drawn on n points, which picks the
    row's entries from ``[*drawn, 0.0]``: ``drawn`` holds the entries above
    the diagonal in row-major order, and the 0.0 after them is every
    diagonal entry."""
    # entry (i, j), i < j, of the drawn triangle is drawn[first[i] + j]
    first = [i * (2 * n - i - 1) // 2 - i - 1 for i in range(n)]
    rows = [[first[min(i, j)] + max(i, j) if i != j else n * (n - 1) // 2 for j in range(n)]
            for i in range(n)]
    # one index would make the itemgetter return the entry; one point's row is the 0.0
    return tuple(operator.itemgetter(*row) for row in rows) if n > 1 else (tuple,)


_ROW_PICKS = [None] + [_row_pick(n) for n in range(1, PY_KERNEL_MAX_POINTS + 1)]


def generate_operator(seed, space: FiniteSpace) -> FiniteMap:
    """Random self-map whose points are pulled toward a random anchor.

    Draw order (base map, anchor, per-point coins) is fixed so outputs are a
    pure function of the seed.  Each of the n + 1 indices is drawn as
    ``Random.randrange(n)`` draws it: ``getrandbits(n.bit_length())``,
    rejected while not below n.
    """
    rng = _seeded(seed)
    getrandbits, random = rng.getrandbits, rng.random
    n = space.n
    k = n.bit_length()
    drawn = []
    for _ in range(n + 1):                  # the base map, then the anchor
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        drawn.append(r)
    anchor = drawn.pop()
    return FiniteMap(tuple([anchor if random() < 0.7 else b for b in drawn]))


def _identity_map(n: int) -> FiniteMap:
    return FiniteMap(tuple(range(n)))


class _CatalogGauge(_Fields):
    gauge: object
    in_g1: bool
    eps0: float | None


def _prepare_catalogs(config: FuzzConfig):
    """The catalogs' certified entries, kept per distinct pair of hashable
    catalogs and reused only for the same objects: equal gauges can describe
    themselves apart (``PowerGauge(2) == PowerGauge(2.0)``).  A catalog that
    fails certification is certified again on every call."""
    catalogs = (config.gauge_catalog, config.phi_catalog)
    try:
        kept, prepared = _KEPT_CATALOGS.get(catalogs, (None, None))
    except TypeError:                   # an unhashable catalog
        return _certified_catalogs(*catalogs)
    if kept is None or not all(map(operator.is_, chain(*kept), chain(*catalogs))):
        prepared = _certified_catalogs(*catalogs)
        if len(_KEPT_CATALOGS) >= _KEPT_CATALOGS_MAX:
            _KEPT_CATALOGS.clear()
        _KEPT_CATALOGS[catalogs] = catalogs, prepared
    return prepared


def _certified_catalogs(gauge_catalog, phi_catalog):
    if not gauge_catalog or not phi_catalog:
        raise ConfigInvalid("catalogs must be non-empty")
    gauges = []
    for G in gauge_catalog:
        cert = certify_gauge_class(G)
        in_g1 = cert.in_g1 == "yes"
        in_g2 = cert.in_g2 == "yes"
        if not (in_g1 or in_g2):
            raise ConfigInvalid(
                f"catalog gauge {G.describe()} is in neither certified class")
        eps0 = epsilon0(G) if in_g2 else None
        gauges.append(_CatalogGauge(G, in_g1, eps0))
    phis = []
    for phi in phi_catalog:
        cert = certify_phi(phi, grid=PHI_GRID)
        if cert.verdict != "member":
            raise ConfigInvalid(
                f"catalog comparison function {phi.describe()} is not a member")
        phis.append(phi)
    return tuple(gauges), tuple(phis)


def fuzz(config: FuzzConfig) -> FuzzReport:
    """Run the fuzz loop and return the report (violations empty = theorem held)."""
    trials, max_points = _count("trials", config.trials), _count("max_points", config.max_points)
    if trials < 1:
        raise ConfigInvalid("trials must be at least 1")
    if not 2 <= max_points <= MAX_FINITE_POINTS:
        raise ConfigInvalid(f"max_points must be between 2 and {MAX_FINITE_POINTS}")
    if not 0.0 < config.scale < math.inf:
        raise ConfigInvalid("scale must be positive and finite")
    if config.break_mode not in ("none", "drop-contraction", "drop-phi"):
        raise ConfigInvalid(f"unknown break mode {config.break_mode!r}")

    gauges, phis = _prepare_catalogs(config)
    report = FuzzReport(config={
        "seed": config.seed, "trials": trials,
        "max_points": max_points, "scale": config.scale,
        "break_mode": config.break_mode,
        "bias_contractive": True,
        "gauges": [g.gauge.describe() for g in gauges],
        "phis": [p.describe() for p in phis],
    })

    if config.break_mode == "drop-phi":
        # the planted comparison function must fail certification
        broken_cert = certify_phi(BROKEN_PHI, grid=[0.25, 1.0, 4.0])
        if broken_cert.verdict == "member":
            raise ConfigInvalid("broken comparison function unexpectedly certified")
        # the only available comparison function is not a member, so no pair
        # can be certified: every trial routes to certification-failed
        report.trials_run = report.expected_break_count = report.uncertified_count = trials
        return report

    # n is randint(2, max_points), drawn as Random.randrange draws it
    width = max_points - 1
    k = width.bit_length()
    for trial in range(trials):
        report.trials_run += 1
        prefix = f"{config.seed}:{trial}:"
        getrandbits = _seeded(prefix + "shape").getrandbits
        r = getrandbits(k)
        while r >= width:
            r = getrandbits(k)
        n = 2 + r
        space = generate_space(prefix + "space", n, config.scale)
        T = generate_operator(prefix + "operator", space)

        if config.break_mode == "drop-contraction":
            T = _identity_map(space.n)
            certified_anyway = _first_certified(space, T, gauges, phis)
            if certified_anyway is not None:
                entry, phi = certified_anyway
                report.violations.append(_bundle(
                    trial, "broken-instance-certified",
                    "an operator with multiple fixed points passed certification",
                    space, T, entry.gauge, phi, None))
            else:
                report.expected_break_count += 1
            continue

        chosen = _first_certified(space, T, gauges, phis)
        if chosen is None:
            report.uncertified_count += 1
            continue

        entry, phi = chosen
        report.certified_count += 1
        ok = _check_theorem(report, trial, space, T, entry, phi)
        if ok:
            report.theorem_holds_count += 1

    return report


def _first_certified(space, T, gauges, phis):
    """First (catalog gauge, phi) pair in catalog order certifying T, or None.

    The verdicts are those of ``certify_condition_G`` on each pair in turn,
    down to the pair at which an evaluation raises, but T, which the harness
    drew itself, is not checked, the informative pairs are drawn once for
    all gauges, and each gauge is evaluated once per pair for all phis.
    Two lists hold what the scans have reached: the informative pairs drawn
    so far, and the current gauge's (G(d), G(dt)) at the first of them.  A
    scan re-reads the values in a plain loop and extends the lists only past
    their end, so the pairs are drawn, and G is evaluated, at the same pairs
    and in the same order as one lazy pass per (gauge, phi) would.  The test
    is ``certify_condition_G``'s strict float test, phi called inline on a
    positive finite float G(d) and through ``phi_eval`` on any other.
    """
    pairs = _informative_pairs(space, T, combinations(space.points, 2))
    drawn = []
    for entry in gauges:
        G = entry.gauge
        values = []
        for phi in phis:
            for g_of_d, g_of_dt in values:
                if not g_of_dt <= (phi.eval(g_of_d) if type(g_of_d) is float
                                   and 0.0 < g_of_d < math.inf else phi_eval(phi, g_of_d)):
                    break
            else:
                while True:
                    if len(values) == len(drawn):
                        pair = next(pairs, None)
                        if pair is None:            # no informative pair violates (G)
                            return entry, phi
                        drawn.append(pair)
                    _, _, d, dt = drawn[len(values)]
                    g_of_d, g_of_dt = G.eval(d), G.eval(dt)
                    values.append((g_of_d, g_of_dt))
                    if not g_of_dt <= (phi.eval(g_of_d) if type(g_of_d) is float
                                       and 0.0 < g_of_d < math.inf else phi_eval(phi, g_of_d)):
                        break
    return None


def _bundle(trial, kind, detail, space, T, gauge, phi, trace) -> dict:
    return {
        "trial": trial,
        "kind": kind,
        "detail": detail,
        "space": space_to_json(space),
        "operator": T.describe(),
        "gauge": gauge.describe(),
        "phi": phi.describe(),
        "trace": trace.to_json() if trace is not None else None,
    }


def _check_theorem(report, trial, space, T, entry, phi) -> bool:
    """Assert the theorem's conclusion on one certified instance; True iff
    every lemma held, that is iff no violation was added.

    The orbits are read off T's functional graph in one pass; a trace is
    recorded only for a start point whose orbit ends on a cycle or whose
    failed lemma bundles it.  The start points whose lemmas all hold are
    tallied in one add per lemma and trial; ``lemma`` tallies, and bundles
    in order, only the lemmas of a point with a failing one."""
    violations_before = len(report.violations)
    traces = {}

    def trace_of(x0):
        # a finite orbit revisits a point within n steps, and only a zero
        # step is a fixed point
        if x0 not in traces:
            traces[x0] = picard_iterate(space, T, x0, max_iter=space.n, tol=0.0)
        return traces[x0]

    def lemma(name, passed, kind, detail, x0=None) -> bool:
        # the one outcome rule: tally, and bundle the counterexample on failure
        report.lemma_counts[name]["pass" if passed else "fail"] += 1
        if passed:
            return passed
        report.violations.append(_bundle(
            trial, kind, detail, space, T, entry.gauge, phi,
            None if x0 is None else trace_of(x0)))
        return passed

    def attempt(check, *args, **kwargs):
        # a check out of budget, recorded orbit, small tail or float range fails its lemma
        try:
            return check(*args, **kwargs)
        except (BudgetExhausted, ConstantOverflow, OrbitTooShort, TailNotSmall):
            return None

    fps = enumerate_fixed_points(space, T)
    if not lemma("unique_fixed_point", len(fps) == 1, "fixed-point-count",
                 f"certified instance has fixed points {sorted(fps)}"):
        return False
    fp = next(iter(fps))

    order = _paths_to(T.mapping, fp)
    cycling = set(space.points).difference(order)
    report.lemma_counts["orbit_convergence"]["pass"] += len(order)
    for x0 in sorted(cycling):
        trace = trace_of(x0)
        lemma("orbit_convergence", False, "orbit-divergence",
              f"orbit from {x0} stopped with {trace.stop_reason} "
              f"at {trace.fixed_point!r} instead of {fp}", x0)

    if entry.in_g1:
        report.g1_instances += 1
        report.lemma_counts["g1_termination"]["pass"] += len(order)
        for x0 in sorted(cycling):
            # a cycling orbit never becomes constant
            lemma("g1_termination", False, "g1-termination",
                  "positive-infimum gauge but orbit never became constant", x0)
        return len(report.violations) == violations_before

    report.g2_instances += 1
    eps = entry.eps0 / 2.0
    n = attempt(n_epsilon, entry.gauge, phi, space.s, eps, budget=N_BUDGET)
    if not lemma("n_epsilon", n is not None, "n-epsilon-budget",
                 "n_epsilon exhausted its budget"):
        return False

    image = _power_image(T.mapping, n)
    bound = attempt(_cauchy_bound, space.s, eps)
    passed = 0                  # the start points whose four lemmas hold
    for x0, orbit in enumerate(_lemma_pass(space, T.mapping, order, n, eps, image)):
        if orbit is None:
            # an orbit that ends on a cycle: the lemmas on its recorded trace
            trace = trace_of(x0)
            m = attempt(m_epsilon, trace, n, eps)
            if m is not None:
                ball = _ball_holds(space, trace.point_at(m * n), eps, image.__getitem__)
                chain = attempt(verify_step_chaining, trace, n, eps)
                # without m0 the Cauchy lemma fails, as verify_cauchy_bound would raise
                diag = chain and attempt(_cauchy_tail, trace, eps, n, m, chain[0])
                cauchy = diag is not None and diag.holds
        else:
            m, ball, chain = orbit.m, orbit.ball, (orbit.m0, orbit.chained)
            cauchy = bound is not None and orbit.diameter <= bound
            if ball and orbit.chained and cauchy:
                passed += 1
                continue
        if not lemma("m_epsilon", m is not None, "m-epsilon-budget",
                     "m_epsilon exhausted its budget", x0):
            continue
        lemma("invariant_ball", ball, "invariant-ball", "image of the ball escaped", x0)
        lemma("step_chaining", chain is not None and chain[1], "step-chaining",
              "block distances exceeded eps", x0)
        lemma("cauchy_bound", cauchy, "cauchy-bound",
              "tail pair distance exceeded 4*s^3*eps", x0)
    for name in ("m_epsilon", "invariant_ball", "step_chaining", "cauchy_bound"):
        report.lemma_counts[name]["pass"] += passed
    return len(report.violations) == violations_before


def _paths_to(mapping, fp) -> list[int]:
    """The points whose orbit under a checked finite map reaches its fixed
    point fp: fp first, and every other point after its image."""
    preimages = [[] for _ in mapping]
    for v, w in enumerate(mapping):
        if v != w:
            preimages[w].append(v)
    order = [fp]
    for w in order:                 # read as it grows: breadth first from fp
        order += preimages[w]
    return order


class _OrbitLemmas(NamedTuple):
    """The lemma values of the orbit of one start point x0."""

    m: int                  # m_epsilon's block index
    ball: bool              # T^n maps the ball B(x_{mn}, eps) into itself
    m0: int                 # verify_step_chaining's block index
    chained: bool           # ... and its verdict on the blocks from m0
    diameter: float         # the largest distance in the tail from x_{max(m, m0) n}


def _lemma_pass(space, mapping, order, n, eps, image) -> list:
    """``_OrbitLemmas`` for each point in ``order`` (see ``_paths_to``), in
    the order of the points, and None for every other point.

    The values are those of ``m_epsilon``, ``_ball_holds``,
    ``verify_step_chaining`` and ``_cauchy_tail`` on the point's trace,
    which is its path to fp, then fp forever; each is read off the path,
    walked once per start point.  On a validated space only a fixed point
    takes a zero step.  Two memos span the start points: the ball verdict
    per distinct centre, which most start points of a fuzz trial share,
    and the tail diameter per vertex, D(v) = max(D(Tv), max of d(v, w)
    over the points w of the path of Tv), which keeps a long chain's
    diameters O(N^2).  ``image`` is the image list of T^n.
    """
    dist, s = space.dist, space.s
    fp = order[0]
    small = _small_step(s, n, eps)
    thr = eps / (2.0 * s)                   # m_epsilon's block threshold
    balls, diameters = {}, {fp: 0.0}
    lemmas = [None] * len(mapping)
    for x0 in order:
        path = [x0]                         # x_0 .. x_L = fp
        while path[-1] != fp:
            path.append(mapping[path[-1]])
        last = len(path) - 1
        # the block scan: x_{mn} and x_{(m+1)n} read off T^n
        a, m = image[x0], 1
        while True:
            b = image[a]
            step = dist[b][a]
            if step == 0.0 or step < thr:
                break
            a, m = b, m + 1
        if a not in balls:
            balls[a] = _ball_holds(space, a, eps, image.__getitem__)
        # k0: one past the last step not below eps/(n s^n)
        k0 = last
        while k0 and dist[path[k0 - 1]][path[k0]] < small:
            k0 -= 1
        m0 = -(-(k0 + 1) // n)
        # each block x_b .. x_{b+p}, p < n, from b = m0 n: d(x_b, x_{b+p}) < eps
        # and the chained sum of s^i d(x_{b+i-1}, x_{b+i}), i <= p, below eps;
        # past fp the terms are zero and the checks repeat, so the blocks
        # from fp on pass
        chained, base = True, m0 * n
        while chained and base < last:
            x = path[base]
            row, acc, spow = dist[x], 0.0, 1.0
            for y in path[base + 1:base + n]:
                spow *= s
                acc += spow * dist[x][y]
                if not (row[y] < eps and acc < eps):
                    chained = False
                    break
                x = y
            base += n
        # the tail from x_cut: D is kept for every point of a kept point's path
        cut = known = min(max(m, m0) * n, last)
        while path[known] not in diameters:
            known += 1
        for i in range(known - 1, cut - 1, -1):
            far = max(map(dist[path[i]].__getitem__, path[i + 1:]))
            diameters[path[i]] = max(diameters[path[i + 1]], far)
        lemmas[x0] = _OrbitLemmas(m, balls[a], m0, chained, diameters[path[cut]])
    return lemmas
