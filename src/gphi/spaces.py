"""b-metric spaces: finite distance-matrix spaces and power-distance intervals.

A b-metric space relaxes the triangle inequality to
``d(x, y) <= s * (d(x, z) + d(z, y))`` for a constant ``s >= 1``.  Two
concrete families are supported:

* :class:`FiniteSpace` -- an explicit point set with a distance matrix.
  Validation is O(n^2); its checks are stated once, in pure Python, and
  run on the float rows of whatever it is given: a list of rows, or an
  array read through its ``tolist()``.  numpy only computes.  The smallest
  admissible constant, a min-plus row reduction over the pairs i < j (the
  matrix is symmetric), is computed on the first read of ``s``: only the
  quantitative lemmas, JSON output and a declared constant read it, never
  condition (G).  Above PY_KERNEL_MAX_POINTS points numpy computes it from
  an array of the rows.
* :class:`AnalyticSpace` -- a real interval ``[lo, hi]`` carrying the
  distance ``|x - y| ** p``; the constant ``2 ** (p - 1)`` always works.
"""

from __future__ import annotations

import json
import math
import sys
from itertools import chain
from operator import add, itemgetter
from typing import Sequence

from .errors import (
    AsymmetricMatrix,
    ConstantOverflow,
    ConstantTooSmall,
    EmptySequence,
    NegativeEntry,
    NonFiniteEntry,
    NonpositiveRadius,
    NonzeroDiagonal,
    PointOutOfDomain,
    TailLongerThanSequence,
    TooManyPoints,
    ZeroOffDiagonal,
)

# Matrix entries are exact data: zero tests on finite spaces use equality.
# Analytic distances are computed, so "zero" there means below this cutoff.
DELTA_ZERO = 1e-12

# Cap for the O(n^3) minimal-constant scan; desk-scale instances only.
MAX_FINITE_POINTS = 256

# Below this max/min of the off-diagonal entries s cannot overflow.
_FINITE_RATIO_BOUND = 2.0 ** 1000

# Matrices of up to this many points have their constant computed, and
# fuzz spaces their entries drawn, in pure Python.  Above it numpy's vector
# ops repay their per-call overhead; the value is the in-process crossover
# measured with numpy already imported.  Validation does not use it: every
# matrix is checked in pure Python.
PY_KERNEL_MAX_POINTS = 15

# Tail-window policy for liminf/limsup estimation.
MIN_TAIL = 10

BALL_SAMPLES = 128           # points sampled from an interval ball


def _is_numpy_scalar(x, kind: str) -> bool:
    """``isinstance(x, numpy.<kind>)`` without importing numpy: until numpy
    is loaded, no value can be one of its scalars."""
    np = sys.modules.get("numpy")
    return np is not None and isinstance(x, getattr(np, kind))


class _Constant:
    """``FiniteSpace.s``: the constant given or, for ``s=None``, the minimal
    one, computed on the first read and kept; inf raises ConstantOverflow."""

    def __get__(self, space, owner=None):
        if space is None:
            raise AttributeError("s")         # so the field has no default
        if space.__dict__["_s"] is None:
            self.__set__(space, _constant_of(space.dist))
        return space.__dict__["_s"]

    def __set__(self, space, s):
        if s == math.inf:
            raise ConstantOverflow("the b-metric constant overflows the float range")
        space.__dict__["_s"] = s


class FrozenInstanceError(AttributeError):
    """An assignment to, or deletion of, an attribute of a frozen record."""


class _Fresh:
    """A field's default made anew for each record by calling ``make()``."""

    def __init__(self, make):
        self.make = make


class _Fields:
    """A record: the names annotated in its class and its bases are its fields,
    in order, and a class attribute of that name, if any, is the default (a
    ``_Fresh`` one is made per record; one whose descriptor refuses a read
    from the class, like ``_Constant``, is none).  Each subclass gets an
    ``__init__`` that sets the fields through ``object.__setattr__`` and then
    runs ``__post_init__`` if the class has one.  Records are equal when
    they are of the same class with equal field tuples, hash that tuple and
    show as ``Name(field=value, ...)``.  They are frozen unless the class
    statement passes ``frozen=False``, which also leaves them unhashable."""

    _fields = ()

    def __init_subclass__(cls, frozen: bool = True, **kwargs):
        super().__init_subclass__(**kwargs)
        names = tuple(dict.fromkeys(name for base in reversed(cls.__mro__)
                                    for name in base.__dict__.get("__annotations__", ())))
        defaults = {name: getattr(cls, name) for name in names if hasattr(cls, name)}
        every, post = set(names), getattr(cls, "__post_init__", None)
        set_field = object.__setattr__

        def bind(args, kwargs):
            values = list(args)
            for name in names[len(args):]:
                if name in kwargs:
                    values.append(kwargs.pop(name))
                elif name in defaults:
                    d = defaults[name]
                    values.append(d.make() if isinstance(d, _Fresh) else d)
                else:
                    raise TypeError(f"{cls.__qualname__}() missing field {name!r}")
            if kwargs or len(args) > len(names):
                raise TypeError(f"{cls.__qualname__}() takes the fields {names}, got "
                                f"{len(args)} positional and the keywords {list(kwargs)}")
            return zip(names, values)

        def __init__(self, *args, **kwargs):
            if not kwargs and len(args) == len(names):
                values = zip(names, args)
            elif not args and kwargs.keys() == every:
                values = kwargs.items()
            else:
                values = bind(args, kwargs)
            for name, value in values:
                set_field(self, name, value)
            if post is not None:
                post(self)

        cls._fields, cls.__init__ = names, __init__
        if not frozen:
            cls.__setattr__, cls.__delattr__ = object.__setattr__, object.__delattr__
            cls.__hash__ = None

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")


def asdict(value):
    """A record's fields by name, copied so that every record in them, at any
    depth of lists, tuples and dict values, is the dict of its fields too."""
    if isinstance(value, _Fields):
        return {name: asdict(getattr(value, name)) for name in value._fields}
    if isinstance(value, (list, tuple)):
        return type(value)(map(asdict, value))
    if isinstance(value, dict):
        return {k: asdict(v) for k, v in value.items()}
    return value


def replace(record: _Fields, **changes):
    """A new record of the same class, with ``changes`` to its fields."""
    return type(record)(**{name: getattr(record, name) for name in record._fields} | changes)


class _Record(_Fields):
    """A result record whose JSON is exactly its fields; a NaN or a value
    past the float range is written as null."""

    def to_json(self) -> dict:
        return json.loads(json.dumps(asdict(self)), parse_constant=lambda _: None)


class _SpaceKind(_Fields):
    """What a kind of space decides, asked of the space, not of its class: its
    ``kind``, its refusals' ``noun``, ``parse_point`` for text, and for member
    points ``_unchecked_distance``, a ball's candidates and the ``_diameter``."""

    def distance(self, x, y) -> float:
        if not self.contains(x) or not self.contains(y):
            raise PointOutOfDomain(f"point out of domain: {x!r}, {y!r}")
        return self._unchecked_distance(x, y)


class FiniteSpace(_SpaceKind):
    """Finite b-metric space backed by a symmetric distance matrix; ``s=None``
    leaves the O(n^3) minimal constant to the first read of ``s``.  ``dist``
    holds tuple rows, or, in a space the fuzz harness draws, rows that act
    as them."""

    dist: tuple[tuple[float, ...], ...]
    s: float = _Constant()
    kind, noun, parse_point = "finite", "space", int

    @property
    def n(self) -> int:
        return len(self.dist)

    @property
    def points(self) -> range:
        return range(self.n)

    def contains(self, x) -> bool:
        return (type(x) is not bool
                and (isinstance(x, int) or _is_numpy_scalar(x, "integer"))
                and 0 <= x < self.n)

    def _unchecked_distance(self, x: int, y: int) -> float:
        return self.dist[x][y]

    def _ball(self, center: int, eps: float):
        """Every point of B(center, eps), read off the centre's row."""
        return (u for u, d in enumerate(self.dist[center]) if d < eps)

    def _diameter(self, points) -> float:
        """The largest distance among member points, off the distinct ones' rows."""
        pts = sorted(set(points))
        # row x from d(x, x) on: itemgetter of 2+ keys gives a tuple; -0.0 never wins
        return max([0.0, *(max(itemgetter(*pts[i:])(self.dist[x]))
                           for i, x in enumerate(pts[:-1]))])

    def is_zero(self, d: float) -> bool:
        return d == 0.0


class AnalyticSpace(_SpaceKind):
    """Interval ``[lo, hi]`` with distance ``|x - y| ** p`` and ``s = 2**(p-1)``."""

    lo: float
    hi: float
    p: float
    kind, noun, parse_point = "interval", "interval", float

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi) and self.lo < self.hi):
            raise ValueError("interval endpoints must be finite with lo < hi")
        if not (math.isfinite(self.p) and self.p >= 1.0):
            raise ValueError("exponent p must be >= 1")

    @property
    def s(self) -> float:
        try:
            return 2.0 ** (self.p - 1.0)
        except OverflowError:
            raise OverflowError(f"2 ** (p - 1) overflows the float range at p = {self.p}") from None

    def contains(self, x) -> bool:
        if _is_numpy_scalar(x, "floating"):
            x = float(x)        # as float64: numpy would compare in x's own precision
        return type(x) is not bool and isinstance(x, (float, int)) and self.lo <= x <= self.hi

    def _unchecked_distance(self, x: float, y: float) -> float:
        """``|x - y| ** p`` of two points already known to lie in the interval;
        OverflowError where it, or x - y itself, passes the float range."""
        try:
            d = abs(x - y) ** self.p
        except OverflowError:
            d = math.inf
        if d == math.inf:
            raise OverflowError(f"|{x} - {y}| ** {self.p} overflows the float range")
        return d

    def _ball(self, center: float, eps: float):
        """Those of ``BALL_SAMPLES`` evenly spaced points across the ball that
        lie in it: lo + (hi - lo)*t, or, where hi - lo overflows,
        (1 - t)*lo + t*hi, held at hi where rounding takes them past it."""
        r = eps ** (1.0 / self.p)
        lo, hi = max(self.lo, center - r), min(self.hi, center + r)
        span, last = hi - lo, BALL_SAMPLES - 1
        at = ((lambda i: lo + span * i / last) if span < math.inf
              else (lambda i: (1.0 - i / last) * lo + i / last * hi))
        raw = (min(hi, at(i)) for i in range(BALL_SAMPLES))
        return (u for u in raw if self.distance(u, center) < eps)

    def _diameter(self, points) -> float:
        """The distance of the extremes: |x - y| ** p grows with |x - y|."""
        return self._unchecked_distance(max(points), min(points))

    def is_zero(self, d: float) -> bool:
        return d < DELTA_ZERO


Space = FiniteSpace | AnalyticSpace


class BoundReport(_Record):
    """Result of the liminf/limsup sandwich check around a convergent sequence."""

    lower: float
    liminf_est: float
    limsup_est: float
    upper: float
    holds: bool


def _min_constant(d) -> float:
    """Smallest s making d[i,j] <= s*(d[i,k]+d[k,j]) hold for all triples.

    The tightest detour of each pair i < j is the min-plus row reduction
    ``via[i,j] = min_k d[i,k] + d[j,k]``: d is symmetric, so the pairs
    i > j would repeat it.  Row i is added to every later row in one
    reused n x n buffer, so the n^3/2 sums take O(n^2) memory.  The legs
    k = i and k = j equal d[i,j] itself and contribute the ratio 1.
    Division and multiplication round monotonically, so the max of
    d/via equals the max ratio over triples, and d > s*via finds exactly
    the triples s leaves uncovered.  The max ratio is rounded, so
    ``_least_cover`` then nudges it to the least float >= 1 that leaves
    none uncovered.
    """
    import numpy as np

    n = d.shape[0]
    upper = np.triu_indices(n, 1)
    via = np.empty(upper[0].size)          # row-major, like d[upper]
    sums = np.empty((n, n))
    # an overflow gives inf, as in the Python kernel; FiniteSpace rejects it
    with np.errstate(over="ignore"):
        start = 0
        for i in range(n - 1):
            rest = sums[:n - 1 - i]
            np.add(d[i + 1:], d[i], out=rest)
            np.minimum.reduce(rest, axis=1, out=via[start:start + len(rest)])
            start += len(rest)
        d = d[upper]
        s = max(1.0, float(np.max(d / via))) if d.size else 1.0
        return _least_cover(s, lambda c: bool(np.any(d > c * via)))


def _min_constant_rows(d: tuple[tuple[float, ...], ...]) -> float:
    """``_min_constant`` of a validated matrix given as float rows, bit-equal.

    The same row form: ``via[i][j]`` is the min over k of
    ``d[i][k] + d[j][k]`` for the pairs i < j, the numpy kernel's sums; a
    min of non-NaN floats does not depend on the order it reads them in,
    and the ratio max and the ulp nudge are the same.
    """
    n = len(d)
    pairs = [(row[j], min(map(add, row, d[j])))
             for i, row in enumerate(d) for j in range(i + 1, n)]
    s = max(1.0, max([dij / via for dij, via in pairs])) if pairs else 1.0
    return _least_cover(s, lambda c: any(dij > c * via for dij, via in pairs))


def _least_cover(s: float, uncovered) -> float:
    """The least float c >= 1 with ``uncovered(c)`` false, from the rounded
    max ratio ``s``.  ``uncovered`` tests d > c*via, which only turns false
    as c grows, so s steps up while it is uncovered, else down while the
    next float below it is >= 1 and covered: the ratio d/via is rounded to
    nearest and may sit one ulp above the least covering constant."""
    if uncovered(s):
        s = math.nextafter(s, math.inf)
        while uncovered(s):
            s = math.nextafter(s, math.inf)
        return s
    below = math.nextafter(s, -math.inf)
    while below >= 1.0 and not uncovered(below):
        s, below = below, math.nextafter(below, -math.inf)
    return s


def _constant_of(dist) -> float:
    """The minimal constant of validated rows, by the kernel for their size;
    numpy's reads an array of the rows."""
    n = len(dist)
    if n <= PY_KERNEL_MAX_POINTS:
        return _min_constant_rows(dist)
    import numpy as np

    return _min_constant(np.fromiter(chain.from_iterable(dist), float, n * n).reshape(n, n))


def _checked_space(dist, lo: float, hi: float) -> FiniteSpace:
    """The space of checked rows with off-diagonal entries in [lo, hi].  As
    d >= via >= lo, every ratio d/via is at most fl(hi/lo); s waits for its
    first read unless that reaches _FINITE_RATIO_BOUND, and an inf raises."""
    return FiniteSpace(dist, None if hi / lo < _FINITE_RATIO_BOUND else _constant_of(dist))


_PLAIN_ENTRIES = frozenset((int, float))
# a bool reads as 0 or 1, and numpy's str and bytes scalars have __float__
_NOT_NUMBERS = (str, bytes, bool)


def _past_float_range(rows, exc: OverflowError) -> OverflowError:
    """``exc`` naming the first entry of ``rows``, in row-major order, that
    float() takes past the float range, if that entry is an int."""
    # float() rounds an int of at least 2**1024 - 2**970 past the largest float
    at = next(((i, j) for i, row in enumerate(rows) for j, v in enumerate(row)
               if isinstance(v, int) and abs(v) >= 2 ** 1024 - 2 ** 970), None)
    return exc if at is None else OverflowError(f"matrix entry {at} is beyond the float range")


def _listed(x):
    """``x.tolist()`` for an array or an array row, else ``x``."""
    return x if type(x) in (list, tuple) or not hasattr(x, "tolist") else x.tolist()


def _square_rows(matrix) -> list | tuple:
    """The rows of ``matrix``, a list or tuple of rows, or an array (or an
    array row) read through its ``tolist()``.  An entry that float() cannot
    read as a real number, such as a string, bytes, null, a row, a dict or
    a complex, or a boolean (numpy's complex and boolean scalars too), is
    refused, then a matrix that is not square and non-empty.  Rows of plain
    int/float entries, as JSON holds, pass on their length and set of types alone."""
    rows = _listed(matrix)
    rows, n = (rows, len(rows)) if type(rows) in (list, tuple) else ((), 0)
    if n and all(type(row) in (list, tuple) and len(row) == n
                 and set(map(type, row)) <= _PLAIN_ENTRIES for row in rows):
        return rows
    rows = list(map(_listed, rows))
    if any(isinstance(v, _NOT_NUMBERS) or not (hasattr(v, "__float__") or hasattr(v, "__index__"))
           or _is_numpy_scalar(v, "bool_") or _is_numpy_scalar(v, "complexfloating")
           for row in rows for v in (row if type(row) in (list, tuple) else (row,))):
        raise ValueError("matrix entries must be numbers, not strings, booleans or null")
    if not n or any(type(row) not in (list, tuple) or len(row) != n for row in rows):
        raise ValueError("matrix must be square and non-empty")
    return rows


def _first_pair(n: int, bad) -> tuple[int, int]:
    """The first (i, j) in row-major order with ``bad(i, j)``."""
    return next((i, j) for i in range(n) for j in range(n) if bad(i, j))


def _validate_rows(d: tuple[tuple[float, ...], ...]) -> FiniteSpace:
    """The checks of a distance matrix, stated once: finite, non-negative,
    zero on the diagonal, symmetric and positive between distinct points,
    in that order, each refusal naming its first entry in row-major order."""
    n = len(d)
    flat = [v for row in d for v in row]
    if not all(map(math.isfinite, flat)):
        raise NonFiniteEntry("matrix entries must be finite")
    if min(flat) < 0.0:
        i, j = _first_pair(n, lambda i, j: d[i][j] < 0.0)
        raise NegativeEntry(f"negative distance at ({i}, {j})", witness=(i, j))
    for i in range(n):
        if d[i][i] != 0.0:
            raise NonzeroDiagonal(f"nonzero diagonal at ({i}, {i})", witness=(i, i))
    if d != tuple(zip(*d)):
        i, j = _first_pair(n, lambda i, j: d[i][j] != d[j][i])
        raise AsymmetricMatrix(f"asymmetry at ({i}, {j})", witness=(i, j))
    # the diagonal holds n zeros, so any further zero lies off it
    if flat.count(0.0) > n:
        i, j = _first_pair(n, lambda i, j: i != j and d[i][j] == 0.0)
        raise ZeroOffDiagonal(f"zero distance between distinct points ({i}, {j})",
                              witness=(i, j))
    return _checked_space(d, min(filter(None, flat), default=math.inf), max(flat))


def validate_finite_space(matrix: Sequence[Sequence[float]]) -> FiniteSpace:
    """Validate a distance matrix and return a FiniteSpace with the minimal constant.

    Raises AsymmetricMatrix, NegativeEntry, ZeroOffDiagonal, NonzeroDiagonal,
    NonFiniteEntry, TooManyPoints, ConstantOverflow, ValueError for a
    non-number entry or a matrix that is not square, or OverflowError naming
    an entry past the float range.  Every matrix takes one path: its rows,
    an array's through ``tolist()``, are parsed to floats in pure Python and
    checked by ``_validate_rows``, which states the O(n^2) checks once.  s
    is computed on its first read, or here if it could overflow.
    """
    rows = _square_rows(matrix)
    try:
        d = tuple([tuple(map(float, row)) for row in rows])
    except OverflowError as exc:
        raise _past_float_range(rows, exc) from None
    if len(d) > MAX_FINITE_POINTS:
        raise TooManyPoints(f"{len(d)} points exceeds cap {MAX_FINITE_POINTS}")
    return _validate_rows(d)


def ball_membership(space: Space, center, radius: float, candidate) -> bool:
    """Strict membership test d(center, candidate) < radius."""
    if not radius > 0.0:
        raise NonpositiveRadius(f"radius must be positive, got {radius}")
    return space.distance(center, candidate) < radius


def check_limit_bounds(space: Space, seq: Sequence, x_star, y_star,
                       tail: int | None = None, tol: float = 1e-8) -> BoundReport:
    """Estimate liminf/limsup of d(x_n, y_star) and test the 1/s .. s sandwich.

    The estimates are the min/max over the last ``tail`` entries (default:
    last 25% of the sequence, at least MIN_TAIL entries, clamped to the
    sequence length).  For a sequence genuinely converging to ``x_star`` the
    report holds up to ``tol``.
    """
    m = len(seq)
    if m == 0:
        raise EmptySequence("sequence is empty")
    if tail is not None:
        if tail > m:
            raise TailLongerThanSequence(f"tail {tail} exceeds sequence length {m}")
        if tail < 1:
            raise TailLongerThanSequence("tail must be at least 1")
        window = tail
    else:
        window = min(m, max(MIN_TAIL, m // 4))
    vals = [space.distance(x, y_star) for x in seq[-window:]]
    liminf_est = min(vals)
    limsup_est = max(vals)
    dxy = space.distance(x_star, y_star)
    lower = dxy / space.s
    upper = space.s * dxy
    holds = (lower <= liminf_est + tol) and (limsup_est <= upper + tol)
    return BoundReport(lower=lower, liminf_est=liminf_est,
                       limsup_est=limsup_est, upper=upper, holds=holds)


# --- JSON interface ---------------------------------------------------------

def _json_number(value) -> float:
    """A number of a JSON document as a float; a string or a boolean is
    refused rather than parsed or read as 0 or 1, and so is an integer
    beyond the float range."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"expected a JSON number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError("a JSON integer is beyond the float range") from None


def space_to_json(space: Space) -> dict:
    if isinstance(space, FiniteSpace):
        return {"dist": [list(row) for row in space.dist], "s": space.s}
    return {"lo": space.lo, "hi": space.hi, "p": space.p}


def dist_to_json(space: FiniteSpace, pad: str) -> str:
    """``json.dumps(space_to_json(space)["dist"], indent=2)`` with ``pad``
    before every line but the first, byte for byte, from one repr per entry
    pair: a validated matrix is finite, so repr is its JSON, and symmetric,
    so row i takes its first i entries from column i.  Each diagonal entry
    keeps its own repr, which may be -0.0."""
    rows = [[""] * i + list(map(repr, row[i:])) for i, row in enumerate(space.dist)]
    for i, col in enumerate(list(zip(*rows))):
        rows[i][:i] = col[:i]
    entry, line = ",\n" + pad + "    ", "\n" + pad + "  "
    return ("[" + ",".join(line + "[" + line + "  " + entry.join(r) + line + "]" for r in rows)
            + "\n" + pad + "]")


def space_from_json(obj: dict) -> Space:
    """Build a space from its JSON document.

    Finite form: {"dist": [[...], ...], "s": optional override >= computed
    minimum}.  Analytic form: {"lo": .., "hi": .., "p": ..}.
    """
    if not isinstance(obj, dict):
        raise ValueError("space document must be a JSON object")
    if "dist" in obj:
        fs = validate_finite_space(obj["dist"])
        if "s" in obj and obj["s"] is not None:
            given = _json_number(obj["s"])
            if not given >= fs.s:               # NaN included
                raise ConstantTooSmall(
                    f"declared constant {given} below computed minimum {fs.s}")
            fs = replace(fs, s=given)
        return fs
    if {"lo", "hi", "p"} <= set(obj):
        return AnalyticSpace(lo=_json_number(obj["lo"]), hi=_json_number(obj["hi"]),
                             p=_json_number(obj["p"]))
    raise ValueError("space document must contain either 'dist' or 'lo'/'hi'/'p'")
