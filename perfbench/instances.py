"""Seeded inputs for the CLI and opaque-gauge workloads, with their truth.

Every generator takes a ``random.Random`` and returns a plain description of
one input plus the answer it has by construction, so that the checks in
``workloads.py`` never ask the program under test what the right answer is.

CLI instances come in three kinds:

* ``finite`` -- small random finite spaces (n <= 8, entries uniform in
  (0, 1], maps pulled toward an anchor).  Their truth is an exact
  ``Fraction`` scan of condition (G) in lexicographic pair order.
* ``chain`` -- the dyadic chain ``d(i, j) = |2^-i - 2^-j|`` under the halving
  shift ``i -> min(i + 1, n - 1)``, scaled by a power of two and randomly
  relabelled.  Halving commutes with float rounding, so
  ``d(Ti, Tj) <= d(i, j) / 2`` holds exactly in floats and the instance is
  certified for ``G = id, phi = t/2`` and ``G = t^2, phi = t/4``; the scan
  therefore covers every pair.
* ``interval`` -- ``[0, 2^m]`` with distance ``|x - y|^p`` and an affine map
  ``a*x + b``.  For ``G = t^q`` condition (G) holds iff ``|a|^(p*q) <= c``,
  with every quantity a dyadic rational, so boundary instances
  (``c == |a|^(p*q)``, like the README's worked instance) hold with equality.
"""

from __future__ import annotations

import math
from fractions import Fraction

FINITE_GAUGES = ({"family": "identity"}, {"family": "power", "q": 2.0})
FINITE_PHIS = ({"family": "linear", "c": 0.5}, {"family": "linear", "c": 0.75},
               {"family": "hyperbolic", "a": 1.0})
CHAIN_PAIRS = (({"family": "identity"}, {"family": "linear", "c": 0.5}),
               ({"family": "power", "q": 2.0}, {"family": "linear", "c": 0.25}))
AFFINE_SLOPES = (0.5, -0.5, 0.75, -0.75, 0.25)


def _gauge_exact(G: dict, d: Fraction) -> Fraction:
    if G["family"] == "identity":
        return d
    return d ** int(G["q"])


def _phi_exact(phi: dict, t: Fraction) -> Fraction:
    if phi["family"] == "linear":
        return Fraction(phi["c"]) * t
    a = Fraction(phi["a"])
    return t / (1 + a * t)


def first_violation(dist, mapping, G: dict, phi: dict):
    """First pair (i, j), i < j, violating condition (G) in exact arithmetic."""
    n = len(dist)
    for i in range(n):
        for j in range(i + 1, n):
            dt = Fraction(dist[mapping[i]][mapping[j]])
            if dt == 0:
                continue
            g_d = _gauge_exact(G, Fraction(dist[i][j]))
            if _gauge_exact(G, dt) > _phi_exact(phi, g_d):
                return (i, j)
    return None


def orbit_end(mapping, x0: int):
    """(stop point, reached fixed point?) of the orbit of x0 under a finite map."""
    seen = {x0}
    x = x0
    while mapping[x] != x:
        x = mapping[x]
        if x in seen:
            return x, False
        seen.add(x)
    return x, True


def finite_instance(rng, max_points: int = 8) -> dict:
    n = rng.randint(2, max_points)
    dist = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            dist[i][j] = dist[j][i] = 1.0 - rng.random()
    base = [rng.randrange(n) for _ in range(n)]
    anchor = rng.randrange(n)
    mapping = [anchor if rng.random() < 0.7 else base[i] for i in range(n)]
    G = rng.choice(FINITE_GAUGES)
    phi = rng.choice(FINITE_PHIS)
    doc = {"space": {"dist": dist}, "operator": {"map": mapping}, "G": G, "phi": phi}
    witness = first_violation(dist, mapping, G, phi)
    x0 = rng.randrange(n)
    end, is_fixed = orbit_end(mapping, x0)
    truth = {"kind": "finite", "n": n, "witness": witness, "x0": x0,
             "orbit_end": end, "reaches_fixed_point": is_fixed}
    return {"doc": doc, "truth": truth}


def chain_instance(rng, n: int) -> dict:
    scale = 2.0 ** rng.randint(-8, 8)
    x = [scale * 2.0 ** -i for i in range(n)]
    label = list(range(n))
    rng.shuffle(label)
    dist = [[0.0] * n for _ in range(n)]
    mapping = [0] * n
    for i in range(n):
        row = dist[label[i]]
        for j in range(n):
            row[label[j]] = abs(x[i] - x[j])
        mapping[label[i]] = label[min(i + 1, n - 1)]
    G, phi = rng.choice(CHAIN_PAIRS)
    doc = {"space": {"dist": dist}, "operator": {"map": mapping}, "G": G, "phi": phi}
    truth = {"kind": "chain", "n": n, "fixed_point": label[n - 1],
             "x0": rng.randrange(n)}
    return {"doc": doc, "truth": truth}


def interval_instance(rng, boundary: bool) -> dict:
    """Affine instance; boundary ones hold with equality, others by a wide margin."""
    p = float(rng.choice((1, 2, 3)))
    q = rng.choice((1, 2))
    hi = 2.0 ** rng.randint(-2, 2)
    a = rng.choice(AFFINE_SLOPES)
    # T maps [0, hi] into itself iff b lies in [max(0, -a*hi), min(hi, hi - a*hi)]
    b_lo, b_hi = max(0.0, -a * hi), min(hi, hi - a * hi)
    b = b_lo + (b_hi - b_lo) * rng.randint(0, 4) / 4.0
    k = abs(Fraction(a)) ** int(p * q)
    if boundary:
        c, holds = k, True
    elif rng.random() < 0.5:
        c, holds = (k + 1) / 2, True        # strictly inside, margin >= (1 - k) / 2
    else:
        c, holds = k / 2, False
    G = {"family": "identity"} if q == 1 else {"family": "power", "q": float(q)}
    doc = {"space": {"lo": 0.0, "hi": hi, "p": p},
           "operator": {"affine": {"a": a, "b": b}},
           "G": G, "phi": {"family": "linear", "c": float(c)}}
    truth = {"kind": "interval", "n": None, "holds": holds, "boundary": boundary}
    return {"doc": doc, "truth": truth}


# --- opaque gauges -----------------------------------------------------------

OPAQUE_KINDS = ("identity", "power", "quadratic")


def opaque_gauge_params(rng, kind: str) -> dict:
    """A G2 gauge given by its log: identity, a^q, or a*(1 + a)."""
    q = round(rng.uniform(0.5, 3.0), 3) if kind == "power" else None
    return {"kind": kind, "q": q,
            "phi": rng.choice(({"family": "linear", "c": 0.5},
                               {"family": "linear", "c": 0.9},
                               {"family": "hyperbolic", "a": 1.0})),
            "s": rng.choice((1.0, 1.5, 2.0, 4.0))}


def log_of_gauge(params: dict):
    """F = ln G for the gauge, as a plain function of a > 0."""
    kind = params["kind"]
    if kind == "identity":
        return math.log
    if kind == "power":
        q = params["q"]
        return lambda a: q * math.log(a)
    return lambda a: math.log(a) + math.log1p(a)
