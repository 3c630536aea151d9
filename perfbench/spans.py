"""Span tracing around gphi's public functions, for the traced benchmark run.

The tracer wraps public functions where each calling module binds them (for
example ``gphi.harness.certify_condition_G`` and ``gphi.cli.picard_iterate``),
so spans are recorded from outside the package without editing it.  Each span
keeps its name, start, end, parent span and request; spans live in compact
arrays in memory and are written out once, when the run ends.  Counters that
need a call's arguments or result (pairs scanned, orbit steps, grid points)
are taken by observers at the same boundary.
"""

from __future__ import annotations

import csv
import importlib
import math
from array import array
from collections import Counter
from time import perf_counter

# (span name, [(module, attribute), ...]).  A binding a module no longer has
# is skipped and reported, so the benchmark keeps running across refactors.
BINDINGS = (
    ("harness.fuzz", [("gphi.harness", "fuzz")]),
    ("harness.generate", [("gphi.harness", "generate_space"),
                          ("gphi.harness", "generate_operator")]),
    ("spaces.validate", [("gphi.harness", "validate_finite_space"),
                         ("gphi.spaces", "validate_finite_space")]),
    ("contraction.certify", [("gphi.harness", "certify_condition_G"),
                             ("gphi.cli", "certify_condition_G")]),
    ("gauges.class", [("gphi.harness", "certify_gauge_class"),
                      ("gphi.cli", "certify_gauge_class"),
                      ("gphi.gauges", "certify_gauge_class")]),
    ("gauges.epsilon0", [("gphi.harness", "epsilon0"), ("gphi.cli", "epsilon0"),
                         ("gphi.gauges", "epsilon0")]),
    ("gauges.n_epsilon", [("gphi.harness", "n_epsilon"), ("gphi.solver", "n_epsilon"),
                          ("gphi.gauges", "n_epsilon")]),
    ("gauges.certify_phi", [("gphi.harness", "certify_phi"), ("gphi.cli", "certify_phi")]),
    ("solver.picard", [("gphi.harness", "picard_iterate"), ("gphi.cli", "picard_iterate")]),
    ("solver.fixed_points", [("gphi.harness", "enumerate_fixed_points")]),
    ("solver.g1_termination", [("gphi.harness", "verify_g1_termination")]),
    ("solver.m_epsilon", [("gphi.harness", "m_epsilon")]),
    ("solver.invariant_ball", [("gphi.harness", "verify_invariant_ball")]),
    ("solver.step_chaining", [("gphi.harness", "verify_step_chaining"),
                              ("gphi.solver", "verify_step_chaining")]),
    ("solver.cauchy", [("gphi.harness", "verify_cauchy_bound"),
                       ("gphi.cli", "verify_cauchy_bound")]),
    ("cli.load", [("gphi.cli", "space_from_json"), ("gphi.cli", "operator_from_json"),
                  ("gphi.cli", "gauge_from_json"), ("gphi.cli", "phi_from_json")]),
    ("cli.run", [("gphi.cli", "run_cli")]),
)

OTHER_SPANS = ("gauges.class", "gauges.epsilon0", "gauges.n_epsilon", "gauges.certify_phi",
         "solver.picard", "solver.fixed_points", "solver.g1_termination",
         "solver.m_epsilon", "solver.invariant_ball", "solver.step_chaining",
         "solver.cauchy")
N_BUCKETS = (("n8", 0, 8), ("n64", 8, 64), ("n256", 64, 256))


def _arg(args, kwargs, pos: int, name: str, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _pair_rank(i: int, j: int, n: int) -> int:
    """1-based position of pair (i, j), i < j, in lexicographic order."""
    return i * (n - 1) - i * (i - 1) // 2 + (j - i)


class Tracer:
    """In-memory span recorder with per-layer counters."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.current_request = -1
        self.counters: Counter = Counter()
        self.errors: Counter = Counter()
        self.validate_n: dict[int, int] = {}     # span index -> n
        self.skipped: list[str] = []
        self._saved: list = []

    def new_request(self):
        self.current_request += 1

    def wrap(self, name: str, fn, observe=None, starts_request: bool = False):
        """``fn`` recording one span per call; the bookkeeping sits outside it."""
        nid = self._ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        names, parents, requests = self.name, self.parent, self.request
        starts, ends, stack, errors = self.start, self.end, self.stack, self.errors

        def traced(*args, **kwargs):
            if starts_request:
                self.current_request += 1
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            requests.append(self.current_request)
            ends.append(math.nan)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                ends[idx] = perf_counter()
                stack.pop()
                errors[name] += 1
                raise
            ends[idx] = perf_counter()
            stack.pop()
            if observe is not None:
                observe(self, idx, args, kwargs, result)
            return result
        return traced

    # --- patching -------------------------------------------------------

    def install(self):
        from gphi import contraction
        from gphi.gauges import log_grid
        # the sampler is private; without it interval witnesses count the whole sample
        observers = _observers(len(log_grid()), getattr(contraction, "_sample_pairs", None))
        for span, targets in BINDINGS:
            for module_name, attr in targets:
                module = importlib.import_module(module_name)
                original = getattr(module, attr, None)
                if original is None:
                    self.skipped.append(f"{module_name}.{attr}")
                    continue
                self._saved.append((module, attr, original))
                setattr(module, attr, self.wrap(
                    span, original, observers.get(span),
                    starts_request=(attr == "generate_space")))

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    # --- results ----------------------------------------------------------

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.name)
        for i in range(len(self.name)):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        return [self.end[i] - self.start[i] - child[i] for i in range(len(self.name))]

    def write_csv(self, path):
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(("span", "request", "parent", "name", "start_s", "end_s"))
            for i in range(len(self.name)):
                out.writerow((i, self.request[i], self.parent[i],
                              self.names[self.name[i]],
                              repr(self.start[i]), repr(self.end[i])))


def _observers(default_grid_points: int, sample_pairs):
    def on_validate(tr, idx, args, kwargs, space):
        tr.validate_n[idx] = space.n
        tr.counters["spaces.validate.triples"] += space.n ** 3

    def on_certify(tr, idx, args, kwargs, cert):
        space = _arg(args, kwargs, 0, "space")
        tr.counters["contraction.certify.verdict." + cert.verdict] += 1
        w = cert.violation_witness
        if hasattr(space, "n"):
            n = space.n
            pairs = (_pair_rank(w.x, w.y, n) if w is not None else n * (n - 1) // 2)
            tr.counters["contraction.certify.pairs"] += pairs
            return
        count = cert.sampling_mode.get("count", cert.checked_pairs)
        if w is not None and sample_pairs is not None:
            seed = _arg(args, kwargs, 5, "seed", 0)
            for k, (x, y) in enumerate(sample_pairs(space, seed, count), 1):
                if x == w.x and y == w.y:
                    count = k
                    break
        tr.counters["contraction.certify.pairs_sampled"] += count

    def on_grid(tr, idx, args, kwargs, result):
        grid = _arg(args, kwargs, 1, "grid")
        tr.counters["gauges.grid_points"] += (
            default_grid_points if grid is None else len(grid))

    def on_picard(tr, idx, args, kwargs, trace):
        tr.counters["solver.picard.steps"] += trace.k_stop

    def on_cauchy(tr, idx, args, kwargs, diag):
        tr.counters["solver.cauchy.pairs_checked"] += diag.pairs_checked

    return {"spaces.validate": on_validate, "contraction.certify": on_certify,
            "gauges.class": on_grid, "gauges.epsilon0": on_grid,
            "solver.picard": on_picard, "solver.cauchy": on_cauchy}


def layer_metrics(tr: Tracer):
    """Per-layer metrics, plus self time and call count per span name."""
    selfs = tr.self_times()
    calls: Counter = Counter()
    self_s: Counter = Counter()
    for i, s in enumerate(selfs):
        name = tr.names[tr.name[i]]
        calls[name] += 1
        self_s[name] += s
    c = tr.counters
    m = {}

    def trio(prefix, span):
        m[f"{prefix}.calls"] = calls[span]
        m[f"{prefix}.self_s"] = self_s[span]
        m[f"{prefix}.errors"] = tr.errors[span]

    trio("spaces.validate", "spaces.validate")
    triples = c["spaces.validate.triples"]
    m["spaces.validate.ns_per_triple"] = (
        self_s["spaces.validate"] / triples * 1e9 if triples else 0.0)
    for label, lo, cap in N_BUCKETS:
        picked = [selfs[i] for i, n in tr.validate_n.items() if lo < n <= cap]
        m[f"spaces.validate.ms.{label}"] = (
            sum(picked) / len(picked) * 1e3 if picked else 0.0)

    trio("contraction.certify", "contraction.certify")
    pairs = c["contraction.certify.pairs"]
    sampled = c["contraction.certify.pairs_sampled"]
    m["contraction.certify.pairs"] = pairs
    m["contraction.certify.pairs_sampled"] = sampled
    cert_s = self_s["contraction.certify"]
    m["contraction.certify.pairs_per_s"] = (pairs + sampled) / cert_s if cert_s else 0.0
    verdicts = {v: c["contraction.certify.verdict." + v]
                for v in ("certified", "violated", "inconclusive")}
    n_cert = calls["contraction.certify"]
    m["contraction.certify.certified_ratio"] = (
        verdicts["certified"] / n_cert if n_cert else 0.0)
    for v, k in verdicts.items():
        m[f"contraction.certify.verdict.{v}"] = k

    for span in OTHER_SPANS:
        trio(span, span)
    m["gauges.evals"] = c["gauges.evals"]
    m["gauges.grid_points"] = c["gauges.grid_points"]
    m["solver.picard.steps"] = c["solver.picard.steps"]
    m["solver.cauchy.pairs_checked"] = c["solver.cauchy.pairs_checked"]

    m["harness.generate.calls"] = calls["harness.generate"]
    m["harness.generate.self_s"] = self_s["harness.generate"]
    m["harness.fuzz.self_s"] = self_s["harness.fuzz"]
    m["cli.load.self_s"] = self_s["cli.load"]
    m["cli.run.self_s"] = self_s["cli.run"]
    return m, self_s, calls
