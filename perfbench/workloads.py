"""The four benchmark workloads: their seeded operations and output checks.

An operation (``Op``) is one request of a closed loop: one fuzz iteration,
one CLI call or one opaque-gauge op.  ``call`` performs it and returns the
raw output; ``check`` compares that output with what the input has by
construction and returns ``None`` or a failure tag.  Tags of the form
``known:<defect>`` name a defect the seed already has (see ``KNOWN_DEFECTS``);
every other tag starts with ``wrong:`` and makes the run incorrect.  Both
kinds count as failed operations.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from random import Random
from typing import Callable

import gphi.cli as cli
import gphi.gauges as gauges
import gphi.harness as harness
from gphi import ExpOfFGauge, FuzzConfig, G1_GAUGE_CATALOG, RealForm, phi_from_json

import instances

KNOWN_DEFECTS = {
    "interval-false-violation":
        "certify reports 'violated' on an interval instance that holds with "
        "equality, from an ulp-level witness (ROADMAP 3(a))",
    "sampled-eps0-overshoot":
        "sampled epsilon0 returns the first grid point past the true threshold, "
        "so sup G on (0, eps0) exceeds the level (ROADMAP 3(c))",
    "step-chaining-overflow":
        "s ** n raises OverflowError in verify_step_chaining when s is large",
}

FLAGSHIP_TRIALS = 1000
G1_SLICE_TRIALS = 200
WIDE_TRIALS = 8
WIDE_STRATA = 4
WIDE_MAX_POINTS = 256
CHAIN_POINTS = (128, 256)
CHAIN_STRATA = 8
# grid points per decade, one op each per round: half the ops are at the
# middle density and a third at the top one, so that op_ms.p50 and op_ms.tail
# each fall well inside a group of ops of one size
GAUGE_DENSITIES = (16, 32, 32, 32, 48, 48)
CLI_TIMEOUT_S = 120
ULP_EXCESS = 2.0 ** -20             # witness excess treated as rounding noise


@dataclass
class Op:
    label: str
    trials: int                                   # work units for ops_per_s
    call: Callable[[bool], object]                # call(in_process) -> output
    check: Callable[[object], str | None]
    info: dict = field(default_factory=dict)      # input capture record
    fingerprint: Callable[[object], object] | None = None


def _exception_tag(exc: BaseException) -> str:
    frames = traceback.extract_tb(exc.__traceback__)
    if isinstance(exc, OverflowError) and frames and frames[-1].name == "verify_step_chaining":
        return "known:step-chaining-overflow"
    return f"wrong:raised {type(exc).__name__}: {exc}"


# --- fuzz workloads ------------------------------------------------------------

def _report_problem(report, trials: int, g1_only: bool) -> str | None:
    if report.violations:
        return f"{len(report.violations)} theorem violations"
    if report.trials_run != trials:
        return f"trials_run {report.trials_run} != {trials}"
    if report.certified_count + report.uncertified_count != trials:
        return "certified + uncertified != trials"
    if report.theorem_holds_count != report.certified_count:
        return "theorem_holds != certified"
    if report.g1_instances + report.g2_instances != report.certified_count:
        return "g1 + g2 != certified"
    if report.expected_break_count:
        return "expected breaks in an unbroken run"
    if g1_only and report.g2_instances:
        return "G2 instances from a G1-only catalog"
    lemmas = report.lemma_counts
    if any(v["fail"] for v in lemmas.values()):
        return "a lemma failed"
    if lemmas["unique_fixed_point"]["pass"] != report.certified_count:
        return "unique_fixed_point passes != certified"
    if lemmas["n_epsilon"]["pass"] != report.g2_instances:
        return "n_epsilon passes != g2 instances"
    return None


def _fuzz_check(configs):
    def check(out):
        if isinstance(out, BaseException):
            return _exception_tag(out)
        for report, (trials, g1_only) in zip(out, configs):
            problem = _report_problem(report, trials, g1_only)
            if problem:
                return f"wrong:fuzz report: {problem}"
        return None
    return check


def _fuzz_op(label: str, configs: list) -> Op:
    def call(_in_process):
        return [harness.fuzz(cfg) for cfg in configs]
    shapes = [(cfg.trials, cfg.gauge_catalog is G1_GAUGE_CATALOG) for cfg in configs]
    info = {"configs": [{"seed": c.seed, "trials": c.trials, "max_points": c.max_points,
                         "g1_catalog": g1} for c, (_, g1) in zip(configs, shapes)]}
    return Op(label, sum(c.trials for c in configs), call, _fuzz_check(shapes), info,
              fingerprint=lambda out: [r.to_json_str() for r in out])


def _histogram(keys) -> dict:
    return dict(sorted(Counter(keys).items()))


def _size_bucket(n: int) -> str:
    return next(f"n<={cap}" for cap in (8, 64, 128, 192, 256) if n <= cap)


def _fuzz_summary(infos: list) -> dict:
    return {"ops": len(infos),
            "trials": sum(c["trials"] for i in infos for c in i["configs"])}


class FuzzFlagship:
    """Each op: the flagship 1000-trial fuzz plus the criterion-5 G1 slice."""

    name = "fuzz-flagship"
    op_seconds = 0.65           # nominal wall time per op, sets the op count

    def __init__(self, seed: int, outdir: Path):
        self.seed = seed

    def ops(self):
        i = 0
        while True:
            s = 1000 * self.seed + i
            yield _fuzz_op(f"fuzz:{s}", [
                FuzzConfig(seed=s, trials=FLAGSHIP_TRIALS, max_points=8),
                FuzzConfig(seed=s, trials=G1_SLICE_TRIALS, gauge_catalog=G1_GAUGE_CATALOG)])
            i += 1

    def summarize(self, infos: list) -> dict:
        """Input properties a later change may depend on, for the manifest."""
        return _fuzz_summary(infos)


def predicted_points(seed: int, trial: int, max_points: int) -> int:
    """Space size fuzz() draws for a trial, from its per-trial "shape" stream."""
    return Random(f"{seed}:{trial}:shape").randint(2, max_points)


class FuzzWide:
    """Each op: a fuzz run of 8 trials at the largest admissible space size.

    Validation cost grows like n^3 and is dominated by the largest spaces,
    so a few random space sizes would make the work per run swing with the
    seed.  Each op's fuzz seed is therefore drawn until its trials fall
    evenly into WIDE_STRATA strata of equal n^3 range (n up to 161, 203, 232
    and 256): every op spreads its validation cost over the size range
    alike.  Strata of equal n range were not enough: on the 2-CPU host the
    benchmark was sized on, validation costs about twice as much per n^3
    above n = 236 as below (the scan's matrices outgrow a cache), and how
    many trials of the top quarter of n landed there still moved a run's
    throughput by 15% from seed to seed.
    """

    name = "fuzz-wide"
    op_seconds = 1.3

    def __init__(self, seed: int, outdir: Path):
        self.seed = seed

    def ops(self):
        rng = Random(f"fuzz-wide:{self.seed}")
        per_stratum = [WIDE_TRIALS // WIDE_STRATA] * WIDE_STRATA
        while True:
            s = rng.randrange(10 ** 9)
            ns = [predicted_points(s, t, WIDE_MAX_POINTS) for t in range(WIDE_TRIALS)]
            counts = [0] * WIDE_STRATA
            for n in ns:
                counts[min(WIDE_STRATA - 1, WIDE_STRATA * n ** 3 // WIDE_MAX_POINTS ** 3)] += 1
            if counts != per_stratum:
                continue
            op = _fuzz_op(f"fuzz:{s}", [
                FuzzConfig(seed=s, trials=WIDE_TRIALS, max_points=WIDE_MAX_POINTS)])
            op.info["n"] = ns
            yield op

    def summarize(self, infos: list) -> dict:
        return dict(_fuzz_summary(infos), n_histogram=_histogram(
            _size_bucket(n) for info in infos for n in info["n"]))


# --- CLI workload --------------------------------------------------------------

def _cli_check(truth: dict, command: str):
    def check(out):
        if isinstance(out, BaseException):
            return _exception_tag(out)
        rc, stdout, stderr = out
        if rc == 1 and "OverflowError" in stderr and "verify_step_chaining" in stderr:
            return "known:step-chaining-overflow"
        try:
            doc = json.loads(stdout) if stdout.strip() else None
        except json.JSONDecodeError:
            doc = None
        if doc is None:
            return f"wrong:exit {rc} without JSON output: {stderr.strip()[-200:]}"
        problem = (_certify_problem(truth, rc, doc) if command == "certify"
                   else _solve_problem(truth, rc, doc))
        if problem and problem.startswith("known:"):
            return problem
        return f"wrong:{truth['kind']} {command}: {problem}" if problem else None
    return check


def _certify_problem(truth: dict, rc: int, cert: dict) -> str | None:
    kind = truth["kind"]
    w = cert.get("violation_witness")
    if kind == "interval":
        if truth["holds"]:
            if rc == 3 and cert["verdict"] == "inconclusive" \
                    and cert.get("note") == "certified-on-sample":
                return None
            if rc == 2 and truth["boundary"] and w is not None \
                    and w["g_of_dt"] - w["phi_bound"] <= ULP_EXCESS * w["phi_bound"]:
                return "known:interval-false-violation"
            return f"holds but exit {rc}, verdict {cert['verdict']}"
        if rc == 2 and w is not None and w["g_of_dt"] > w["phi_bound"]:
            return None
        return f"violated but exit {rc}, verdict {cert['verdict']}"
    n = truth["n"]
    expected = truth.get("witness")
    if expected is None:
        if rc != 0 or cert["verdict"] != "certified":
            return f"certified by construction but exit {rc}, verdict {cert['verdict']}"
        if cert["checked_pairs"] != n * (n - 1) // 2:
            return f"checked_pairs {cert['checked_pairs']} on {n} points"
        return None
    if rc != 2 or w is None:
        return f"exact scan finds a violation but exit {rc}"
    if (w["x"], w["y"]) != tuple(expected):
        return f"witness {(w['x'], w['y'])} but the first exact violation is {tuple(expected)}"
    return None


def _solve_problem(truth: dict, rc: int, out: dict) -> str | None:
    if rc != 0:
        return f"exit {rc}"
    trace = out["trace"]
    if truth["kind"] == "chain":
        want_stop, want_point = "exact-fixed-point", truth["fixed_point"]
    elif truth["reaches_fixed_point"]:
        want_stop, want_point = "exact-fixed-point", truth["orbit_end"]
    else:
        want_stop, want_point = "budget-exhausted", None
    if trace["stop_reason"] != want_stop or trace["fixed_point"] != want_point:
        return (f"stop {trace['stop_reason']} at {trace['fixed_point']}, "
                f"expected {want_stop} at {want_point}")
    certified = truth["kind"] == "chain" or truth["witness"] is None
    if certified:
        diag = out.get("diagnostics")
        if diag is None or not diag["holds"]:
            return f"Cauchy bound missing or failed: {diag or out.get('diagnostics_error')}"
    return None


class CliInstances:
    """Each op: one ``certify`` or ``solve`` call on an instance file."""

    name = "cli-instances"
    op_seconds = 0.25
    # one round of calls: (instance kind, command, certify samples, boundary)
    ROUND = (("finite", "certify", None, None), ("finite", "solve", None, None),
             ("interval", "certify", 256, False), ("interval", "certify", None, "coin"),
             ("chain", "certify", None, None), ("chain", "solve", None, None))

    def __init__(self, seed: int, outdir: Path):
        self.seed = seed
        self.dir = outdir / "instances"
        self.dir.mkdir(parents=True, exist_ok=True)
        root = Path(__file__).resolve().parent.parent
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.root = root

    def _instance(self, rng, kind: str, boundary, k: int):
        if kind == "finite":
            return instances.finite_instance(rng)
        if kind == "chain":
            # the k-th chain takes its size from stratum k mod CHAIN_STRATA of
            # CHAIN_POINTS, so every run sees the size range alike
            lo, hi = CHAIN_POINTS
            width = (hi - lo) // CHAIN_STRATA
            start = lo + width * (k % CHAIN_STRATA)
            return instances.chain_instance(rng, rng.randint(start, start + width))
        if boundary == "coin":
            boundary = rng.random() < 0.5
        return instances.interval_instance(rng, boundary)

    def ops(self):
        rng = Random(f"cli-instances:{self.seed}")
        i = chains = 0
        while True:
            for kind, command, samples, boundary in self.ROUND:
                inst = self._instance(rng, kind, boundary, chains)
                chains += kind == "chain"
                truth = inst["truth"]
                path = self.dir / f"{i:04d}-{kind}-{command}.json"
                text = json.dumps(inst["doc"])
                path.write_text(text)
                args = [command, str(path)]
                if command == "certify" and kind == "interval":
                    args += ["--seed", str(rng.randrange(10 ** 6))]
                    if samples:
                        args += ["--samples", str(samples)]
                if command == "solve":
                    args += ["--x0", str(truth["x0"])]
                    if kind == "chain":
                        args = ["--tol", "0"] + args
                info = {"file": path.name, "kind": kind, "command": command,
                        "bytes": len(text), "n": truth["n"], "argv": args, "truth": truth}
                yield Op(f"{command}:{kind}:{i}", 1, self._caller(args),
                         _cli_check(truth, command), info)
                i += 1

    def summarize(self, infos: list) -> dict:
        return {"files": len(infos), "bytes": sum(i["bytes"] for i in infos),
                "n_histogram": _histogram("interval" if i["n"] is None else _size_bucket(i["n"])
                                          for i in infos)}

    def _caller(self, args):
        def call(in_process: bool):
            if in_process:
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    rc = cli.run_cli(args)
                return rc, out.getvalue(), err.getvalue()
            proc = subprocess.run([sys.executable, "-m", "gphi.cli", *args],
                                  cwd=self.root, env=self.env, capture_output=True,
                                  text=True, timeout=CLI_TIMEOUT_S)
            return proc.returncode, proc.stdout, proc.stderr
        return call


# --- opaque gauges -------------------------------------------------------------

class GaugeOpaque:
    """Each op: class, epsilon0 and n_epsilon of a gauge with no closed forms."""

    name = "gauge-opaque"
    op_seconds = 0.22

    def __init__(self, seed: int, outdir: Path):
        self.seed = seed
        self.evals = 0              # calls of the opaque gauges' fn

    def _counted(self, f):
        def fn(a):
            self.evals += 1
            return f(a)
        return fn

    def ops(self):
        """Rounds of one op per entry of GAUGE_DENSITIES (each off by at most
        one point per decade); the gauge kind rotates with the round, so every
        density sees each kind equally often."""
        rng = Random(f"gauge-opaque:{self.seed}")
        kinds = instances.OPAQUE_KINDS
        r = 0
        while True:
            for j, level in enumerate(GAUGE_DENSITIES):
                params = instances.opaque_gauge_params(rng, kinds[(r + j) % len(kinds)])
                yield self._op(params, level + rng.randint(-1, 1))
            r += 1

    def _op(self, params: dict, per_decade: int) -> Op:
        log_g = instances.log_of_gauge(params)
        name = f"opaque-{params['kind']}"
        opaque = ExpOfFGauge(RealForm(name, self._counted(log_g)))
        twin = ExpOfFGauge(RealForm(name, log_g, increasing=True,
                                    inf_value=-math.inf, diverges_iff_zero=True))
        grid = gauges.log_grid(per_decade=per_decade)
        phi = phi_from_json(params["phi"])
        s = params["s"]

        def call(_in_process):
            cls = gauges.certify_gauge_class(opaque, grid)
            eps0 = gauges.epsilon0(opaque, grid)
            n = gauges.n_epsilon(opaque, phi, s, eps0 / 2.0)
            return cls, eps0, n

        def check(out):
            if isinstance(out, BaseException):
                return _exception_tag(out)
            cls, eps0, n = out
            ref = gauges.certify_gauge_class(twin)
            for got, want in ((cls.in_g1, ref.in_g1), (cls.in_g2, ref.in_g2)):
                if {got, want} == {"yes", "no"}:
                    return f"wrong:class verdict {got}, closed form says {want}"
            thr = eps0 / 2.0 / (2.0 * s)
            if not twin.inf_above(thr) > gauges.phi_iterate(phi, 1.0, n):
                return f"wrong:n_epsilon {n} does not satisfy the strict inequality"
            if twin.sup_below(eps0) > 1.0:
                below = [t for t in grid if t < eps0]
                if below and twin.sup_below(below[-1]) <= 1.0:
                    return "known:sampled-eps0-overshoot"
                return f"wrong:epsilon0 {eps0} overshoots by more than one grid step"
            return None

        info = {"gauge": params, "per_decade": per_decade, "grid_points": len(grid)}
        return Op(f"gauge:{params['kind']}:{len(grid)}", 1, call, check, info)

    def summarize(self, infos: list) -> dict:
        return {"ops": len(infos),
                "grid_points_histogram": _histogram(i["grid_points"] for i in infos)}


WORKLOADS = {w.name: w for w in (FuzzFlagship, FuzzWide, CliInstances, GaugeOpaque)}
