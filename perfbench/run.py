"""gphi benchmark: one workload per run, end-to-end or traced per layer.

    python3 perfbench/run.py --workload fuzz-flagship --seed 1 --seconds 20 --trace 0

Run it from a checkout of the repository; it imports ``gphi`` from ``src/``
(the package need not be installed) and exits with status 2 when that source
tree is missing.  Workloads and metrics are described in BENCHMARK.json and
perfbench/LAYERS.md.

Every run is a closed loop with one client: the next operation starts when
the previous one has finished, in one process with no extra threads; the CLI
workload has at most one child process alive at a time.  A run issues a
fixed number of operations, generated from ``--seed``: ``--seconds`` over the
workload's ``op_seconds`` (its wall time per operation on the 2-CPU host the
benchmark was sized on).  The count does not depend on how fast the host is
at the moment, so the same seed gives the same ``attempted`` and ``failed``
on every host; only the run's duration varies.

``--trace 0`` measures the end-to-end metrics.  Their times are normalised
to host speed: each wall time is scaled by a fixed reference loop (pure
Python plus a little numpy) timed just before and after it (see
``reference_loop_s``), and the run
pins itself to one CPU so that loop and operation share it.

``--trace 1`` first repeats the untraced loop in-process for half the
operations, then replays the same operations with spans recorded around gphi's public
functions, and reports the per-layer metrics and the tracing overhead
(traced minus untraced time of the same operations).  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
``failed`` counts every operation whose output failed a check, including
the defects the seed is known to have; ``correct`` is false when any other
check failed.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
SETUP_REPEATS = 7
PROBE_REPEATS = 3
TAIL_BEYOND = 10
REFERENCE_LOOPS = 10_000
REFERENCE_COLUMNS = 4       # numpy part: masked ratio scans like spaces._min_constant
REFERENCE_S = 3e-3          # reference-loop time that normalised times are scaled to
_REFERENCE_D = np.random.default_rng(0).random((256, 256))
GUARD_S = 140.0             # stop issuing operations past this (the run must end in 180 s)


@dataclass
class Record:
    op: object
    seconds: float              # wall time
    completed: bool
    tag: str | None
    scale: float = 1.0          # REFERENCE_S / reference-loop time around the op

    @property
    def normalised(self) -> float:
        return self.seconds * self.scale


def reference_loop_s() -> float:
    """Current time of a fixed loop (median of three): the host's speed.

    The host's speed drifts by tens of percent within minutes.  A wall time
    multiplied by REFERENCE_S over the loop time taken around it is expressed
    at the loop's reference speed, which cancels most of that drift.  The
    loop is a pure-Python part and a numpy part of about the same length:
    contention on the shared host slows array scans over 256 x 256 matrices
    (as in fuzz-wide's validation) differently from interpreted code, and a
    pure-Python loop alone left fuzz-wide's normalised times noisier than its
    wall times.
    """
    d = _REFERENCE_D
    times = []
    for _ in range(3):
        t0 = perf_counter()
        acc = 0.0
        for i in range(1, REFERENCE_LOOPS):
            acc += math.log(i)
        for k in range(REFERENCE_COLUMNS):
            denom = d[:, k][:, None] + d[k, :][None, :]
            mask = denom > 0.5
            acc += float(np.max(d[mask] / denom[mask]))
        times.append(perf_counter() - t0)
    return statistics.median(times)


def timed(fn):
    """(fn's result or exception, wall seconds, scale to reference speed)."""
    before = reference_loop_s()
    t0 = perf_counter()
    try:
        out = fn()
    except Exception as exc:        # the op's failure is a result to check
        out = exc
    dt = perf_counter() - t0
    return out, dt, 2.0 * REFERENCE_S / (before + reference_loop_s())


def _run_op(op, in_process: bool):
    return timed(lambda: op.call(in_process))


def op_count(workload, seconds: float) -> int:
    """Operations in a run: ``seconds`` of ops at the workload's nominal pace."""
    return max(1, round(seconds / workload.op_seconds))


def measure(ops, count: int, in_process: bool = False, guard_s: float = GUARD_S):
    """Closed loop over the first ``count`` ops, continued until one has
    completed; returns the records and the first completed op's output, for
    the determinism repeat.  Past ``guard_s`` no further op starts, so that a
    host many times slower than usual still ends the run in time; the run
    then says so on standard error."""
    records, first = [], None
    start = perf_counter()
    for op in ops:
        if len(records) >= count and first is not None:
            break
        if records and perf_counter() - start >= guard_s:
            print(f"warning: stopped after {len(records)} of {count} operations "
                  f"at the {guard_s:.0f} s guard", file=sys.stderr)
            break
        out, dt, scale = _run_op(op, in_process)
        completed = not isinstance(out, BaseException)
        records.append(Record(op, dt, completed, op.check(out), scale))
        if completed and first is None:
            first = (op, out)
    return records, first


def repeat_check(first, in_process: bool) -> Record | None:
    """Re-run the first completed op; its output bytes must not change."""
    if first is None or first[0].fingerprint is None:
        return None
    op, out = first
    again, dt, scale = _run_op(op, in_process)
    same = (not isinstance(again, BaseException)
            and op.fingerprint(again) == op.fingerprint(out))
    return Record(op, dt, False, None if same else f"wrong:{op.label} output differs on repeat",
                  scale)


def tail_latency(values):
    """Highest order statistic with at least TAIL_BEYOND samples above it,
    with its percentile; the maximum when there are too few samples."""
    v = sorted(values)
    k = len(v) - TAIL_BEYOND - 1 if len(v) > TAIL_BEYOND else len(v) - 1
    return v[k], math.floor(100.0 * (k + 1) / len(v))


def _child_seconds(code: str, repeats: int) -> float:
    """Median normalised in-child time reported by ``code``, after one warm-up."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for i in range(repeats + 1):
        proc, _, scale = timed(lambda: subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, env=env,
            capture_output=True, text=True, check=True, timeout=120))
        if i:
            times.append(float(proc.stdout.strip().splitlines()[-1]) * scale)
    return statistics.median(times)


def import_seconds(module: str, repeats: int) -> float:
    return _child_seconds(
        "import time; t = time.perf_counter(); import " + module
        + "; print(time.perf_counter() - t)", repeats)


def interpreter_seconds(repeats: int) -> float:
    """Median normalised time of spawning ``python -c pass`` until it exits."""
    times = []
    for _ in range(repeats + 1):
        _, dt, scale = timed(lambda: subprocess.run(
            [sys.executable, "-c", "pass"], check=True, timeout=120))
        times.append(dt * scale)
    return statistics.median(times[1:])


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def summarize(records):
    done = [r for r in records if r.completed]
    lat = [r.normalised for r in done]
    tags = [r.tag for r in records if r.tag]
    return {
        "attempted": len(records),
        "failed": len(tags),
        "wrong": [t for t in tags if not t.startswith("known:")],
        "known": sorted({t for t in tags if t.startswith("known:")}),
        "latencies": lat,
        "trials": sum(r.op.trials for r in done),
    }


def end_to_end(workload, seconds: float):
    setup = import_seconds("gphi", SETUP_REPEATS)
    records, first = measure(workload.ops(), op_count(workload, seconds), in_process=False)
    # the repeat is checked and counted, but not timed (it is not completed)
    repeat = repeat_check(first, in_process=False)
    summary = summarize(records + [repeat] if repeat else records)
    lat = summary["latencies"]
    if not lat:
        raise SystemExit(f"error: no {workload.name} operation completed: "
                         + "; ".join(sorted(set(summary["wrong"]))[:5]))
    tail, pct = tail_latency(lat)
    done = [r for r in records if r.completed]
    wall = [r.seconds for r in done]
    print(f"latency: {len(lat)} completed ops, p50 {statistics.median(lat) * 1e3:.1f} ms, "
          f"tail p{pct} {tail * 1e3:.1f} ms (normalised); wall p50 "
          f"{statistics.median(wall) * 1e3:.1f} ms, tail {tail_latency(wall)[0] * 1e3:.1f} ms; "
          f"median host scale {statistics.median(r.scale for r in done):.3f}")
    metrics = {
        "setup_s": setup,
        "ops_per_s": summary["trials"] / sum(lat),
        "op_ms.p50": statistics.median(lat) * 1e3,
        "op_ms.tail": tail * 1e3,
        "peak_rss_mb": peak_rss_mb(children=workload.name == "cli-instances"),
    }
    return summary, metrics, records


def traced(workload, seconds: float):
    import spans

    # the replay below takes about as long again as this half, plus tracing
    records, _ = measure(workload.ops(), max(1, op_count(workload, seconds) // 2),
                         in_process=True, guard_s=GUARD_S / 2.5)
    tracer = spans.Tracer()
    evals_before = getattr(workload, "evals", 0)
    runs = []
    tracer.install()
    try:
        for r in records:
            tracer.new_request()
            runs.append(_run_op(r.op, in_process=True))
    finally:
        tracer.uninstall()
    tracer.counters["gauges.evals"] = getattr(workload, "evals", 0) - evals_before
    replay = [Record(r.op, dt, not isinstance(out, BaseException), r.op.check(out), scale)
              for r, (out, dt, scale) in zip(records, runs)]
    summary = summarize(records + replay)

    metrics, self_s, calls = spans.layer_metrics(tracer)
    both = [(r.normalised, t.normalised) for r, t in zip(records, replay)
            if r.completed and t.completed]
    base = sum(a for a, _ in both)
    with_spans = sum(b for _, b in both)
    metrics["trace.overhead_s"] = with_spans - base
    metrics["trace.overhead_frac"] = (with_spans - base) / base if base else 0.0
    metrics["trace.spans"] = len(tracer.name)
    metrics["trace.requests"] = tracer.current_request + 1
    is_cli = workload.name == "cli-instances"
    metrics["cli.interpreter_s"] = interpreter_seconds(PROBE_REPEATS) if is_cli else 0.0
    metrics["cli.import_s"] = import_seconds("gphi.cli", PROBE_REPEATS) if is_cli else 0.0

    OUT.mkdir(exist_ok=True)
    span_file = OUT / f"{workload.name}.spans.csv"
    tracer.write_csv(span_file)
    total = sum(self_s.values())
    print(f"traced {len(records)} ops, {len(tracer.name)} spans -> {span_file.relative_to(ROOT)}")
    if tracer.skipped:
        print("bindings not found (not traced): " + ", ".join(tracer.skipped))
    print(f"{'layer span':28s} {'calls':>8s} {'self_s':>9s} {'share':>6s}")
    for name, s in sorted(self_s.items(), key=lambda kv: -kv[1]):
        print(f"{name:28s} {calls[name]:8d} {s:9.4f} {s / total:6.1%}")
    print(f"tracing overhead: {metrics['trace.overhead_s']:+.3f} s "
          f"({metrics['trace.overhead_frac']:+.1%}) over {base:.3f} s untraced")
    return summary, metrics, records


def write_manifest(workload, seed: int, records, outdir: Path):
    infos = [r.op.info for r in records]
    manifest = {"workload": workload.name, "seed": seed,
                "summary": workload.summarize(infos),
                "ops": [dict(info, label=r.op.label, seconds=r.seconds, scale=r.scale, tag=r.tag)
                        for info, r in zip(infos, records)]}
    (outdir / "inputs.json").write_text(json.dumps(manifest, indent=1))
    print("inputs: " + json.dumps(manifest["summary"], sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "gphi" / "__init__.py").is_file():
        print(f"error: gphi sources not found under {SRC}", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    # One CPU for the whole run, children included, so that host_scale() and
    # the op it normalises run on the same CPU: on a shared host the CPUs'
    # speeds differ at the same moment.
    with contextlib.suppress(AttributeError, OSError):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    outdir = OUT / args.workload
    shutil.rmtree(outdir, ignore_errors=True)
    outdir.mkdir(parents=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, outdir)
    run = traced if args.trace else end_to_end
    summary, values, records = run(workload, args.seconds)
    write_manifest(workload, args.seed, records, outdir)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}
    metrics = {name: {"value": v, "unit": units[name]} for name, v in values.items()}

    print(f"failed_frac: {summary['failed']}/{summary['attempted']}"
          f" = {summary['failed'] / summary['attempted']:.4f}")
    for tag in summary["known"]:
        defect = tag.split(":", 1)[1]
        print(f"known defect {defect}: {workloads.KNOWN_DEFECTS[defect]}")
    for tag in sorted(set(summary["wrong"]))[:20]:
        print("FAILED CHECK " + tag)
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not summary["wrong"], "attempted": summary["attempted"],
                      "failed": summary["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
