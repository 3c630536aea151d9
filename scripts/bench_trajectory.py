#!/usr/bin/env python3
"""Record the benchmark's end-to-end medians for one or more checkouts.

    python scripts/bench_trajectory.py --out BENCH_label.json parent=../old .

Runs ``perfbench/run.py --trace 0`` of each checkout, as a subprocess, on
every workload that BENCHMARK.json lists, for --seeds seeds from
--first-seed on.  The checkouts take turns going first from one seed to the
next, so that a drift in host speed does not favour one of them.  The JSON
written to --out holds the Python and numpy versions, and per checkout its
commit and, per workload, the operations attempted and failed, whether
every check passed, each end-to-end metric's value per seed and its median.
For cli-instances it also holds, under ``kinds`` and apart from those
metrics, each kind of call's (``certify:finite``, ``solve:chain``, ...)
median normalised seconds per seed, read from the run's
``perfbench/out/cli-instances/inputs.json``, and their median.  Each
checkout measures its own ``src/`` with its own benchmark files.

With two checkouts, ``pairs`` holds their ``labels`` in order and, under
``workloads``, per workload and metric: each seed's pair of values (first
checkout, second checkout), ``second_wins``, the number of seeds on which
the second checkout is better in BENCHMARK.json's direction (a tie counts
for neither), and per checkout the median and the quartiles [q1, q3] of
its values.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def commit_of(checkout: Path) -> str:
    """The checkout's HEAD commit, marked ``+dirty`` when tracked files differ
    from it; "unknown" outside a git work tree."""
    def git(*args):
        return subprocess.run(["git", "-C", str(checkout), *args],
                              capture_output=True, text=True)

    head = git("rev-parse", "HEAD")
    if head.returncode != 0:
        return "unknown"
    dirty = git("status", "--porcelain", "--untracked-files=no").stdout.strip()
    return head.stdout.strip() + ("+dirty" if dirty else "")


KIND_WORKLOAD = "cli-instances"


def kind_medians(checkout: Path) -> dict:
    """Median normalised seconds per kind of call (an op label without its
    index, e.g. ``certify:finite``) of the checkout's last cli-instances run."""
    manifest = json.loads((checkout / "perfbench" / "out" / KIND_WORKLOAD / "inputs.json")
                          .read_text())
    times = {}
    for op in manifest["ops"]:
        times.setdefault(op["label"].rsplit(":", 1)[0], []).append(op["seconds"] * op["scale"])
    return {kind: statistics.median(v) for kind, v in sorted(times.items())}


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The result line of one untraced benchmark run, with ``kinds`` from
    kind_medians for a cli-instances run."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout}: {workload} seed {seed} exited "
                           f"{proc.returncode}:\n{proc.stderr}")
    line = json.loads(proc.stdout.splitlines()[-1])
    if workload == KIND_WORKLOAD:
        line["kinds"] = kind_medians(checkout)
    return line


def quartiles(values: list) -> list:
    """[q1, q3] of values, as numpy's default (linear) percentiles give them."""
    if len(values) < 2:
        return [values[0], values[0]]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q3]


def pairs_block(first: dict, second: dict, better: dict) -> dict:
    """Per workload and metric of two checkouts' ``workloads`` entries:
    the per-seed pairs, the second checkout's wins and each side's median
    and quartiles."""
    block = {}
    for workload, runs in first.items():
        block[workload] = {}
        for metric, a in runs["values"].items():
            b = second[workload]["values"][metric]
            wins = sum(y > x if better[metric] == "higher" else y < x for x, y in zip(a, b))
            block[workload][metric] = {
                "values": [list(pair) for pair in zip(a, b)],
                "second_wins": wins,
                "median": [statistics.median(a), statistics.median(b)],
                "quartiles": [quartiles(a), quartiles(b)],
            }
    return block


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkouts", nargs="*", metavar="LABEL=DIR",
                        help="checkouts to measure (default: this one, as 'tree')")
    parser.add_argument("--out", required=True, help="JSON file to write")
    parser.add_argument("--seeds", type=int, default=5, help="how many seeds to run")
    parser.add_argument("--first-seed", type=int, default=1,
                        help="the first seed of the range (default: 1)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length (default: BENCHMARK.json's run_seconds)")
    args = parser.parse_args(argv)
    if args.seeds < 1:
        parser.error("--seeds must be at least 1")
    if args.first_seed < 0:
        parser.error("--first-seed must not be negative")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    workloads = [w["name"] for w in spec["workloads"]]
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    metrics = list(better)
    checkouts = {}
    for item in args.checkouts or [f"tree={ROOT}"]:
        label, sep, path = item.partition("=")
        if not sep or not label:
            parser.error(f"expected LABEL=DIR, got {item!r}")
        checkouts[label] = Path(path).resolve()

    runs = {label: {w: [] for w in workloads} for label in checkouts}
    seeds = range(args.first_seed, args.first_seed + args.seeds)
    for seed in seeds:
        order = list(checkouts) if seed % 2 else list(reversed(checkouts))
        for workload in workloads:
            for label in order:
                line = run_once(checkouts[label], workload, seed, seconds)
                runs[label][workload].append(line)
                print(f"{label} {workload} seed {seed}: "
                      f"op_ms.p50 {line['metrics']['op_ms.p50']['value']:.2f}", flush=True)

    doc = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "seconds": seconds,
        "seeds": list(seeds),
        "checkouts": {},
    }
    for label, path in checkouts.items():
        doc["checkouts"][label] = {"commit": commit_of(path), "workloads": {}}
        for workload, lines in runs[label].items():
            values = {m: [line["metrics"][m]["value"] for line in lines] for m in metrics}
            doc["checkouts"][label]["workloads"][workload] = {
                "attempted": sum(line["attempted"] for line in lines),
                "failed": sum(line["failed"] for line in lines),
                "correct": all(line["correct"] for line in lines),
                "median": {m: statistics.median(v) for m, v in values.items()},
                "values": values,
            }
            if workload == KIND_WORKLOAD:
                kinds = {}
                for line in lines:
                    for kind, t in line["kinds"].items():
                        kinds.setdefault(kind, []).append(t)
                doc["checkouts"][label]["workloads"][workload]["kinds"] = {
                    kind: {"median": statistics.median(v), "values": v}
                    for kind, v in sorted(kinds.items())}
    if len(checkouts) == 2:
        first, second = (doc["checkouts"][label]["workloads"] for label in checkouts)
        doc["pairs"] = {"labels": list(checkouts),
                        "workloads": pairs_block(first, second, better)}
    Path(args.out).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
