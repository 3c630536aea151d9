#!/usr/bin/env python3
"""Record the benchmark's end-to-end medians for one or more checkouts.

    python scripts/bench_trajectory.py --out BENCH_label.json parent=../old .

Runs ``perfbench/run.py --trace 0`` of each checkout, as a subprocess, on
every workload that BENCHMARK.json lists, for --seeds seeds from
--first-seed on.  The checkouts take turns going first from one seed to the
next, so that a drift in host speed does not favour one of them.  The JSON
written to --out holds the Python and numpy versions, and per checkout its
commit, under ``sha256`` a SHA-256 of the files under its ``src/`` and one
of those under its ``perfbench/`` (build and run outputs left out), and,
per workload, the operations attempted and failed, whether every check
passed, each end-to-end metric's value per seed and its median.  Apart
from those metrics, read from the run's ``perfbench/out/<workload>/
inputs.json``, each workload also holds per seed ``wall_ms_p50``, the
median wall time of its ops in ms, and ``host_scale``, the median of the
scales that normalise them, each with its median; and cli-instances holds,
under ``kinds``, each kind of call's (``certify:finite``, ``solve:chain``,
...) median normalised seconds per seed, and their median.  Each checkout
measures its own ``src/`` with its own benchmark files.

With two checkouts, ``pairs`` holds their ``labels`` in order and, under
``workloads``, per workload and metric: each seed's pair of values (first
checkout, second checkout), ``second_wins``, the number of seeds on which
the second checkout is better in BENCHMARK.json's direction (a tie counts
for neither), and per checkout the median and the quartiles [q1, q3] of
its values.  ``wall_ms_p50`` holds the same per workload for the wall
p50, where lower is better, so that a win on a normalised metric can be
told from one that the host scale made.
"""

from __future__ import annotations

import argparse
import hashlib
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


HASHED = ("src", "perfbench")


def tree_sha256(checkout: Path, top: str) -> str:
    """SHA-256 over the relative path and the bytes of every file under the
    checkout's ``top`` directory, in path order, leaving out run outputs
    (``perfbench/out``) and the byte-code and package metadata that
    importing and installing leave behind."""
    digest = hashlib.sha256()
    for path in sorted((checkout / top).rglob("*")):
        rel = path.relative_to(checkout)
        left_out = rel.parts[:2] == ("perfbench", "out") or any(
            part == "__pycache__" or part.endswith(".egg-info") for part in rel.parts)
        if path.is_file() and not left_out:
            digest.update(rel.as_posix().encode() + b"\0")
            digest.update(hashlib.sha256(path.read_bytes()).digest())
    return digest.hexdigest()


KIND_WORKLOAD = "cli-instances"


def kind_medians(ops: list) -> dict:
    """Median normalised seconds per kind of call (an op label without its
    index, e.g. ``certify:finite``) of a cli-instances run's ops."""
    times = {}
    for op in ops:
        times.setdefault(op["label"].rsplit(":", 1)[0], []).append(op["seconds"] * op["scale"])
    return {kind: statistics.median(v) for kind, v in sorted(times.items())}


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The result line of one untraced benchmark run, with ``wall_ms_p50``
    and ``host_scale`` from the run's manifest of ops, and ``kinds`` from
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
    ops = json.loads((checkout / "perfbench" / "out" / workload / "inputs.json")
                     .read_text())["ops"]
    line["wall_ms_p50"] = statistics.median(op["seconds"] for op in ops) * 1e3
    line["host_scale"] = statistics.median(op["scale"] for op in ops)
    if workload == KIND_WORKLOAD:
        line["kinds"] = kind_medians(ops)
    return line


def quartiles(values: list) -> list:
    """[q1, q3] of values, as numpy's default (linear) percentiles give them."""
    if len(values) < 2:
        return [values[0], values[0]]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q3]


def paired(a: list, b: list, better: str) -> dict:
    """Two checkouts' values per seed: the pairs, the second checkout's wins
    and each side's median and quartiles."""
    return {
        "values": [list(pair) for pair in zip(a, b)],
        "second_wins": sum(y > x if better == "higher" else y < x for x, y in zip(a, b)),
        "median": [statistics.median(a), statistics.median(b)],
        "quartiles": [quartiles(a), quartiles(b)],
    }


def pairs_block(first: dict, second: dict, better: dict) -> dict:
    """paired() per workload and metric of two checkouts' ``workloads``
    entries."""
    return {workload: {metric: paired(a, second[workload]["values"][metric], better[metric])
                       for metric, a in runs["values"].items()}
            for workload, runs in first.items()}


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
        doc["checkouts"][label] = {"commit": commit_of(path),
                                   "sha256": {top: tree_sha256(path, top) for top in HASHED},
                                   "workloads": {}}
        for workload, lines in runs[label].items():
            values = {m: [line["metrics"][m]["value"] for line in lines] for m in metrics}
            doc["checkouts"][label]["workloads"][workload] = {
                "attempted": sum(line["attempted"] for line in lines),
                "failed": sum(line["failed"] for line in lines),
                "correct": all(line["correct"] for line in lines),
                "median": {m: statistics.median(v) for m, v in values.items()},
                "values": values,
            }
            for key in ("wall_ms_p50", "host_scale"):
                v = [line[key] for line in lines]
                doc["checkouts"][label]["workloads"][workload][key] = {
                    "median": statistics.median(v), "values": v}
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
                        "workloads": pairs_block(first, second, better),
                        "wall_ms_p50": {
                            w: paired(first[w]["wall_ms_p50"]["values"],
                                      second[w]["wall_ms_p50"]["values"], "lower")
                            for w in first}}
    Path(args.out).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
