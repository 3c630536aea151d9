"""Command-line front end.

Subcommands:

* ``certify <instance.json>`` -- print the contraction certificate; exit 0
  when certified, 2 when violated, 3 when inconclusive.
* ``solve <instance.json> --x0 <point> [--eps E]`` -- run the Picard orbit
  and print the trace plus Cauchy diagnostics (for gauges in class G2).
* ``fuzz --seed S --trials N [--break MODE]`` -- run the fuzz loop and print
  its report; exit 0 iff no violations.
* ``report <trace.json>`` -- human-readable summary of a solve output.

Malformed input exits 1 with a diagnostic on stderr, and so does a command
whose output cannot be written, into a full device or with stdout closed.
A command's output into a pipe that its reader has closed exits 141, with
nothing on stderr.

A call through ``main`` (the ``gphi`` script and ``python -m gphi.cli``)
ends once its output is out: it runs the atexit callbacks, flushes stdout
and stderr, and leaves by ``os._exit``.  The CLI starts no threads and holds
no open files besides stdout and stderr, so that skips only the teardown of
modules and objects, about a tenth of a call.  Should a flush fail, the call
ends through ``sys.exit``, as any script does; where the failure is a closed
pipe, stdout is first pointed at devnull, so ``--help`` into a closed pipe
exits 0 with nothing on stderr whether stdout is buffered or not.
"""

from __future__ import annotations

import argparse
import atexit
import errno
import json
import math
import os
import sys
from contextlib import suppress

from .contraction import SAMPLE_PAIRS_DEFAULT, certify_condition_G, operator_from_json
from .errors import GphiError
from .gauges import (
    PER_DECADE_DEFAULT,
    PHI_GRID,
    certify_gauge_class,
    certify_phi,
    epsilon0,
    gauge_from_json,
    log_grid,
    phi_from_json,
)
from .spaces import dist_to_json, space_from_json

EXIT_OK = 0
EXIT_BAD_INPUT = 1
EXIT_VIOLATED = 2
EXIT_INCONCLUSIVE = 3
EXIT_PIPE_CLOSED = 141           # what a shell reports for a command SIGPIPE kills

PHI_BUDGET_DEFAULT = 10 ** 6

# Stands in for a finite trace's matrix while the rest of a solve document is
# encoded; its JSON, "\u0000dist", holds an escape that the document's numbers
# and names never print, and _solve_json checks that it occurs once.
_DIST_MARK = "\x00dist"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gphi",
        description="certify gauged contractions and iterate them to their fixed points")
    # --tol and --max-iter default to the solver's defaults, which solve reads
    parser.add_argument("--tol", type=float, default=None,
                        help="solver convergence tolerance")
    parser.add_argument("--budget", type=int, default=PHI_BUDGET_DEFAULT,
                        help="scan budget of solve's Cauchy check (n_epsilon and m_epsilon)")
    parser.add_argument("--grid-density", type=int, default=PER_DECADE_DEFAULT,
                        help="grid points per decade for certification grids")
    sub = parser.add_subparsers(dest="command", required=True)

    p_cert = sub.add_parser("certify", help="certify the contraction condition")
    p_cert.add_argument("instance")
    p_cert.add_argument("--seed", type=int, default=0)
    p_cert.add_argument("--samples", type=int, default=SAMPLE_PAIRS_DEFAULT)

    p_solve = sub.add_parser("solve", help="run the Picard orbit")
    p_solve.add_argument("instance")
    p_solve.add_argument("--x0", required=True)
    p_solve.add_argument("--eps", type=float, default=None)
    p_solve.add_argument("--max-iter", type=int, default=None)

    p_fuzz = sub.add_parser("fuzz", help="random-instance theorem fuzzing")
    p_fuzz.add_argument("--seed", type=int, default=0)
    p_fuzz.add_argument("--trials", type=int, default=100)
    p_fuzz.add_argument("--break", dest="break_mode", default="none",
                        choices=["none", "drop-contraction", "drop-phi"])
    p_fuzz.add_argument("--max-points", type=int, default=8)
    p_fuzz.add_argument("--scale", type=float, default=1.0)

    p_report = sub.add_parser("report", help="summarize a solve/trace JSON file")
    p_report.add_argument("trace")

    return parser


def _load_instance(path: str):
    """The instance's space, map, gauge and phi, parsed; the map is checked
    where it is used, by certify_condition_G and picard_iterate."""
    with open(path) as fh:
        obj = json.load(fh)
    try:
        space = space_from_json(obj["space"])
        T = operator_from_json(obj["operator"])
        G = gauge_from_json(obj["G"])
        phi = phi_from_json(obj["phi"])
    except TypeError as exc:                # a value of the wrong shape, e.g. 5 for an object
        raise ValueError(f"malformed instance: {exc}") from exc
    return space, T, G, phi


def _cmd_certify(args) -> int:
    space, T, G, phi = _load_instance(args.instance)
    cert = certify_condition_G(space, T, G, phi, seed=args.seed, samples=args.samples)
    print(json.dumps(cert.to_json(), indent=2, sort_keys=True))
    return {"certified": EXIT_OK, "violated": EXIT_VIOLATED,
            "inconclusive": EXIT_INCONCLUSIVE}[cert.verdict]


def _cmd_solve(args) -> int:
    from .solver import MAX_ITER_DEFAULT, TOL_DEFAULT, picard_iterate, verify_cauchy_bound

    if args.eps is not None and not math.isfinite(args.eps):
        raise ValueError(f"--eps must be finite, not {args.eps}")
    if args.budget < 1:
        raise ValueError("budget must be at least 1")
    space, T, G, phi = _load_instance(args.instance)
    x0 = space.parse_point(args.x0)
    trace = picard_iterate(space, T, x0,
                           max_iter=MAX_ITER_DEFAULT if args.max_iter is None else args.max_iter,
                           tol=TOL_DEFAULT if args.tol is None else args.tol)
    out = {"trace": trace.to_json()}

    grid = log_grid(per_decade=args.grid_density)
    cls = certify_gauge_class(G, grid)
    out["gauge_class"] = cls.to_json()
    out["phi_certificate"] = certify_phi(phi, grid=PHI_GRID).to_json()
    if cls.in_g2 == "yes":
        eps = args.eps if args.eps is not None else epsilon0(G, grid) / 2.0
        out["eps"] = eps
        try:
            diag = verify_cauchy_bound(trace, G, phi, eps, args.budget)
            out["diagnostics"] = diag.to_json()
        except GphiError as exc:
            out["diagnostics_error"] = f"{type(exc).__name__}: {exc}"
    print(_solve_json(out, trace.space))
    return EXIT_OK


def _solve_json(out: dict, space) -> str:
    """``json.dumps(out, indent=2, sort_keys=True)``, byte for byte.  A finite
    trace's matrix, by far the largest value, is written by ``dist_to_json``
    and spliced in at the indentation of its key; a document in which the
    mark's JSON turns up more than once is encoded whole."""
    if space.kind != "finite":
        return json.dumps(out, indent=2, sort_keys=True)
    doc = out["trace"]["space"]
    dist, doc["dist"] = doc["dist"], _DIST_MARK
    text = json.dumps(out, indent=2, sort_keys=True)
    doc["dist"] = dist
    mark = json.dumps(_DIST_MARK)
    if text.count(mark) != 1:
        return json.dumps(out, indent=2, sort_keys=True)
    head, _, tail = text.partition(mark)
    line = head[head.rindex("\n") + 1:]
    return head + dist_to_json(space, " " * (len(line) - len(line.lstrip()))) + tail


def _cmd_fuzz(args) -> int:
    from .harness import FuzzConfig, fuzz      # only fuzz loads the harness

    config = FuzzConfig(seed=args.seed, trials=args.trials,
                        break_mode=args.break_mode,
                        max_points=args.max_points, scale=args.scale)
    report = fuzz(config)
    print(report.to_json_str())
    return EXIT_OK if not report.violations else EXIT_VIOLATED


def _cmd_report(args) -> int:
    from .solver import trace_from_json

    with open(args.trace) as fh:
        obj = json.load(fh)
    if not isinstance(obj, dict):
        raise ValueError("trace document must be a JSON object")
    doc = obj.get("trace", obj)
    if not isinstance(doc, dict) or "orbit" not in doc:
        raise ValueError("document carries no trace")
    trace = trace_from_json(doc)
    lines = [f"space: {trace.space.kind}, constant s = {trace.space.s}",
             f"start point: {trace.x0}",
             f"orbit points recorded: {len(trace.orbit)} "
             f"(stop at k = {trace.k_stop}, reason: {trace.stop_reason})",
             f"fixed point: {trace.fixed_point}"]
    if trace.cycle:
        lines.append(f"cycle detected: {list(trace.cycle)}")
    if trace.step_dists:
        lines.append(f"last step distance: {trace.step_dists[-1]}")
    diag = obj.get("diagnostics")
    if not isinstance(diag, (dict, type(None))):
        raise ValueError("diagnostics must be an object or null")
    if diag:
        lines.append("cauchy diagnostics: "
                     f"eps = {diag['eps']}, n = {diag['n']}, m = {diag['m']}, "
                     f"m0 = {diag['m0']}, bound = {diag['bound']}, "
                     f"max observed = {diag['max_observed']}, holds = {diag['holds']}")
    if obj.get("diagnostics_error"):
        lines.append(f"diagnostics unavailable: {obj['diagnostics_error']}")
    print("\n".join(lines))
    return EXIT_OK


def _stdout_to_devnull() -> None:
    """Point stdout at devnull once its reader has left, so that the flush at
    exit cannot raise again (the Python docs' "Note on SIGPIPE")."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    os.close(devnull)


def run_cli(argv) -> int:
    argv = list(argv)
    for i in reversed(range(len(argv) - 1)):    # argparse takes -1e-1 or -inf for an option
        if argv[i] == "--x0" and argv[i + 1][:1] == "-":
            with suppress(ValueError):              # a number in any float spelling
                float(argv[i + 1])
                argv[i:i + 2] = ["--x0=" + argv[i + 1]]
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    command = {"certify": _cmd_certify, "solve": _cmd_solve,
               "fuzz": _cmd_fuzz, "report": _cmd_report}[args.command]
    try:
        code = command(args)
        if sys.stdout is None:                  # fd 1 was closed: print wrote nothing
            raise OSError(errno.EBADF, "stdout is closed")
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader left, as `| head -1` does: not a bad input
        _stdout_to_devnull()
        return EXIT_PIPE_CLOSED
    # a RecursionError comes from a JSON document nested too deep to parse
    except (GphiError, OSError, KeyError, ValueError, OverflowError, RecursionError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


def main() -> None:
    code = run_cli(sys.argv[1:])
    atexit._run_exitfuncs()                     # coverage and profilers write here
    try:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:              # None where the fd was closed
                stream.flush()
    except OSError as exc:
        # argparse's --help text still waits in a block-buffered stdout
        if isinstance(exc, BrokenPipeError):
            _stdout_to_devnull()
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    main()
