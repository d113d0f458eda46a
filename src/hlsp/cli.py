"""Command-line entry points: solve, bench, gen.

Exit codes for ``solve``: 0 full convergence, 1 sub-converged, 2
parse/validation error or an out-of-range solver setting, 3 I/O error,
4 requested method not applicable (fell back on some level). ``bench``
exits 0, 2 for a malformed spec or an invalid generated problem, and 3
for an I/O error. ``gen`` exits 0 when the problem is written, 2 for a
bad level spec and 3 for an I/O error. Any other error that escapes a
command is a defect, not a verdict: every command then prints one
``error: <Type>: <message>`` line and exits 5 (internal error).
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .bench import run_benchmark
from .cascade import InvalidProblemError, solve_hlsp
from .config import METHODS, SolverConfig
from .fileio import ProblemFormatError, load_problem, save_json, save_problem
from .oracle import OracleBudgetExceeded, brute_force_cascade, cascade_objectives
from .problem import random_hlsp, validate_problem

EXIT_OK = 0
EXIT_SUB_CONVERGED = 1
EXIT_INVALID = 2
EXIT_IO = 3
EXIT_METHOD = 4
EXIT_INTERNAL = 5


def _parser():
    parser = argparse.ArgumentParser(
        prog="hlsp",
        description="Hierarchical least-squares solver (null-space interior point)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve a problem file")
    solve.add_argument("file", help="problem file (JSON)")
    solve.add_argument(
        "--method",
        default="nf-ipm",
        choices=list(METHODS) + ["oracle"],
        help="solver variant (default: nf-ipm)",
    )
    solve.add_argument("--eps", type=float, default=1e-12,
                       help="optimality threshold (default 1e-12)")
    solve.add_argument("--xi", type=float, default=1e-8,
                       help="activation threshold (default 1e-8)")
    solve.add_argument("--max-iter", type=int, default=50,
                       help="Newton iteration cap per level (default 50)")
    solve.add_argument("--tau", type=float, default=0.995,
                       help="fraction-to-boundary factor (default 0.995)")
    solve.add_argument("--density-threshold", type=float, default=0.4,
                       help="Givens/Householder density crossover (default 0.4)")
    solve.add_argument("--out", default=None, help="report path (default stdout)")

    bench = sub.add_parser("bench", help="run a benchmark suite")
    bench.add_argument("spec", help="suite spec file (JSON)")
    bench.add_argument("--out", required=True, help="output table path (CSV)")

    gen = sub.add_parser("gen", help="generate a random problem file")
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument(
        "--levels",
        required=True,
        help="per-level spec 'm_e,m_i,rank_def,mode;...' "
        "(mode: feasible|infeasible|mixed)",
    )
    gen.add_argument("--out", required=True)
    return parser


def _config_from_args(args):
    return SolverConfig(
        method=args.method,
        eps=args.eps,
        xi=args.xi,
        max_iter=args.max_iter,
        tau=args.tau,
        density_threshold=args.density_threshold,
    )


def _oracle_report(problem):
    t0 = time.perf_counter()
    x, violations = brute_force_cascade(problem)
    objectives = cascade_objectives(problem, violations)
    return {
        "method": "oracle",
        "config": {},
        "converged": True,
        "x": [float(v) for v in x],
        "objectives": objectives,
        "levels": [
            {"level": i + 1, "objective": obj, "v_star_norm": float((2 * obj) ** 0.5)}
            for i, obj in enumerate(objectives)
        ],
        "last_duals": {},
        "wall_time_s": time.perf_counter() - t0,
    }


def _emit(data, out, code):
    """Write the report and return ``code``, or the I/O code if ``out`` fails."""
    try:
        if out is None:
            json.dump(data, sys.stdout, indent=1, sort_keys=True)
            sys.stdout.write("\n")
        else:
            save_json(data, out)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    return code


def cmd_solve(args):
    try:
        problem = load_problem(args.file)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ProblemFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    violations = validate_problem(problem)
    if violations:
        for v in violations:
            print(f"invalid problem: {v}", file=sys.stderr)
        return EXIT_INVALID

    if args.method == "oracle":
        try:
            report = _oracle_report(problem)
        except OracleBudgetExceeded as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_INVALID
        return _emit(report, args.out, EXIT_OK)

    try:
        config = _config_from_args(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    try:
        report = solve_hlsp(problem, config)
    except InvalidProblemError as exc:
        print(f"invalid problem: {exc}", file=sys.stderr)
        return EXIT_INVALID
    if any(lv.method_fallback for lv in report.levels):
        code = EXIT_METHOD
    elif not report.converged:
        code = EXIT_SUB_CONVERGED
    else:
        code = EXIT_OK
    return _emit(report.to_dict(), args.out, code)


def cmd_bench(args):
    try:
        with open(args.spec, "r", encoding="utf-8") as fh:
            spec = json.load(fh)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"error: bad spec file ({exc})", file=sys.stderr)
        return EXIT_INVALID
    try:
        rows, summary = run_benchmark(spec, out_path=args.out)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    print(f"wrote {len(rows)} rows to {args.out}")
    for pair, ratio in sorted(summary["time_ratios"].items()):
        print(f"  time ratio {pair}: {ratio:.3f}")
    return EXIT_OK


def parse_level_specs(text):
    specs = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = [p.strip() for p in chunk.split(",")]
        if len(parts) != 4:
            raise ValueError(
                f"level spec {chunk!r} needs m_e,m_i,rank_def,mode"
            )
        specs.append((int(parts[0]), int(parts[1]), int(parts[2]), parts[3]))
    if not specs:
        raise ValueError("no level specs given")
    return specs


def cmd_gen(args):
    try:
        specs = parse_level_specs(args.levels)
        problem = random_hlsp(args.seed, args.n, specs)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    try:
        save_problem(problem, args.out)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    print(f"wrote {args.out}")
    return EXIT_OK


COMMANDS = {"solve": cmd_solve, "bench": cmd_bench, "gen": cmd_gen}


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except Exception as exc:
        message = " ".join(str(exc).splitlines())
        print(f"error: {type(exc).__name__}: {message}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
