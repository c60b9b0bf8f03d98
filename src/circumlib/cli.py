"""Command-line front end.

Subcommands: cc (circumcenter of a point-set file), solve (run one
method on a problem file), gen (write a generated problem file), bench
(run several methods on one problem, combined CSV). solve and bench
share one report path, `_solve`. Exit codes: 0 on success (an EMPTY
circumcenter and a run that ends "degenerate" or "non_finite" are
answers), 1 on file parse or validation failure, an unwritable output
file or a method that does not take the problem's number of sets. A
request that exits 1 leaves an existing --csv file as it was.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import os
import sys
from contextlib import nullcontext

from .affine import friedrichs_cos
from .circumcenter import CircumConfig, circumcenter
from .solvers import (
    InsufficientData,
    Initializer,
    Method,
    Problem,
    SolverConfig,
    SolverTrace,
    estimate_rate,
    run,
)
from .problems import ParseError, generate_two_subspace, load_points, load_problem, save_problem

CSV_COLUMNS = ["iter", "step_norm", "dist_to_solution", "residual", "method"]


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _trace_rows(trace: SolverTrace) -> list[list]:
    rows = zip([0.0, *trace.step_norms], trace.dists, trace.residuals)
    return [[k, *row, trace.method.value] for k, row in enumerate(rows)]


def _pairwise_cf(problem: Problem) -> tuple[float, str]:
    subs = problem.subspaces
    cf = max(friedrichs_cos(U, V) for U, V in itertools.combinations(subs, 2))
    return cf, "cf" if len(subs) == 2 else "cf_max_pairwise"


def _rate(trace: SolverTrace) -> str:
    try:
        return _fmt(estimate_rate(trace))
    except InsufficientData:
        return "n/a"


def _print_summary(problem: Problem, trace: SolverTrace):
    cf, cf_label = _pairwise_cf(problem)
    print(f"method {trace.method.value}")
    print(f"iterations {trace.num_steps}")
    print(f"reason {trace.reason}")
    print(f"final_dist {_fmt(trace.dists[-1])}")
    print(f"final_residual {_fmt(trace.residuals[-1])}")
    print(f"rate {_rate(trace)}")
    print(f"{cf_label} {_fmt(cf)}")


def _print_progress(problem: Problem, trace: SolverTrace):
    print(
        f"{trace.method.value}: {trace.num_steps} iterations ({trace.reason}), "
        f"final_dist {_fmt(trace.dists[-1])}, rate {_rate(trace)}",
        file=sys.stderr,
    )


def _cmd_cc(args) -> int:
    points = load_points(args.points_file)
    cfg = CircumConfig(rank_tol=args.rank_tol, verify_tol=args.tol)
    out = circumcenter(points, cfg)
    if out.is_empty:
        print("EMPTY")
    else:
        print("center " + " ".join(_fmt(c) for c in out.center))
        print("radius " + _fmt(out.radius))
    return 0


def _solver_config(args) -> SolverConfig:
    return SolverConfig(
        max_iter=args.max_iter,
        step_tol=args.step_tol,
        initializer=args.init,
    )


def _solve(args, methods: str | None, report, default_csv=None) -> int:
    """Run the comma-separated methods on one problem and report each run.

    methods=None runs every method that takes the problem's number of
    sets. The problem is loaded, each method checked against its sets and
    the CSV output (--csv, else default_csv: a stream, or None for none)
    opened before the first run, so a bad request or an unwritable path
    fails before any work; a --csv file is truncated only as the rows are
    written, after the last run, so a failed request leaves it as it was.
    """
    problem = load_problem(args.problem_file)
    if methods is None:
        methods = [m for m in Method if m.takes(problem.num_sets)]
    else:
        methods = [Method(m.strip()) for m in methods.split(",") if m.strip()]
        if not methods:
            raise ParseError("--methods named no methods")
    for method in methods:
        method.check_sets(problem.num_sets)
    cfg = _solver_config(args)
    out = open(args.csv, "a", newline="") if args.csv else nullcontext(default_csv)
    with out as fh:
        rows = []
        for method in methods:
            trace = run(method, problem, cfg)
            report(problem, trace)
            rows += _trace_rows(trace)
        if args.csv and os.path.isfile(args.csv):
            fh.truncate(0)  # rows are appended; a pipe or device is not cut
        if fh is not None:
            csv.writer(fh).writerows([CSV_COLUMNS, *rows])
    return 0


def _cmd_solve(args) -> int:
    return _solve(args, args.method, _print_summary)


def _cmd_gen(args) -> int:
    try:
        dims = args.dims.replace("/", ",").split(",")
        dim_u, dim_v = (int(d) for d in dims)
    except ValueError:
        raise ParseError(
            f"--dims must be two integers like 10,10 (got {args.dims!r})"
        ) from None
    problem = generate_two_subspace(args.n, dim_u, dim_v, args.cf, args.seed)
    description = (
        f"two-subspace instance: n={args.n} dims={dim_u}/{dim_v} "
        f"cf={_fmt(args.cf)} seed={args.seed}"
    )
    save_problem(args.output, problem, seed=args.seed, description=description)
    print(f"wrote {args.output}")
    return 0


def _cmd_bench(args) -> int:
    return _solve(args, args.methods, _print_progress, default_csv=sys.stdout)


def _add_solver_args(p: argparse.ArgumentParser):
    p.add_argument(
        "--init",
        choices=sorted(i.value for i in Initializer),
        default=SolverConfig.initializer.value,
        help="starting point derived from z (default: %(default)s)",
    )
    p.add_argument("--max-iter", type=int, default=SolverConfig.max_iter)
    p.add_argument("--step-tol", type=float, default=SolverConfig.step_tol)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="circum",
        description="Circumcenters of point sets and circumcentered-reflection solvers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_cc = sub.add_parser("cc", help="circumcenter of a point-set file")
    p_cc.add_argument("points_file")
    p_cc.add_argument(
        "--tol", type=float, default=CircumConfig.verify_tol,
        help="equidistance verification tolerance",
    )
    p_cc.add_argument(
        "--rank-tol", type=float, default=CircumConfig.rank_tol,
        help="affine-independence tolerance",
    )
    p_cc.set_defaults(fn=_cmd_cc)

    p_solve = sub.add_parser("solve", help="run one method on a problem file")
    p_solve.add_argument("problem_file")
    p_solve.add_argument(
        "--method", required=True, choices=[m.value for m in Method]
    )
    _add_solver_args(p_solve)
    p_solve.add_argument("--csv", help="write the iteration trace to this CSV file")
    p_solve.set_defaults(fn=_cmd_solve)

    p_gen = sub.add_parser("gen", help="generate a two-subspace problem file")
    p_gen.add_argument("--n", type=int, required=True, help="ambient dimension")
    p_gen.add_argument(
        "--dims", required=True, help="subspace dimensions, e.g. 10,10 or 10/10"
    )
    p_gen.add_argument(
        "--cf", type=float, required=True, help="target Friedrichs cosine in [0, 1)"
    )
    p_gen.add_argument("--seed", type=int, required=True)
    p_gen.add_argument("-o", "--output", required=True)
    p_gen.set_defaults(fn=_cmd_gen)

    p_bench = sub.add_parser(
        "bench", help="run several methods on one problem, combined CSV"
    )
    p_bench.add_argument("problem_file")
    p_bench.add_argument(
        "--methods",
        help="comma-separated subset of cdrm,crm,dr,map (default: every "
        "method that takes the problem's number of sets)",
    )
    _add_solver_args(p_bench)
    p_bench.add_argument(
        "--csv", help="combined CSV output file (default: stdout)"
    )
    p_bench.set_defaults(fn=_cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
