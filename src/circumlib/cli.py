"""Command-line front end.

Subcommands: cc (circumcenter of a point-set file), solve (run one
method on a problem file), gen (write a generated problem file), bench
(run several methods on one problem, combined CSV). Exit codes: 0 on
success (including an EMPTY circumcenter, which is an answer), 1 on
file parse or validation failure, 2 on solver degeneracy. The
CIRCUM_LOG environment variable (off, info, debug) controls logging on
stderr.
"""

from __future__ import annotations

import argparse
import csv
import logging
import os
import sys

from .affine import NoIntersection, friedrichs_cos
from .circumcenter import CircumConfig, circumcenter
from .solvers import (
    DegenerateStep,
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

_INIT_CHOICES = {i.value: i for i in Initializer}


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _configure_logging():
    level_name = os.environ.get("CIRCUM_LOG", "off").lower()
    levels = {"off": None, "info": logging.INFO, "debug": logging.DEBUG}
    if level_name not in levels:
        print(
            f"warning: CIRCUM_LOG={level_name!r} not in (off, info, debug); using off",
            file=sys.stderr,
        )
        return
    level = levels[level_name]
    if level is not None:
        logging.basicConfig(
            level=level, stream=sys.stderr, format="%(name)s %(levelname)s %(message)s"
        )


def _trace_rows(trace: SolverTrace) -> list[list]:
    rows = []
    for k in range(len(trace.dists)):
        step = 0.0 if k == 0 else trace.step_norms[k - 1]
        rows.append(
            [k, step, trace.dists[k], trace.residuals[k], trace.method.value]
        )
    return rows


def _write_csv(rows: list[list], path: str | None):
    fh = open(path, "w", newline="") if path else sys.stdout
    try:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        writer.writerows(rows)
    finally:
        if path:
            fh.close()


def _pairwise_cf(problem: Problem) -> tuple[float, str]:
    subs = problem.subspaces
    if len(subs) == 2:
        return friedrichs_cos(subs[0], subs[1]), "cf"
    worst = max(
        friedrichs_cos(subs[i], subs[j])
        for i in range(len(subs))
        for j in range(i + 1, len(subs))
    )
    return worst, "cf_max_pairwise"


def _print_summary(problem: Problem, trace: SolverTrace):
    cf, cf_label = _pairwise_cf(problem)
    try:
        rate = _fmt(estimate_rate(trace))
    except InsufficientData:
        rate = "n/a"
    print(f"method {trace.method.value}")
    print(f"iterations {trace.num_steps}")
    print(f"reason {trace.reason}")
    print(f"final_dist {_fmt(trace.dists[-1])}")
    print(f"final_residual {_fmt(trace.residuals[-1])}")
    print(f"rate {rate}")
    print(f"{cf_label} {_fmt(cf)}")


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
        initializer=_INIT_CHOICES[args.init],
    )


def _cmd_solve(args) -> int:
    problem = load_problem(args.problem_file)
    trace = run(Method(args.method), problem, _solver_config(args))
    _print_summary(problem, trace)
    if args.csv:
        _write_csv(_trace_rows(trace), args.csv)
    return 0


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
    problem = load_problem(args.problem_file)
    methods = [Method(m.strip()) for m in args.methods.split(",") if m.strip()]
    if not methods:
        raise ParseError("--methods named no methods")
    rows: list[list] = []
    for method in methods:
        trace = run(method, problem, _solver_config(args))
        try:
            rate = _fmt(estimate_rate(trace))
        except InsufficientData:
            rate = "n/a"
        print(
            f"{method.value}: {trace.num_steps} iterations ({trace.reason}), "
            f"final_dist {_fmt(trace.dists[-1])}, rate {rate}",
            file=sys.stderr,
        )
        rows.extend(_trace_rows(trace))
    _write_csv(rows, args.csv)
    return 0


def _add_solver_args(p: argparse.ArgumentParser):
    p.add_argument(
        "--init",
        choices=sorted(_INIT_CHOICES),
        default=Initializer.PROJECT_FIRST_SET.value,
        help="starting point derived from z (default: project-first)",
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
        default=",".join(m.value for m in Method),
        help="comma-separated subset of cdrm,crm,dr,map",
    )
    _add_solver_args(p_bench)
    p_bench.add_argument(
        "--csv", help="combined CSV output file (default: stdout)"
    )
    p_bench.set_defaults(fn=_cmd_bench)
    return parser


def main(argv=None) -> int:
    _configure_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ParseError, NoIntersection) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DegenerateStep as exc:
        print(f"solver degeneracy: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
