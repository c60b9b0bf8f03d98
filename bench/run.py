"""circumlib benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from its
`src/` directory, never from an installed copy. With --trace 0 the run
reports the end-to-end metrics of the workload; with --trace 1 it reports
per-layer calls and self time from spans recorded around circumlib's public
functions, and the tracing overhead. The last line of standard output is
{"correct", "attempted", "failed", "metrics"}; details go to bench/out/.
"""

from __future__ import annotations

import os

# BLAS is pinned to one thread before numpy loads; the interpreters started
# to time the cold import inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import json
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
# Set-up runs at least SETUP_REPEATS times and takes at least SETUP_SHARE
# of a run's time.
SETUP_REPEATS = 3
SETUP_SHARE = 0.2
IMPORT_REPEATS = 3


def import_library():
    """Import circumlib from this checkout's src/, or exit without a result."""
    if not (SRC / "circumlib" / "__init__.py").is_file():
        sys.exit(f"error: no circumlib sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import circumlib

    if Path(circumlib.__file__).resolve().parent != SRC / "circumlib":
        sys.exit(f"error: circumlib imported from {circumlib.__file__}, not {SRC}")


def run_round(ops, errors: list[str]) -> list[float | None]:
    """Run each operation once; return its time, None where it failed."""
    times: list[float | None] = []
    for op in ops:
        t0 = perf_counter()
        try:
            result = op.call()
        except Exception as exc:  # a failed operation is counted, not fatal
            times.append(None)
            errors.append(f"{op.kind}: {type(exc).__name__}: {exc}")
            continue
        times.append(perf_counter() - t0)
        problem = op.check(result)
        if problem is not None:
            errors.append(problem)
    return times


def timed_setup(workload) -> float:
    t0 = perf_counter()
    workload.setup()
    return perf_counter() - t0


class CallTimes:
    """Every time of each operation of a round, over a run."""

    def __init__(self, n: int):
        self.samples: list[list[float]] = [[] for _ in range(n)]

    def add(self, times: list[float | None]):
        for sample, t in zip(self.samples, times):
            if t is not None:
                sample.append(t)

    def per_op(self, stat) -> list[float | None]:
        return [stat(x) if x else None for x in self.samples]

    def total(self, stat) -> float:
        return sum(t for t in self.per_op(stat) if t is not None)


def measure(workload, seconds: float) -> dict:
    """Closed loop over whole rounds until `seconds` have passed.

    Set-ups are interleaved with the rounds, so that they sample the same
    stretch of time. round_s sums, over the round's operations, each
    operation's time over the run by the workload's `call_stat`: the
    fastest call for operations of a few milliseconds, which the host's
    slow phases leave alone once a call has been repeated often enough,
    and the median call for operations of a tenth of a second or more,
    which each span several phases.
    """
    setups = [timed_setup(workload)]
    errors = workload.verify()
    ops = workload.operations()
    calls = CallTimes(len(ops))
    rounds: list[float] = []
    attempted = failed = 0
    start = perf_counter()
    while not rounds or perf_counter() - start < seconds:
        elapsed = perf_counter() - start
        if len(setups) < SETUP_REPEATS or sum(setups) < SETUP_SHARE * elapsed:
            setups.append(timed_setup(workload))
            ops = workload.operations()
        times = run_round(ops, errors)
        calls.add(times)
        rounds.append(sum(t for t in times if t is not None))
        attempted += len(ops)
        failed += times.count(None)
    stat = workload.call_stat
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "round_s": (calls.total(stat), "s"),
    }
    detail = {"round_median_s": statistics.median(rounds)}
    for op, t in zip(ops, calls.per_op(stat)):
        if t is not None:
            detail[f"{op.kind}_s"] = detail.get(f"{op.kind}_s", 0.0) + t
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "rounds": len(rounds),
        "detail": detail,
        "round_times": rounds,
        "setup_times": setups,
    }


def cold_import_s(circumlib_src: Path) -> float:
    """Median wall time of `import circumlib.cli` in a fresh interpreter."""
    code = (
        "import time; t = time.perf_counter(); import circumlib.cli; "
        "print(time.perf_counter() - t)"
    )
    env = dict(os.environ, PYTHONPATH=str(circumlib_src))
    times = []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env,
            timeout=60, check=True,
        )
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def measure_traced(workload, seconds: float, tracer_mod) -> dict:
    """Alternate untraced and traced cycles (one set-up plus one round).

    Per-layer figures are per cycle: calls from the first traced cycle
    (they repeat exactly), self time as the median over traced cycles.
    The overhead compares traced and untraced rounds, each summed as
    round_s is; set-ups are left out of it because they hold few
    spans and their time would only add noise.
    """
    tracer = tracer_mod.Tracer()
    errors: list[str] = []
    attempted = failed = 0
    workload.setup()
    errors.extend(workload.verify())
    n_ops = len(workload.operations())
    calls = {False: CallTimes(n_ops), True: CallTimes(n_ops)}
    layer_self: dict[str, list[float]] = {}
    first = None
    cycles = 0
    start = perf_counter()
    while first is None or perf_counter() - start < seconds:
        for traced in (False, True):
            tracer.reset()
            with tracer.installed() if traced else contextlib.nullcontext():
                workload.setup()
                times = run_round(workload.operations(), errors)
            calls[traced].add(times)
            attempted += len(times)
            failed += times.count(None)
        totals = tracer.layer_totals()
        if first is None:
            first = {
                "totals": totals,
                "exists": tracer.exists,
                "iters": dict(tracer.iters),
                "spans": list(tracer.spans),
            }
        for name, (_, self_s) in totals.items():
            layer_self.setdefault(name, []).append(self_s)
        cycles += 1

    metrics = {}
    for name, _, _ in tracer_mod.TRACED:
        metrics[f"{name}.calls"] = (first["totals"][name][0], "count")
        metrics[f"{name}.self_s"] = (statistics.median(layer_self[name]), "s")
    cc_calls = first["totals"]["circumcenter.circumcenter"][0]
    metrics["circumcenter.exists_ratio"] = (
        first["exists"] / cc_calls if cc_calls else 0.0, "ratio",
    )
    for method, iters in first["iters"].items():
        metrics[f"solvers.iters.{method}"] = (iters, "count")
    metrics["cli.import_s"] = (cold_import_s(SRC), "s")
    plain_s = calls[False].total(workload.call_stat)
    overhead = calls[True].total(workload.call_stat) - plain_s
    metrics["trace.overhead_s"] = (overhead, "s")
    metrics["trace.overhead_pct"] = (100.0 * overhead / plain_s, "%")
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "rounds": cycles,
        "spans": first["spans"],
    }


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "processor": platform.processor(),
        "cpus": os.cpu_count(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_library()
    import tracer as tracer_mod
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    workdir = OUT / f"work-{os.getpid()}"
    workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
    try:
        if args.trace:
            res = measure_traced(workload, args.seconds, tracer_mod)
        else:
            res = measure(workload, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    correct = not res["errors"]
    OUT.mkdir(exist_ok=True)
    kind = "trace" if args.trace else "result"
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "environment": environment(),
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "rounds": res["rounds"],
        "errors": res["errors"][:20],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in res["metrics"].items()},
    }
    for key in ("detail", "round_times", "setup_times", "spans"):
        if key in res:
            record[key] = res[key]
    (OUT / f"{kind}-{args.workload}-seed{args.seed}.json").write_text(json.dumps(record))

    for problem in res["errors"][:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {res['rounds']} rounds, "
          f"{res['attempted']} operations, {res['failed']} failed, correct {correct}")
    for name, (value, unit) in res["metrics"].items():
        print(f"  {name} {value:.6g} {unit}")
    for name, value in res.get("detail", {}).items():
        print(f"  detail {name} {value:.6g} s")
    print(json.dumps({
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": record["metrics"],
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
