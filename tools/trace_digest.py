"""Print one SHA-256 over solver traces and generated problems.

Two checkouts that print the same digest compute the same numbers on
the fixed inputs below. circumlib is imported from the import path, so
the same script hashes any checkout:

    PYTHONPATH=src python tools/trace_digest.py
    PYTHONPATH=/path/to/other/checkout/src python tools/trace_digest.py

The digest covers, in a fixed order:

- the `run` trace (reason, iterates, shadows, dists, residuals and step
  norms) of every method, initializer and sol_tol in {None, 1e-8} on
  generate_two_subspace(60, 15, 15, cf, s), cf in {0.5, 0.8, 0.95},
  s in 1..4, and on a copy of each with every set and z moved by a
  vector of norm 1e4 (576 traces);
- every array of generate_two_subspace (z, each set's base and basis,
  the intersection and the solution) over a fixed grid of n, dims, cf
  and seed, and of the same problem with the second set's base moved
  along the first set, so that the sets meet away from a shared base.
"""

from __future__ import annotations

import hashlib
import itertools

import numpy as np

from circumlib import (
    AffineSubspace,
    Initializer,
    Method,
    Problem,
    SolverConfig,
    generate_two_subspace,
    run,
)

TRACE_CFS = (0.5, 0.8, 0.95)
TRACE_SEEDS = (1, 2, 3, 4)
OFFSET_NORM = 1e4
GRID_SHAPES = ((8, 2, 3), (21, 4, 5), (60, 15, 15), (200, 50, 50))
GRID_CFS = (0.0, 0.5, 0.95)
GRID_SEEDS = (1, 2)


def moved(problem: Problem, offset: np.ndarray) -> Problem:
    """The problem with every set and z moved by offset."""
    sets = [AffineSubspace(s.base + offset, s.onb) for s in problem.subspaces]
    return Problem(sets, problem.z + offset)


def feed_arrays(h, arrays) -> None:
    for a in arrays:
        a = np.ascontiguousarray(a, dtype=float)
        h.update(repr(a.shape).encode())
        h.update(a.tobytes())


def feed_problem(h, problem: Problem) -> None:
    feed_arrays(h, [problem.z, problem.solution])
    for s in [*problem.subspaces, problem.intersection]:
        feed_arrays(h, [s.base, s.onb])


def feed_traces(h) -> None:
    for cf, seed in itertools.product(TRACE_CFS, TRACE_SEEDS):
        base = generate_two_subspace(60, 15, 15, cf, seed)
        offset = np.full(base.dim, OFFSET_NORM / np.sqrt(base.dim))
        for problem in (base, moved(base, offset)):
            for method, init, sol_tol in itertools.product(
                Method, Initializer, (None, 1e-8)
            ):
                cfg = SolverConfig(sol_tol=sol_tol, initializer=init)
                trace = run(method, problem, cfg)
                h.update(f"{method.value} {init.value} {sol_tol} {trace.reason}".encode())
                feed_arrays(h, trace.iterates)
                feed_arrays(h, trace.shadows or [])
                feed_arrays(h, [trace.dists, trace.residuals, trace.step_norms])


def feed_generated(h) -> None:
    for (n, du, dv), cf, seed in itertools.product(GRID_SHAPES, GRID_CFS, GRID_SEEDS):
        problem = generate_two_subspace(n, du, dv, cf, seed)
        feed_problem(h, problem)
        U, V = problem.subspaces
        apart = AffineSubspace(V.base + 3.0 * U.onb[0], V.onb)
        feed_problem(h, Problem([U, apart], problem.z))


def main() -> None:
    h = hashlib.sha256()
    feed_traces(h)
    feed_generated(h)
    print(h.hexdigest())


if __name__ == "__main__":
    main()
