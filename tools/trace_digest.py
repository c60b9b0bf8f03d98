"""Print SHA-256 digests of solver traces, generated problems and circumcenters.

Two checkouts that print the same lines compute the same numbers on
the fixed inputs below. circumlib is imported from the import path, so
the same script hashes any checkout:

    PYTHONPATH=src python tools/trace_digest.py
    PYTHONPATH=/path/to/other/checkout/src python tools/trace_digest.py

The first line, `two-subspace <sha>`, is one digest over, in a fixed
order:

- the `run` trace (reason, iterates, shadows, dists, residuals and step
  norms) of every method, initializer and sol_tol in {None, 1e-8} on
  generate_two_subspace(60, 15, 15, cf, s), cf in {0.5, 0.8, 0.95},
  s in 1..4, and on a copy of each with every set and z moved by a
  vector of norm 1e4 (576 traces);
- every array of generate_two_subspace (z, each set's base and basis,
  the intersection and the solution) over a fixed grid of n, dims, cf
  and seed, and of the same problem with the second set's base moved
  along the first set, so that the sets meet away from a shared base.

The second line, `circumcenter <sha>`, is a digest of the center and
radius, or Empty, of `circumcenter()` on seeded point sets in R^6:
triples of every kind the three-point kernel decides (generic, with a
duplicated point, all coincident, collinear, near-collinear at sines
1e-2 to 1e-9, and with a near-duplicate at 0.5 and 2 times the rank
tolerance) and sets of 2, 4 and 5 points, each at scales 2^-600, 1 and
2^600, and each of those again moved by a vector of norm 1e8.

The third line, `msets <sha>`, is a digest of the `run` traces of crm
and map, every initializer and sol_tol in {None, 1e-8}, on planted
problems of m = 3, 4 and 5 subspaces of R^30 drawn from an
Xorshift64Star stream, and on a copy of each moved by a vector of norm
1e4 (144 traces).
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
    Xorshift64Star,
    circumcenter,
    from_span,
    generate_two_subspace,
    run,
)
from circumlib.linalg import DEFAULT_RANK_TOL

TRACE_CFS = (0.5, 0.8, 0.95)
TRACE_SEEDS = (1, 2, 3, 4)
OFFSET_NORM = 1e4
GRID_SHAPES = ((8, 2, 3), (21, 4, 5), (60, 15, 15), (200, 50, 50))
GRID_CFS = (0.0, 0.5, 0.95)
GRID_SEEDS = (1, 2)
CC_DIM = 6
CC_SEEDS = (1, 2, 3)
CC_SINES = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8, 1e-9)
CC_NEAR = (0.5, 2.0)
CC_SIZES = (2, 4, 5)
CC_EXPONENTS = (-600, 0, 600)
CC_OFFSET_NORM = 1e8
MSET_SIZES = (3, 4, 5)
MSET_SEEDS = (1, 2)
MSET_SHAPE = (30, 3, 5)  # n, shared dimension w, own directions d per set


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


def feed_runs(h, base: Problem, methods) -> None:
    """The traces of methods from every initializer and sol_tol on base
    and on base moved by a vector of norm OFFSET_NORM."""
    offset = np.full(base.dim, OFFSET_NORM / np.sqrt(base.dim))
    for problem in (base, moved(base, offset)):
        for method, init, sol_tol in itertools.product(
            methods, Initializer, (None, 1e-8)
        ):
            cfg = SolverConfig(sol_tol=sol_tol, initializer=init)
            trace = run(method, problem, cfg)
            h.update(f"{method.value} {init.value} {sol_tol} {trace.reason}".encode())
            feed_arrays(h, trace.iterates)
            feed_arrays(h, trace.shadows or [])
            feed_arrays(h, [trace.dists, trace.residuals, trace.step_norms])


def feed_traces(h) -> None:
    for cf, seed in itertools.product(TRACE_CFS, TRACE_SEEDS):
        feed_runs(h, generate_two_subspace(60, 15, 15, cf, seed), Method)


def feed_generated(h) -> None:
    for (n, du, dv), cf, seed in itertools.product(GRID_SHAPES, GRID_CFS, GRID_SEEDS):
        problem = generate_two_subspace(n, du, dv, cf, seed)
        feed_problem(h, problem)
        U, V = problem.subspaces
        apart = AffineSubspace(V.base + 3.0 * U.onb[0], V.onb)
        feed_problem(h, Problem([U, apart], problem.z))


def point_sets(rng: Xorshift64Star):
    """The triples of every kind _three decides, then sets of CC_SIZES
    points, drawn from rng."""
    x, a, w = (rng.normal_vector(CC_DIM) for _ in range(3))
    w = w - (w @ a) / (a @ a) * a
    a_hat, w_hat = a / np.linalg.norm(a), w / np.linalg.norm(w)
    yield np.array([x, x + a, x + w])  # generic
    yield np.array([x, x + a, x])  # duplicated
    yield np.array([x, x, x])  # all coincident
    yield np.array([x, x + a, x - 2.5 * a])  # collinear
    for sin in CC_SINES:
        yield np.array([x, x + a, x + 3.0 * (np.sqrt(1.0 - sin**2) * a_hat + sin * w_hat)])
    for f in CC_NEAR:
        yield np.array([x, x + f * DEFAULT_RANK_TOL * np.linalg.norm(a) * w_hat, x + a])
    for m in CC_SIZES:
        yield np.array([rng.normal_vector(CC_DIM) for _ in range(m)])


def feed_circumcenters(h) -> None:
    for seed in CC_SEEDS:
        rng = Xorshift64Star(seed)
        offset = rng.normal_vector(CC_DIM)
        offset *= CC_OFFSET_NORM / np.linalg.norm(offset)
        for P in point_sets(rng):
            for e, shift in itertools.product(CC_EXPONENTS, (0.0, offset)):
                out = circumcenter(np.ldexp(P, e) + shift)
                if out.is_empty:
                    h.update(b"Empty")
                else:
                    feed_arrays(h, [out.center, [out.radius]])


def planted_sets(rng: Xorshift64Star, m: int) -> Problem:
    """m subspaces c + span(W, D_i) of R^n and an anchor z, drawn from
    rng: W is w orthonormal rows and D_i is d normal rows, so for
    w + 2d <= n the sets share exactly c + span(W)."""
    n, w, d = MSET_SHAPE
    c = rng.normal_vector(n)
    W = rng.orthogonal(n)[:w]
    sets = []
    for _ in range(m):
        span = np.vstack([W, rng.normal_vector(d * n).reshape(d, n)])
        sets.append(from_span(c + rng.normal_vector(w + d) @ span, span))
    return Problem(sets, c + 3.0 * rng.normal_vector(n))


def feed_msets(h) -> None:
    for seed in MSET_SEEDS:
        rng = Xorshift64Star(seed)
        for m in MSET_SIZES:
            feed_runs(h, planted_sets(rng, m), (Method.CRM, Method.MAP))


def main() -> None:
    h = hashlib.sha256()
    feed_traces(h)
    feed_generated(h)
    print(f"two-subspace {h.hexdigest()}")
    h = hashlib.sha256()
    feed_circumcenters(h)
    print(f"circumcenter {h.hexdigest()}")
    h = hashlib.sha256()
    feed_msets(h)
    print(f"msets {h.hexdigest()}")


if __name__ == "__main__":
    main()
