"""circumcenter() against an exact rational oracle on integer point sets.

The oracle uses only the standard library: it removes exact duplicates,
keeps the earliest affinely independent points by exact elimination,
solves their Gram system in Fractions and then decides existence by
exact equidistance from every distinct point. It shares no code with
circumlib, so it checks both the Exists/Empty decision and the center.
"""

import math
import random
from fractions import Fraction

import numpy as np

from circumlib import circumcenter

CENTER_REL_TOL = 1e-12


def sub(u, v):
    return [a - b for a, b in zip(u, v)]


def inner(u, v):
    return sum(a * b for a, b in zip(u, v))


def reduce_against(v, echelon):
    """v minus its components along the echelon rows, exactly."""
    for col, row in echelon:
        if v[col]:
            f = v[col] / row[col]
            v = [a - f * b for a, b in zip(v, row)]
    return v


def solve_exact(A, b):
    """Gauss-Jordan elimination in Fractions on a nonsingular system."""
    n = len(A)
    M = [list(row) + [rhs] for row, rhs in zip(A, b)]
    for col in range(n):
        piv = next(r for r in range(col, n) if M[r][col] != 0)
        M[col], M[piv] = M[piv], M[col]
        for r in range(n):
            if r != col and M[r][col] != 0:
                f = M[r][col] / M[col][col]
                M[r] = [x - f * y for x, y in zip(M[r], M[col])]
    return [M[i][n] / M[i][i] for i in range(n)]


def exact_circumcenter(points):
    """(center, squared radius) in Fractions, or None when Empty."""
    distinct = []
    for p in points:
        p = [Fraction(x) for x in p]
        if p not in distinct:
            distinct.append(p)
    base = distinct[0]
    echelon, kept = [], []
    for p in distinct[1:]:
        d = sub(p, base)
        r = reduce_against(d, echelon)
        if any(r):
            echelon.append((next(i for i, x in enumerate(r) if x), r))
            kept.append(d)
    alpha = solve_exact(
        [[inner(u, v) for v in kept] for u in kept],
        [inner(d, d) / 2 for d in kept],
    )
    center = list(base)
    for a, d in zip(alpha, kept):
        center = [c + a * x for c, x in zip(center, d)]
    radii2 = {inner(sub(center, p), sub(center, p)) for p in distinct}
    if len(radii2) > 1:
        return None
    return center, radii2.pop()


def random_point(rng, n, lo=-6, hi=6):
    return [rng.randint(lo, hi) for _ in range(n)]


def orthogonal_integer_directions(rng, n, k):
    """k nonzero, pairwise orthogonal integer vectors of Z^n.

    Integer Gram-Schmidt: each new vector is scaled by the squared norms
    of the earlier ones instead of divided by them.
    """
    out = []
    while len(out) < k:
        v = random_point(rng, n, -4, 4)
        for u in out:
            uu = inner(u, u)
            v = [uu * a - inner(u, v) * b for a, b in zip(v, u)]
        g = math.gcd(*v)
        if g:
            out.append([a // g for a in v])
    return out


def box(rng, n, k):
    """The 2^k vertices of a k-dimensional box in R^n, in random position."""
    corner = random_point(rng, n)
    dirs = orthogonal_integer_directions(rng, n, k)
    verts = [corner]
    for d in dirs:
        verts += [[a + b for a, b in zip(v, d)] for v in verts]
    return verts


def cases():
    rng = random.Random(20180706)
    out = []
    for n in range(2, 7):
        for m in range(3, n + 2):  # triangles and simplices up to m = n + 1
            for _ in range(6):
                out.append((f"simplex m={m} n={n}", [random_point(rng, n) for _ in range(m)]))
        for _ in range(4):
            p, d = random_point(rng, n), random_point(rng, n, -3, 3)
            ts = rng.sample(range(-5, 6), 3)
            out.append((f"collinear n={n}", [[a + t * b for a, b in zip(p, d)] for t in ts]))
            out.append((f"rectangle n={n}", box(rng, n, 2)))
            if n >= 3:
                out.append((f"box n={n}", box(rng, n, 3)))
            out.append((f"m=n+2 n={n}", [random_point(rng, n) for _ in range(n + 2)]))
        for _ in range(4):
            pts = [random_point(rng, n) for _ in range(rng.randint(2, n + 1))]
            pts += rng.choices(pts, k=rng.randint(1, 3))
            rng.shuffle(pts)
            out.append((f"duplicates n={n}", pts))
        p = random_point(rng, n)
        out.append((f"duplicates-only n={n}", [p, p, p]))
    return out


CASES = cases()


def test_oracle_cases_cover_both_outcomes():
    decisions = [exact_circumcenter(pts) is None for _, pts in CASES]
    assert sum(decisions) >= 30
    assert len(decisions) - sum(decisions) >= 100


def test_circumcenter_matches_exact_oracle():
    failures = []
    for label, points in CASES:
        exact = exact_circumcenter(points)
        out = circumcenter(np.array(points, dtype=float))
        if out.is_empty != (exact is None):
            failures.append(f"{label} {points}: Empty is {out.is_empty}, exactly {exact is None}")
            continue
        if exact is None:
            continue
        center = np.array([float(c) for c in exact[0]])
        radius = math.sqrt(exact[1])
        scale = max(float(np.linalg.norm(center)), radius)
        if (
            np.linalg.norm(out.center - center) > CENTER_REL_TOL * scale
            or abs(out.radius - radius) > CENTER_REL_TOL * radius
        ):
            failures.append(f"{label} {points}: center/radius off the exact ones")
    assert not failures, "\n".join(failures)
