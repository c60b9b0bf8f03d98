"""Circumcenters and circumradii of finite point sets in R^n.

The circumcenter of a finite set S, when it exists, is the unique point
of the affine hull of S equidistant from every point of S; the
circumradius is that common distance. Both are partial: a set with no
equidistant point in its hull has outcome Empty and radius +inf. Empty
is a value, not an error.

Every routine here, the reference routes included, takes differences
of the points at their working scale (see linalg), so a finite set
whose differences overflow is no exception. Every tolerance is relative
to the set itself, plus the rounding noise of its points, so outcomes
are covariant under scaling and translation.

A set of any size is solved by one Gram-Schmidt sweep over the
differences p_i - p_1 (linalg._gram_schmidt), which drops duplicates
and dependent differences and solves for the center by forward
substitution. Three points take a path of their own: the Gram matrix
of a = p_2 - p_1 and b = p_3 - p_1 from one product, the residual
r = b - (a.b / a.a) a, and the sweep's keep, conditioning and
forward-substitution rules for those two rows in scalar arithmetic.
It settles every triple itself, duplicates and collinear ones
included. Both paths end in verify_equidistant's check, on one measure:
_distances gives the distances to the center as m Python floats; their
min, max and mean (a sum in sequence over m) take no numpy call.

The step of the two-set circumcentered-reflection method has a kernel
of its own, _reflection_triple: it keeps _three's rules but takes them
on the step's reflection coordinates, at their own working scale, with
no points stacked and differenced again. Its arithmetic, and so its
last bits, differ from circumcenter's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import (
    DEFAULT_PIVOT_TOL,
    DEFAULT_RANK_TOL,
    DEFAULT_VERIFY_TOL,
    DimensionMismatch,
    _HUGE,
    _TINY,
    _exponent,
    _gram_schmidt,
    _scaled,
    as_points,
    as_vector,
    gram,
)

DEFAULT_DEDUP_TOL_REL = 1e-9
# Rounding noise of a point p, per unit of |p|: differences and distances
# of points are not resolved more finely than _NOISE * max_i |p_i|.
_NOISE = 64 * np.finfo(float).eps


class NotAffinelyIndependent(ValueError):
    """The points do not form an affinely independent tuple."""


class NotThreeDimensional(ValueError):
    """Cross-product routines require ambient dimension exactly 3."""


@dataclass(frozen=True)
class CircumOutcome:
    """Either Exists(center, radius) or Empty (center None, radius inf)."""

    center: np.ndarray | None
    radius: float

    @classmethod
    def exists(cls, center: np.ndarray, radius: float) -> "CircumOutcome":
        return cls(center=center, radius=float(radius))

    @classmethod
    def empty(cls) -> "CircumOutcome":
        return cls(center=None, radius=math.inf)

    @property
    def is_empty(self) -> bool:
        return self.center is None


def _distances(P: np.ndarray, x: np.ndarray) -> list[float]:
    """Distances from x to the rows of P, at their working scale, as floats."""
    R = P - x
    return [math.sqrt(s) for s in np.einsum("ij,ij->i", R, R).tolist()]


def _diameter(P: np.ndarray) -> float:
    """Largest distance between two rows of P, at their working scale."""
    return max((max(_distances(P[i:], p)) for i, p in enumerate(P)), default=0.0)


def _equidistant(d: list[float], tol: float, noise: float) -> bool:
    """The distances d agree: the largest is finite and the spread is at
    most tol times the largest plus noise."""
    hi = max(d)
    return hi < math.inf and hi - min(d) <= tol * hi + noise


def dedup(points, tol: float | None = None) -> list[np.ndarray]:
    """Drop points within tol of an earlier one; order preserved.

    Default tol is 1e-9 * diameter plus the rounding noise of the
    points, so exact duplicates always collapse and the outcome does not
    change when the set is scaled or moved.
    """
    P = as_points(points)
    S, e, _, top = _scaled(P)
    if tol is None:
        tol = DEFAULT_DEDUP_TOL_REL * _diameter(S) + _NOISE * math.sqrt(top)
    elif e:
        tol = np.ldexp(tol, -e)
    kept: list[int] = []
    for i, p in enumerate(S):
        if all(d > tol for d in _distances(S[kept], p)):
            kept.append(i)
    return list(P[kept])


def circumcenter_gram(points) -> np.ndarray:
    """Circumcenter of an affinely independent tuple.

    With differences d_i = x_{i+1} - x_1, the Gram-Schmidt sweep of
    linalg writes each d_i in an orthonormal basis and solves for the
    point x_1 + sum_k y_k q_k equidistant from every x_i by forward
    substitution. A difference whose residual against the earlier ones
    has rho^2 <= DEFAULT_PIVOT_TOL * max |d|^2 surfaces as
    NotAffinelyIndependent.
    """
    P = as_points(points)
    if not len(P):
        raise ValueError("circumcenter of an empty tuple")
    if len(P) == 1:
        return P[0].copy()
    tol = math.sqrt(DEFAULT_PIVOT_TOL)
    S, e, _, _ = _scaled(P)
    kept, Q, _, y, _ = _gram_schmidt(S[1:] - S[0], tol)
    if len(kept) < len(P) - 1:
        raise NotAffinelyIndependent(
            f"only {len(kept)} of {len(P) - 1} differences independent at {tol:.1e}"
        )
    return np.ldexp(S[0] + y @ Q, e)


def verify_equidistant(p, points, tol: float) -> bool:
    """True when the distances from p to the points agree: their spread is
    at most tol times the largest plus the points' rounding noise."""
    p = as_vector(p)
    P = as_points(points)
    if not len(P):
        raise ValueError("no points to verify against")
    if P.shape[1] != p.shape[0]:
        raise DimensionMismatch(
            f"point has length {p.shape[0]}, set has length {P.shape[1]}"
        )
    S, _, sq, _ = _scaled(np.vstack([P, p]))
    noise = _NOISE * math.sqrt(max(sq[:-1]))
    return _equidistant(_distances(S[:-1], S[-1]), tol, noise)


def _ill_posed(pivot: float, top: float) -> bool:
    """A kept difference whose squared residual against the earlier ones
    is at most this pivot leaves the system too ill-conditioned to trust
    its solution."""
    return pivot <= DEFAULT_PIVOT_TOL * top


def _three(P: np.ndarray, noise: float) -> np.ndarray | None:
    """The sweep's center of three points in one pass; None for Empty.

    Three affinely independent points x, y, z have the circumcenter

        ( ||y-z||^2 <x-z, x-y> x + ||x-z||^2 <y-z, y-x> y
          + ||x-y||^2 <z-x, z-y> z ) / K,
        K = 2 (||y-x||^2 ||z-x||^2 - <y-x, z-x>^2),

    where K is twice the Gram determinant of a = y - x and b = z - x.
    It is computed from the residual r = b - k a, k = <a, b> / ||a||^2,
    as x + (1/2 - t k) a + t b with t = (||b||^2 - <a, b>) / (2 ||r||^2),
    the sweep's forward substitution for the two rows: ||a||^2 ||r||^2
    is the Gram determinant without its squared form's rounding. a is
    kept when |a| exceeds the sweep's threshold, and b when |r| does;
    one kept row gives its midpoint, none gives x.

    The numpy calls are the few the arithmetic needs: one Gram product
    for a.a, a.b and b.b, two vector operations for r, one product for
    r.r and four vector operations for the center, whose summation order
    is the one above. The rest is scalar arithmetic on Python floats.
    """
    x = P[0]
    D = P[1:] - x
    (aa, ab), (_, bb) = (D @ D.T).tolist()
    top = max(aa, bb)
    a, b = D[0], D[1]
    threshold = max(DEFAULT_RANK_TOL * math.sqrt(top), noise)
    if math.sqrt(aa) > threshold:
        k = ab / aa
        r = b - k * a
        rr = float(r @ r)
        if math.sqrt(rr) > threshold:
            if _ill_posed(min(aa, rr), top):
                return None
            t = (bb - ab) / (2.0 * rr)
            return x + (0.5 - t * k) * a + t * b
        return None if _ill_posed(aa, top) else x + 0.5 * a
    if math.sqrt(bb) > threshold:
        return x + 0.5 * b
    return x.copy()


def _sweep(P: np.ndarray, noise: float) -> np.ndarray | None:
    """The center of any number of points by one Gram-Schmidt sweep;
    None for Empty.

    A duplicate's difference, like a dependent one, leaves a residual
    within DEFAULT_RANK_TOL of the largest difference, or within the
    noise, so this one sweep also dedups.
    """
    _, Q, rho, y, top = _gram_schmidt(P[1:] - P[0], DEFAULT_RANK_TOL, noise)
    if _ill_posed(rho.min(initial=math.inf) ** 2, top):
        return None
    return P[0] + y @ Q


def _circumcenter(P: np.ndarray) -> CircumOutcome:
    """circumcenter() of a nonempty (m, n) array at its working scale;
    non-finite entries (from overflowing reflections) give Empty."""
    P, e, sq, top = _scaled(P)
    # A row with an inf or NaN entry makes the sum of squares inf or NaN.
    if not sum(sq) < math.inf:
        return CircumOutcome.empty()
    noise = _NOISE * math.sqrt(top)
    center = _three(P, noise) if len(P) == 3 else _sweep(P, noise)
    if center is None:
        return CircumOutcome.empty()
    d = _distances(P, center)
    if not _equidistant(d, DEFAULT_VERIFY_TOL, noise):
        return CircumOutcome.empty()
    radius = sum(d) / len(d)
    if e:
        center, radius = np.ldexp(center, e), np.ldexp(radius, e)
    return CircumOutcome.exists(center, radius)


def _reflection_triple(x: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray | None:
    """The center of x, x + 2u and x + 2u + 2v; None for Empty.

    With u = P_U x - x, y = R_U x and v = P_V y - y, these are the
    reflection points of a two-set circumcentered step, with differences
    a = 2u and b = 2(u + v). One product of the rows x, u and v gives
    the Gram entries of a and b and the squared norms of the points, and
    the center is x + alpha u + beta v, summed as (x + u) + beta r with
    r = (1 - k) u + v, k = <u, u + v> / |u|^2, the residual of u + v
    against u. Every rule of _three holds, on u and u + v, which halves
    each length and threshold exactly: the keep thresholds, on |u| and
    on r taken as a vector, not from the cancelling form
    |b|^2 - k <a, b>; the pivot test; the midpoint and x branches; and
    verification of c - x, c - x - 2u and c - x - 2u - 2v at
    DEFAULT_VERIFY_TOL, with the noise _NOISE times the largest point
    norm. Its tolerances are circumcenter's, so both decide Exists or
    Empty by the same numbers.

    Rows whose largest squared point norm leaves [_TINY, _HUGE], or
    whose products overflow to a NaN, are taken at their working scale
    (see linalg) and the center is scaled back, so the step is covariant
    under scaling by a power of two. An inf or NaN entry, from an
    overflowed projection, gives None.
    """
    W = np.array((x, u, v))
    # einsum, unlike np.dot, does not warn when a product overflows.
    (xx, xu, xv), (_, uu, uv), (_, _, vv) = np.einsum("ij,kj->ik", W, W).tolist()
    yy = xx + 4.0 * (xu + uu)
    zz = yy + 4.0 * (xv + 2.0 * uv + vv)
    top = max(xx, yy, zz)
    # Python's max passes over a NaN, which yy + zz does not.
    if not (_TINY <= top <= _HUGE and yy + zz < math.inf):
        # 0 for a zero or non-finite W; else the scaled rows are in range.
        e = _exponent(W)
        if e:
            center = _reflection_triple(*np.ldexp(W, -e))
            return None if center is None else np.ldexp(center, e)
        if not yy + zz < math.inf:
            return None
    noise = _NOISE * math.sqrt(top)
    ab, bc = uu + uv, uv + vv
    bb = ab + bc
    gram_top = max(uu, bb)
    threshold = max(DEFAULT_RANK_TOL * math.sqrt(gram_top), 0.5 * noise)
    if math.sqrt(uu) > threshold:
        k = ab / uu
        r = (1.0 - k) * u + v
        rr = float(np.dot(r, r))
        if math.sqrt(rr) > threshold:
            if _ill_posed(min(uu, rr), gram_top):
                return None
            beta = bc / rr
            alpha = 1.0 + beta * (1.0 - k)
            center = (x + u) + beta * r
        elif _ill_posed(uu, gram_top):
            return None
        else:
            alpha, beta, center = 1.0, 0.0, x + u
    # |u + v| > threshold; bb may round below 0, where a root would raise.
    elif bb > threshold * threshold:
        alpha, beta, center = 1.0, 1.0, x + (u + v)
    else:
        alpha, beta, center = 0.0, 0.0, x.copy()
    # The rows c - x = alpha u + beta v, c - y and c - z.
    C = np.array(((alpha, beta), (alpha - 2.0, beta), (alpha - 2.0, beta - 2.0)))
    E = np.dot(C, W[1:])
    d = [math.sqrt(s) for s in np.einsum("ij,ij->i", E, E).tolist()]
    if not _equidistant(d, DEFAULT_VERIFY_TOL, noise):
        return None
    return center


def circumcenter(points) -> CircumOutcome:
    """Total circumcenter: Exists(center, radius) or Empty, never an error.

    One Gram-Schmidt sweep over the differences to the first point, in
    index order, keeps a maximal affinely independent subset with the
    same hull and solves for its circumcenter in the same pass; a
    duplicate's difference has no residual, so the sweep drops it like a
    dependent one. Three points take the same decisions and the same
    forward substitution in one pass of scalar arithmetic (see _three).
    The candidate is then verified against every point. Both decisions
    are relative to the set, up to the rounding noise of its points, at
    the fixed tolerances DEFAULT_RANK_TOL and DEFAULT_VERIFY_TOL (see
    linalg), and taken at its working scale, so the outcome is covariant
    under scaling, over the whole float range, and translation. Any
    degeneracy yields Empty.
    """
    P = as_points(points)
    if not len(P):
        raise ValueError("circumcenter of an empty point set")
    return _circumcenter(P)


def circumradius(points) -> float:
    """Common distance to the points, +inf when the circumcenter is Empty."""
    return circumcenter(points).radius


def cross3(u, v) -> np.ndarray:
    """Cross product in R^3."""
    u = as_vector(u)
    v = as_vector(v)
    if u.shape[0] != 3 or v.shape[0] != 3:
        raise NotThreeDimensional(
            f"cross product needs length-3 vectors, got {u.shape[0]} and {v.shape[0]}"
        )
    return np.cross(u, v)


def _cross3_frame(x, y, z):
    """x, a = 2^-e (y - x), b = 2^-e (z - x), a x b, |a x b| and e: the
    differences of the points at their working scale, at unit scale."""
    P = as_points([x, y, z])
    if P.shape[1] != 3:
        raise NotThreeDimensional(
            f"cross-product circumcenter needs R^3, got R^{P.shape[1]}"
        )
    S, s, _, _ = _scaled(P)
    D = S[1:] - S[0]
    e = _exponent(D)
    a, b = np.ldexp(D, -e)
    k = cross3(a, b)
    nk = float(np.linalg.norm(k))
    if nk <= DEFAULT_RANK_TOL * float(np.linalg.norm(a)) * float(np.linalg.norm(b)):
        raise NotAffinelyIndependent("cross product of the differences is (near) zero")
    return P[0], a, b, k, nk, s + e


def circumcenter_cross3(x, y, z) -> np.ndarray:
    """Circumcenter of three affinely independent points in R^3.

    center = x + ((||a||^2 b - ||b||^2 a) x (a x b)) / (2 ||a x b||^2)
    with a = y - x, b = z - x.
    """
    x, a, b, k, nk, e = _cross3_frame(x, y, z)
    w = float(a @ a) * b - float(b @ b) * a
    return x + np.ldexp(cross3(w, k) / (2.0 * nk * nk), e)


def circumradius_cross3(x, y, z) -> float:
    """Circumradius of three affinely independent points in R^3.

    radius = ||a|| ||b|| ||a - b|| / (2 ||a x b||), i.e. the opposite
    side over twice the sine of the enclosed angle.
    """
    _, a, b, _, nk, e = _cross3_frame(x, y, z)
    r = np.linalg.norm(a) * np.linalg.norm(b) * np.linalg.norm(a - b) / (2.0 * nk)
    return float(np.ldexp(r, e))


def cramer_coefficients(points, base_index: int = 0) -> list[float]:
    """Affine coefficients of the circumcenter by determinant ratios.

    Rebasing at points[base_index] with differences d_i (the other
    points in original order), coefficient i is det(A_i) / (2 det(A))
    where A is the Gram matrix of the d_i and A_i is A with column i
    replaced by (||d_i||^2)_i. The center is then
    points[base_index] + sum_i coeff_i d_i. Independent of the Gram-Schmidt
    path, which makes this a cross-check route, not a fast one. Like the
    cross-product forms, whose degree reaches five, it takes the d_i at
    the points' working scale (see linalg) and the determinants (of
    degree 2(m - 1)) at unit scale, of the d_i divided by 2^e, e the
    binary exponent of their largest entry.
    """
    P = as_points(points)
    m = len(P)
    if m < 2:
        raise ValueError("need at least two points")
    if not 0 <= base_index < m:
        raise ValueError(f"base_index {base_index} out of range for {m} points")
    S = _scaled(P)[0]
    diffs = np.delete(S, base_index, axis=0) - S[base_index]
    A = gram(np.ldexp(diffs, -_exponent(diffs)))
    a = np.diag(A)
    delta = float(np.linalg.det(A))
    if delta <= 1e-13 * max(float(np.prod(np.diag(A))), 1e-300):
        raise NotAffinelyIndependent(f"Gram determinant {delta:.3e} is not positive")
    coeffs = []
    for i in range(m - 1):
        Ai = A.copy()
        Ai[:, i] = a
        coeffs.append(float(np.linalg.det(Ai)) / (2.0 * delta))
    return coeffs
