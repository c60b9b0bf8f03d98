"""Circumcenters and circumradii of finite point sets in R^n.

The circumcenter of a finite set S, when it exists, is the unique point
of the affine hull of S equidistant from every point of S; the
circumradius is that common distance. Both are partial: a set with no
equidistant point in its hull has outcome Empty and radius +inf. Empty
is a value, not an error.

Every tolerance here is relative to the set itself, plus the rounding
noise of its points (see linalg), so outcomes are covariant under
scaling and translation.

A set of any size is solved by one Gram-Schmidt sweep over the
differences p_i - p_1 (linalg._gram_schmidt), which drops duplicates
and dependent differences and solves for the center by forward
substitution. Three points, the step of the two-set
circumcentered-reflection method, take a path of their own: the Gram
matrix of a = p_2 - p_1 and b = p_3 - p_1 from one product, the
residual r = b - (a.b / a.a) a, and the sweep's keep, conditioning and
forward-substitution rules for those two rows in scalar arithmetic.
It settles every triple itself, duplicates and collinear ones
included. Both paths end in the same equidistance check against every
point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import (
    DEFAULT_PIVOT_TOL,
    DEFAULT_RANK_TOL,
    DimensionMismatch,
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
class CircumConfig:
    """Tolerances for the total circumcenter routine.

    rank_tol decides which points coincide and which differences
    p_i - p_1 are independent: a difference is kept when its residual
    against the earlier ones exceeds rank_tol times the largest
    difference. verify_tol bounds the final equidistance check: the
    spread of the distances to the center must be at most verify_tol
    times the largest distance. Both also allow the rounding noise of
    the points, 64 eps * max_i |p_i|.
    """

    rank_tol: float = DEFAULT_RANK_TOL
    verify_tol: float = 1e-8

    def __post_init__(self):
        if self.rank_tol <= 0 or self.verify_tol <= 0:
            raise ValueError("tolerances must be positive")


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


def _distances(P: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Distances from x to the rows of P, at their working scale."""
    R = P - x
    return np.sqrt(np.einsum("ij,ij->i", R, R))


def _diameter(P: np.ndarray) -> float:
    """Largest distance between two rows of P, at their working scale."""
    return max((_distances(P[i:], p).max() for i, p in enumerate(P)), default=0.0)


def _equidistant(lo: float, hi: float, tol: float, noise: float) -> bool:
    """Distances from lo to hi agree: the largest, hi, is finite and the
    spread hi - lo is at most tol * hi + noise."""
    return hi < math.inf and hi - lo <= tol * hi + noise


def diameter(points) -> float:
    S, e, _, _ = _scaled(as_points(points))
    return float(np.ldexp(_diameter(S), e))


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
        if np.all(_distances(S[kept], p) > tol):
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
    kept, Q, _, y, _ = _gram_schmidt(P[1:] - P[0], tol)
    if len(kept) < len(P) - 1:
        raise NotAffinelyIndependent(
            f"only {len(kept)} of {len(P) - 1} differences independent at {tol:.1e}"
        )
    return P[0] + y @ Q


def verify_equidistant(p, points, tol: float) -> bool:
    """True when max and min distances from p to the points agree.

    The spread is compared against tol * (max distance) plus the
    rounding noise of the points.
    """
    p = as_vector(p)
    P = as_points(points)
    if not len(P):
        raise ValueError("no points to verify against")
    if P.shape[1] != p.shape[0]:
        raise DimensionMismatch(
            f"point has length {p.shape[0]}, set has length {P.shape[1]}"
        )
    S, _, sq, _ = _scaled(np.vstack([P, p]))
    dists = _distances(S[:-1], S[-1])
    noise = _NOISE * math.sqrt(sq[:-1].max())
    return _equidistant(float(dists.min()), float(dists.max()), tol, noise)


def _ill_posed(pivot: float, top: float) -> bool:
    """A kept difference whose squared residual against the earlier ones
    is at most this pivot leaves the system too ill-conditioned to trust
    its solution."""
    return pivot <= DEFAULT_PIVOT_TOL * top


def _three(P: np.ndarray, tol: float, noise: float) -> np.ndarray | None:
    """The sweep's center of three points in one pass; None for Empty.

    With a = p_2 - p_1 and b = p_3 - p_1, a is kept when |a| exceeds
    the sweep's threshold, and b when its residual r = b - k a,
    k = a.b / a.a, does too. The sweep's forward substitution for the
    two rows is then p_1 + (1/2 - t k) a + t b, t = (b.b - a.b) / (2 r.r).
    r is formed explicitly, so small angles are not lost in the noise
    floor of the squared Gram determinant. One kept row gives its
    midpoint, none gives p_1.
    """
    x = P[0]
    D = P[1:] - x
    (aa, ab), (_, bb) = (D @ D.T).tolist()
    top = max(aa, bb)
    a, b = D
    threshold = max(tol * math.sqrt(top), noise)
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


def _sweep(P: np.ndarray, tol: float, noise: float) -> np.ndarray | None:
    """The center of any number of points by one Gram-Schmidt sweep;
    None for Empty.

    A duplicate's difference, like a dependent one, leaves a residual
    within tol of the largest difference, or within the noise, so this
    one sweep also dedups.
    """
    _, Q, rho, y, top = _gram_schmidt(P[1:] - P[0], tol, noise)
    if _ill_posed(rho.min(initial=math.inf) ** 2, top):
        return None
    return P[0] + y @ Q


def _circumcenter(P: np.ndarray, cfg: CircumConfig) -> CircumOutcome:
    """circumcenter() of a nonempty (m, n) array at its working scale;
    non-finite entries (from overflowing reflections) give Empty."""
    P, e, _, top = _scaled(P)
    noise = _NOISE * math.sqrt(top)
    if not noise < math.inf:
        return CircumOutcome.empty()
    if len(P) == 3:
        center = _three(P, cfg.rank_tol, noise)
    else:
        center = _sweep(P, cfg.rank_tol, noise)
    if center is None:
        return CircumOutcome.empty()
    dists = _distances(P, center)
    if not _equidistant(float(dists.min()), float(dists.max()), cfg.verify_tol, noise):
        return CircumOutcome.empty()
    radius = dists.sum() / len(dists)
    if e:
        center, radius = np.ldexp(center, e), np.ldexp(radius, e)
    return CircumOutcome.exists(center, radius)


def circumcenter(points, cfg: CircumConfig = CircumConfig()) -> CircumOutcome:
    """Total circumcenter: Exists(center, radius) or Empty, never an error.

    One Gram-Schmidt sweep over the differences to the first point, in
    index order, keeps a maximal affinely independent subset with the
    same hull and solves for its circumcenter in the same pass; a
    duplicate's difference has no residual, so the sweep drops it like a
    dependent one. Three points take the same decisions and the same
    forward substitution in one pass of scalar arithmetic (see
    circumcenter_three). The candidate is then verified against every
    point. Both decisions are relative to the set, up to the rounding
    noise of its points (see CircumConfig), and taken at its working
    scale (see linalg), so the outcome is covariant under scaling, over
    the whole float range, and translation. Any degeneracy yields Empty.
    """
    P = as_points(points)
    if not len(P):
        raise ValueError("circumcenter of an empty point set")
    return _circumcenter(P, cfg)


def circumradius(points, cfg: CircumConfig = CircumConfig()) -> float:
    """Common distance to the points, +inf when the circumcenter is Empty."""
    return circumcenter(points, cfg).radius


def circumcenter_three(x, y, z, cfg: CircumConfig = CircumConfig()) -> CircumOutcome:
    """circumcenter() of three points in any dimension.

    Three affinely independent points have the circumcenter

        ( ||y-z||^2 <x-z, x-y> x + ||x-z||^2 <y-z, y-x> y
          + ||x-y||^2 <z-x, z-y> z ) / K,
        K = 2 (||y-x||^2 ||z-x||^2 - <y-x, z-x>^2),

    where K is twice the Gram determinant of a = y - x and b = z - x.
    circumcenter() computes this point from the residual r = b - k a,
    k = <a, b> / ||a||^2, as x + (1/2 - t k) a + t b = x + a/2 + t r with
    t = (||b||^2 - <a, b>) / (2 ||r||^2); ||a||^2 ||r||^2 is that Gram
    determinant without its squared form's rounding. Duplicates, collinear
    and ill-conditioned points are decided as for any set.
    """
    return _circumcenter(as_points([x, y, z]), cfg)


def cross3(u, v) -> np.ndarray:
    """Cross product in R^3."""
    u = as_vector(u)
    v = as_vector(v)
    if u.shape[0] != 3 or v.shape[0] != 3:
        raise NotThreeDimensional(
            f"cross product needs length-3 vectors, got {u.shape[0]} and {v.shape[0]}"
        )
    return np.array(
        [
            u[1] * v[2] - u[2] * v[1],
            u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0],
        ]
    )


def _cross3_frame(x, y, z):
    """x, a = 2^-e (y - x), b = 2^-e (z - x), a x b, |a x b| and e (unit scale)."""
    x, y, z = as_points([x, y, z])
    if x.shape[0] != 3:
        raise NotThreeDimensional(
            f"cross-product circumcenter needs R^3, got R^{x.shape[0]}"
        )
    D = np.array([y - x, z - x])
    e = _exponent(D)
    a, b = np.ldexp(D, -e)
    k = cross3(a, b)
    nk = float(np.linalg.norm(k))
    if nk <= DEFAULT_RANK_TOL * float(np.linalg.norm(a)) * float(np.linalg.norm(b)):
        raise NotAffinelyIndependent(
            "cross product of the differences is (near) zero"
        )
    return x, a, b, k, nk, e


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
    cross-product forms, whose degree reaches five, the determinants (of
    degree 2(m - 1)) are taken at the unit scale, of the d_i divided by
    2^e, e the binary exponent of their largest entry.
    """
    P = as_points(points)
    m = len(P)
    if m < 2:
        raise ValueError("need at least two points")
    if not 0 <= base_index < m:
        raise ValueError(f"base_index {base_index} out of range for {m} points")
    diffs = np.delete(P, base_index, axis=0) - P[base_index]
    A = gram(np.ldexp(diffs, -_exponent(diffs)))
    a = np.diag(A)
    delta = float(np.linalg.det(A))
    if delta <= 1e-13 * max(float(np.prod(np.diag(A))), 1e-300):
        raise NotAffinelyIndependent(
            f"Gram determinant {delta:.3e} is not positive"
        )
    coeffs = []
    for i in range(m - 1):
        Ai = A.copy()
        Ai[:, i] = a
        coeffs.append(float(np.linalg.det(Ai)) / (2.0 * delta))
    return coeffs
