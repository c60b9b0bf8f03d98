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
It settles every triple itself, duplicates, collinear and overflowing
ones included. Both paths end in the same equidistance check against
every point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import (
    DEFAULT_PIVOT_TOL,
    DimensionMismatch,
    _gram_schmidt,
    _norm,
    as_points,
    as_vector,
    gram,
)

DEFAULT_DEDUP_TOL_REL = 1e-9
_BLOCK_ENTRIES = 1 << 20
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

    rank_tol: float = 1e-10
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


def _pairwise_distances(P: np.ndarray) -> np.ndarray:
    """(m, m) Euclidean distances between the rows of P.

    Row differences are formed for a block of rows at a time, so the
    temporary holds about _BLOCK_ENTRIES numbers whatever m and n are.
    """
    rows = max(1, _BLOCK_ENTRIES // max(P.size, 1))
    out = np.empty((len(P), len(P)))
    for i in range(0, len(P), rows):
        D = P[i : i + rows, None] - P
        out[i : i + rows] = np.sqrt(np.einsum("ijk,ijk->ij", D, D))
    return out


def _first_distinct(dist: np.ndarray, tol: float) -> list[int]:
    """Indices of the rows farther than tol from every earlier kept row."""
    far = (dist > tol).tolist()
    kept: list[int] = []
    for i, row in enumerate(far):
        if all(row[j] for j in kept):
            kept.append(i)
    return kept


def _noise(P: np.ndarray) -> float:
    """_NOISE * max_i |p_i|, the rounding noise of the points.

    Rows whose squared norms overflow are measured again with rescaling
    (linalg._norm), so finite points have finite noise; a non-finite
    entry gives non-finite noise.
    """
    s = math.sqrt(np.einsum("ij,ij->i", P, P).max(initial=0.0))
    if not s < math.inf:
        s = float(np.max([_norm(p) for p in P]))
    return _NOISE * s


def _equidistant(lo: float, hi: float, tol: float, noise: float) -> bool:
    """Distances from lo to hi agree: the largest, hi, is finite and the
    spread hi - lo is at most tol * hi + noise."""
    return hi < math.inf and hi - lo <= tol * hi + noise


def diameter(points) -> float:
    return float(_pairwise_distances(as_points(points)).max(initial=0.0))


def dedup(points, tol: float | None = None) -> list[np.ndarray]:
    """Drop points within tol of an earlier one; order preserved.

    Default tol is 1e-9 * diameter plus the rounding noise of the
    points, so exact duplicates always collapse and the outcome does not
    change when the set is scaled or moved.
    """
    P = as_points(points)
    dist = _pairwise_distances(P)
    if tol is None:
        tol = DEFAULT_DEDUP_TOL_REL * dist.max(initial=0.0) + _noise(P)
    return list(P[_first_distinct(dist, tol)])


def circumcenter_gram(points, pivot_tol: float | None = None) -> np.ndarray:
    """Circumcenter of an affinely independent tuple.

    With differences d_i = x_{i+1} - x_1, the Gram-Schmidt sweep of
    linalg writes each d_i in an orthonormal basis and solves for the
    point x_1 + sum_k y_k q_k equidistant from every x_i by forward
    substitution. A difference whose residual against the earlier ones
    has rho^2 <= pivot_tol * max |d|^2 (default DEFAULT_PIVOT_TOL)
    surfaces as NotAffinelyIndependent.
    """
    P = as_points(points)
    if not len(P):
        raise ValueError("circumcenter of an empty tuple")
    if len(P) == 1:
        return P[0].copy()
    tol = math.sqrt(DEFAULT_PIVOT_TOL if pivot_tol is None else pivot_tol)
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
    dists = np.linalg.norm(P - p, axis=1)
    return _equidistant(float(dists.min()), float(dists.max()), tol, _noise(P))


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
    if not top < math.inf:
        return None
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
    if not top < math.inf or _ill_posed(rho.min(initial=math.inf) ** 2, top):
        return None
    return P[0] + y @ Q


def _circumcenter(P: np.ndarray, cfg: CircumConfig) -> CircumOutcome:
    """circumcenter() of a nonempty (m, n) array; non-finite entries
    (from overflowing reflections) give Empty."""
    noise = _noise(P)
    if not noise < math.inf:
        return CircumOutcome.empty()
    if len(P) == 3:
        center = _three(P, cfg.rank_tol, noise)
    else:
        center = _sweep(P, cfg.rank_tol, noise)
    if center is None:
        return CircumOutcome.empty()
    R = P - center
    dists = np.sqrt(np.einsum("ij,ij->i", R, R))
    hi = float(dists.max())
    if not hi < math.inf:
        # A squared distance overflowed (a radius above about 1e154):
        # measure every distance again with rescaling.
        dists = np.array([_norm(r) for r in R])
        hi = float(dists.max())
    if not _equidistant(float(dists.min()), hi, cfg.verify_tol, noise):
        return CircumOutcome.empty()
    return CircumOutcome.exists(center, dists.sum() / len(dists))


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
    noise of its points (see CircumConfig), so the outcome is covariant
    under scaling and translation. Any degeneracy, including differences
    whose squared norms overflow, yields Empty.
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
    determinant without its squared form's rounding. Duplicates, collinear and ill-conditioned points and
    overflow are decided as for any set.
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


def _cross3_frame(x, y, z, tol: float):
    x, y, z = as_points([x, y, z])
    if x.shape[0] != 3:
        raise NotThreeDimensional(
            f"cross-product circumcenter needs R^3, got R^{x.shape[0]}"
        )
    a = y - x
    b = z - x
    k = cross3(a, b)
    nk = float(np.linalg.norm(k))
    if nk <= tol * float(np.linalg.norm(a)) * float(np.linalg.norm(b)):
        raise NotAffinelyIndependent(
            "cross product of the differences is (near) zero"
        )
    return x, a, b, k, nk


def circumcenter_cross3(x, y, z, tol: float = 1e-10) -> np.ndarray:
    """Circumcenter of three affinely independent points in R^3.

    center = x + ((||a||^2 b - ||b||^2 a) x (a x b)) / (2 ||a x b||^2)
    with a = y - x, b = z - x.
    """
    x, a, b, k, nk = _cross3_frame(x, y, z, tol)
    w = float(a @ a) * b - float(b @ b) * a
    return x + cross3(w, k) / (2.0 * nk * nk)


def circumradius_cross3(x, y, z, tol: float = 1e-10) -> float:
    """Circumradius of three affinely independent points in R^3.

    radius = ||a|| ||b|| ||a - b|| / (2 ||a x b||), i.e. the opposite
    side over twice the sine of the enclosed angle.
    """
    _, a, b, _, nk = _cross3_frame(x, y, z, tol)
    return (
        float(np.linalg.norm(a))
        * float(np.linalg.norm(b))
        * float(np.linalg.norm(a - b))
        / (2.0 * nk)
    )


def cramer_coefficients(points, base_index: int = 0) -> list[float]:
    """Affine coefficients of the circumcenter by determinant ratios.

    Rebasing at points[base_index] with differences d_i (the other
    points in original order), coefficient i is det(A_i) / (2 det(A))
    where A is the Gram matrix of the d_i and A_i is A with column i
    replaced by (||d_i||^2)_i. The center is then
    points[base_index] + sum_i coeff_i d_i. Independent of the Gram-Schmidt
    path, which makes this a cross-check route, not a fast one.
    """
    P = as_points(points)
    m = len(P)
    if m < 2:
        raise ValueError("need at least two points")
    if not 0 <= base_index < m:
        raise ValueError(f"base_index {base_index} out of range for {m} points")
    diffs = np.delete(P, base_index, axis=0) - P[base_index]
    A = gram(diffs)
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
