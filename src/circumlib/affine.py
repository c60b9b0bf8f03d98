"""Affine subspaces of R^n: projections, reflections, intersections.

A subspace is stored as a base point plus an orthonormal basis of its
direction space (rows of `onb`; zero rows for a singleton). Projection
and reflection are exact linear algebra on that basis; intersection and
the Friedrichs angle are the two nontrivial operations.

Both rest on the principal angles between the two direction spaces,
computed once by `_principal`. Tolerances have one meaning there: a
direction is shared when the sine of its principal angle is at most
DEFAULT_MEMBERSHIP_TOL, the number `intersect` also applies to
membership residuals. A sine does not change with the scale of the
points or the conditioning of the spanning sets.

Public entry points validate their arguments once (`as_vector`, and
the ambient dimension in `_point_for` for a point and in `_principal`
for two subspaces, DimensionMismatch when it differs) and then call a
private kernel that trusts its arrays: `project` calls `_project`,
`reflect` calls `_reflect` and `distance_to` calls `_distance`. The
solvers validate a run's inputs once and iterate on the kernels, so
both share one arithmetic path.

`project`, `reflect`, `distance_to` and `intersect` take a difference
of points that overflows at their working scale (see linalg), so a
projection, reflection or distance in float range is finite, with no
numpy warning. `_silently` is the one retake. `_distance` is the one
distance to a set: the norm of the residual x - P_V x (`_residual`),
taken whole by `_silently`, so each distance pays one `errstate`, one
finiteness test and at most one retake. The bare `_project` and
`_reflect` subtract unscaled points, so they run only where a run
iterates (the step kernels and `run`'s loop); every one-time
projection, the solvers' included, goes through `_silently`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import DimensionMismatch, _norm, _scaled, as_points, as_vector, orthonormalize

DEFAULT_MEMBERSHIP_TOL = 1e-8


class NoIntersection(ValueError):
    """The subspaces have no common point within tolerance."""


@dataclass(frozen=True)
class AffineSubspace:
    """base + span(rows of onb); onb rows are orthonormal within 1e-12."""

    base: np.ndarray
    onb: np.ndarray = field(default_factory=lambda: np.zeros((0, 0)))

    def __post_init__(self):
        base = as_vector(self.base)
        onb = as_points(self.onb)
        if onb.size == 0:
            onb = np.zeros((0, base.shape[0]))
        if onb.shape[1] != base.shape[0]:
            raise DimensionMismatch(
                f"onb shape {onb.shape} does not match base length {base.shape[0]}"
            )
        if onb.shape[0]:
            gap = np.abs(onb @ onb.T - np.eye(onb.shape[0])).max()
            if gap > 1e-12:
                raise ValueError(f"basis not orthonormal (deviation {gap:.3e})")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "onb", onb)

    @property
    def ambient_dim(self) -> int:
        return self.base.shape[0]

    @property
    def dim(self) -> int:
        return self.onb.shape[0]


def from_span(base, spanning) -> AffineSubspace:
    """Subspace through base spanned by the given directions."""
    return AffineSubspace(base, orthonormalize(spanning))


def affine_hull(points) -> AffineSubspace:
    """Affine hull of a nonempty point set, through its first point and
    spanned by its differences at its working scale (see linalg)."""
    P = as_points(points)
    if not len(P):
        raise ValueError("affine hull of an empty point set")
    S = _scaled(P)[0]
    return from_span(P[0], S[1:] - S[0])


def _point_for(subspaces, x) -> np.ndarray:
    """x as a finite vector of the ambient space of every one of the
    subspaces, or ValueError (DimensionMismatch for its length)."""
    x = as_vector(x)
    for V in subspaces:
        if V.ambient_dim != x.shape[0]:
            raise DimensionMismatch(
                f"point has length {x.shape[0]}, subspace lives in R^{V.ambient_dim}"
            )
    return x


def _project(V: AffineSubspace, x: np.ndarray) -> np.ndarray:
    d = x - V.base
    return V.base + V.onb.T @ (V.onb @ d)


def _reflect(V: AffineSubspace, x: np.ndarray) -> np.ndarray:
    return 2.0 * _project(V, x) - x


def _residual(V: AffineSubspace, x: np.ndarray) -> np.ndarray:
    return x - _project(V, x)


def _silently(kernel, V: AffineSubspace, x: np.ndarray) -> np.ndarray:
    """kernel(V, x), silently. When an entry is not finite, as when
    x - V.base overflows, it is taken again at working scale and scaled
    back, so an entry is inf only when it is beyond float range."""
    with np.errstate(over="ignore", invalid="ignore"):
        out = kernel(V, x)
        if np.isfinite(out).all():
            return out
        (x, base), e, *_ = _scaled(np.vstack([x, V.base]))
        return np.ldexp(kernel(AffineSubspace(base, V.onb), x), e)


def _distance(V: AffineSubspace, x: np.ndarray) -> float:
    """|x - P_V x|, the residual x - P_V x taken by _silently, so one
    retake covers the whole difference; inf only beyond float range."""
    return _norm(_silently(_residual, V, x))


def project(V: AffineSubspace, x) -> np.ndarray:
    """Orthogonal projection of x onto V, silently (see the module docstring)."""
    return _silently(_project, V, _point_for((V,), x))


def reflect(V: AffineSubspace, x) -> np.ndarray:
    """Reflection of x across V, 2 P_V(x) - x, silently (see project)."""
    return _silently(_reflect, V, _point_for((V,), x))


def distance_to(V: AffineSubspace, x) -> float:
    """Euclidean distance from x to V, with no numpy warning; inf only
    when it is beyond float range (see the module docstring)."""
    return _distance(V, _point_for((V,), x))


def _principal(U: AffineSubspace, V: AffineSubspace) -> tuple[np.ndarray, float]:
    """Shared directions and Friedrichs cosine of two direction spaces.

    DimensionMismatch unless U and V live in one R^n. With Qu and Qv
    their orthonormal rows, one SVD of Qu Qv^T gives the
    principal-angle cosines and V's principal vectors. Cosines near 1
    cannot resolve small angles, so the vectors at angles below 45
    degrees are refined by a second SVD, of their residual off span(Qu),
    whose singular values are their sines (Bjorck and Golub 1973;
    Knyazev and Argentati 2002). Returns the orthonormal rows whose sine
    is at most DEFAULT_MEMBERSHIP_TOL, and the largest cosine among the
    other angles (0 when there are none).
    """
    if U.ambient_dim != V.ambient_dim:
        raise DimensionMismatch(
            f"ambient dimensions differ: {U.ambient_dim} vs {V.ambient_dim}"
        )
    Qu, Qv = U.onb, V.onb
    _, cos, zh = np.linalg.svd(Qu @ Qv.T)
    small = int(np.sum(cos > math.sqrt(0.5)))
    P = zh[:small] @ Qv
    rot, sin, _ = np.linalg.svd(P - (P @ Qu.T) @ Qu, full_matrices=False)
    shared = int(np.sum(sin <= DEFAULT_MEMBERSHIP_TOL))
    kept = small - shared
    if kept:
        cf = math.sqrt(1.0 - sin[kept - 1] ** 2)
    else:
        cf = float(cos[small]) if small < cos.shape[0] else 0.0
    return rot[:, kept:].T @ P, cf


def intersect(U: AffineSubspace, V: AffineSubspace) -> AffineSubspace:
    """Intersection of two affine subspaces.

    A common point a + Qu^T alpha = b + Qv^T beta is found by least
    squares in the (du + dv) coordinates, on b - a taken at the working
    scale of a and b (see linalg), or is the shared base point when
    a = b, which skips the least squares; it is moved along the
    shared directions to the point nearest the origin. NoIntersection is
    raised when a membership residual exceeds DEFAULT_MEMBERSHIP_TOL
    times the largest norm of that point and the two base points (see
    linalg). The direction space of the result is spanned by the
    directions whose principal-angle sine is at most
    DEFAULT_MEMBERSHIP_TOL.
    """
    W, _ = _principal(U, V)
    if np.array_equal(U.base, V.base):
        p = U.base
    else:
        A = np.vstack([U.onb, -V.onb]).T
        B, e, *_ = _scaled(np.vstack([U.base, V.base]))
        coef, *_ = np.linalg.lstsq(A, B[1] - B[0], rcond=None)
        p = U.base + U.onb.T @ np.ldexp(coef[: U.dim], e)
    p = p - W.T @ (W @ p)
    scale = max(_norm(p), _norm(U.base), _norm(V.base))
    gap = max(_distance(U, p), _distance(V, p))
    if gap > DEFAULT_MEMBERSHIP_TOL * scale:
        raise NoIntersection(f"membership residual {gap:.3e} exceeds tolerance")
    return AffineSubspace(base=p, onb=W)


def friedrichs_cos(U: AffineSubspace, V: AffineSubspace) -> float:
    """Cosine of the Friedrichs angle between the direction spaces.

    The largest principal-angle cosine once the shared directions (sine
    at most DEFAULT_MEMBERSHIP_TOL) are set aside, and 0 when no other
    angle is left. Only the parallel (direction) spaces enter, so base
    points are irrelevant.
    """
    return _principal(U, V)[1]
