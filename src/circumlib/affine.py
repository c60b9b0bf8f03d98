"""Affine subspaces of R^n: projections, reflections, intersections.

A subspace is stored as a base point plus an orthonormal basis of its
direction space (rows of `onb`; zero rows for a singleton). Projection
and reflection are exact linear algebra on that basis; intersection and
the Friedrichs angle are the two nontrivial operations.

Both rest on the principal angles between the two direction spaces,
computed once by `_principal`. Tolerances have one meaning there: a
direction is shared when the sine of its principal angle is at most
tol, the number `intersect` also applies to membership residuals
(DEFAULT_MEMBERSHIP_TOL unless given). A sine does not change with the
scale of the points or the conditioning of the spanning sets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import DEFAULT_RANK_TOL, as_points, as_vector, orthonormalize

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
        onb = np.asarray(self.onb, dtype=float)
        if onb.size == 0:
            onb = np.zeros((0, base.shape[0]))
        if onb.ndim != 2 or onb.shape[1] != base.shape[0]:
            raise ValueError(
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


def from_span(base, spanning, tol: float = DEFAULT_RANK_TOL) -> AffineSubspace:
    """Subspace through base spanned by the given directions."""
    base = as_vector(base)
    basis = orthonormalize(spanning, tol)
    onb = np.array(basis) if basis else np.zeros((0, base.shape[0]))
    return AffineSubspace(base=base, onb=onb)


def affine_hull(points, tol: float = DEFAULT_RANK_TOL) -> AffineSubspace:
    """Affine hull of a nonempty point set."""
    P = as_points(points)
    if not len(P):
        raise ValueError("affine hull of an empty point set")
    return from_span(P[0], P[1:] - P[0], tol)


def project(V: AffineSubspace, x) -> np.ndarray:
    """Orthogonal projection of x onto V."""
    x = as_vector(x)
    if x.shape[0] != V.ambient_dim:
        raise ValueError(
            f"point has length {x.shape[0]}, subspace lives in R^{V.ambient_dim}"
        )
    d = x - V.base
    return V.base + V.onb.T @ (V.onb @ d)


def reflect(V: AffineSubspace, x) -> np.ndarray:
    """Reflection of x across V: 2 P_V(x) - x."""
    return 2.0 * project(V, x) - as_vector(x)


def distance_to(V: AffineSubspace, x) -> float:
    return float(np.linalg.norm(as_vector(x) - project(V, x)))


def _principal(
    Qu: np.ndarray, Qv: np.ndarray, tol: float
) -> tuple[np.ndarray, float]:
    """Shared directions and Friedrichs cosine of two direction spaces.

    Qu and Qv hold orthonormal rows. One SVD of Qu Qv^T gives the
    principal-angle cosines and V's principal vectors. Cosines near 1
    cannot resolve small angles, so the vectors at angles below 45
    degrees are refined by a second SVD, of their residual off span(Qu),
    whose singular values are their sines (Bjorck and Golub 1973;
    Knyazev and Argentati 2002). Returns the orthonormal rows whose sine
    is at most tol, and the largest cosine among the other angles (0
    when there are none).
    """
    _, cos, zh = np.linalg.svd(Qu @ Qv.T)
    small = int(np.sum(cos > math.sqrt(0.5)))
    P = zh[:small] @ Qv
    rot, sin, _ = np.linalg.svd(P - (P @ Qu.T) @ Qu, full_matrices=False)
    shared = int(np.sum(sin <= tol))
    kept = small - shared
    if kept:
        cf = math.sqrt(1.0 - sin[kept - 1] ** 2)
    else:
        cf = float(cos[small]) if small < cos.shape[0] else 0.0
    return rot[:, kept:].T @ P, cf


def intersect(
    U: AffineSubspace, V: AffineSubspace, tol: float = DEFAULT_MEMBERSHIP_TOL
) -> AffineSubspace:
    """Intersection of two affine subspaces.

    A common point a + Qu^T alpha = b + Qv^T beta is found by least
    squares in the (du + dv) coordinates and moved along the shared
    directions to the point nearest the origin; NoIntersection is raised
    when its membership residuals exceed tol (scaled by 1 + the norms
    involved). The direction space of the result is spanned by the
    directions whose principal-angle sine is at most tol.
    """
    if U.ambient_dim != V.ambient_dim:
        raise ValueError(
            f"ambient dimensions differ: {U.ambient_dim} vs {V.ambient_dim}"
        )
    W, _ = _principal(U.onb, V.onb, tol)
    A = np.vstack([U.onb, -V.onb]).T
    coef, *_ = np.linalg.lstsq(A, V.base - U.base, rcond=None)
    p = U.base + U.onb.T @ coef[: U.dim]
    p = p - W.T @ (W @ p)
    scale = 1.0 + max(
        float(np.linalg.norm(p)),
        float(np.linalg.norm(U.base)),
        float(np.linalg.norm(V.base)),
    )
    gap = max(distance_to(U, p), distance_to(V, p))
    if gap > tol * scale:
        raise NoIntersection(f"membership residual {gap:.3e} exceeds tolerance")
    return AffineSubspace(base=p, onb=W)


def friedrichs_cos(U: AffineSubspace, V: AffineSubspace) -> float:
    """Cosine of the Friedrichs angle between the direction spaces.

    The largest principal-angle cosine once the shared directions (sine
    at most DEFAULT_MEMBERSHIP_TOL) are set aside, and 0 when no other
    angle is left. Only the parallel (direction) spaces enter, so base
    points are irrelevant.
    """
    if U.ambient_dim != V.ambient_dim:
        raise ValueError(
            f"ambient dimensions differ: {U.ambient_dim} vs {V.ambient_dim}"
        )
    return _principal(U.onb, V.onb, DEFAULT_MEMBERSHIP_TOL)[1]
