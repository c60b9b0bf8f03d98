"""Affine subspaces of R^n: projections, reflections, intersections.

A subspace is stored as a base point plus an orthonormal basis of its
direction space (rows of `onb`; zero rows for a singleton). Projection
and reflection are exact linear algebra on that basis; intersection and
the Friedrichs angle are the two nontrivial operations.
"""

from __future__ import annotations

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


def _direction_intersection(Qu: np.ndarray, Qv: np.ndarray) -> np.ndarray:
    """Orthonormal basis (rows) of the intersection of two direction spaces."""
    n = Qu.shape[1]
    complement_u = np.eye(n) - Qu.T @ Qu
    complement_v = np.eye(n) - Qv.T @ Qv
    stacked = np.vstack([complement_u, complement_v])
    _, s, vh = np.linalg.svd(stacked)
    cutoff = max(stacked.shape) * np.finfo(float).eps * (s[0] if s.size else 0.0)
    rank = int(np.sum(s > max(cutoff, 1e-12)))
    return vh[rank:]


def intersect(
    U: AffineSubspace, V: AffineSubspace, tol: float = DEFAULT_MEMBERSHIP_TOL
) -> AffineSubspace:
    """Intersection of two affine subspaces.

    A common point is found by least squares on the stacked
    orthogonal-complement constraints; NoIntersection is raised when its
    membership residuals exceed tol (scaled by 1 + the norms involved).
    The direction space of the result is the intersection of the two
    direction spaces.
    """
    if U.ambient_dim != V.ambient_dim:
        raise ValueError(
            f"ambient dimensions differ: {U.ambient_dim} vs {V.ambient_dim}"
        )
    n = U.ambient_dim
    complement_u = np.eye(n) - U.onb.T @ U.onb
    complement_v = np.eye(n) - V.onb.T @ V.onb
    A = np.vstack([complement_u, complement_v])
    b = np.concatenate([complement_u @ U.base, complement_v @ V.base])
    p, *_ = np.linalg.lstsq(A, b, rcond=None)
    scale = 1.0 + max(
        float(np.linalg.norm(p)),
        float(np.linalg.norm(U.base)),
        float(np.linalg.norm(V.base)),
    )
    gap = max(distance_to(U, p), distance_to(V, p))
    if gap > tol * scale:
        raise NoIntersection(f"membership residual {gap:.3e} exceeds tolerance")
    return AffineSubspace(base=p, onb=_direction_intersection(U.onb, V.onb))


def friedrichs_cos(U: AffineSubspace, V: AffineSubspace) -> float:
    """Cosine of the Friedrichs angle between the direction spaces.

    The common direction space is deflated from both sides first; the
    value is the largest singular value of the product of the deflated
    bases, clipped to [0, 1], and 0 when either deflated side is
    trivial. Only the parallel (direction) spaces enter, so base points
    are irrelevant.
    """
    if U.ambient_dim != V.ambient_dim:
        raise ValueError(
            f"ambient dimensions differ: {U.ambient_dim} vs {V.ambient_dim}"
        )
    W = _direction_intersection(U.onb, V.onb)

    def deflate(Q: np.ndarray) -> np.ndarray:
        if not Q.shape[0]:
            return Q
        residual = Q - (Q @ W.T) @ W if W.shape[0] else Q
        # Rows of Q are unit vectors, so a residual below 1e-9 means the
        # direction lies in the common space and must not be rescaled
        # back up by a relative threshold.
        rows = [r for r in residual if np.linalg.norm(r) > 1e-9]
        basis = orthonormalize(rows) if rows else []
        return np.array(basis) if basis else np.zeros((0, Q.shape[1]))

    Qu = deflate(U.onb)
    Qv = deflate(V.onb)
    if not Qu.shape[0] or not Qv.shape[0]:
        return 0.0
    s = np.linalg.svd(Qu @ Qv.T, compute_uv=False)
    return float(np.clip(s[0], 0.0, 1.0))
