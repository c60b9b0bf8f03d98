"""Dense linear-algebra primitives the circumcenter machinery is built on.

A vector is a 1-D float array. A collection of m vectors of R^n is one
(m, n) float array, a vector per row: `as_points` checks its shape and
finiteness once, where it enters from the public API, and the private
kernels work on that array without checking it again.

Every tolerance is relative, with no absolute floor, so every decision
is invariant under global scaling. A rank decision on a vector list
(`max_independent_subset`, `orthonormalize`) keeps a vector whose
residual exceeds DEFAULT_RANK_TOL times the largest input norm. A
decision on a point set p_1..p_m is relative to the set itself, so it is
also invariant under translation: which points coincide and which
differences p_i - p_1 are independent is decided against
DEFAULT_RANK_TOL times the largest difference, whether a candidate
center is equidistant against DEFAULT_VERIFY_TOL times the largest
distance, and whether a circumcenter's system is well conditioned by its
squared pivots against DEFAULT_PIVOT_TOL times the largest squared
difference. All three are constants, so `circumcenter`, `circumradius`
and the two-set solver step decide Exists or Empty by the same numbers.
The coincidence and equidistance tests also allow the rounding noise of
the points, a few dozen eps times max_i |p_i|: points far from the
origin cannot be told apart more finely, and the reflections of a point
x on a set differ from x by a few eps * |x|. An affine subspace has no
extent: whether a point lies on one is decided against
affine.DEFAULT_MEMBERSHIP_TOL times the largest norm involved.

One scale rule keeps squared lengths in range (`_scaled`; `_norm` for a
vector): when the largest squared row norm of V is outside [2^-800,
2^800], a kernel runs on 2^-e V, e the binary exponent of the largest
|v_ij|, and scales its lengths back by 2^e. A power of two changes no
bit of a sum, product, quotient or square root that stays in range, so
this gives the numbers of a wider exponent range. A zero or non-finite
V is left as it is. A point-set routine scales its points, then takes
their differences, so a finite set's differences do not overflow.
"""

from __future__ import annotations

import math

import numpy as np

DEFAULT_RANK_TOL = 1e-10
DEFAULT_PIVOT_TOL = 1e-12
DEFAULT_VERIFY_TOL = 1e-8


class DimensionMismatch(ValueError):
    """Operands do not share the ambient dimension."""


class NotPositiveDefinite(ValueError):
    """A pivot fell below tolerance during Cholesky factorization."""


# Squares in this range leave 2^224 to spare for what a kernel does next.
_TINY = 2.0**-800
_HUGE = 2.0**800


def _exponent(V: np.ndarray) -> int:
    """Binary exponent of the largest |v_ij|: 0 for a zero or non-finite V."""
    return math.frexp(np.abs(V).max(initial=0.0))[1]


def _scaled(V: np.ndarray):
    """(W, e, sq, top): V at its working scale W = 2^-e V (see the module
    docstring), with W's squared row norms sq, a list of floats, and their
    largest top. Python's max passes over a NaN after the first entry, so
    a V that may hold one is tested on sum(sq), not on top."""
    sq = np.einsum("ij,ij->i", V, V).tolist()
    top = max(sq, default=0.0)
    if _TINY <= top <= _HUGE:
        return V, 0, sq, top
    e = _exponent(V)
    V = np.ldexp(V, -e)
    sq = np.einsum("ij,ij->i", V, V).tolist()
    return V, e, sq, max(sq, default=0.0)


def _norm(v: np.ndarray) -> float:
    """Euclidean norm of a 1-D float array: sqrt(v . v), the number
    np.linalg.norm gives, taken at v's working scale (see the module
    docstring) when v . v is out of range; a norm that overflows is inf, silently."""
    sq = float(np.vdot(v, v))
    if _TINY <= sq <= _HUGE:
        return math.sqrt(sq)
    e = _exponent(v)
    u = np.ldexp(v, -e)
    with np.errstate(over="ignore"):
        return float(np.ldexp(math.sqrt(float(np.vdot(u, u))), e))


def as_vector(x) -> np.ndarray:
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector has non-finite entries")
    return v


def as_points(points) -> np.ndarray:
    """m vectors of one length as an (m, n) float array, one per row.

    An empty collection is a (0, 0) array. The array is C-ordered, so
    the bits of a result do not depend on the caller's memory layout.
    """
    try:
        P = np.asarray(points, dtype=float, order="C")
    except ValueError as exc:
        raise DimensionMismatch(f"vectors do not form an (m, n) array: {exc}") from exc
    if P.ndim == 1 and P.size == 0:
        return P.reshape(0, 0)
    if P.ndim != 2:
        raise ValueError(f"expected a sequence of 1-D vectors, got shape {P.shape}")
    if not np.all(np.isfinite(P)):
        raise ValueError("vectors have non-finite entries")
    return P


def _gram_schmidt(V: np.ndarray, tol: float, floor: float = 0.0):
    """One Gram-Schmidt sweep over the rows of V, in index order.

    Each row is orthogonalized against the rows kept before it by
    classical Gram-Schmidt, applied twice, and kept when its residual
    norm exceeds both tol times the largest row norm and floor; zero
    and dependent rows are skipped, so the earliest independent rows
    win. Kept row k is then c_k . q_<k + rho_k q_k exactly, and the
    sweep returns

    - kept: the indices of the kept rows, ascending;
    - Q: the orthonormal directions q_k, one row each;
    - rho: the residual norms rho_k;
    - y: the coordinates in Q of the point equidistant from the origin
      and every kept row, by forward substitution on the same
      coefficients: y_k = (|v_k|^2 / 2 - c_k . y_<k) / rho_k;
    - top: the largest squared row norm max |v_i|^2 (0 for no rows).

    rho and top are at V's working scale, where their ratios are the same.
    The first kept row has nothing to be orthogonalized against and is
    taken as it is, which gives the numbers the empty projections would.
    """
    m, n = V.shape
    V, e, sq, top = _scaled(V)
    if e:
        floor = float(np.ldexp(floor, -e))
    threshold = max(tol * math.sqrt(top), floor)
    Q = np.empty((m, n))
    rho = np.empty(m)
    y = np.empty(m)
    kept: list[int] = []
    for i, v in enumerate(V):
        k = len(kept)
        if k:
            basis = Q[:k]
            c = basis @ v
            r = v - c @ basis
            c2 = basis @ r
            r -= c2 @ basis
            c += c2
            cy = c @ y[:k]
        else:
            r, cy = v, 0.0
        rn = math.sqrt(r @ r)
        if rn > threshold:
            np.divide(r, rn, out=Q[k])
            rho[k] = rn
            y[k] = (0.5 * sq[i] - cy) / rn
            kept.append(i)
    k = len(kept)
    return kept, Q[:k], rho[:k], np.ldexp(y[:k], e) if e else y[:k], top


def gram(vectors) -> np.ndarray:
    """Gram matrix of a nonempty vector list.

    The upper triangle of V V^T is mirrored into the lower one, so the
    result is symmetric bit-for-bit.
    """
    V = as_points(vectors)
    if not len(V):
        raise ValueError("gram of an empty vector list")
    G = V @ V.T
    return np.triu(G) + np.triu(G, 1).T


def solve_spd(G, rhs, pivot_tol: float = DEFAULT_PIVOT_TOL) -> np.ndarray:
    """Solve G x = rhs for symmetric positive definite G.

    Uses a LAPACK Cholesky factorization; raises NotPositiveDefinite
    when it fails or when a pivot (a squared diagonal entry of the
    factor) is at most pivot_tol times the largest diagonal entry of G
    (absolute fallback for an all-zero matrix). Small near-singular Gram
    matrices are the expected failure mode, not an exceptional one.
    """
    G = np.asarray(G, dtype=float)
    b = as_vector(rhs)
    m = G.shape[0]
    if G.shape != (m, m) or b.shape[0] != m:
        raise DimensionMismatch(f"G is {G.shape}, rhs has length {b.shape[0]}")
    if m == 0:
        return np.zeros(0)
    threshold = pivot_tol * max(float(np.max(np.abs(np.diag(G)))), 1e-300)
    try:
        L = np.linalg.cholesky(G)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(str(exc)) from exc
    pivot = float(np.diag(L).min()) ** 2
    if pivot <= threshold:
        raise NotPositiveDefinite(f"pivot {pivot:.3e} below {threshold:.3e}")
    return np.linalg.solve(L.T, np.linalg.solve(L, b))


def max_independent_subset(vectors) -> list[int]:
    """Indices of a maximal linearly independent subset, earliest first.

    Vectors are swept in index order; one is kept when its residual
    against the span of the vectors already kept exceeds DEFAULT_RANK_TOL
    times the largest input norm. Every input then lies in the span of
    the kept vectors within that threshold. Zero (and near-zero) vectors
    are skipped.
    """
    return _gram_schmidt(as_points(vectors), DEFAULT_RANK_TOL)[0]


def orthonormalize(vectors) -> np.ndarray:
    """Orthonormal rows spanning the same space, from the same sweep.

    Dependent (and zero) vectors are skipped at the same relative
    threshold as max_independent_subset; each kept vector is
    orthogonalized twice so the basis is orthonormal to near machine
    precision. The rows are copied out of the sweep's buffer, which has
    a row for every input vector.
    """
    return _gram_schmidt(as_points(vectors), DEFAULT_RANK_TOL)[1].copy()
