"""Best approximation onto an intersection of affine subspaces.

Four iterations on a common trace format: circumcentered reflections for
two sets (cdrm) and for m sets (crm), plus Douglas-Rachford (dr) and
cyclic projections (map) as baselines. The reference solution is the
projection of the problem's anchor point z onto the full intersection,
computed once at problem construction.

The public step operators validate x (`as_vector` and the ambient
dimension) and call private kernels that trust their arrays; `run`
validates its starting point once, iterates on the same kernels and
checks each new iterate and the numbers it records for finiteness
instead, so a run and the public steps compute the same numbers.
Every kernel takes x together with its projection P_{U_1} x onto the
first set, which all four methods need: `run` computes it once per
iterate, to measure x (for dr, as its shadow), and hands it to the next
step, so x_k is projected onto U_1 once per iteration.
"""

from __future__ import annotations

import enum
import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .affine import (
    AffineSubspace,
    NoIntersection,
    _distance,
    _point_of,
    _project,
    _reflect,
    intersect,
    project,
)
from .circumcenter import CircumConfig, _circumcenter
from .linalg import _norm, as_vector, orthonormalize

log = logging.getLogger("circumlib.solvers")


class DegenerateStep(RuntimeError):
    """A circumcentering step produced an Empty circumcenter."""


class InsufficientData(ValueError):
    """Too few usable iterations to estimate a convergence rate."""


class Initializer(str, enum.Enum):
    """How the starting point is derived from the anchor z."""

    RAW_Z = "z"
    PROJECT_FIRST_SET = "project-first"
    PROJECT_SUM = "project-sum"


class Method(str, enum.Enum):
    CDRM = "cdrm"
    CRM = "crm"
    DR = "dr"
    MAP = "map"


@dataclass(frozen=True)
class SolverConfig:
    max_iter: int = 1000
    step_tol: float = 1e-12
    sol_tol: float | None = None
    initializer: Initializer = Initializer.PROJECT_FIRST_SET

    def __post_init__(self):
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if self.step_tol <= 0:
            raise ValueError("step_tol must be positive")
        if self.sol_tol is not None and self.sol_tol <= 0:
            raise ValueError("sol_tol must be positive when set")


class Problem:
    """m >= 2 affine subspaces with nonempty intersection, plus anchor z.

    The intersection is computed once here, by folding `intersect` over
    the sets, which validates it at DEFAULT_MEMBERSHIP_TOL; the reference
    solution is project(intersection, z).
    """

    def __init__(self, subspaces, z):
        subspaces = list(subspaces)
        if len(subspaces) < 2:
            raise ValueError("a problem needs at least two subspaces")
        z = as_vector(z)
        dims = {s.ambient_dim for s in subspaces}
        if dims != {z.shape[0]}:
            raise ValueError(
                f"ambient dimensions {sorted(dims)} do not all match z (R^{z.shape[0]})"
            )
        self.subspaces: list[AffineSubspace] = subspaces
        self.z = z
        common = subspaces[0]
        for i, s in enumerate(subspaces[1:], start=1):
            try:
                common = intersect(common, s)
            except NoIntersection as exc:
                prefix = (
                    f"subspaces 0 and {i}"
                    if i == 1
                    else f"the intersection of subspaces 0..{i - 1} and subspace {i}"
                )
                raise NoIntersection(f"{prefix} share no point: {exc}") from exc
        self.intersection: AffineSubspace = common
        self.solution: np.ndarray = project(common, z)

    @property
    def dim(self) -> int:
        return self.z.shape[0]

    @property
    def num_sets(self) -> int:
        return len(self.subspaces)


@dataclass
class SolverTrace:
    """Iterates plus per-iteration diagnostics.

    iterates[0] is the starting point; step_norms[k] = |x_{k+1} - x_k|,
    so len(step_norms) = len(iterates) - 1. dists and residuals cover
    every iterate, measured on the shadow sequence for dr (the raw dr
    iterate does not approach the solution; its shadow does).
    """

    method: Method
    iterates: list[np.ndarray] = field(default_factory=list)
    step_norms: list[float] = field(default_factory=list)
    dists: list[float] = field(default_factory=list)
    residuals: list[float] = field(default_factory=list)
    shadows: list[np.ndarray] | None = None
    reason: str = ""

    @property
    def num_steps(self) -> int:
        return len(self.step_norms)

    @property
    def final(self) -> np.ndarray:
        pts = self.shadows if self.shadows is not None else self.iterates
        return pts[-1]


_CC_CFG = CircumConfig()


def _circumcenter_of(points: list[np.ndarray]) -> np.ndarray:
    """Circumcenter of a step's reflection points, which need no re-validation.

    Reflections that overflowed make the circumcenter Empty, so they end
    the step here too.
    """
    out = _circumcenter(np.array(points), _CC_CFG)
    if out.is_empty:
        raise DegenerateStep("circumcenter of the reflection set is empty")
    return out.center


def _point_for(subspaces, x) -> np.ndarray:
    """x validated once against every set a step visits."""
    if not subspaces:
        raise ValueError("a step needs at least one set")
    for s in subspaces:
        x = _point_of(s, x)
    return x


# Step kernels: x is a finite vector of the sets' ambient space and p is
# its projection onto the first set, which run() has already computed to
# measure x.


def _crm(subspaces, x: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Circumcenter of x, R_1 x, R_2 R_1 x, ...; cdrm is its two-set case."""
    y = 2.0 * p - x
    points = [x, y]
    for s in subspaces[1:]:
        y = _reflect(s, y)
        points.append(y)
    return _circumcenter_of(points)


def _dr(V: AffineSubspace, x: np.ndarray, p: np.ndarray) -> np.ndarray:
    return x - p + _project(V, 2.0 * p - x)


def _map(subspaces, x: np.ndarray, p: np.ndarray) -> np.ndarray:
    for s in subspaces[1:]:
        p = _project(s, p)
    return p


def cdrm_step(U: AffineSubspace, V: AffineSubspace, x) -> np.ndarray:
    """Circumcenter of {x, R_U x, R_V R_U x}."""
    x = _point_for((U, V), x)
    return _crm((U, V), x, _project(U, x))


def crm_step(subspaces, x) -> np.ndarray:
    """Circumcenter of x and its successive reflections through all sets."""
    subspaces = list(subspaces)
    x = _point_for(subspaces, x)
    return _crm(subspaces, x, _project(subspaces[0], x))


def dr_step(U: AffineSubspace, V: AffineSubspace, x) -> np.ndarray:
    """Douglas-Rachford: x - P_U x + P_V(2 P_U x - x)."""
    x = _point_for((U, V), x)
    return _dr(V, x, _project(U, x))


def map_step(subspaces, x) -> np.ndarray:
    """One sweep of cyclic projections."""
    subspaces = list(subspaces)
    x = _point_for(subspaces, x)
    return _map(subspaces, x, _project(subspaces[0], x))


def _initial_point(problem: Problem, initializer: Initializer) -> np.ndarray:
    if initializer is Initializer.RAW_Z:
        return problem.z.copy()
    if initializer is Initializer.PROJECT_FIRST_SET:
        return project(problem.subspaces[0], problem.z)
    # Projection onto the sum of the direction spaces, anchored at a
    # point known to lie in every subspace.
    directions = np.vstack([s.onb for s in problem.subspaces])
    span_sum = AffineSubspace(problem.intersection.base, orthonormalize(directions))
    return project(span_sum, problem.z)


def run(
    method: Method | str,
    problem: Problem,
    cfg: SolverConfig = SolverConfig(),
) -> SolverTrace:
    """Iterate the chosen method from the configured starting point.

    The stopping reason is recorded in trace.reason:

    - "sol_tol": the distance to the reference solution fell to sol_tol
      (only when sol_tol is configured);
    - "step_tol": successive iterates are at most step_tol apart;
    - "non_finite": the next iterate, its step norm, shadow, dist or
      residual has an infinite or NaN entry (an overflow); it is not
      recorded, so every recorded number is finite;
    - "max_iter": max_iter steps were taken.

    A starting point whose numbers overflow raises ValueError. A
    circumcentered step whose reflection points have no circumcenter, or
    overflowed to inf, raises DegenerateStep. dr traces also carry
    the shadow sequence P_{U_1} x_k and measure distances and residuals
    on it.

    Each iterate x_k is projected onto U_1 once: that projection gives
    its residual against U_1 (for dr, its shadow) and is handed to the
    next step, where it yields R_1 x_k = 2 P_{U_1} x_k - x_k for cdrm
    and crm, dr's P_U x_k and map's first projection.
    """
    method = Method(method)
    if method in (Method.CDRM, Method.DR) and problem.num_sets != 2:
        raise ValueError(f"{method.value} handles exactly two sets")

    sets = problem.subspaces
    U, V = sets[0], sets[1]
    if method in (Method.CDRM, Method.CRM):
        step = lambda x, p: _crm(sets, x, p)
    elif method is Method.DR:
        step = lambda x, p: _dr(V, x, p)
    else:
        step = lambda x, p: _map(sets, x, p)

    shadowed = method is Method.DR
    solution = problem.solution
    trace = SolverTrace(method=method, shadows=[] if shadowed else None)

    def record(x: np.ndarray) -> np.ndarray | None:
        """Append x with its shadow, dist and residual and return
        P_{U_1} x for the next step; None, appending nothing, when one
        of them is not finite (an overflow)."""
        p = _project(U, x)
        if shadowed:
            if not np.isfinite(p).all():
                return None
            obs = p
            residual = max(_distance(s, obs) for s in sets)
        else:
            obs = x
            residual = max(_norm(x - p), *(_distance(s, x) for s in sets[1:]))
        dist = _norm(obs - solution)
        if not (math.isfinite(dist) and math.isfinite(residual)):
            return None
        trace.iterates.append(x)
        if shadowed:
            trace.shadows.append(obs)
        trace.dists.append(dist)
        trace.residuals.append(residual)
        return p

    x = as_vector(_initial_point(problem, cfg.initializer))
    p = record(x)
    if p is None:
        raise ValueError("the starting point's shadow, distance or residual overflows")

    reason = "max_iter"
    for k in range(cfg.max_iter):
        x_next = step(x, p)
        step_norm = _norm(x_next - x) if np.isfinite(x_next).all() else math.inf
        p = record(x_next) if step_norm < math.inf else None
        if p is None:
            reason = "non_finite"
            break
        x = x_next
        trace.step_norms.append(step_norm)
        dist = trace.dists[-1]
        log.debug(
            "%s iter %d: step %.3e dist %.3e", method.value, k + 1, step_norm, dist
        )
        if cfg.sol_tol is not None and dist <= cfg.sol_tol:
            reason = "sol_tol"
            break
        if step_norm <= cfg.step_tol:
            reason = "step_tol"
            break
    trace.reason = reason
    log.info(
        "%s finished after %d steps (%s), final dist %.3e",
        method.value,
        trace.num_steps,
        reason,
        trace.dists[-1],
    )
    return trace


def estimate_rate(trace: SolverTrace) -> float:
    """Geometric mean of successive distance ratios over the later half.

    Ratios whose denominator sits below 100 * eps * d_0 are discarded
    (the tail is noise once distances reach machine precision), as are
    ratios with an exactly zero numerator. At least five positive
    distances are required.
    """
    ds = trace.dists
    if not ds or ds[0] <= 0.0:
        raise InsufficientData("starting distance is zero")
    floor = 100.0 * np.finfo(float).eps * ds[0]
    if sum(1 for d in ds if d > floor) < 5:
        raise InsufficientData(
            f"only {sum(1 for d in ds if d > floor)} distances above noise floor"
        )
    start = len(ds) // 2
    logs = []
    for k in range(start, len(ds) - 1):
        if ds[k] >= floor and ds[k + 1] > 0.0:
            logs.append(math.log(ds[k + 1] / ds[k]))
    if not logs:
        raise InsufficientData("no usable ratios in the trace tail")
    return math.exp(sum(logs) / len(logs))
