"""Best approximation onto an intersection of affine subspaces.

Four iterations on a common trace format: circumcentered reflections for
two sets (cdrm) and for m sets (crm), plus Douglas-Rachford (dr) and
cyclic projections (map) as baselines. The reference solution is the
projection of the problem's anchor point z onto the full intersection,
computed once at problem construction.

One table, `_KERNELS`, maps each method to its step kernel; cdrm and
crm share one, as cdrm is crm on two sets. A kernel takes the sets, x
and x's projection P_{U_1} x onto the first set, which all four methods
need, and trusts its arrays; the circumcentered kernel returns the
circumcenter of its reflection points, None when it is Empty. On two
sets it works in reflection coordinates, u = P_{U_1} x - x and
v = P_{U_2} y - y with y = R_{U_1} x, at their working scale
(circumcenter._reflection_triple), so cdrm and two-set crm share its
bits and a run scaled by a power of two is that run, scaled, bit for
bit; on more sets it stacks the points for circumcenter's kernel. The
public step operators validate x once (`as_vector` and the ambient
dimension), call the table and raise DegenerateStep on None or a next
point that is not finite. `run` calls the same table, so a run and the
public steps compute the same numbers, and ends with the reason
"degenerate" on None. `run` projects each x_k onto U_1 once, hands
P_{U_1} x_k to the next step and records only dists;
`SolverTrace.residual` takes a point's distances to the sets, by
`affine._distance`, on its first read and keeps them, so each is taken
once however the trace is read. The bare `_project` and `_reflect` run
only in the step kernels and `run`'s loop; every one-time projection
(`Problem.solution`, the initializers, `run`'s start and a public
step's P_{U_1} x) is `affine._silently(_project, ...)`, which keeps the
bare kernel's bits whenever they are finite.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .affine import (
    AffineSubspace,
    NoIntersection,
    _distance,
    _point_for,
    _project,
    _reflect,
    _silently,
    from_span,
    intersect,
)
from .circumcenter import _circumcenter, _reflection_triple
from .linalg import _norm


class DegenerateStep(RuntimeError):
    """A public step met reflection points with no circumcenter, or its
    next point is not finite (an overflow)."""


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

    def takes(self, num_sets: int) -> bool:
        """cdrm and dr take exactly two sets; crm and map take any number."""
        return num_sets == 2 or self in (Method.CRM, Method.MAP)

    def check_sets(self, num_sets: int) -> None:
        """Raise ValueError unless this method takes num_sets sets."""
        if not self.takes(num_sets):
            raise ValueError(f"{self.value} handles exactly two sets")


@dataclass(frozen=True)
class SolverConfig:
    max_iter: int = 1000
    step_tol: float = 1e-12
    sol_tol: float | None = None
    initializer: Initializer = Initializer.PROJECT_FIRST_SET

    def __post_init__(self):
        if type(self.max_iter) is not int or self.max_iter < 1:
            raise ValueError("max_iter must be an integer of at least 1")
        if not self.step_tol > 0:
            raise ValueError("step_tol must be positive")
        if self.sol_tol is not None and not self.sol_tol > 0:
            raise ValueError("sol_tol must be positive when set")
        # Parsed like run's method, so an unknown name raises ValueError.
        object.__setattr__(self, "initializer", Initializer(self.initializer))


class Problem:
    """m >= 2 affine subspaces with nonempty intersection, plus anchor z.

    The intersection is computed once here, by folding `intersect` over
    the sets, which validates it at DEFAULT_MEMBERSHIP_TOL; the reference
    solution is project(intersection, z), bit for bit.
    """

    def __init__(self, subspaces, z):
        subspaces = list(subspaces)
        if len(subspaces) < 2:
            raise ValueError("a problem needs at least two subspaces")
        self.subspaces: list[AffineSubspace] = subspaces
        self.z = _point_for(subspaces, z)
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
        self.solution: np.ndarray = _silently(_project, common, self.z)

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
    iterate does not approach the solution; its shadow does). `run`
    records the dists; a residual is measured on its first read and kept
    (see residual).
    """

    method: Method
    iterates: list[np.ndarray] = field(default_factory=list)
    step_norms: list[float] = field(default_factory=list)
    dists: list[float] = field(default_factory=list)
    shadows: list[np.ndarray] | None = None
    reason: str = ""
    sets: list[AffineSubspace] = field(default_factory=list, repr=False)
    _residuals: list[float | None] = field(
        default_factory=list, init=False, repr=False, compare=False
    )

    @property
    def num_steps(self) -> int:
        return len(self.step_norms)

    @property
    def _observed(self) -> list[np.ndarray]:
        """The measured points: the shadows for dr, else the iterates."""
        return self.shadows if self.shadows is not None else self.iterates

    @property
    def final(self) -> np.ndarray:
        return self._observed[-1]

    def residual(self, k: int) -> float:
        """Largest `affine._distance` from the k-th measured point to a
        set, skipping sets[0] for dr's shadow, which lies on it; finite,
        as it is at most the point's dist. Taken on the first read of
        that point and kept in the list `residuals` returns."""
        kept = self._residuals
        kept += [None] * (len(self.dists) - len(kept))
        r = kept[k]
        if r is None:
            obs = self._observed[k]
            sets = self.sets if self.shadows is None else self.sets[1:]
            r = kept[k] = max(_distance(s, obs) for s in sets)
        return r

    @property
    def residuals(self) -> list[float]:
        """residual(k) of every measured point: one kept list, completed
        on the first read and the same object on every read."""
        for k in range(len(self.dists)):
            self.residual(k)
        return self._residuals


# Step kernels: x is a finite vector of the sets' ambient space and p is
# its projection onto the first set, which run() has already computed to
# measure x and _step computes for a public step. A p that overflowed
# gives None or an iterate that is not finite.


def _crm(subspaces, x: np.ndarray, p: np.ndarray) -> np.ndarray | None:
    """Circumcenter of x, R_1 x, R_2 R_1 x, ...; cdrm is its two-set case,
    on p - x and P_2 y - y, y = R_1 x (_reflection_triple). None when it
    is Empty, as it is when a reflection overflowed."""
    y = 2.0 * p - x
    if len(subspaces) == 2:
        return _reflection_triple(x, p - x, _project(subspaces[1], y) - y)
    points = [x, y]
    for s in subspaces[1:]:
        y = _reflect(s, y)
        points.append(y)
    return _circumcenter(np.array(points)).center


def _dr(subspaces, x: np.ndarray, p: np.ndarray) -> np.ndarray:
    return x - p + _project(subspaces[1], 2.0 * p - x)


def _map(subspaces, x: np.ndarray, p: np.ndarray) -> np.ndarray:
    for s in subspaces[1:]:
        p = _project(s, p)
    return p


_KERNELS = {Method.CDRM: _crm, Method.CRM: _crm, Method.DR: _dr, Method.MAP: _map}


@np.errstate(over="ignore", invalid="ignore")
def _step(method: Method, subspaces, x) -> np.ndarray:
    """One step of method from x, validated once against every set, with
    P_{U_1} x taken silently; DegenerateStep names an Empty or
    overflowed next point, with no numpy warning."""
    subspaces = list(subspaces)
    if not subspaces:
        raise ValueError("a step needs at least one set")
    x = _point_for(subspaces, x)
    x_next = _KERNELS[method](subspaces, x, _silently(_project, subspaces[0], x))
    if x_next is None or not np.isfinite(x_next).all():
        raise DegenerateStep("the next point is Empty or not finite")
    return x_next


def cdrm_step(U: AffineSubspace, V: AffineSubspace, x) -> np.ndarray:
    """Circumcenter of {x, R_U x, R_V R_U x}."""
    return _step(Method.CDRM, (U, V), x)


def crm_step(subspaces, x) -> np.ndarray:
    """Circumcenter of x and its successive reflections through all sets."""
    return _step(Method.CRM, subspaces, x)


def dr_step(U: AffineSubspace, V: AffineSubspace, x) -> np.ndarray:
    """Douglas-Rachford: x - P_U x + P_V(2 P_U x - x)."""
    return _step(Method.DR, (U, V), x)


def map_step(subspaces, x) -> np.ndarray:
    """One sweep of cyclic projections."""
    return _step(Method.MAP, subspaces, x)


def _initial_point(problem: Problem, initializer: Initializer) -> np.ndarray:
    if initializer is Initializer.RAW_Z:
        return problem.z.copy()
    if initializer is Initializer.PROJECT_FIRST_SET:
        return _silently(_project, problem.subspaces[0], problem.z)
    # Projection onto the sum of the direction spaces, anchored at a
    # point known to lie in every subspace.
    directions = np.vstack([s.onb for s in problem.subspaces])
    return _silently(_project, from_span(problem.intersection.base, directions), problem.z)


@np.errstate(over="ignore", invalid="ignore")
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
    - "degenerate": a cdrm or crm step's reflection points have no
      circumcenter (Empty), from rounding or an overflowed reflection;
    - "non_finite": the next iterate, its step norm, shadow or dist
      has an infinite or NaN entry (an overflow); it is not recorded,
      so every recorded number is finite, the residuals included;
    - "max_iter": max_iter steps were taken.

    The reason names any overflow, so numpy warns of none; x_0 and
    P_{U_1} x_0 are taken silently (see the module docstring), and a
    later iterate whose P_{U_1} x overflows ends the run at its step. A
    method that does not take the problem's number of sets
    (`Method.check_sets`) and a starting point whose shadow or dist
    overflows raise ValueError. dr traces also carry the shadow sequence
    P_{U_1} x_k and measure distances on it.
    """
    method = Method(method)
    method.check_sets(problem.num_sets)

    sets = problem.subspaces
    U = sets[0]
    step = _KERNELS[method]
    shadowed = method is Method.DR
    solution = problem.solution
    trace = SolverTrace(method=method, shadows=[] if shadowed else None, sets=sets)

    def record(x: np.ndarray, p: np.ndarray) -> bool:
        """Append x with its dist, measured on obs (dr's shadow p =
        P_{U_1} x, else x); False, appending nothing, when the dist is
        not finite (an overflow)."""
        obs = p if shadowed else x
        dist = _norm(obs - solution)
        if not math.isfinite(dist):
            return False
        trace.iterates.append(x)
        if shadowed:
            trace.shadows.append(obs)
        trace.dists.append(dist)
        return True

    x = _initial_point(problem, cfg.initializer)
    p = _silently(_project, U, x)
    if not record(x, p):
        raise ValueError("the starting point's shadow or distance overflows")

    reason = "max_iter"
    for _ in range(cfg.max_iter):
        x_next = step(sets, x, p)
        if x_next is None:
            reason = "degenerate"
            break
        # An inf or NaN entry of x_next makes its step norm inf or NaN.
        step_norm = _norm(x_next - x)
        p = _project(U, x_next)
        if not (step_norm < math.inf and record(x_next, p)):
            reason = "non_finite"
            break
        x = x_next
        trace.step_norms.append(step_norm)
        if cfg.sol_tol is not None and trace.dists[-1] <= cfg.sol_tol:
            reason = "sol_tol"
            break
        if step_norm <= cfg.step_tol:
            reason = "step_tol"
            break
    trace.reason = reason
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
    above = sum(1 for d in ds if d > floor)
    if above < 5:
        raise InsufficientData(f"only {above} distances above noise floor")
    start = len(ds) // 2
    logs = []
    for k in range(start, len(ds) - 1):
        if ds[k] >= floor and ds[k + 1] > 0.0:
            logs.append(math.log(ds[k + 1] / ds[k]))
    if not logs:
        raise InsufficientData("no usable ratios in the trace tail")
    return math.exp(sum(logs) / len(logs))
