"""Tests for the reflection solvers, trace machinery, and rate estimation."""

import importlib
import warnings

import numpy as np
import pytest

from circumlib import (
    AffineSubspace,
    DegenerateStep,
    DimensionMismatch,
    Initializer,
    InsufficientData,
    Method,
    NoIntersection,
    Problem,
    SolverConfig,
    SolverTrace,
    affine_hull,
    cdrm_step,
    circumcenter,
    crm_step,
    distance_to,
    dr_step,
    estimate_rate,
    from_span,
    generate_two_subspace,
    map_step,
    project,
    reflect,
    run,
)

# The package re-exports run and the steps; the module itself is fetched
# by its dotted path so that its kernels can be wrapped.
solvers_mod = importlib.import_module("circumlib.solvers")


def line2(theta, base=(0.0, 0.0)):
    """Line through base at angle theta in R^2."""
    return from_span(base, [[np.cos(theta), np.sin(theta)]])


def random_pair_through(rng, n, du, dv, c):
    """Two random subspaces through the common point c."""
    span_u = rng.normal(size=(du, n))
    span_v = rng.normal(size=(dv, n))
    U = from_span(c + span_u.T @ rng.normal(size=du), span_u)
    V = from_span(c + span_v.T @ rng.normal(size=dv), span_v)
    return U, V


def shifted(prob, shift):
    """prob with every set and z moved by a vector of norm shift."""
    c = np.full(prob.dim, shift / np.sqrt(prob.dim))
    sets = [AffineSubspace(base=s.base + c, onb=s.onb) for s in prob.subspaces]
    return Problem(sets, prob.z + c)


EPS = np.finfo(float).eps


# problem validation


def test_problem_needs_two_sets():
    U = from_span([0, 0], [[1, 0]])
    with pytest.raises(ValueError):
        Problem([U], [1, 1])


def test_problem_ambient_mismatch():
    U = from_span([0, 0], [[1, 0]])
    V = from_span([0, 0, 0], [[1, 0, 0]])
    with pytest.raises(DimensionMismatch):
        Problem([U, V], [1, 1])
    with pytest.raises(DimensionMismatch):
        Problem([U, U], [1, 1, 1])


def test_problem_disjoint_pair_named():
    U = from_span([0, 0], [[1, 0]])
    V = from_span([0, 1], [[1, 0]])
    with pytest.raises(NoIntersection, match="subspaces 0 and 1.*share no point"):
        Problem([U, V], [1, 1])


def test_problem_disjoint_chain_named():
    xy = from_span([0, 0, 0], [[1, 0, 0], [0, 1, 0]])
    xz = from_span([0, 0, 0], [[1, 0, 0], [0, 0, 1]])
    off = from_span([0, 1, 0], [[1, 0, 0], [0, 0, 1]])
    with pytest.raises(NoIntersection, match=r"0\.\.1 and subspace 2"):
        Problem([xy, xz, off], [1, 1, 1])


def test_problem_solution_is_intersection_projection():
    rng = np.random.default_rng(41)
    U, V = random_pair_through(rng, 6, 3, 2, rng.normal(size=6))
    z = rng.normal(size=6)
    prob = Problem([U, V], z)
    assert np.allclose(prob.solution, project(prob.intersection, z))


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(max_iter=0)
    with pytest.raises(ValueError):
        SolverConfig(step_tol=0.0)
    with pytest.raises(ValueError):
        SolverConfig(sol_tol=-1.0)
    # NaN passes a test of x <= 0, and neither a float nor a bool is a
    # step count.
    for field, value in (
        ("max_iter", 2.5),
        ("max_iter", True),
        ("step_tol", np.nan),
        ("sol_tol", np.nan),
    ):
        with pytest.raises(ValueError, match=field):
            SolverConfig(**{field: value})
    # The initializer is parsed by name, as run parses its method.
    with pytest.raises(ValueError, match="bogus"):
        SolverConfig(initializer="bogus")


def test_initializer_by_name():
    # z lies off the sum of the two directions, so the project-sum start
    # differs from it.
    x_axis = from_span([0, 0, 0], [[1, 0, 0]])
    y_axis = from_span([0, 0, 0], [[0, 1, 0]])
    prob = Problem([x_axis, y_axis], [1, 2, 3])
    assert SolverConfig(initializer="z") == SolverConfig(initializer=Initializer.RAW_Z)
    trace = run(Method.MAP, prob, SolverConfig(initializer="z"))
    assert trace.iterates[0].tobytes() == prob.z.tobytes()


# step operators


def test_cdrm_fixed_point():
    rng = np.random.default_rng(42)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        c = rng.normal(size=n)
        U, V = random_pair_through(rng, n, int(rng.integers(1, n)), int(rng.integers(1, n)), c)
        assert np.linalg.norm(cdrm_step(U, V, c) - c) <= 1e-10


def test_public_steps_validate_x():
    U, V = line2(0.0), line2(0.7)
    steps = (
        lambda x: cdrm_step(U, V, x),
        lambda x: crm_step([U, V], x),
        lambda x: dr_step(U, V, x),
        lambda x: map_step([U, V], x),
    )
    for step in steps:
        with pytest.raises(DimensionMismatch, match="point has length 3"):
            step([1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="non-finite"):
            step([np.nan, 1.0])
    for step in (crm_step, map_step):
        with pytest.raises(ValueError, match="at least one set"):
            step([], [1.0, 2.0])
        with pytest.raises(DimensionMismatch, match="lives in R\\^3"):
            step([U, from_span([0, 0, 0], [[1, 0, 0]])], [1.0, 2.0])


def test_cdrm_two_lines_one_step():
    U = line2(0.0)
    V = line2(0.7)
    for x in ([1.3, 0.4], [-2.0, 1.0], [0.0, 3.0]):
        assert np.allclose(cdrm_step(U, V, x), [0, 0], atol=1e-10)


def test_cdrm_equal_sets_projects():
    U = line2(0.0)
    assert np.allclose(cdrm_step(U, U, [3, 5]), [3, 0], atol=1e-12)


def test_cdrm_degenerate_singletons():
    U = AffineSubspace(base=np.array([0.0, 0.0]))
    V = AffineSubspace(base=np.array([2.0, 0.0]))
    with pytest.raises(DegenerateStep):
        cdrm_step(U, V, [1.0, 0.0])


def test_crm_two_sets_matches_cdrm():
    rng = np.random.default_rng(43)
    for _ in range(20):
        n = int(rng.integers(2, 8))
        c = rng.normal(size=n)
        U, V = random_pair_through(rng, n, int(rng.integers(1, n)), int(rng.integers(1, n)), c)
        x = rng.normal(size=n) * 2
        assert np.allclose(crm_step([U, V], x), cdrm_step(U, V, x), atol=1e-12)


def test_crm_fixed_point():
    rng = np.random.default_rng(44)
    c = rng.normal(size=5)
    sets = []
    for _ in range(3):
        span = rng.normal(size=(2, 5))
        sets.append(from_span(c + span.T @ rng.normal(size=2), span))
    assert np.linalg.norm(crm_step(sets, c) - c) <= 1e-10


def test_crm_hyperplanes_fejer():
    planes = [
        from_span([0, 0, 0], [[0, 1, 0], [0, 0, 1]]),
        from_span([0, 0, 0], [[1, 0, 0], [0, 0, 1]]),
        from_span([0, 0, 0], [[1, 0, 0], [0, 1, 0]]),
    ]
    x = np.array([1.0, 1.0, 1.0])
    out = crm_step(planes, x)
    assert np.linalg.norm(out) <= np.linalg.norm(x)


def test_dr_fixed_point():
    rng = np.random.default_rng(45)
    c = rng.normal(size=4)
    U, V = random_pair_through(rng, 4, 2, 2, c)
    assert np.linalg.norm(dr_step(U, V, c) - c) <= 1e-10


def test_dr_equal_sets_is_identity():
    # T = I - P_U + P_U(2 P_U - I) collapses to the identity when both
    # sets coincide; the shadow P_U x still lands on the set.
    U = line2(0.0)
    x = np.array([3.0, 5.0])
    assert np.allclose(dr_step(U, U, x), x, atol=1e-12)
    assert np.allclose(project(U, dr_step(U, U, x)), [3, 0], atol=1e-12)


def test_dr_matches_matrix_operator():
    rng = np.random.default_rng(46)
    theta = 0.6
    U = line2(0.0)
    V = line2(theta)
    u = U.onb[0]
    v = V.onb[0]
    Pu = np.outer(u, u)
    Pv = np.outer(v, v)
    T = np.eye(2) - Pu + Pv @ (2 * Pu - np.eye(2))
    for _ in range(20):
        x = rng.normal(size=2) * 3
        assert np.allclose(dr_step(U, V, x), T @ x, atol=1e-12)
    # contraction factor cos(theta) along U
    x = np.array([2.5, 0.0])
    assert np.linalg.norm(dr_step(U, V, x)) == pytest.approx(
        np.cos(theta) * np.linalg.norm(x), rel=1e-12
    )


def test_map_fixed_point():
    rng = np.random.default_rng(47)
    c = rng.normal(size=5)
    sets = []
    for _ in range(3):
        span = rng.normal(size=(2, 5))
        sets.append(from_span(c + span.T @ rng.normal(size=2), span))
    assert np.linalg.norm(map_step(sets, c) - c) <= 1e-10


def test_map_orthogonal_lines_one_sweep():
    U = line2(0.0)
    V = line2(np.pi / 2)
    assert np.allclose(map_step([U, V], [3.0, 4.0]), [0, 0], atol=1e-12)


def test_map_contraction_cos_squared():
    theta = 0.8
    U = line2(0.0)
    V = line2(theta)
    x = 3.0 * V.onb[0]
    out = map_step([U, V], x)
    assert np.linalg.norm(out) == pytest.approx(
        np.cos(theta) ** 2 * np.linalg.norm(x), rel=1e-12
    )


def test_step_projection_characterization():
    rng = np.random.default_rng(48)
    for _ in range(20):
        n = int(rng.integers(3, 9))
        c = rng.normal(size=n)
        U, V = random_pair_through(rng, n, int(rng.integers(1, n)), int(rng.integers(1, n)), c)
        prob = Problem([U, V], rng.normal(size=n))
        x = rng.normal(size=n) * 2
        ru = reflect(U, x)
        pts = [x, ru, reflect(V, ru)]
        hull = affine_hull(pts)
        target = project(hull, project(prob.intersection, x))
        assert np.linalg.norm(cdrm_step(U, V, x) - target) <= 1e-8


def test_crm_projection_characterization():
    rng = np.random.default_rng(49)
    for _ in range(10):
        n = 7
        c = rng.normal(size=n)
        sets = []
        for _ in range(3):
            span = rng.normal(size=(int(rng.integers(1, 4)), n))
            sets.append(from_span(c + span.T @ rng.normal(size=span.shape[0]), span))
        prob = Problem(sets, rng.normal(size=n))
        x = rng.normal(size=n)
        pts = [x]
        cur = x
        for s in sets:
            cur = reflect(s, cur)
            pts.append(cur)
        hull = affine_hull(pts)
        target = project(hull, project(prob.intersection, x))
        assert np.linalg.norm(crm_step(sets, x) - target) <= 1e-8


# run() and traces


def test_run_full_space_terminates_immediately():
    n = 4
    full = from_span(np.zeros(n), np.eye(n))
    z = np.array([1.0, -2.0, 0.5, 3.0])
    trace = run(Method.CDRM, Problem([full, full], z))
    assert trace.num_steps == 1
    assert trace.reason == "step_tol"
    assert np.allclose(trace.final, z)


def test_run_two_lines_project_first():
    # From P_U z the first triple degenerates to a pair, so the step
    # lands on V rather than the solution; the second step finishes.
    prob = Problem([line2(0.0), line2(0.7)], [1.1, 2.3])
    trace = run(Method.CDRM, prob, SolverConfig(initializer=Initializer.PROJECT_FIRST_SET))
    assert trace.dists[2] <= 1e-10
    assert np.linalg.norm(trace.final - prob.solution) <= 1e-10


def test_run_two_lines_raw_z_one_step():
    prob = Problem([line2(0.0), line2(0.7)], [1.1, 2.3])
    trace = run(Method.CDRM, prob, SolverConfig(initializer=Initializer.RAW_Z))
    assert trace.dists[1] <= 1e-10


@pytest.mark.parametrize("method", [Method.CDRM, Method.CRM])
def test_run_default_config_converges_past_dedup_floor(method):
    # Reflection points are told apart relative to their magnitude, and
    # this problem's solution is the origin, so the run reaches a real
    # step_tol. An absolute dedup floor of about 1e-10 collapses them
    # onto x at a distance of about 5e-11 and stops the run on a step of
    # exactly 0.
    prob = generate_two_subspace(50, 10, 10, 0.8, seed=7)
    trace = run(method, prob, SolverConfig())
    assert trace.reason == "step_tol"
    assert trace.step_norms[-1] > 0.0
    assert trace.dists[-1] <= 1e-12


@pytest.mark.parametrize("method", [Method.CDRM, Method.CRM])
@pytest.mark.parametrize("shift", [1e2, 1e4])
def test_run_default_config_converges_off_origin(method, shift):
    # Moved away from the origin, the reflection points are still told
    # apart relative to each other, down to the rounding noise of
    # coordinates of size |shift|: an absolute dedup floor stops the run
    # at about 5e-11, a floor of 1e-10 x |x| at about 1e-10 x |shift|.
    prob = shifted(generate_two_subspace(50, 10, 10, 0.8, seed=7), shift)
    trace = run(method, prob, SolverConfig())
    assert trace.reason == "step_tol"
    assert trace.dists[-1] <= 1e-13 * shift


@pytest.mark.filterwarnings("error")
def test_run_overflowing_step_is_degenerate_not_converged():
    # From z = (1e300, 1e300) the reflection points are about 1e300
    # apart, so their squared distances overflow; the circumcenter is
    # solved at its working scale and the run reaches the solution, the
    # origin, instead of every point collapsing onto x (a zero step
    # reported as step_tol). From 1e308 the reflections themselves
    # overflow: the circumcentered step is degenerate and dr's next
    # iterate is not finite, each a stopping reason, with no numpy
    # warning on the way.
    prob = Problem([line2(0.0), line2(np.pi / 4)], [1e300, 1e300])
    for method in (Method.CDRM, Method.CRM):
        for init in (Initializer.RAW_Z, Initializer.PROJECT_FIRST_SET):
            trace = run(method, prob, SolverConfig(initializer=init))
            assert trace.reason == "step_tol"
            assert trace.dists[-1] <= 1e-12 * 1e300
    # The public two-set step, outside run's errstate, warns of nothing
    # either: the points' squared norms overflow in the kernel's Gram
    # product, and it takes its rows at their working scale.
    step = cdrm_step(*prob.subspaces, prob.z)
    assert np.array_equal(crm_step(prob.subspaces, prob.z), step)
    assert np.abs(step).max() <= 1e-12 * 1e300
    prob = Problem([line2(0.0), line2(np.pi / 4)], [1e308, 1e308])
    expected = {Method.CDRM: "degenerate", Method.CRM: "degenerate", Method.DR: "non_finite"}
    for method, reason in expected.items():
        for init in (Initializer.RAW_Z, Initializer.PROJECT_FIRST_SET):
            trace = run(method, prob, SolverConfig(initializer=init))
            assert trace.reason == reason
            assert trace.num_steps == 0
            assert_finite_trace(trace)


@pytest.mark.parametrize("cf", [0.5, 0.9])
@pytest.mark.parametrize("k", [-900, -600, 600, 900])
def test_run_is_covariant_under_power_of_two_scaling(k, cf):
    # Every set's base and z scaled by 2^k: the circumcentered step takes
    # its rows at their working scale, so a run far out or near 0 takes
    # the same steps, each 2^k times the unscaled one, bit for bit. A
    # step_tol below every step norm lets the run go on to max_iter or an
    # exact fixed point.
    cfg = SolverConfig(max_iter=40, step_tol=5e-324)
    for seed in (1, 2):
        prob = generate_two_subspace(40, 10, 10, cf, seed)
        sets = [AffineSubspace(np.ldexp(s.base, k), s.onb) for s in prob.subspaces]
        far = Problem(sets, np.ldexp(prob.z, k))
        for method in (Method.CDRM, Method.CRM):
            ref, got = run(method, prob, cfg), run(method, far, cfg)
            assert (got.reason, got.num_steps) == (ref.reason, ref.num_steps)
            for a, b in zip(ref.iterates, got.iterates, strict=True):
                assert np.array_equal(b, np.ldexp(a, k))


def assert_finite_trace(trace):
    k = len(trace.iterates)
    assert len(trace.step_norms) == k - 1
    assert len(trace.dists) == k
    assert len(trace.residuals) == k
    points = trace.iterates + (trace.shadows or [])
    assert all(np.isfinite(x).all() for x in points)
    numbers = trace.step_norms + trace.dists + trace.residuals
    assert np.isfinite(numbers).all()


@pytest.mark.filterwarnings("error")
def test_run_non_finite_iterate_is_named():
    # 2 P_U x - x overflows in the first dr step; the run stops there
    # with a reason instead of a ValueError, and records nothing infinite.
    prob = Problem([line2(0.0), line2(np.pi / 4)], [1e308, 1e308])
    for init in (Initializer.RAW_Z, Initializer.PROJECT_FIRST_SET):
        trace = run(Method.DR, prob, SolverConfig(initializer=init))
        assert trace.reason == "non_finite"
        assert len(trace.shadows) == len(trace.iterates)
        assert_finite_trace(trace)
    # A finite iterate whose shadow overflows: U has its base near the
    # top of the float range, and x_1 - base overflows in P_U x_1.
    U = line2(0.0, base=(1.5e308, 0.0))
    prob = Problem([U, line2(np.pi / 4)], [0.0, 1e308])
    trace = run(Method.DR, prob, SolverConfig(initializer=Initializer.RAW_Z))
    assert trace.reason == "non_finite"
    assert len(trace.iterates) == 1 and len(trace.shadows) == 1
    assert_finite_trace(trace)
    # A finite step whose length overflows: dr on span(e1, e2, e3) and
    # span(e4, e5, e6) maps z = (8e307,)*6 to the origin in one step of
    # length 1.96e308.
    e = np.eye(6)
    U, V = from_span(np.zeros(6), e[:3]), from_span(np.zeros(6), e[3:])
    prob = Problem([U, V], [8e307] * 6)
    trace = run(Method.DR, prob, SolverConfig(initializer=Initializer.RAW_Z))
    assert trace.reason == "non_finite"
    assert len(trace.iterates) == 1
    assert_finite_trace(trace)


@pytest.mark.parametrize(
    "method, bad",
    [(m, bad) for m in Method for bad in (np.inf, np.nan)]
    + [(Method.CDRM, None), (Method.CRM, None)],
)
def test_run_ends_on_an_inf_or_nan_iterate(monkeypatch, method, bad):
    # run tests a new iterate only through its step norm, which an inf or
    # NaN entry makes inf or NaN: the run ends as non_finite before the
    # iterate is measured, and no numpy warning is raised on the way. A
    # circumcentered kernel returns None for an Empty circumcenter, and
    # the run ends as degenerate.
    prob = generate_two_subspace(20, 5, 5, 0.8, seed=3)
    kernel = solvers_mod._KERNELS[method]
    calls = []

    def breaks_on_third_call(sets, x, p):
        calls.append(None)
        x_next = kernel(sets, x, p)
        if len(calls) == 3:
            if bad is None:
                return None
            x_next[1] = bad
        return x_next

    monkeypatch.setitem(solvers_mod._KERNELS, method, breaks_on_third_call)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        trace = run(method, prob, SolverConfig())
    assert trace.reason == ("degenerate" if bad is None else "non_finite")
    assert trace.num_steps == 2
    assert_finite_trace(trace)


@pytest.mark.filterwarnings("error")
def test_run_start_with_overflowing_shadow_raises():
    # In R^4 the shadow of z = (1e308,)*4 on the diagonal line overflows
    # before any step; there is nothing finite to record. The projected
    # starting points overflow the same way, and run names its own start
    # rather than a non-finite vector.
    diagonal = from_span(np.zeros(4), [[1.0, 1.0, 1.0, 1.0]])
    axis = from_span(np.zeros(4), [[1.0, 0.0, 0.0, 0.0]])
    prob = Problem([diagonal, axis], [1e308] * 4)
    with pytest.raises(ValueError, match="starting point"):
        run(Method.DR, prob, SolverConfig(initializer=Initializer.RAW_Z))
    for init in (Initializer.PROJECT_FIRST_SET, Initializer.PROJECT_SUM):
        for method in Method:
            with pytest.raises(ValueError, match="starting point"):
                run(method, prob, SolverConfig(initializer=init))


@pytest.mark.filterwarnings("error")
def test_run_large_finite_iterates_are_not_flagged():
    # Iterates near 1e200 are finite although their squared norms are
    # not; they must not end the run, and their distances stay finite.
    prob = Problem([line2(0.0), line2(np.pi / 4)], [1e200, 3e200])
    for method in (Method.DR, Method.MAP):
        trace = run(method, prob, SolverConfig(max_iter=5))
        assert trace.reason == "max_iter"
        assert trace.dists[0] > 1e199
        assert_finite_trace(trace)


@pytest.mark.parametrize("method", list(Method))
def test_run_matches_public_steps_bit_for_bit(method):
    # run() iterates on private kernels; every recorded number must be
    # what the public API computes from the recorded iterates. dr's
    # shadow lies on U, so its residual takes 0 for U: moved 1e4 from the
    # origin, projecting a shadow onto U again gives a rounding distance
    # that exceeds its distance to V on one shadow of this run.
    base = generate_two_subspace(40, 10, 12, 0.8, seed=16)
    rounded = 0
    for prob, cfg in ((base, SolverConfig(max_iter=25)), (shifted(base, 1e4), SolverConfig())):
        U, V = prob.subspaces
        step = {
            Method.CDRM: lambda x: cdrm_step(U, V, x),
            Method.CRM: lambda x: crm_step(prob.subspaces, x),
            Method.DR: lambda x: dr_step(U, V, x),
            Method.MAP: lambda x: map_step(prob.subspaces, x),
        }[method]
        trace = run(method, prob, cfg)
        assert trace.num_steps >= 25
        for k, x in enumerate(trace.iterates):
            if k < trace.num_steps:
                assert np.array_equal(trace.iterates[k + 1], step(x))
            if method is Method.DR:
                obs = project(U, x)
                assert np.array_equal(trace.shadows[k], obs)
                expected = max(0.0, *(distance_to(s, obs) for s in prob.subspaces[1:]))
                rounded += distance_to(U, obs) > expected
            else:
                obs = x
                expected = max(distance_to(s, obs) for s in prob.subspaces)
            assert trace.dists[k] == np.linalg.norm(obs - prob.solution)
            assert trace.residuals[k] == expected
    # The shifted run tells a residual of 0 for U from a projected one.
    assert rounded > 0 or method is not Method.DR


@pytest.mark.parametrize("n", [50, 200])
def test_steps_agree_with_the_circumcenter_of_the_reflections(n):
    # The solver's two-set kernel works in reflection coordinates and
    # shares _three's rules, not its arithmetic, with the public
    # circumcenter: the two centers agree to rounding, worst measured
    # 4.4 eps |x - w| over these instances. Two-set crm is cdrm, bit for bit.
    rng = np.random.default_rng(n)
    for seed in range(1, 6):
        prob = generate_two_subspace(n, n // 4, n // 4, 0.8, seed=seed)
        U, V = prob.subspaces
        for x in rng.normal(size=(3, n)) * [[1.0], [1e-3], [1e3]]:
            y = reflect(U, x)
            center = circumcenter([x, y, reflect(V, y)]).center
            step = cdrm_step(U, V, x)
            assert np.linalg.norm(step - center) <= 16 * EPS * np.linalg.norm(x - prob.solution)
            assert np.array_equal(crm_step([U, V], x), step)


def project_onto_hull(points, w):
    """Projection of w onto the affine hull of points, by least squares
    on the differences to the first point (np.linalg.lstsq, an SVD). A
    difference within the points' rounding noise, 16 eps max_i |p_i|, is
    dropped as a rank deficiency: a reflection of a point on its set
    differs from it by at most 6 eps |x| (measured), and lstsq would keep
    that rounding as a direction of the hull."""
    x = points[0]
    D = np.array(points[1:]) - x
    noise = 16 * EPS * max(np.linalg.norm(p) for p in points)
    return x + D.T @ np.linalg.lstsq(D.T, w - x, rcond=noise / np.linalg.norm(D, 2))[0]


@pytest.mark.parametrize("n", [50, 200])
@pytest.mark.parametrize("cf", [0.5, 0.8, 0.95])
def test_steps_are_the_projection_of_the_solution_onto_the_reflections(n, cf):
    # Reflections are isometries that fix the solution w, so w is
    # equidistant from x, R_U x and R_V R_U x; the circumcenter of the
    # three is the projection of w onto their affine hull. The oracle
    # finds that projection by least squares, with none of the
    # circumcenter kernel's arithmetic. Through the origin the gap scales
    # with |x - w| (worst measured 2.8e-15 |x - w|). Moved 1e4 away, it
    # has an absolute floor from the rounding of points of size |x| that
    # does not shrink as x converges: worst measured 44.4 eps |x| over
    # these 18 instances, bounded at 100 eps |x| (2.25x margin).
    for seed in (1, 2, 3):
        base = generate_two_subspace(n, n // 4, n // 4, cf, seed)
        for prob in (base, shifted(base, 1e4)):
            U, V = prob.subspaces
            w = prob.solution
            for method in (Method.CDRM, Method.CRM):
                trace = run(method, prob, SolverConfig())
                assert trace.reason == "step_tol"
                for x, x_next in zip(trace.iterates, trace.iterates[1:]):
                    y = reflect(U, x)
                    target = project_onto_hull([x, y, reflect(V, y)], w)
                    bound = 1e-12 * np.linalg.norm(x - w) + 100 * EPS * np.linalg.norm(x)
                    assert np.linalg.norm(x_next - target) <= bound


def planted_sets(rng, n, m, w, d):
    """m random subspaces c + span(W, D_i) of R^n, W orthonormal of
    dimension w and D_i of d random directions, with an anchor z; for
    w + 2d <= n they share exactly c + span(W), so the solution is
    c + P_W(z - c) by construction."""
    c = rng.normal(size=n)
    W = np.linalg.qr(rng.normal(size=(n, w)))[0].T
    sets = []
    for _ in range(m):
        span = np.vstack([W, rng.normal(size=(d, n))])
        sets.append(from_span(c + rng.normal(size=w + d) @ span, span))
    z = c + 3.0 * rng.normal(size=n)
    return Problem(sets, z), c + W.T @ (W @ (z - c))


@pytest.mark.parametrize("n", [50, 200])
@pytest.mark.parametrize("m", [3, 4, 5])
def test_crm_steps_on_m_sets_are_the_projection_of_the_solution(n, m):
    # The two-set oracle above, for crm on m planted sets: the step is
    # the projection of the planted solution w onto the hull of x,
    # R_1 x, R_2 R_1 x, ..., R_m ... R_1 x. The sets pass through an
    # offset c of norm about sqrt(n), so, as for the moved pairs, the
    # gap has an absolute rounding floor that does not shrink with
    # |x - w|: relative to |x - w| it reaches 0.14 near convergence, so
    # no purely relative bound holds. Worst measured over these 18
    # instances (484 steps): 25.5 eps |x|, bounded at 100 eps |x| (3.9x margin).
    for seed in (1, 2, 3):
        prob, w = planted_sets(np.random.default_rng([n, m, seed]), n, m, n // 10, n // 5)
        trace = run(Method.CRM, prob, SolverConfig())
        assert trace.reason == "step_tol"
        for x, x_next in zip(trace.iterates, trace.iterates[1:]):
            points = [x]
            for s in prob.subspaces:
                points.append(reflect(s, points[-1]))
            bound = 1e-12 * np.linalg.norm(x - w) + 100 * EPS * np.linalg.norm(x)
            assert np.linalg.norm(x_next - project_onto_hull(points, w)) <= bound


def test_run_accepts_string_method():
    prob = Problem([line2(0.0), line2(0.7)], [1.1, 2.3])
    trace = run("map", prob, SolverConfig(max_iter=50))
    assert trace.method is Method.MAP


def test_run_rejects_three_sets_for_pair_methods():
    planes = [
        from_span([0, 0, 0], [[0, 1, 0], [0, 0, 1]]),
        from_span([0, 0, 0], [[1, 0, 0], [0, 0, 1]]),
        from_span([0, 0, 0], [[1, 0, 0], [0, 1, 0]]),
    ]
    prob = Problem(planes, [1, 1, 1])
    for method in (Method.CDRM, Method.DR):
        with pytest.raises(ValueError):
            run(method, prob)


def test_trace_shapes_consistent():
    prob = generate_two_subspace(12, 4, 5, 0.6, seed=5)
    for method in Method:
        trace = run(method, prob, SolverConfig(max_iter=40))
        k = len(trace.iterates)
        assert len(trace.step_norms) == k - 1
        assert len(trace.dists) == k
        assert len(trace.residuals) == k
        if method is Method.DR:
            assert trace.shadows is not None and len(trace.shadows) == k
        else:
            assert trace.shadows is None
        assert all(d >= 0 for d in trace.dists)
        assert all(r >= 0 for r in trace.residuals)


def test_run_reason_max_iter():
    prob = generate_two_subspace(10, 3, 3, 0.95, seed=11)
    trace = run(Method.MAP, prob, SolverConfig(max_iter=5))
    assert trace.reason == "max_iter"
    assert trace.num_steps == 5


def test_run_reason_sol_tol():
    prob = generate_two_subspace(10, 3, 3, 0.5, seed=12)
    trace = run(Method.CDRM, prob, SolverConfig(sol_tol=1e-6))
    assert trace.reason == "sol_tol"
    assert trace.dists[-1] <= 1e-6


def test_dr_dists_measured_on_shadows():
    prob = generate_two_subspace(8, 3, 2, 0.7, seed=13)
    trace = run(Method.DR, prob, SolverConfig(max_iter=30))
    for shadow, d in zip(trace.shadows, trace.dists):
        assert d == pytest.approx(np.linalg.norm(shadow - prob.solution), abs=1e-14)
    assert np.allclose(trace.final, trace.shadows[-1])


def test_cdrm_dists_monotone_r50():
    prob = generate_two_subspace(50, 20, 15, 0.8, seed=14)
    trace = run(Method.CDRM, prob, SolverConfig(max_iter=200))
    for a, b in zip(trace.dists, trace.dists[1:]):
        assert b <= a + 1e-10


def test_fejer_monotone_random_anchors():
    rng = np.random.default_rng(50)
    prob = generate_two_subspace(15, 6, 4, 0.7, seed=15)
    W = prob.intersection
    for method in (Method.CDRM, Method.CRM):
        trace = run(method, prob, SolverConfig(max_iter=60))
        for _ in range(5):
            w = W.base + W.onb.T @ rng.normal(size=W.dim)
            gaps = [np.linalg.norm(x - w) for x in trace.iterates]
            for a, b in zip(gaps, gaps[1:]):
                assert b <= a + 1e-10


def test_solution_correctness_on_step_tol():
    for seed, cf in ((21, 0.5), (22, 0.8)):
        prob = generate_two_subspace(25, 8, 9, cf, seed=seed)
        for method in (Method.CDRM, Method.CRM):
            trace = run(method, prob, SolverConfig(max_iter=3000, step_tol=1e-12))
            assert trace.reason == "step_tol"
            assert np.linalg.norm(trace.final - prob.solution) <= 1e-8


# rate estimation


def test_rate_geometric():
    trace = SolverTrace(method=Method.CDRM, dists=[0.5 ** k for k in range(20)])
    assert estimate_rate(trace) == pytest.approx(0.5, rel=1e-12)


def test_rate_one_step_insufficient():
    trace = SolverTrace(method=Method.CDRM, dists=[1.0, 0.0])
    with pytest.raises(InsufficientData):
        estimate_rate(trace)


def test_rate_zero_start_insufficient():
    trace = SolverTrace(method=Method.CDRM, dists=[0.0, 0.0, 0.0])
    with pytest.raises(InsufficientData):
        estimate_rate(trace)


def test_rate_ignores_machine_noise_tail():
    dists = [0.25 ** k for k in range(30)] + [1e-18, 3e-18, 2e-18]
    trace = SolverTrace(method=Method.CDRM, dists=dists)
    assert estimate_rate(trace) == pytest.approx(0.25, rel=1e-6)


def test_rate_cdrm_bounded_by_friedrichs():
    prob = generate_two_subspace(50, 10, 10, 0.8, seed=3)
    trace = run(
        Method.CDRM,
        prob,
        SolverConfig(max_iter=2000, initializer=Initializer.PROJECT_FIRST_SET),
    )
    assert estimate_rate(trace) <= 0.85


@pytest.mark.parametrize("method", list(Method))
def test_run_projects_each_iterate_onto_the_first_set_once(monkeypatch, method):
    # The measurement of x_k projects it onto U_1 (for dr that is the
    # shadow) and hands the projection to the next step, so no kernel
    # projects or reflects x_k through U_1 a second time.
    prob = generate_two_subspace(40, 10, 12, 0.8, seed=16)
    U = prob.subspaces[0]
    seen = []
    for name in ("_project", "_reflect", "_distance"):
        def counted(s, x, inner=getattr(solvers_mod, name)):
            if s is U:
                seen.append(x.copy())
            return inner(s, x)

        monkeypatch.setattr(solvers_mod, name, counted)
    trace = run(method, prob, SolverConfig(max_iter=12))
    assert trace.num_steps == 12
    for x in trace.iterates:
        assert sum(np.array_equal(x, y) for y in seen) == 1
    # dr's shadow is that projection, so it lies on U_1 and no U_1
    # kernel sees it again.
    for p in trace.shadows or []:
        assert not any(np.array_equal(p, y) for y in seen)


def test_run_takes_residuals_only_when_they_are_read(monkeypatch):
    # No stopping rule reads a distance to a set, so a run takes none;
    # trace.residuals takes them on its first read, one per measured
    # point (dr's shadow, else the iterate) and set, the first set left
    # out for dr, whose shadow lies on it, and keeps them.
    calls = []

    def counted(s, x, inner=solvers_mod._distance):
        calls.append(s)
        return inner(s, x)

    monkeypatch.setattr(solvers_mod, "_distance", counted)
    pair = generate_two_subspace(40, 10, 12, 0.8, seed=16)
    three, _ = planted_sets(np.random.default_rng(3), 50, 3, 5, 10)
    runs = [(m, pair) for m in Method] + [(m, three) for m in (Method.CRM, Method.MAP)]
    for method, prob in runs:
        trace = run(method, prob, SolverConfig(max_iter=12))
        assert trace.num_steps >= 4 and not calls
        residuals = trace.residuals
        points = trace.shadows if method is Method.DR else trace.iterates
        sets = prob.subspaces[1:] if method is Method.DR else prob.subspaces
        assert len(calls) == len(points) * len(sets)
        assert all(s is sets[k % len(sets)] for k, s in enumerate(calls))
        calls.clear()
        assert trace.residuals is residuals and not calls


# Far out, obs - base can overflow in a projection onto a later set
# though the point's dist is finite, along the axis set AXIS_FAR and the
# diagonal set DIAGONAL_FAR. That distance is then taken at working
# scale, so every residual is finite and run does not test them. Each
# entry is the reason and step count of cdrm, dr and map, each from z
# and from P_U z.
AXIS_FAR = (from_span([0, 0], [[1, 1]]), from_span([1.5e308, 0], [[1, 0]]))
DIAGONAL_FAR = (from_span([0, 0], [[1, 0]]), from_span([1e307, 1e307], [[1, 1]]))
# The first set far out: z - U.base overflows in P_U z. P_U z, as an
# initializer and as the start's projection, is taken at working scale
# (affine._silently), as every one-time projection is, so each method
# reaches the solution (0, 0) exactly in its first step, from z and from
# P_U z, and stops on its second.
FIRST_FAR = (from_span([1.5e308, 0], [[1, 0]]), from_span([0, 0], [[0, 1]]))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "sets, z, expected",
    [
        (AXIS_FAR, (-1e308, 1e308), ["step_tol 2", "step_tol 21", "step_tol 127",
                                     "step_tol 21", "step_tol 2", "step_tol 2"]),
        (AXIS_FAR, (-1.5e308, 0), ["step_tol 22", "degenerate 0", "step_tol 107",
                                   "non_finite 0", "non_finite 0", "non_finite 0"]),
        (AXIS_FAR, (-1e308, -1e308), ["degenerate 0", "degenerate 0", "non_finite 0",
                                      "non_finite 0", "non_finite 0", "non_finite 0"]),
        (AXIS_FAR, (0, 1e308), ["step_tol 24", "step_tol 23", "step_tol 126",
                                "step_tol 125", "step_tol 54", "step_tol 54"]),
        (DIAGONAL_FAR, (-1.7e308, 0), ["degenerate 0", "degenerate 0", "non_finite 0",
                                       "non_finite 0", "non_finite 0", "non_finite 0"]),
        (DIAGONAL_FAR, (0, -1.7e308), ["degenerate 2", "degenerate 1", "max_iter 1000",
                                       "max_iter 1000", "step_tol 2", "step_tol 2"]),
        (FIRST_FAR, (-5e307, 3), ["step_tol 2"] * 6),
    ],
    ids=["axis-0", "axis-1", "axis-2", "axis-3", "diagonal-0", "diagonal-1", "first-0"],
)
def test_run_far_out_keeps_its_reasons_and_finite_residuals(sets, z, expected):
    prob = Problem(sets, z)
    got = []
    for method in (Method.CDRM, Method.DR, Method.MAP):
        for init in (Initializer.RAW_Z, Initializer.PROJECT_FIRST_SET):
            trace = run(method, prob, SolverConfig(initializer=init))
            assert_finite_trace(trace)
            got.append(f"{trace.reason} {trace.num_steps}")
    assert got == expected


@pytest.mark.filterwarnings("error")
def test_public_steps_take_the_first_projection_at_working_scale():
    # From (-5e307, 3), x - U.base overflows in P_U x, which the public
    # steps take by affine._silently, as run's start does: each step
    # lands on the solution (0, 0) exactly, with no numpy warning.
    U, V = FIRST_FAR
    x = (-5e307, 3)
    for x_next in (cdrm_step(U, V, x), crm_step(FIRST_FAR, x), dr_step(U, V, x),
                   map_step(FIRST_FAR, x)):
        assert np.array_equal(x_next, [0.0, 0.0])


@pytest.mark.filterwarnings("error")
def test_public_step_that_overflows_raises_degenerate_step():
    # P_U x = (1e308, 0) is in range, but dr's x - P_U x is not: a public
    # step has no trace to name the overflow in, so it raises.
    U = from_span([1e308, 0], [[0, 1]])
    V = from_span([0, 0], [[1, 0]])
    with pytest.raises(DegenerateStep):
        dr_step(U, V, [-1e308, 0])


def far_line_problem():
    """Two planes of R^3 that meet in the line b + span(u), |b| = MAX/2,
    with z = (0.9 MAX, 0.5 MAX, 0): the solution (1.19e308, 1.68e308, 0)
    and its distance 8.9e307 to z are in float range, but z - b is not."""
    big = np.finfo(float).max
    theta = 0.5
    u = [np.cos(theta), np.sin(theta), 0.0]
    b = 0.5 * big * np.array([-np.sin(theta), np.cos(theta), 0.0])
    sets = [from_span(b, [u, [0, 0, 1]]), from_span(b, [u, [0, 1, 1]])]
    return Problem(sets, [0.9 * big, 0.5 * big, 0.0])


@pytest.mark.filterwarnings("error")
def test_problem_far_out_has_its_solution_and_every_run_a_reason():
    # The reference solution and the projecting starts are one-time
    # projections, taken at working scale where z - b overflows: the
    # solution is public project's, bit for bit, and every run starts
    # and ends with a named reason, with no numpy warning.
    prob = far_line_problem()
    assert np.isfinite(prob.solution).all()
    assert np.array_equal(prob.solution, project(prob.intersection, prob.z))
    assert distance_to(prob.intersection, prob.z) == pytest.approx(8.857e307, rel=1e-3)
    for method in Method:
        for init in Initializer:
            trace = run(method, prob, SolverConfig(initializer=init))
            assert trace.reason in ("sol_tol", "step_tol", "degenerate", "non_finite",
                                    "max_iter")
            assert_finite_trace(trace)


@pytest.mark.filterwarnings("error")
def test_residual_far_out_is_not_a_nan():
    # dr's first shadow, (-7.5e307, -7.5e307), lies 7.5e307 from AXIS_FAR's
    # second set, whose base it cannot be subtracted from in float range:
    # the residual is that distance, not a NaN that max passes over.
    prob = Problem(AXIS_FAR, (-1.5e308, 0))
    trace = run(Method.DR, prob, SolverConfig(initializer=Initializer.RAW_Z))
    assert trace.residuals[0] == pytest.approx(7.5e307, rel=1e-12)


@pytest.mark.parametrize("shift", [0.0, 1e4])
def test_dr_run_norms_no_zero_vector(monkeypatch, shift):
    # dr measures its shadow, which lies on U_1: its distance to U_1 is
    # taken as 0, not as the norm of the zero vector shadow - shadow.
    # sol_tol ends the run before a dist or step norm is exactly 0.
    prob = generate_two_subspace(60, 15, 15, 0.8, seed=5)
    if shift:
        prob = shifted(prob, shift)
    seen = []

    def recorded(v, inner=solvers_mod._norm):
        seen.append(v.copy())
        return inner(v)

    monkeypatch.setattr(solvers_mod, "_norm", recorded)
    trace = run(Method.DR, prob, SolverConfig(sol_tol=1e-8))
    assert trace.reason == "sol_tol"
    assert all(v.any() for v in seen)
    # One dist per iterate and one step norm per step.
    assert len(seen) == len(trace.dists) + trace.num_steps
    assert trace.residuals == [distance_to(prob.subspaces[1], p) for p in trace.shadows]


@pytest.mark.parametrize("cf", [0.5, 0.8, 0.95])
def test_rates_match_theory(cf):
    # map converges at cf^2 (Kayalar and Weinert 1988), dr at cf
    # (Bauschke et al. 2014), and cdrm faster than map (Arefidamghani
    # et al. 2021). Over seeds 1-20 the measured spread is: map/cf^2 in
    # [0.959, 1.000], dr/cf in [0.966, 1.070], cdrm/map at most 0.91
    # (cf = 0.95). The map and dr margins are about twice the largest
    # deviation; cdrm must stay 5% below map.
    for seed in range(1, 11):
        prob = generate_two_subspace(50, 10, 10, cf, seed=seed)
        rate = {
            m: estimate_rate(run(m, prob, SolverConfig(max_iter=2000)))
            for m in (Method.MAP, Method.DR, Method.CDRM)
        }
        assert rate[Method.MAP] == pytest.approx(cf**2, rel=0.08)
        assert rate[Method.DR] == pytest.approx(cf, rel=0.12)
        assert rate[Method.CDRM] <= 0.95 * rate[Method.MAP]


@pytest.mark.parametrize("n", [20, 50])
@pytest.mark.parametrize("cf", [0.3, 0.5, 0.7, 0.8, 0.9, 0.95, 0.99])
def test_rates_are_bounded_by_the_planted_angle(n, cf):
    # A rate oracle that reads only the generator's planted Friedrichs
    # cosine cf, not the kernels. map's rate on two subspaces is cf^2
    # (Kayalar and Weinert 1988). cf^2 / (2 - cf^2) for cdrm is a fit to
    # measurements, not a theorem. That cdrm beats map is the claim of
    # Arefidamghani, Behling, Bello Cruz, Iusem and Santos, "The
    # circumcentered-reflection method achieves better rates than
    # alternating projections", Comput. Optim. Appl. 2021. Over these 42
    # instances and the same ones at n = 200, default runs measured map
    # at most 1.0e-15 above cf^2, cdrm at least 3.2e-5 below its bound
    # and at least 0.019 below map.
    for seed in (1, 2, 3):
        prob = generate_two_subspace(n, n // 4, n // 4, cf, seed)
        rate_map = estimate_rate(run(Method.MAP, prob))
        rate_cdrm = estimate_rate(run(Method.CDRM, prob))
        assert rate_map <= cf**2 + 1e-9
        assert rate_cdrm <= cf**2 / (2.0 - cf**2) + 1e-9
        assert rate_cdrm < rate_map
