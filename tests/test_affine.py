"""Tests for affine subspaces: projection, reflection, intersection, angles."""

import importlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circumlib import (
    AffineSubspace,
    DimensionMismatch,
    NoIntersection,
    Problem,
    affine_hull,
    distance_to,
    friedrichs_cos,
    from_span,
    intersect,
    project,
    reflect,
)

affine_mod = importlib.import_module("circumlib.affine")


def random_subspace(rng, n, dim):
    """Random affine subspace of the given dimension in R^n."""
    base = rng.normal(size=n)
    if dim == 0:
        return AffineSubspace(base=base)
    return from_span(base, rng.normal(size=(dim, n)))


def random_orthogonal(rng, n):
    """Seeded random n x n orthogonal matrix."""
    q, r = np.linalg.qr(rng.normal(size=(n, n)))
    return q * np.sign(np.diag(r))


def in_direction_space(V, v, tol=1e-9):
    """True when v lies in the direction space of V."""
    r = v - V.onb.T @ (V.onb @ v)
    return np.linalg.norm(r) <= tol * (1 + np.linalg.norm(v))


# construction


def test_from_span_line():
    V = from_span([0, 0], [[2, 0]])
    assert V.dim == 1
    assert np.allclose(np.abs(V.onb[0]), [1, 0])


@pytest.mark.parametrize("lam", [1e200, 1e-200])
def test_from_span_beyond_square_range(lam):
    V = from_span([0, 0], [[lam, 0]])
    assert V.dim == 1 and np.array_equal(V.onb, [[1, 0]])


def test_from_span_empty_is_singleton():
    V = from_span([1, 1], [])
    assert V.dim == 0
    assert np.allclose(V.base, [1, 1])


def test_from_span_dependent_directions_collapse():
    V = from_span([0, 0, 0], [[1, 0, 0], [1, 1, 0]])
    assert V.dim == 2
    # spans the xy-plane: e1 and e2 are inside, e3 is not
    assert in_direction_space(V, np.array([1.0, 0, 0]))
    assert in_direction_space(V, np.array([0, 1.0, 0]))
    assert not in_direction_space(V, np.array([0, 0, 1.0]))


def test_affine_hull_full_plane():
    V = affine_hull([[0, 0], [4, 0], [0, 4], [4, 4]])
    assert V.dim == 2


def test_affine_hull_singleton():
    V = affine_hull([[1, 2]])
    assert V.dim == 0
    assert np.allclose(V.base, [1, 2])


def test_affine_hull_collinear():
    V = affine_hull([[0, 0], [1, 0], [2, 0]])
    assert V.dim == 1
    assert np.allclose(np.abs(V.onb[0]), [1, 0])


@pytest.mark.filterwarnings("error")
def test_affine_hull_of_points_whose_difference_overflows():
    # The difference, -2e308, is taken at the points' working scale.
    V = affine_hull([[1e308, 0], [-1e308, 0]])
    assert V.dim == 1
    assert np.array_equal(np.abs(V.onb), [[1.0, 0.0]])
    assert V.base[1] == 0.0 and distance_to(V, [0.0, 5.0]) == 5.0


def test_subspace_rejects_skewed_basis():
    with pytest.raises(ValueError):
        AffineSubspace(base=np.zeros(2), onb=np.array([[1.0, 1.0]]))


def test_subspace_rejects_shape_mismatch():
    with pytest.raises(DimensionMismatch):
        AffineSubspace(base=np.zeros(3), onb=np.array([[1.0, 0.0]]))


@pytest.mark.parametrize("entry", [np.nan, np.inf])
def test_subspace_rejects_non_finite_basis(entry):
    with pytest.raises(ValueError, match="non-finite"):
        AffineSubspace(base=np.zeros(2), onb=[[entry, 0.0]])


# projection and reflection


def test_project_onto_x_axis():
    V = from_span([0, 0], [[1, 0]])
    assert np.allclose(project(V, [3, 5]), [3, 0])


def test_project_onto_singleton():
    V = AffineSubspace(base=np.array([2.0, -1.0]))
    assert np.allclose(project(V, [10, 10]), [2, -1])


def test_project_onto_offset_line():
    V = from_span([0, 1], [[1, 0]])
    assert np.allclose(project(V, [2, 7]), [2, 1])


def test_project_dimension_mismatch():
    V = from_span([0, 0], [[1, 0]])
    with pytest.raises(ValueError):
        project(V, [1, 2, 3])


def test_maps_validate_their_point():
    V = from_span([0, 0], [[1, 0]])
    for fn in (project, reflect, distance_to):
        with pytest.raises(DimensionMismatch, match="point has length 3"):
            fn(V, [1, 2, 3])
        with pytest.raises(ValueError, match="non-finite"):
            fn(V, [1.0, np.inf])
        with pytest.raises(ValueError, match="1-D"):
            fn(V, [[1.0, 2.0]])


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_distance_to_does_not_overflow():
    V = from_span([0, 0], [[1, 0]])
    assert distance_to(V, [5.0, 2.0]) == 2.0
    # the squared distance, 9e400, is not a float; the distance is
    assert distance_to(V, [1e200, 3e200]) == 3e200
    assert distance_to(V, [1e308, -1e308]) == 1e308


def test_distance_to_does_not_underflow():
    # the squared distance, 9e-340, is below the smallest float
    V = from_span([0, 0], [[1, 0]])
    assert distance_to(V, [0.0, 3e-170]) == 3e-170
    assert distance_to(V, [7.0, -3e-170]) == 3e-170


def test_reflect_across_x_axis():
    V = from_span([0, 0], [[1, 0]])
    assert np.allclose(reflect(V, [3, 5]), [3, -5])


def test_reflect_fixes_members():
    rng = np.random.default_rng(31)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        V = random_subspace(rng, n, int(rng.integers(1, n)))
        x = V.base + V.onb.T @ rng.normal(size=V.dim)
        assert np.allclose(reflect(V, x), x, atol=1e-10)


def test_reflect_across_singleton():
    v = np.array([1.0, 2.0, 3.0])
    V = AffineSubspace(base=v)
    x = np.array([0.5, 0.5, 0.5])
    assert np.allclose(reflect(V, x), 2 * v - x)


def test_projection_idempotent():
    rng = np.random.default_rng(32)
    for _ in range(50):
        n = int(rng.integers(1, 12))
        V = random_subspace(rng, n, int(rng.integers(0, n + 1)))
        x = rng.normal(size=n) * 10
        p = project(V, x)
        assert np.linalg.norm(project(V, p) - p) <= 1e-10


def test_projection_residual_orthogonal():
    rng = np.random.default_rng(33)
    for _ in range(50):
        n = int(rng.integers(2, 12))
        V = random_subspace(rng, n, int(rng.integers(1, n + 1)))
        x = rng.normal(size=n)
        r = x - project(V, x)
        assert np.abs(V.onb @ r).max() <= 1e-10


def test_projection_optimality():
    rng = np.random.default_rng(34)
    V = random_subspace(rng, 7, 3)
    x = rng.normal(size=7) * 5
    best = np.linalg.norm(x - project(V, x))
    for _ in range(100):
        y = V.base + V.onb.T @ rng.normal(size=3)
        assert best <= np.linalg.norm(x - y) + 1e-10


def test_projection_ignores_normal_components():
    rng = np.random.default_rng(35)
    for _ in range(30):
        n = int(rng.integers(2, 10))
        V = random_subspace(rng, n, int(rng.integers(1, n)))
        x = rng.normal(size=n)
        w = rng.normal(size=n)
        e = w - V.onb.T @ (V.onb @ w)
        assert np.allclose(project(V, x + e), project(V, x), atol=1e-10)


def test_reflection_involution():
    rng = np.random.default_rng(36)
    for _ in range(50):
        n = int(rng.integers(1, 12))
        V = random_subspace(rng, n, int(rng.integers(0, n + 1)))
        x = rng.normal(size=n) * 3
        assert np.linalg.norm(reflect(V, reflect(V, x)) - x) <= 1e-10


# intersection


def test_intersect_axes():
    U = from_span([0, 0], [[1, 0]])
    V = from_span([0, 0], [[0, 1]])
    W = intersect(U, V)
    assert W.dim == 0
    assert np.allclose(W.base, [0, 0], atol=1e-9)


def test_intersect_planes_gives_axis():
    xy = from_span([0, 0, 0], [[1, 0, 0], [0, 1, 0]])
    xz = from_span([0, 0, 0], [[1, 0, 0], [0, 0, 1]])
    W = intersect(xy, xz)
    assert W.dim == 1
    assert np.allclose(np.abs(W.onb[0]), [1, 0, 0], atol=1e-12)
    assert distance_to(xy, W.base) <= 1e-9
    assert distance_to(xz, W.base) <= 1e-9


def test_intersect_parallel_lines():
    # Membership is relative to the magnitude of the points, with no
    # absolute floor, so lines 1e-9 apart near the origin are as
    # parallel as lines 1 apart.
    U = from_span([0, 0], [[1, 0]])
    for gap in (1.0, 1e-9):
        V = from_span([0, gap], [[1, 0]])
        with pytest.raises(NoIntersection):
            intersect(U, V)


def test_intersect_through_a_shared_base_skips_least_squares(monkeypatch):
    # Two subspaces through one base point meet there: intersect takes
    # that point with no least squares, and returns what the least
    # squares route, written out here, gives bit for bit.
    rng = np.random.default_rng(21)
    n, du, dv = 40, 12, 15
    base = 1e3 * rng.normal(size=n)
    shared = rng.normal(size=(3, n))
    U = from_span(base, np.vstack([shared, rng.normal(size=(du - 3, n))]))
    V = from_span(base.copy(), np.vstack([rng.normal(size=(dv - 3, n)), shared]))
    W, _ = affine_mod._principal(U, V)
    coef = np.linalg.lstsq(np.vstack([U.onb, -V.onb]).T, V.base - U.base, rcond=None)[0]
    p = U.base + U.onb.T @ coef[:du]
    p = p - W.T @ (W @ p)

    def no_lstsq(*args, **kwargs):
        raise AssertionError("intersect ran a least squares")

    monkeypatch.setattr(np.linalg, "lstsq", no_lstsq)
    got = intersect(U, V)
    assert got.dim == 3
    assert np.array_equal(got.base, p) and np.array_equal(got.onb, W)


def test_intersect_ambient_mismatch():
    U = from_span([0, 0], [[1, 0]])
    V = from_span([0, 0, 0], [[1, 0, 0]])
    for call in (intersect, friedrichs_cos):
        for a, b in ((U, V), (V, U)):
            with pytest.raises(DimensionMismatch, match="ambient dimensions differ"):
                call(a, b)


def test_intersect_planted_common_point():
    rng = np.random.default_rng(37)
    for _ in range(40):
        n = int(rng.integers(3, 10))
        du = int(rng.integers(1, n))
        dv = int(rng.integers(1, n))
        c = rng.normal(size=n) * 2
        span_u = rng.normal(size=(du, n))
        span_v = rng.normal(size=(dv, n))
        U = from_span(c + span_u.T @ rng.normal(size=du), span_u)
        V = from_span(c + span_v.T @ rng.normal(size=dv), span_v)
        W = intersect(U, V)
        scale = 1 + np.linalg.norm(c)
        assert distance_to(U, W.base) <= 1e-8 * scale
        assert distance_to(V, W.base) <= 1e-8 * scale
        assert distance_to(W, c) <= 1e-7 * scale
        expected_dim = U.dim + V.dim - np.linalg.matrix_rank(
            np.vstack([U.onb, V.onb])
        )
        assert W.dim == expected_dim
        for row in W.onb:
            assert in_direction_space(U, row)
            assert in_direction_space(V, row)


# Friedrichs angle


def test_friedrichs_plane_angle():
    U = from_span([0, 0], [[1, 0]])
    theta = np.pi / 3
    V = from_span([0, 0], [[np.cos(theta), np.sin(theta)]])
    assert friedrichs_cos(U, V) == pytest.approx(0.5, abs=1e-12)


def test_friedrichs_orthogonal():
    U = from_span([0, 0, 0], [[1, 0, 0]])
    V = from_span([0, 0, 0], [[0, 1, 0], [0, 0, 1]])
    assert friedrichs_cos(U, V) == pytest.approx(0.0, abs=1e-12)


def test_friedrichs_equal_subspaces():
    rng = np.random.default_rng(38)
    for _ in range(10):
        n = int(rng.integers(2, 8))
        span = rng.normal(size=(int(rng.integers(1, n + 1)), n))
        U = from_span(rng.normal(size=n), span)
        V = from_span(rng.normal(size=n), span)
        assert friedrichs_cos(U, V) == pytest.approx(0.0, abs=1e-9)


def test_friedrichs_ignores_base_points():
    U0 = from_span([0, 0], [[1, 0]])
    V0 = from_span([0, 0], [[1, 1]])
    U1 = from_span([5, -3], [[1, 0]])
    V1 = from_span([2, 9], [[1, 1]])
    assert friedrichs_cos(U1, V1) == pytest.approx(
        friedrichs_cos(U0, V0), abs=1e-12
    )


def test_friedrichs_symmetry_and_basis_invariance():
    rng = np.random.default_rng(39)
    for _ in range(25):
        n = int(rng.integers(3, 10))
        du = int(rng.integers(1, n))
        dv = int(rng.integers(1, n))
        span_u = rng.normal(size=(du, n))
        span_v = rng.normal(size=(dv, n))
        U = from_span(np.zeros(n), span_u)
        V = from_span(np.zeros(n), span_v)
        c = friedrichs_cos(U, V)
        assert 0.0 <= c <= 1.0
        assert friedrichs_cos(V, U) == pytest.approx(c, abs=1e-10)
        # re-randomized spanning sets of the same spaces
        mix_u = rng.normal(size=(du, du)) @ span_u + 0.0
        mix_v = rng.normal(size=(dv, dv)) @ span_v
        while np.linalg.matrix_rank(mix_u) < du:
            mix_u = rng.normal(size=(du, du)) @ span_u
        U2 = from_span(np.zeros(n), mix_u)
        V2 = from_span(np.zeros(n), mix_v)
        if U2.dim == du and V2.dim == dv:
            assert friedrichs_cos(U2, V2) == pytest.approx(c, abs=1e-10)


@pytest.mark.parametrize(
    "theta, dim, cf",
    [(1e-9, 1, 0.0), (1e-7, 0, np.cos(1e-7))],
)
def test_tiny_angle_shared_by_sine(theta, dim, cf):
    # Shared means sine <= 1e-8, the membership tolerance: lines 1e-9 rad
    # apart share their direction, lines 1e-7 rad apart keep their angle.
    U = from_span([0, 0], [[1, 0]])
    V = from_span([0, 0], [[np.cos(theta), np.sin(theta)]])
    assert intersect(U, V).dim == dim
    assert friedrichs_cos(U, V) == pytest.approx(cf, abs=1e-15)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_ill_conditioned_spans_keep_shared_directions(seed):
    # Two subspaces of R^400 sharing 4 directions, 30 more each, written
    # in spanning sets of condition 10^5.2.
    rng = np.random.default_rng(seed)
    n, shared, extra = 400, 4, 30
    k = shared + extra
    Q = random_orthogonal(rng, n)
    S = Q[:shared]
    c = rng.normal(size=n)

    def subspace(own):
        rows = np.vstack([S, own])
        span = (
            random_orthogonal(rng, k)
            @ np.diag(np.logspace(0, 5.2, k))
            @ random_orthogonal(rng, k)
            @ rows
        )
        return from_span(c + rows.T @ rng.normal(size=k), span)

    U = subspace(Q[shared:k])
    V = subspace(Q[k : k + extra])
    assert intersect(U, V).dim == shared
    z = rng.normal(size=n) * 3
    expected = c + S.T @ (S @ (z - c))
    solution = Problem([U, V], z).solution
    assert np.linalg.norm(solution - expected) <= 1e-8 * np.linalg.norm(expected)


def test_planted_principal_angles():
    # du = 6, dv = 8: two shared directions, cosines 0.71 and 0.70 on
    # either side of 45 degrees, cosine 0.3, and directions of each side
    # orthogonal to the other, all rotated together.
    rng = np.random.default_rng(40)
    n = 14
    e = random_orthogonal(rng, n)
    u_rows = [e[0], e[1], e[2], e[3], e[4], e[5]]
    v_rows = [e[0], e[1]]
    for i, cos in enumerate([0.71, 0.70, 0.3]):
        v_rows.append(cos * e[2 + i] + np.sqrt(1 - cos**2) * e[6 + i])
    v_rows += [e[9], e[10], e[11]]
    c = rng.normal(size=n)
    U = from_span(c, rng.normal(size=(6, 6)) @ np.array(u_rows))
    V = from_span(c, rng.normal(size=(8, 8)) @ np.array(v_rows))
    assert (U.dim, V.dim) == (6, 8)
    assert intersect(U, V).dim == 2
    assert intersect(V, U).dim == 2
    assert friedrichs_cos(U, V) == pytest.approx(0.71, abs=1e-12)
    assert friedrichs_cos(V, U) == pytest.approx(0.71, abs=1e-12)


# properties


@st.composite
def subspace_pairs(draw):
    """Two affine subspaces through a common point that share `shared`
    directions and have generic random directions beyond them."""
    n = draw(st.integers(2, 10))
    shared = draw(st.integers(0, n - 1))
    du = draw(st.integers(0, n - shared))
    dv = draw(st.integers(0, n - shared - du))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    S = rng.normal(size=(shared, n))
    c = rng.normal(size=n) * draw(st.sampled_from([1.0, 10.0, 1e3]))
    U_rows = np.vstack([S, rng.normal(size=(du, n))])
    V_rows = np.vstack([S, rng.normal(size=(dv, n))])
    return rng, c, U_rows, V_rows, shared


def _pair(c, U_rows, V_rows, rng):
    def make(rows):
        return from_span(c + rows.T @ rng.normal(size=rows.shape[0]), rows)

    return make(U_rows), make(V_rows)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(subspace_pairs())
def test_principal_angles_invariant_under_motion_and_swap(pair):
    rng, c, U_rows, V_rows, shared = pair
    n = c.shape[0]
    U, V = _pair(c, U_rows, V_rows, rng)
    cf, dim = friedrichs_cos(U, V), intersect(U, V).dim
    assert dim == shared
    assert friedrichs_cos(V, U) == pytest.approx(cf, abs=1e-10)
    assert intersect(V, U).dim == dim
    R = random_orthogonal(rng, n)
    t = rng.normal(size=n) * 10
    U2, V2 = _pair(R @ c + t, U_rows @ R.T, V_rows @ R.T, rng)
    assert friedrichs_cos(U2, V2) == pytest.approx(cf, abs=1e-10)
    assert intersect(U2, V2).dim == dim


@settings(derandomize=True, max_examples=60, deadline=None)
@given(subspace_pairs())
def test_intersection_base_on_both_and_nearest_origin(pair):
    rng, c, U_rows, V_rows, _ = pair
    U, V = _pair(c, U_rows, V_rows, rng)
    W = intersect(U, V)
    scale = 1 + max(np.linalg.norm(x) for x in (W.base, U.base, V.base))
    assert distance_to(U, W.base) <= 1e-8 * scale
    assert distance_to(V, W.base) <= 1e-8 * scale
    # the point of the intersection nearest the origin
    assert np.abs(W.onb @ W.base).max(initial=0.0) <= 1e-8 * scale
