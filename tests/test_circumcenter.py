import importlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circumlib.affine import affine_hull, distance_to
from circumlib.circumcenter import (
    CircumOutcome,
    NotAffinelyIndependent,
    NotThreeDimensional,
    circumcenter,
    circumcenter_cross3,
    circumcenter_gram,
    circumradius,
    circumradius_cross3,
    cramer_coefficients,
    cross3,
    dedup,
    verify_equidistant,
)
from circumlib.linalg import DEFAULT_RANK_TOL, DimensionMismatch, as_points, solve_spd

# The package re-exports the circumcenter function under the module's
# name, so the module itself is fetched by its dotted path.
cc_mod = importlib.import_module("circumlib.circumcenter")


def random_independent(rng, m, n):
    """m affinely independent points in R^n (m <= n+1), rejection-checked."""
    while True:
        pts = rng.normal(size=(m, n))
        if m == 1 or np.linalg.matrix_rank(pts[1:] - pts[0]) == m - 1:
            return pts


def max_distance(pts):
    """Largest distance between two points, from the full distance matrix."""
    D = pts[:, None] - pts
    return np.sqrt(np.einsum("ijk,ijk->ij", D, D)).max()


def conditioned_independent(rng, m, n, min_rel_sv=0.05):
    """Affinely independent points whose difference matrix is not borderline.

    Absolute coefficient tolerances are meaningless on nearly collinear
    tuples (the coefficients blow up), so tests asserting them sample
    away from the degenerate boundary.
    """
    while True:
        pts = rng.normal(size=(m, n))
        s = np.linalg.svd(pts[1:] - pts[0], compute_uv=False)
        if s[-1] >= min_rel_sv * s[0]:
            return pts


# --- input edges ----------------------------------------------------------

# (id, call, the error it raises or None, its message); a call with no
# error returns an empty vector.
EDGE_INPUTS = [
    ("hull-empty", lambda: affine_hull([]), ValueError, "empty point set"),
    ("gram-empty", lambda: circumcenter_gram([]), ValueError, "empty tuple"),
    ("verify-empty", lambda: verify_equidistant([0, 0], [], 1e-8), ValueError, "no points"),
    (
        "verify-lengths",
        lambda: verify_equidistant([0, 0, 0], [[1, 0], [0, 1]], 1e-8),
        DimensionMismatch,
        "point has length 3, set has length 2",
    ),
    ("circumcenter-empty", lambda: circumcenter([]), ValueError, "empty point set"),
    ("cramer-one", lambda: cramer_coefficients([[0, 0]]), ValueError, "at least two"),
    (
        "cramer-base",
        lambda: cramer_coefficients([[0, 0], [1, 0]], base_index=2),
        ValueError,
        "base_index 2 out of range for 2 points",
    ),
    ("points-flat", lambda: as_points([1.0, 2.0]), ValueError, "1-D vectors"),
    ("solve-size-0", lambda: solve_spd(np.zeros((0, 0)), []), None, None),
]


@pytest.mark.parametrize(
    "call, error, match", [c[1:] for c in EDGE_INPUTS], ids=[c[0] for c in EDGE_INPUTS]
)
def test_edge_inputs(call, error, match):
    if error is None:
        assert np.array_equal(call(), np.zeros(0))
    else:
        with pytest.raises(error, match=match):
            call()


# --- dedup ----------------------------------------------------------------


def test_dedup_examples():
    got = dedup([[1, 0], [1, 0], [0, 0]])
    assert np.array_equal(got, [[1, 0], [0, 0]])
    assert np.array_equal(dedup([[3, 4]]), [[3, 4]])
    got = dedup([[-1, 0], [1, 0], [1, 0]])
    assert np.array_equal(got, [[-1, 0], [1, 0]])
    tiny = 1e-12 * np.array([[0, 0], [1, 0], [1, 0]])
    assert np.array_equal(dedup(tiny), tiny[:2])


def test_dedup_respects_tol_and_order():
    got = dedup([[0, 0], [0.4, 0], [2, 0]], tol=0.5)
    assert np.array_equal(got, [[0, 0], [2, 0]])


@pytest.mark.parametrize("scale", [1, 7, 40, 1 << 20])
def test_pairwise_distances_blocked_equal_one_shot(scale):
    # dedup measures one row at a time; at every scale its distances
    # must be those of the full (m, m) distance matrix, bit for bit, so a
    # tolerance of exactly the closest distinct pair's distance drops
    # the later point of that pair and the next float below keeps it.
    rng = np.random.default_rng(21)
    P = scale * rng.normal(size=(9, 5))
    P[4] = P[1]
    D = P[:, None] - P
    one_shot = np.sqrt(np.einsum("ijk,ijk->ij", D, D))
    near = np.unique(one_shot)[1]
    later = np.argwhere(one_shot == near).max()
    assert np.array_equal(dedup(P), np.delete(P, 4, axis=0))
    assert np.array_equal(dedup(P, tol=near), np.delete(P, [4, later], axis=0))
    below = np.nextafter(near, 0.0)
    assert np.array_equal(dedup(P, tol=below), np.delete(P, 4, axis=0))


# --- circumcenter_gram ----------------------------------------------------


def test_gram_path_examples():
    assert np.allclose(circumcenter_gram([[0, 0], [4, 0], [0, 4]]), [2, 2])
    assert np.allclose(circumcenter_gram([[0, 0], [2, 0]]), [1, 0])
    assert np.array_equal(circumcenter_gram([[5.0, -1.0]]), [5.0, -1.0])


def test_gram_path_rejects_dependent():
    with pytest.raises(NotAffinelyIndependent):
        circumcenter_gram([[0, 0], [1, 0], [2, 0]])
    with pytest.raises(NotAffinelyIndependent):
        circumcenter_gram([[1, 1], [1, 1]])


def test_gram_path_equidistant_and_in_hull():
    rng = np.random.default_rng(10)
    for _ in range(50):
        n = int(rng.integers(1, 9))
        m = int(rng.integers(2, n + 2))
        pts = random_independent(rng, m, n)
        c = circumcenter_gram(pts)
        dists = [np.linalg.norm(c - p) for p in pts]
        assert max(dists) - min(dists) <= 1e-9 * (1 + max(dists))
        assert distance_to(affine_hull(pts), c) <= 1e-9 * (1 + np.linalg.norm(c))


# --- verify_equidistant ---------------------------------------------------


def test_verify_equidistant_examples():
    assert verify_equidistant([2, 2], [[0, 0], [4, 0], [0, 4], [4, 4]], 1e-8)
    assert verify_equidistant([0, 0], [[1, 0], [0, 1]], 1e-8)
    assert not verify_equidistant([1, 0], [[0, 0], [4, 0], [0, 4]], 1e-8)


def test_verify_equidistant_is_relative():
    pts = [[1e9, 0], [0, 1e9]]
    assert verify_equidistant([0.5e9, 0.5e9 + 1], pts, 1e-8)
    assert not verify_equidistant([0.5e9, 0.5e9 + 1e4], pts, 1e-8)
    pts = [[1e-12, 0], [0, 1e-12]]
    assert verify_equidistant([0.5e-12, 0.5e-12], pts, 1e-8)
    assert not verify_equidistant([0.5e-12, 0.6e-12], pts, 1e-8)


# --- circumcenter (total) ---------------------------------------------------


def test_square_example():
    out = circumcenter([[0, 0], [4, 0], [0, 4], [4, 4]])
    assert not out.is_empty
    assert np.allclose(out.center, [2, 2], atol=1e-12)
    assert out.radius == pytest.approx(2 * math.sqrt(2), rel=1e-12)


def test_collinear_distinct_is_empty():
    out = circumcenter([[0, 0], [1, 0], [2, 0]])
    assert out.is_empty
    assert out.radius == math.inf


def test_duplicate_pair_collapses_to_midpoint():
    out = circumcenter([[-1, 0], [1, 0], [1, 0]])
    assert np.allclose(out.center, [0, 0], atol=1e-12)
    assert out.radius == pytest.approx(1.0)


def test_singleton_and_pair():
    out = circumcenter([[7.0, -3.0]])
    assert np.array_equal(out.center, [7.0, -3.0])
    assert out.radius == 0.0
    out = circumcenter([[0, 0, 0], [2, 4, 6]])
    assert np.allclose(out.center, [1, 2, 3])


def test_discontinuity_sequence_members():
    for k in (1, 10, 100):
        pts = [[-2, 0], [2, 0], [2 - 1 / k, 1 / (4 * k)]]
        out = circumcenter(pts)
        assert not out.is_empty
        expected = [0.0, -8 + 2 / k + 1 / (8 * k)]
        assert np.abs(out.center - expected).max() <= 1e-8
    limit = circumcenter([[-2, 0], [2, 0]])
    assert np.allclose(limit.center, [0, 0], atol=1e-12)


def test_more_points_than_dim_generically_empty():
    rng = np.random.default_rng(11)
    for _ in range(10):
        pts = rng.normal(size=(5, 2))
        assert circumcenter(pts).is_empty


def test_radius_examples():
    assert circumradius([[0, 0], [4, 0], [0, 4], [4, 4]]) == pytest.approx(
        2 * math.sqrt(2)
    )
    assert circumradius([[3.0, 3.0]]) == 0.0
    assert circumradius([[0, 0], [1, 0], [2, 0]]) == math.inf


def test_scaling_and_translation_invariance():
    rng = np.random.default_rng(12)
    cases = 0
    empties = 0
    while cases < 200:
        n = int(rng.integers(2, 11))
        m = int(rng.integers(1, 9))
        kind = cases % 3
        if kind == 0 and m >= 3:
            d = rng.normal(size=n)
            ts = np.sort(rng.normal(size=m))
            pts = rng.normal(size=n) + np.outer(ts, d)  # collinear, distinct
        else:
            pts = rng.normal(size=(m, n))
        base = circumcenter(pts)
        if base.is_empty:
            empties += 1
        y = rng.normal(size=n)
        shifted = circumcenter(pts + y)
        assert shifted.is_empty == base.is_empty
        if not base.is_empty:
            scale = 1 + np.linalg.norm(base.center)
            assert np.linalg.norm(shifted.center - (base.center + y)) <= 1e-9 * scale
            assert shifted.radius == pytest.approx(base.radius, rel=1e-9)
        for lam in (-3.0, 0.5, 7.0):
            scaled = circumcenter(lam * pts)
            assert scaled.is_empty == base.is_empty
            if not base.is_empty:
                scale = 1 + np.linalg.norm(lam * base.center)
                assert (
                    np.linalg.norm(scaled.center - lam * base.center) <= 1e-9 * scale
                )
                assert scaled.radius == pytest.approx(
                    abs(lam) * base.radius, rel=1e-9
                )
        cases += 1
    assert empties >= 30  # the mix must actually exercise Empty agreement


def test_near_uniqueness_in_hull():
    rng = np.random.default_rng(13)
    for _ in range(30):
        n = int(rng.integers(2, 8))
        m = int(rng.integers(2, n + 2))
        pts = random_independent(rng, m, n)
        out = circumcenter(pts)
        assert not out.is_empty
        hull = affine_hull(pts)
        coeff = rng.normal(size=hull.dim)
        d = hull.onb.T @ (coeff / np.linalg.norm(coeff))
        probe = out.center + 0.01 * max_distance(pts) * d
        assert not verify_equidistant(probe, pts, 1e-8)


def test_continuity_at_independent_tuples():
    rng = np.random.default_rng(14)
    pts = np.array([[0.0, 0.0, 0.0], [3.0, 1.0, 0.0], [1.0, 4.0, 2.0]])
    direction = rng.normal(size=pts.shape)
    direction /= np.linalg.norm(direction)
    center = circumcenter(pts).center
    deltas = []
    for eps in (1e-2, 1e-4, 1e-6):
        moved = circumcenter(pts + eps * direction).center
        deltas.append(np.linalg.norm(moved - center))
    assert deltas[0] > deltas[1] > deltas[2]
    C = 2.0 * deltas[0] / 1e-2
    for eps, delta in zip((1e-2, 1e-4, 1e-6), deltas):
        assert delta <= C * eps


# --- properties -------------------------------------------------------------


@st.composite
def point_sets(draw):
    """m >= 2 points in R^n: well-conditioned affinely independent sets
    (m <= n + 1, circumcenter Exists) or m = n + 2 generic points (Empty)."""
    n = draw(st.integers(1, 6))
    m = draw(st.integers(2, n + 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if m <= n + 1:
        return rng, conditioned_independent(rng, m, n)
    return rng, rng.normal(size=(m, n))


def assert_same_outcome(out, center, radius, tol):
    """out is Exists(center, radius) within tol, or Empty when center is None."""
    assert out.is_empty == (center is None)
    if center is not None:
        assert np.linalg.norm(out.center - center) <= tol
        assert out.radius == pytest.approx(radius, rel=0, abs=tol)


@settings(derandomize=True, max_examples=80, deadline=None)
@given(point_sets())
def test_invariant_under_rotation_translation_permutation(case):
    rng, pts = case
    n = pts.shape[1]
    base = circumcenter(pts)
    tol = 1e-9 * max_distance(pts)
    R, _ = np.linalg.qr(rng.normal(size=(n, n)))
    t = rng.normal(size=n) * 10
    moved = circumcenter(pts @ R.T + t)
    permuted = circumcenter(pts[rng.permutation(len(pts))])
    if base.is_empty:
        assert moved.is_empty and permuted.is_empty
    else:
        assert_same_outcome(moved, R @ base.center + t, base.radius, tol)
        assert_same_outcome(permuted, base.center, base.radius, tol)


@settings(derandomize=True, max_examples=80, deadline=None)
@given(point_sets(), st.integers(3, 8))
def test_translation_covariant_far_from_origin(case, k):
    # Every decision is relative to the set, not to its distance from
    # the origin; moving it by |t| = 10^k only adds the rounding noise
    # of coordinates of that size.
    rng, pts = case
    t = rng.normal(size=pts.shape[1])
    t *= 10.0**k / np.linalg.norm(t)
    base = circumcenter(pts)
    center = None if base.is_empty else base.center + t
    tol = 1e-9 * max_distance(pts) + 1e3 * np.finfo(float).eps * 10.0**k
    assert_same_outcome(circumcenter(pts + t), center, base.radius, tol)


def test_far_from_origin_examples():
    t = np.array([1e6, 1e6])
    # Two points 1e-4 apart at 1e6 keep their midpoint.
    out = circumcenter([[1e6, 0], [1e6, 1e-4]])
    assert_same_outcome(out, [1e6, 5e-5], 5e-5, 1e-15)
    # A thin but non-degenerate triangle: center (0.5, 10000.00005).
    tri = np.array([[0, 0], [1, 0], [2, 1e-4]]) + t
    assert_same_outcome(circumcenter(tri), [0.5, 10000.00005] + t, 10000.0, 0.1)
    # Four points off a circle by 1e-3 have no circumcenter.
    assert circumcenter(np.array([[1, 0], [0, 1], [-1, 0], [0, -1.001]]) + t).is_empty


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_huge_points_with_finite_differences():
    # |p|^2 overflows but the difference does not: the noise scale is
    # measured with rescaling, so the pair keeps its midpoint.
    out = circumcenter([[1e160, 0], [1e160, 1e152]])
    assert_same_outcome(out, [1e160, 5e151], 5e151, 1e140)


def assert_scale_covariant(pts, lam):
    # Compared in units of lam, where the test's own norms cannot
    # overflow or underflow.
    base = circumcenter(pts)
    out = circumcenter(lam * pts)
    assert out.is_empty == base.is_empty
    if not base.is_empty:
        unscaled = CircumOutcome.exists(out.center / lam, out.radius / lam)
        tol = 1e-9 * max_distance(pts)
        assert_same_outcome(unscaled, base.center, base.radius, tol)


@settings(derandomize=True, max_examples=80, deadline=None)
@given(point_sets(), st.integers(-300, 300))
def test_scale_covariant(case, k):
    assert_scale_covariant(case[1], 10.0**k)


@settings(derandomize=True, max_examples=80, deadline=None)
@given(point_sets(), st.integers(-12, -7))
def test_scale_covariant_below_1e_6(case, k):
    # Generic sets of m = n + 2 points stay Empty however small: no
    # tolerance has an absolute floor.
    assert_scale_covariant(case[1], 10.0**k)


@pytest.mark.parametrize("k", [-10, -11, -12])
def test_small_right_triangle_is_not_collapsed(k):
    # The right triangle of acceptance 01 keeps its three points and
    # its center at any scale, not collapsing to center 0, radius 0.
    lam = 10.0**k
    pts = lam * np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    expected = lam * np.array([0.5, 0.5])
    assert_same_outcome(circumcenter(pts), expected, lam * math.sqrt(0.5), 1e-9 * lam)


# --- beyond the range of squares ------------------------------------------
# Each set below has squared lengths that overflow or underflow; it is
# solved at its working scale (see linalg), so nothing collapses.


def test_pair_whose_squared_distance_overflows():
    out = circumcenter([[0, 0], [1e200, 0]])
    assert np.array_equal(out.center, [5e199, 0.0]) and out.radius == 5e199


@pytest.mark.parametrize("lam", [1e-170, 1e-300])
def test_right_triangle_whose_squares_underflow(lam):
    pts = lam * np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    assert_same_outcome(
        circumcenter(pts), [0.5 * lam, 0.5 * lam], math.sqrt(0.5) * lam, 1e-15 * lam
    )


def test_small_square_radius_is_accurate():
    # At 1e-160 the squared distances to the center are subnormal.
    out = circumcenter(1e-160 * np.array([[0, 0], [1, 0], [0, 1], [1, 1]]))
    assert out.radius / 1e-160 == pytest.approx(math.sqrt(0.5), rel=1e-15)


def test_diameter_and_dedup_beyond_square_range():
    # dedup's default tolerance is relative to the diameter, which it
    # measures at working scale.
    got = dedup([[0, 0], [1e200, 0], [1e200, 0]])
    assert np.array_equal(got, [[0, 0], [1e200, 0]])
    got = dedup([[0, 0], [0, 3e-170], [0, 3e-170]])
    assert np.array_equal(got, [[0, 0], [0, 3e-170]])
    # An explicit tol is taken to the same working scale.
    P = [[0, 0], [1e200, 0], [1e200, 1e190]]
    assert np.array_equal(dedup(P, tol=2e190), P[:2])
    assert np.array_equal(dedup(P, tol=5e189), P)


def test_verify_equidistant_beyond_square_range():
    assert verify_equidistant([0, 0], [[1e200, 0], [0, 1e200]], 1e-8)
    assert verify_equidistant([0, 0], [[1e-200, 0], [0, 1e-200]], 1e-8)
    assert not verify_equidistant([0, 0], [[1e200, 0], [0, 1.1e200]], 1e-8)


@pytest.mark.parametrize("lam", [1e-200, 1e200])
def test_cross3_routes_beyond_square_range(lam):
    pts = lam * np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    center = circumcenter_cross3(*pts)
    assert np.abs(center / lam - [0.5, 0.5, 0.0]).max() <= 1e-15
    assert circumradius_cross3(*pts) / lam == pytest.approx(math.sqrt(0.5), rel=1e-15)


@pytest.mark.parametrize("lam", [1e-200, 1e-80, 1e200])
def test_cramer_beyond_square_range(lam):
    tri = lam * np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    assert cramer_coefficients(tri) == pytest.approx([0.5, 0.5], rel=1e-14)
    # The coefficients are taken at the unit scale, so a power of two
    # changes no bit of them.
    pts = conditioned_independent(np.random.default_rng(22), 4, 5)
    ref = cramer_coefficients(pts, 1)
    for k in (-600, 600):
        assert cramer_coefficients(np.ldexp(pts, k), 1) == ref


# --- differences that overflow --------------------------------------------
# Finite sets whose differences exceed the float range. Every route takes
# the differences at the points' working scale (see linalg), so each
# answers as circumcenter does, with no numpy warning.

NEAR_MAX = np.array([[1e308, 0.0], [-1e308, 0.0], [0.0, 1e308]])
NEAR_MAX_3D = np.array([[1.7e308, 0.0, 0.0], [-1.7e308, 0.0, 0.0], [0.0, 1.7e308, 0.0]])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("pts", [NEAR_MAX, NEAR_MAX_3D], ids=["R2", "R3"])
def test_gram_and_cramer_routes_take_overflowing_differences(pts):
    out = circumcenter(pts)
    assert np.array_equal(out.center, np.zeros(pts.shape[1]))
    assert np.array_equal(circumcenter_gram(pts), out.center)
    # The affine weights rebuild the center with no difference to overflow.
    for k in range(len(pts)):
        beta = cramer_coefficients(pts, k)
        weights = np.insert(beta, k, 1.0 - sum(beta))
        assert np.abs(weights @ pts - out.center).max() <= 1e-15 * out.radius


@pytest.mark.filterwarnings("error")
def test_cross3_routes_take_overflowing_differences():
    out = circumcenter(NEAR_MAX_3D)
    assert np.array_equal(circumcenter_cross3(*NEAR_MAX_3D), np.zeros(3))
    assert circumradius_cross3(*NEAR_MAX_3D) == pytest.approx(out.radius, rel=1e-15)


# --- three points ---------------------------------------------------------


def test_three_point_examples():
    out = circumcenter([[0, 0], [2, 0], [0, 2]])
    assert np.allclose(out.center, [1, 1], atol=1e-12)
    assert out.radius == pytest.approx(math.sqrt(2))
    out = circumcenter([[-2, 0], [2, 0], [2, 0]])
    assert np.allclose(out.center, [0, 0], atol=1e-12)
    assert out.radius == pytest.approx(2.0)
    assert circumcenter([[0, 0], [1, 0], [3, 0]]).is_empty


def test_three_point_all_coincident():
    out = circumcenter([[5, 5], [5, 5], [5, 5]])
    assert np.array_equal(out.center, [5, 5])
    assert out.radius == 0.0


def test_three_point_existence_matches_independence():
    rng = np.random.default_rng(15)
    for trial in range(500):
        if trial % 2 == 0:
            pts = random_independent(rng, 3, 4)
            expect = True
        else:
            base = rng.normal(size=4)
            d = rng.normal(size=4)
            t = np.sort(rng.choice(np.arange(1, 10), size=3, replace=False))
            pts = base + np.outer(t, d)
            expect = False
        out = circumcenter(pts)
        assert (not out.is_empty) == expect


def sine_triple(rng, n, sin, la=1.0, lb=1.0):
    """x, x + a, x + b in R^n with |a| = la, |b| = lb and the sine of
    the angle between a and b equal to sin, in a random orientation."""
    q, _ = np.linalg.qr(rng.normal(size=(n, 2)))
    u, v = q.T
    x = rng.normal(size=n)
    b = lb * (math.sqrt(1.0 - sin * sin) * u + sin * v)
    return np.array([x, x + la * u, x + b])


def three_point_cases(rng):
    """(label, triple, angle sine or None) for the m = 3 path."""
    cases = []
    for n in (2, 3, 7, 50):
        x, y, z = rng.normal(size=(3, n))
        cases.append(("generic", np.array([x, y, z]), None))
        for lab, t in (
            ("dup 12", [x, x, z]),
            ("dup 13", [x, y, x]),
            ("dup 23", [x, y, y]),
            ("dup all", [x, x, x]),
        ):
            cases.append((lab, np.array(t), None))
        # Near-duplicates: a copy moved by 1e-13 of its norm.
        for i, j in ((0, 1), (0, 2), (1, 2)):
            t = np.array([x, y, z])
            d = rng.normal(size=n)
            t[j] = t[i] + 1e-13 * np.linalg.norm(t[i]) * d / np.linalg.norm(d)
            cases.append((f"near-dup {i}{j}", t, None))
        # Near-collinear on both sides of DEFAULT_RANK_TOL = 1e-10, and
        # ill-posed on both sides of DEFAULT_PIVOT_TOL = 1e-12 (pivot
        # sin^2 |b|^2 against max(|a|, |b|)^2).
        for sin in (1e-11, 1e-9, 5e-7, 2e-6, 1e-4):
            for la, lb in ((1.0, 1.0), (0.5, 2.0), (2.0, 0.5)):
                cases.append((f"sin {sin:g}", sine_triple(rng, n, sin, la, lb), sin))
        # Exactly collinear, and the far point first.
        cases.append(("collinear", np.array([x, x + (y - x), x + 3.0 * (y - x)]), 0.0))
        cases.append(("collinear far first", np.array([x + 3.0 * (y - x), x, y]), 0.0))
    return cases


def assert_three_matches_sweep(pts, sin=None):
    # The copy of the first point makes the set m = 4, which takes the
    # general sweep; it adds a zero difference and a repeated distance.
    three = circumcenter(pts)
    ref = circumcenter(np.vstack([pts, pts[:1]]))
    assert three.is_empty == ref.is_empty
    if ref.is_empty:
        return
    scale = max(np.linalg.norm(ref.center), ref.radius)
    tol = three_tol(sin)
    assert np.linalg.norm(three.center - ref.center) <= tol * scale
    assert abs(three.radius - ref.radius) <= tol * scale


def three_tol(sin):
    # Near the pivot tolerance the center itself has condition about
    # 1 / sin, so any two stable routes differ by a few eps / sin
    # relative: up to 4.1e-10 at sin 1.2e-6 (300 seeded triples), and
    # the sweep's own error against exact arithmetic is 5e-11 there.
    return 1e-12 + (16 * np.finfo(float).eps / sin if sin else 0.0)


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("k", [-12, -6, 0, 6, 50, 150])
def test_three_point_path_matches_sweep(k):
    rng = np.random.default_rng(1007 + k)
    lam = 10.0**k
    overflowing = 0
    for label, pts, sin in three_point_cases(rng):
        unscaled = circumcenter(pts)
        # The well-posed sin 2e-6 triples have radius about 3.7e5; at
        # 1e150 their squared distances to the center would overflow,
        # and they are solved at their working scale.
        overflowing += unscaled.radius * lam > 1e155 and not unscaled.is_empty
        for shift in (0.0, 1e3, 1e8):
            t = rng.normal(size=pts.shape[1])
            t *= shift / np.linalg.norm(t)
            moved = lam * pts + t
            try:
                assert_three_matches_sweep(moved, sin)
                if shift == 0.0:
                    # Scaling alone keeps the outcome, on both paths.
                    assert circumcenter(moved).is_empty == unscaled.is_empty
            except AssertionError as exc:
                raise AssertionError(f"{label}, shift {shift:g}") from exc
    assert overflowing == (4 if k == 150 else 0)


def reflection_triple(pts):
    """The solver's kernel on the triple x, y, z: u = (y - x) / 2 and
    v = (z - y) / 2."""
    x, y, z = pts
    return cc_mod._reflection_triple(x, (y - x) / 2, (z - y) / 2)


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("k", [-12, -6, 0, 6, 50, 150])
def test_reflection_triple_matches_circumcenter(monkeypatch, k):
    # The two-set solver kernel keeps _three's rules on the reflection
    # coordinates u and v: the same Empty decision on every case of the
    # three-point path, and a center within its tolerance of
    # circumcenter's. At 1e150 the squared norms leave the kernel's
    # range and it takes its rows at their working scale itself.
    exponents = []

    def counted(W, inner=cc_mod._exponent):
        exponents.append(inner(W))
        return exponents[-1]

    monkeypatch.setattr(cc_mod, "_exponent", counted)
    rng = np.random.default_rng(1007 + k)
    lam = 10.0**k
    # x = 0, u = e1, v = (1e7 - 1) e1 + 1e-6 e2: the row r left of v is
    # below the threshold and |u|^2 is ill-posed against |u + v|^2.
    ill = np.array([[0.0, 0.0], [2.0, 0.0], [2e7, 2e-6]])
    assert reflection_triple(ill) is None and circumcenter(ill).is_empty
    cases = [*three_point_cases(rng), ("ill-posed u", ill, None)]
    rescaled = 0
    for label, pts, sin in cases:
        for shift in (0.0, 1e3, 1e8):
            t = rng.normal(size=pts.shape[1])
            t *= shift / np.linalg.norm(t)
            moved = lam * pts + t
            ref = circumcenter(moved)
            exponents.clear()
            got = reflection_triple(moved)
            rescaled += sum(e != 0 for e in exponents)
            assert (got is None) == ref.is_empty, f"{label}, shift {shift:g}"
            if got is not None:
                scale = max(np.linalg.norm(ref.center), ref.radius)
                err = np.linalg.norm(got - ref.center)
                assert err <= three_tol(sin) * scale, f"{label}, shift {shift:g}"
    assert rescaled == (3 * len(cases) if k == 150 else 0)


def test_both_kernels_read_one_set_of_tolerances(monkeypatch):
    # circumcenter() and the two-set step's kernel read the same module
    # constants, so a change to either tolerance flips both outcomes.
    def outcomes(pts):
        pts = np.array(pts, dtype=float)
        return circumcenter(pts).is_empty, reflection_triple(pts) is None

    near = [[0, 0], [2, 0], [1, 1e-3]]
    collinear = [[0, 0], [1, 0], [3, 0]]
    assert outcomes(near) == (False, False)
    assert outcomes(collinear) == (True, True)
    with monkeypatch.context() as m:
        # The residual 1e-3 of the third point falls below 1e-2 * |a|.
        m.setattr(cc_mod, "DEFAULT_RANK_TOL", 1e-2)
        assert outcomes(near) == (True, True)
    # The midpoint of the first two points is within 1.0 of every
    # distance: spread 2 against a largest distance of 2.5.
    monkeypatch.setattr(cc_mod, "DEFAULT_VERIFY_TOL", 1.0)
    assert outcomes(collinear) == (False, False)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_reflection_triple_gives_empty_for_a_non_finite_projection(bad):
    # An overflowed projection p = P_U x or q = P_V y has an inf or NaN
    # entry, and so has u = p - x or v = q - y. The kernel gives None
    # itself, near the origin and at 1e200 alike: such rows have no
    # working scale, and a NaN in a squared norm, which hides from
    # Python's max, is caught on the Gram entries.
    rng = np.random.default_rng(23)
    for scale in (1.0, 1e200):
        for i in (0, 1):
            x, *pq = scale * rng.normal(size=(3, 5))
            pq[i][2] = bad
            p, q = pq
            y = 2.0 * p - x
            assert cc_mod._reflection_triple(x, p - x, q - y) is None


def reflection_rows(rng, n):
    """Rows (x, u, v) for the solver's kernel: a random triple, the
    near-collinear v = -u + eps w (eps 1e-3, 1e-7 and 0, where the third
    point is x again), the collinear v = u / 2, and the random triple
    moved 1e8 from the origin."""
    x, u, v = rng.normal(size=(3, n))
    t = rng.normal(size=n)
    t *= 1e8 / np.linalg.norm(t)
    rows = [(x, u, v), (x, u, 0.5 * u), (x + t, u, v)]
    rows += [(x, u, -u + eps * v) for eps in (1e-3, 1e-7, 0.0)]
    return [np.array(W) for W in rows]


@pytest.mark.parametrize("k", [-1000, -900, -500, 450, 500, 900, 1000])
def test_reflection_triple_is_covariant_under_power_of_two_scaling(k):
    # Every scaled triple leaves the kernel's range and is taken at its
    # working scale, the unscaled one is not: the center at 2^k is 2^k
    # times the center at 1, bit for bit, and Empty at one is Empty at
    # the other. Only triples whose scaled entries stay normal are taken.
    rng = np.random.default_rng(29)
    smallest = np.finfo(float).tiny
    taken = empty = 0
    for n in (2, 7):
        for _ in range(20):
            for W in reflection_rows(rng, n):
                with np.errstate(over="ignore"):
                    S = np.ldexp(W, k)
                entries = np.abs(S[W != 0])
                if not np.all((entries >= smallest) & (entries < np.inf)):
                    continue
                ref = cc_mod._reflection_triple(*W)
                got = cc_mod._reflection_triple(*S)
                assert (got is None) == (ref is None)
                if ref is not None:
                    assert np.array_equal(got, np.ldexp(ref, k))
                taken += 1
                empty += ref is None
    assert taken >= 200 and 0 < empty < taken


@pytest.mark.filterwarnings("error")
def test_reflection_triple_rescales_rows_whose_products_overflow():
    # |x|^2 = 2^800 is in range, but x.u overflows to -inf and u.u to
    # inf, so |x + 2u|^2 reads NaN, which Python's max passes over: the
    # rows are still taken at their working scale, and the center is
    # circumcenter's.
    x, u, v = np.array([[-(2.0**400), 1.0], [2.0**700, 0.0], [0.0, 2.0**699]])
    got = cc_mod._reflection_triple(x, u, v)
    ref = circumcenter([x, x + 2 * u, x + 2 * u + 2 * v])
    np.testing.assert_allclose(got, ref.center, rtol=1e-15)


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_three_point_path_overflow():
    # |p|^2 overflows but the differences do not: Exists, as with the
    # general sweep.
    x = np.array([1e160, 0.0])
    y = np.array([1e160, 1e152])
    for pts in ([x, y, x], [x, x, y], [x, y, y]):
        assert_three_matches_sweep(np.array(pts))
        assert_same_outcome(circumcenter(pts), [1e160, 5e151], 5e151, 1e140)
    # Differences whose squares overflow: the circle of radius 1e300 has
    # its center and radius on both paths.
    pts = np.array([[1e300, 0.0], [-1e300, 0.0], [0.0, 1e300]])
    assert_same_outcome(circumcenter(pts), [0.0, 0.0], 1e300, 1e-12 * 1e300)
    assert_three_matches_sweep(pts)


def test_verification_rescales_only_on_overflow(monkeypatch):
    exponents = []
    scaled = cc_mod._scaled

    def counted(V):
        out = scaled(V)
        exponents.append(out[1])
        return out

    monkeypatch.setattr(cc_mod, "_scaled", counted)
    rng = np.random.default_rng(19)
    for m in (2, 3, 5):
        for _ in range(20):
            circumcenter(rng.normal(size=(m, 4)))
    assert len(exponents) == 60 and not any(exponents)
    # Three points 1e150 apart on an arc of radius 1e155: the squared
    # differences are finite, the squared distances to the center not.
    R = 1e155
    phi = np.array([-1e-5, 0.0, 1e-5])
    arc = np.column_stack([R * np.sin(phi), -2.0 * R * np.sin(phi / 2) ** 2])
    for pts in (arc, np.vstack([arc, arc[:1]])):
        exponents.clear()
        got = circumcenter(pts)
        assert len(exponents) == 1 and exponents[0] != 0
        assert_same_outcome(got, [0.0, -R], R, 1e-12 * R)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_kernel_gives_empty_for_any_non_finite_row(bad):
    # The solvers hand reflections that overflowed straight to the
    # kernel. An inf or NaN entry in any row, not only the first, gives
    # Empty on both paths.
    rng = np.random.default_rng(21)
    for m in (3, 4):
        for row in range(m):
            for scale in (1.0, 1e200):
                P = scale * rng.normal(size=(m, 5))
                P[row, 2] = bad
                assert cc_mod._circumcenter(P).is_empty


@pytest.mark.filterwarnings("ignore:overflow encountered", "error:invalid value encountered")
def test_verify_equidistant_rejects_overflowing_distance():
    # Distances 1e200 (inf once squared) and 1: an infinite largest
    # distance is never accepted, and inf - inf is never formed.
    assert not verify_equidistant([0, 0], [[1e200, 0], [1, 0]], 1e-8)
    assert not verify_equidistant([0, 0], [[1e200, 0], [0, 1e200], [1, 0]], 1e-8)


def general_path_triples(rng, n):
    """Triples of every kind the m = 3 path decides, in R^n: generic,
    duplicated, collinear, near-collinear (sine 1e-9 to 1e-2) and
    near-duplicate (a copy moved by 0.5 or 2 DEFAULT_RANK_TOL of the
    largest difference)."""
    x, y, z = rng.normal(size=(3, n))
    a = y - x
    triples = [[x, y, z], [x, x, z], [x, y, x], [x, y, y], [x, x, x]]
    triples.append([x, y, x + rng.uniform(-3.0, 3.0) * a])
    for sin in 10.0 ** rng.uniform(-9.0, -2.0, size=4):
        triples.append(sine_triple(rng, n, sin, 1.0, rng.uniform(0.5, 2.0)))
    for f in (0.5, 2.0):
        d = rng.normal(size=n)
        d *= f * DEFAULT_RANK_TOL / np.linalg.norm(d)
        triples.append([x, y, y + np.linalg.norm(a) * d])
        triples.append([x, x + np.linalg.norm(z - x) * d, z])
    return [np.array(t) for t in triples]


def test_three_point_agrees_with_general_path():
    # Appending a copy of p_1 adds a zero difference, which the sweep
    # drops: the set of four takes the general sweep (_sweep) with the
    # same kept rows, noise and verification as the m = 3 path (_three).
    rng = np.random.default_rng(16)
    empty = 0
    cases = [
        t for n in (2, 3, 7, 50) for _ in range(10) for t in general_path_triples(rng, n)
    ]
    for pts in cases:
        for lam in (1.0, 1e-200, 1e200):
            P = lam * pts
            three = circumcenter(P)
            sweep = circumcenter(np.vstack([P, P[:1]]))
            assert three.is_empty == sweep.is_empty
            empty += three.is_empty
            if three.is_empty:
                continue
            # Compared in units of lam, where the norms cannot overflow.
            r = sweep.radius / lam
            assert np.linalg.norm(three.center / lam - sweep.center / lam) <= 1e-8 * r
            assert abs(three.radius / lam - r) <= 1e-8 * r
    assert 0 < empty < 3 * len(cases)


# --- cross-product route ----------------------------------------------------


def test_cross3_examples():
    assert np.array_equal(cross3([1, 0, 0], [0, 1, 0]), [0, 0, 1])
    assert np.array_equal(cross3([2, -1, 3], [2, -1, 3]), [0, 0, 0])
    assert np.array_equal(cross3([1, 2, 3], [4, 5, 6]), [-3, 6, -3])


def test_cross3_orthogonality_and_lagrange():
    rng = np.random.default_rng(17)
    for _ in range(100):
        a, b = rng.normal(size=(2, 3))
        k = cross3(a, b)
        assert abs(k @ a) <= 1e-12 * np.linalg.norm(k) * np.linalg.norm(a) + 1e-300
        assert abs(k @ b) <= 1e-12 * np.linalg.norm(k) * np.linalg.norm(b) + 1e-300
        lhs = k @ k
        rhs = (a @ a) * (b @ b) - (a @ b) ** 2
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-250)


def test_cross3_requires_three_dims():
    with pytest.raises(NotThreeDimensional):
        cross3([1, 0], [0, 1])
    with pytest.raises(NotThreeDimensional):
        circumcenter_cross3([0, 0], [1, 0], [0, 1])


def test_cross3_circumcenter_examples():
    assert np.allclose(circumcenter_cross3([0, 0, 0], [2, 0, 0], [0, 2, 0]), [1, 1, 0])
    assert np.allclose(circumcenter_cross3([0, 0, 0], [4, 0, 0], [0, 4, 0]), [2, 2, 0])
    with pytest.raises(NotAffinelyIndependent):
        circumcenter_cross3([0, 0, 0], [1, 1, 1], [2, 2, 2])


def test_cross3_radius_examples():
    r = circumradius_cross3([0, 0, 0], [2, 0, 0], [1, math.sqrt(3), 0])
    assert r == pytest.approx(2 / math.sqrt(3), rel=1e-12)
    r = circumradius_cross3([0, 0, 0], [2, 0, 0], [0, 2, 0])
    assert r == pytest.approx(math.sqrt(2), rel=1e-12)


def test_cross3_agrees_with_gram_route():
    rng = np.random.default_rng(18)
    for _ in range(200):
        pts = random_independent(rng, 3, 3)
        c_gram = circumcenter_gram(pts)
        c_cross = circumcenter_cross3(*pts)
        scale = 1 + np.linalg.norm(c_gram)
        assert np.linalg.norm(c_gram - c_cross) <= 1e-9 * scale
        r = circumradius_cross3(*pts)
        assert r == pytest.approx(np.linalg.norm(c_cross - pts[0]), rel=1e-10)
        assert r == pytest.approx(circumradius(pts), rel=1e-8)
        # radius as half the opposite side over the sine of the angle at x
        a, b = pts[1] - pts[0], pts[2] - pts[0]
        sin_theta = np.linalg.norm(cross3(a, b)) / (
            np.linalg.norm(a) * np.linalg.norm(b)
        )
        assert r == pytest.approx(
            np.linalg.norm(a - b) / (2 * sin_theta), rel=1e-10
        )


# --- Cramer coefficients ----------------------------------------------------


def barycentric(coeffs, base_index, m):
    """Full affine-combination weights from per-base coefficients."""
    out = np.empty(m)
    out[base_index] = 1.0 - sum(coeffs)
    others = [i for i in range(m) if i != base_index]
    for c, i in zip(coeffs, others):
        out[i] = c
    return out


def test_cramer_examples():
    assert np.allclose(cramer_coefficients([[0, 0], [4, 0], [0, 4]], 0), [0.5, 0.5])
    assert np.allclose(cramer_coefficients([[0, 0], [2, 0]], 0), [0.5])


def test_cramer_rejects_dependent():
    with pytest.raises(NotAffinelyIndependent):
        cramer_coefficients([[0, 0], [1, 0], [2, 0]], 0)


def test_cramer_reconstructs_gram_center():
    rng = np.random.default_rng(19)
    for _ in range(100):
        n = int(rng.integers(2, 8))
        m = int(rng.integers(2, min(n + 2, 7)))
        pts = conditioned_independent(rng, m, n)
        coeffs = cramer_coefficients(pts, 0)
        rebuilt = pts[0] + sum(
            c * (p - pts[0]) for c, p in zip(coeffs, pts[1:])
        )
        target = circumcenter_gram(pts)
        assert np.linalg.norm(rebuilt - target) <= 1e-8 * (
            1 + np.linalg.norm(target)
        )


def test_cramer_base_change_relations():
    rng = np.random.default_rng(20)
    for _ in range(50):
        n = int(rng.integers(3, 8))
        m = int(rng.integers(3, min(n + 2, 7)))
        pts = conditioned_independent(rng, m, n)
        alpha = cramer_coefficients(pts, 0)
        w0 = barycentric(alpha, 0, m)
        for k in range(1, m):
            beta = cramer_coefficients(pts, k)
            wk = barycentric(beta, k, m)
            # coefficient of the first point: 1 - sum(alpha) = beta_1
            assert wk[0] == pytest.approx(1.0 - sum(alpha), abs=1e-9)
            # coefficient of the new base: alpha_{k} = 1 - sum(beta)
            assert w0[k] == pytest.approx(1.0 - sum(beta), abs=1e-9)
            # all remaining coefficients match position by position
            assert np.abs(w0 - wk).max() <= 1e-9
