import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circumlib.circumcenter import circumcenter
from circumlib.linalg import (
    DimensionMismatch,
    NotPositiveDefinite,
    gram,
    max_independent_subset,
    orthonormalize,
    solve_spd,
)


def test_gram_examples():
    assert np.array_equal(gram([[1, 0], [0, 1]]), np.eye(2))
    assert np.array_equal(gram([[1, 0], [1, 1]]), [[1, 1], [1, 2]])
    assert np.array_equal(gram([[4, 0], [0, 4]]), [[16, 0], [0, 16]])


def test_gram_bitwise_symmetry():
    rng = np.random.default_rng(0)
    for _ in range(20):
        vs = rng.normal(size=(rng.integers(1, 7), rng.integers(1, 9)))
        G = gram(vs)
        assert (G == G.T).all()


def test_gram_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        gram([[1, 0], [1, 0, 0]])


def test_gram_empty_rejected():
    with pytest.raises(ValueError):
        gram([])


def test_solve_spd_examples():
    assert np.allclose(solve_spd(np.eye(2), [3, 5]), [3, 5])
    assert np.allclose(solve_spd([[16, 0], [0, 16]], [8, 8]), [0.5, 0.5])
    with pytest.raises(NotPositiveDefinite):
        solve_spd([[1, 1], [1, 1]], [1, 1])


def test_solve_spd_matches_generic_solver():
    rng = np.random.default_rng(1)
    for _ in range(30):
        m = int(rng.integers(1, 8))
        B = rng.normal(size=(m + 2, m))
        G = B.T @ B
        b = rng.normal(size=m)
        x = solve_spd(G, b)
        assert np.allclose(x, np.linalg.solve(G, b), rtol=1e-9, atol=1e-12)


def test_solve_spd_pivoting_handles_small_leading_entry():
    # leading diagonal entry far smaller than the rest; diagonal pivoting
    # must reorder rather than fail
    G = np.array([[1e-8, 0.0, 0.0], [0.0, 4.0, 1.0], [0.0, 1.0, 3.0]])
    b = np.array([1e-8, 5.0, 4.0])
    assert np.allclose(solve_spd(G, b), np.linalg.solve(G, b))


def test_solve_spd_rejects_indefinite():
    with pytest.raises(NotPositiveDefinite):
        solve_spd([[1.0, 0.0], [0.0, -1.0]], [1.0, 1.0])


def test_solve_spd_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        solve_spd(np.eye(2), [1, 2, 3])


def test_gram_invertibility_tracks_independence():
    rng = np.random.default_rng(2)
    for _ in range(20):
        m = int(rng.integers(2, 6))
        vs = list(rng.normal(size=(m, m + 1)))
        solve_spd(gram(vs), np.ones(m))  # independent: must succeed
        weights = rng.normal(size=m)
        extended = vs + [sum(w * v for w, v in zip(weights, vs))]
        with pytest.raises(NotPositiveDefinite):
            solve_spd(gram(extended), np.ones(m + 1))


def test_max_independent_subset_examples():
    assert max_independent_subset([[1, 0], [2, 0], [0, 1]]) == [0, 2]
    assert max_independent_subset([[0, 0]]) == []
    assert max_independent_subset([[1, 0, 0], [0, 1, 0]]) == [0, 1]


def test_max_independent_subset_prefers_earliest():
    assert max_independent_subset([[0, 3], [0, 3], [5, 0]]) == [0, 2]


def test_max_independent_subset_spans_input():
    rng = np.random.default_rng(3)
    for _ in range(30):
        n = int(rng.integers(2, 9))
        r = int(rng.integers(1, n + 1))
        basis = rng.normal(size=(r, n))
        coeffs = rng.normal(size=(r + 3, r))
        vs = list(coeffs @ basis)
        kept = max_independent_subset(vs)
        assert len(kept) == np.linalg.matrix_rank(np.array(vs))
        assert kept == sorted(kept)
        Q = np.array(orthonormalize([vs[i] for i in kept]))
        scale = max(np.linalg.norm(v) for v in vs)
        for v in vs:
            residual = v - Q.T @ (Q @ v)
            assert np.linalg.norm(residual) <= 1e-9 * scale


def test_max_independent_subset_selected_well_conditioned():
    rng = np.random.default_rng(4)
    for _ in range(20):
        vs = rng.normal(size=(6, 4))
        kept = max_independent_subset(list(vs))
        sing = np.linalg.svd(vs[kept], compute_uv=False)
        assert sing[-1] > 1e-10 * sing[0]


def test_orthonormalize_examples():
    assert np.array_equal(orthonormalize([[2, 0]]), [[1, 0]])
    got = orthonormalize([[1, 0], [1, 1]])
    assert np.allclose(got, [[1, 0], [0, 1]], atol=1e-15)
    got = orthonormalize([[1, 1], [2, 2]])
    assert len(got) == 1
    assert np.allclose(got[0], np.array([1, 1]) / np.sqrt(2))


def test_orthonormalize_near_machine_orthonormal():
    rng = np.random.default_rng(5)
    for n, k in [(100, 60), (50, 50), (8, 3)]:
        Q = np.array(orthonormalize(list(rng.normal(size=(k, n)))))
        assert np.abs(Q @ Q.T - np.eye(Q.shape[0])).max() <= 1e-12


@pytest.mark.parametrize("lam", [1e160, 1e-160])
def test_orthonormalize_beyond_square_range(lam):
    # The squared norms overflow (or underflow) but the basis is the
    # same as at scale 1.
    got = orthonormalize([[lam, 0], [0, lam]])
    assert np.array_equal(got, [[1, 0], [0, 1]])


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    st.integers(1, 6),
    st.integers(1, 8),
    st.integers(0, 2**32 - 1),
    st.integers(-900, 900),
)
def test_rank_decisions_invariant_under_powers_of_two(n, m, seed, k):
    # A power of two changes no bit of the sweep, in range or rescaled:
    # the same rows are kept and the basis is bit-equal.
    rng = np.random.default_rng(seed)
    r = int(rng.integers(1, n + 1))
    V = rng.normal(size=(m, r)) @ rng.normal(size=(r, n))
    V[rng.random(m) < 0.2] = 0.0
    W = np.ldexp(V, k)
    assert max_independent_subset(W) == max_independent_subset(V)
    assert np.array_equal(orthonormalize(W), orthonormalize(V))


def test_results_do_not_depend_on_memory_layout():
    # F-ordered input is converted to C order once, at the boundary, so
    # its results are the bits of a C-ordered copy.
    rng = np.random.default_rng(23)
    for _ in range(20):
        M = rng.normal(size=(int(rng.integers(3, 9)), int(rng.integers(3, 9))))
        F = M.T
        C = np.ascontiguousarray(F)
        assert np.array_equal(orthonormalize(F), orthonormalize(C))
        a, b = circumcenter(F), circumcenter(C)
        assert a.is_empty == b.is_empty and a.radius == b.radius
        assert a.is_empty or np.array_equal(a.center, b.center)


def test_orthonormalize_skips_zero_vectors():
    got = orthonormalize([[0, 0], [3, 0], [0, 0], [0, 2]])
    assert np.allclose(got, [[1, 0], [0, 1]])


def test_gram_det_invariant_under_rebasing():
    rng = np.random.default_rng(6)
    for _ in range(20):
        m = int(rng.integers(3, 7))
        pts = rng.normal(size=(m, m + 1))
        base0 = np.linalg.det(gram([p - pts[0] for p in pts[1:]]))
        for k in range(1, m):
            others = [pts[i] for i in range(m) if i != k]
            dk = np.linalg.det(gram([p - pts[k] for p in others]))
            assert dk == pytest.approx(base0, rel=1e-8)
