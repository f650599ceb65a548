import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings, strategies as st
from scipy.optimize import linear_sum_assignment

from ddh2mor import (
    LtiSystem,
    NoUniqueSolution,
    NotStable,
    SchurFactor,
    pencil_diagnostics,
    pseudoinverse,
    solve_discrete_sylvester,
    solve_stein,
)
from ddh2mor.matequ import from_schur, solve_schur, spectral_separation, to_schur
from helpers import kron_solve_stein, kron_solve_sylvester, random_stable, rel_max_err

st_seed = st.integers(0, 2**32 - 1)
st_dim = st.integers(1, 12)


def test_stein_scalar_closed_form():
    # a x a + w = x  ->  x = w / (1 - a^2)
    X = solve_stein(np.array([[0.5]]), np.array([[0.75]]))
    assert X[0, 0] == pytest.approx(1.0, abs=1e-14)


def test_stein_zero_coefficient_returns_rhs():
    W = np.array([[2.0, 1.0], [1.0, 3.0]])
    X = solve_stein(np.zeros((2, 2)), W)
    np.testing.assert_allclose(X, W, atol=1e-14)


def test_stein_matches_kronecker_oracle_fixed():
    rng = np.random.default_rng(7)
    A = random_stable(rng, 9, radius=0.85)
    G = rng.standard_normal((9, 4))
    W = G @ G.T
    X = solve_stein(A, W)
    assert rel_max_err(X, kron_solve_stein(A, W)) < 1e-10


@settings(max_examples=40, deadline=None)
@given(seed=st_seed, k=st_dim)
def test_stein_matches_kronecker_oracle(seed, k):
    rng = np.random.default_rng(seed)
    A = random_stable(rng, k, radius=0.8)
    G = rng.standard_normal((k, k))
    W = G + G.T
    X = solve_stein(A, W)
    assert rel_max_err(X, kron_solve_stein(A, W)) < 1e-9


@settings(max_examples=40, deadline=None)
@given(seed=st_seed, k=st_dim)
def test_stein_preserves_symmetry_and_psd(seed, k):
    rng = np.random.default_rng(seed)
    A = random_stable(rng, k, radius=0.8)
    G = rng.standard_normal((k, k + 1))
    X = solve_stein(A, G @ G.T)
    np.testing.assert_allclose(X, X.T, atol=1e-12 * max(1.0, np.abs(X).max()))
    # controllability-type gramian of a stable recursion is PSD
    assert np.min(np.linalg.eigvalsh(X)) > -1e-9 * max(1.0, np.abs(X).max())


def test_stein_residual_is_small():
    rng = np.random.default_rng(3)
    A = random_stable(rng, 14, radius=0.9)
    G = rng.standard_normal((14, 3))
    W = G @ G.T
    X = solve_stein(A, W)
    res = A @ X @ A.T + W - X
    assert np.max(np.abs(res)) < 1e-10 * max(1.0, np.abs(X).max())


def test_stein_rejects_unstable():
    with pytest.raises(NotStable):
        solve_stein(np.array([[1.0]]), np.array([[1.0]]))
    with pytest.raises(NotStable):
        solve_stein(np.diag([0.3, 1.2]), np.eye(2))


def test_stein_rejects_radius_within_tolerance_of_one():
    with pytest.raises(NotStable):
        solve_stein(np.array([[1.0 - 1e-13]]), np.array([[1.0]]))


def test_stein_rejects_asymmetric_rhs():
    with pytest.raises(ValueError):
        solve_stein(np.diag([0.5, 0.4]), np.array([[0.0, 1.0], [0.0, 0.0]]))


@pytest.mark.parametrize("skew, accepted", [(1.9e-8, True), (2.1e-8, False)])
def test_stein_symmetry_tolerance_boundary(skew, accepted):
    # |W - W^T| <= 1e-8 max(1, max|W|) + 1e-8 |W^T| allows a skew of about
    # 2e-8 between the unit off-diagonal entries, as np.allclose did
    W = np.array([[1.0, 1.0], [1.0 + skew, 1.0]])
    tol = 1e-8 * max(1.0, np.abs(W).max())
    assert np.allclose(W, W.T, rtol=1e-8, atol=tol) == accepted
    A = np.diag([0.5, 0.4])
    if accepted:
        X = solve_stein(A, W)
        np.testing.assert_allclose(A @ X @ A.T + 0.5 * (W + W.T), X, atol=1e-14)
    else:
        with pytest.raises(ValueError, match="symmetric"):
            solve_stein(A, W)


def test_stein_accepts_precomputed_schur():
    rng = np.random.default_rng(11)
    A = random_stable(rng, 8, radius=0.7)
    G = rng.standard_normal((8, 8))
    W = G + G.T
    fac = SchurFactor.of(A)
    np.testing.assert_allclose(solve_stein(A, W, a_schur=fac), solve_stein(A, W),
                               atol=1e-12)


def test_sylvester_scalar_closed_form():
    # m x n + w = x  ->  x = w / (1 - m n)
    X = solve_discrete_sylvester(np.array([[0.5]]), np.array([[0.5]]),
                                 np.array([[0.75]]))
    assert X[0, 0] == pytest.approx(1.0, abs=1e-14)


def test_sylvester_matches_kronecker_oracle_fixed():
    rng = np.random.default_rng(19)
    M = random_stable(rng, 10, radius=0.9)
    N = random_stable(rng, 4, radius=0.9)
    W = rng.standard_normal((10, 4))
    X = solve_discrete_sylvester(M, N, W)
    assert rel_max_err(X, kron_solve_sylvester(M, N, W)) < 1e-10


@settings(max_examples=40, deadline=None)
@given(seed=st_seed, k=st_dim, r=st_dim)
def test_sylvester_matches_kronecker_oracle(seed, k, r):
    rng = np.random.default_rng(seed)
    M = random_stable(rng, k, radius=0.85)
    N = random_stable(rng, r, radius=0.85)
    W = rng.standard_normal((k, r))
    X = solve_discrete_sylvester(M, N, W)
    assert rel_max_err(X, kron_solve_sylvester(M, N, W)) < 1e-9


def test_sylvester_residual_is_small():
    rng = np.random.default_rng(23)
    M = random_stable(rng, 30, radius=0.95)
    N = random_stable(rng, 6, radius=0.95)
    W = rng.standard_normal((30, 6))
    X = solve_discrete_sylvester(M, N, W)
    res = M @ X @ N + W - X
    assert np.max(np.abs(res)) < 1e-9 * max(1.0, np.abs(X).max())


def test_sylvester_handles_complex_conjugate_blocks():
    # rotation blocks force 2x2 bumps on the quasi-triangular diagonal
    def rot(rho, t):
        return rho * np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])

    M = scipy.linalg.block_diag(rot(0.9, 0.7), rot(0.8, 2.1))
    N = rot(0.95, 1.3)
    rng = np.random.default_rng(5)
    W = rng.standard_normal((4, 2))
    X = solve_discrete_sylvester(M, N, W)
    assert rel_max_err(X, kron_solve_sylvester(M, N, W)) < 1e-10


def test_sylvester_unstable_coefficients_allowed_when_products_stay_off_one():
    M = np.array([[3.0]])
    N = np.array([[0.25]])
    X = solve_discrete_sylvester(M, N, np.array([[1.0]]))
    assert X[0, 0] == pytest.approx(4.0, abs=1e-12)


def test_sylvester_rejects_eigenvalue_product_one():
    with pytest.raises(NoUniqueSolution):
        solve_discrete_sylvester(np.array([[2.0]]), np.array([[0.5]]),
                                 np.array([[1.0]]))


def test_sylvester_near_product_one_within_tolerance():
    with pytest.raises(NoUniqueSolution):
        solve_discrete_sylvester(np.array([[2.0]]), np.array([[0.5 + 1e-13]]),
                                 np.array([[1.0]]))


def test_sylvester_pivot_breakdown_raises():
    # the pivot 1 - 1 * 1 is exactly zero; the uniqueness check refuses it
    with pytest.raises(NoUniqueSolution):
        solve_discrete_sylvester(np.array([[1.0]]), np.array([[1.0]]),
                                 np.array([[1.0]]))


def test_sylvester_shape_mismatch_raises():
    with pytest.raises(ValueError):
        solve_discrete_sylvester(np.eye(2), np.eye(3), np.zeros((3, 2)))


def test_sylvester_precomputed_schur_matches():
    rng = np.random.default_rng(31)
    M = random_stable(rng, 7, radius=0.8)
    N = random_stable(rng, 5, radius=0.8)
    W = rng.standard_normal((7, 5))
    ref = solve_discrete_sylvester(M, N, W)
    got = solve_discrete_sylvester(M, N, W,
                                   m_schur=SchurFactor.of(M),
                                   n_schur=SchurFactor.of(N))
    np.testing.assert_allclose(got, ref, atol=1e-12 * max(1.0, np.abs(ref).max()))


def mixed_spectrum(rng, k, radius=0.9):
    """Random real k x k matrix with one complex pair (k >= 2), the rest real."""
    t = rng.uniform(0.3, 2.8)
    pair = radius * np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])
    D = np.diag(rng.uniform(-radius, radius, k)).astype(float)
    if k >= 2:
        D[:2, :2] = pair
    Q, _ = np.linalg.qr(rng.standard_normal((k, k)))
    return Q @ D @ Q.T


@pytest.mark.parametrize("k, r", [(0, 3), (3, 0), (1, 1), (7, 5), (40, 6), (100, 6)])
def test_sylvester_sweep_matches_kronecker_on_pipeline_shapes(k, r):
    rng = np.random.default_rng(100 * k + r)
    M = mixed_spectrum(rng, k)
    A = mixed_spectrum(rng, r)
    W = rng.standard_normal((k, r))
    # N = A^T enters through the transposed factor of A, as Ahat^T does in solve_R
    X = solve_discrete_sylvester(M, A.T, W, m_schur=SchurFactor.of(M),
                                 n_schur=SchurFactor.of(A).transposed())
    assert X.dtype == np.float64 and X.shape == (k, r)
    if X.size:
        assert rel_max_err(X, kron_solve_sylvester(M, A.T, W)) < 1e-10


def test_sylvester_sweep_forms_no_kronecker_system(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the sweep must not form or factor a Kronecker system")

    monkeypatch.setattr(np, "kron", forbidden)
    monkeypatch.setattr(scipy.linalg, "lu_factor", forbidden)
    rng = np.random.default_rng(41)
    M = mixed_spectrum(rng, 40)
    N = mixed_spectrum(rng, 6)
    W = rng.standard_normal((40, 6))
    X = solve_discrete_sylvester(M, N, W)
    assert np.max(np.abs(M @ X @ N + W - X)) < 1e-10 * max(1.0, np.abs(X).max())


def test_transposed_schur_factors():
    rng = np.random.default_rng(13)
    A = rng.standard_normal((6, 6))
    fac = SchurFactor.of(A)
    assert np.any(fac.eigvals.imag != 0.0)  # the draw has a complex pair
    for f, target in ((fac, A), (fac.transposed(), A.T)):
        T, Z = f.T, f.Z
        # valid complex Schur factorization: unitary Z, upper triangular T
        np.testing.assert_allclose(Z @ T @ Z.conj().T, target, atol=1e-12)
        np.testing.assert_allclose(Z.conj().T @ Z, np.eye(6), atol=1e-12)
        assert np.max(np.abs(np.tril(T, -1))) == 0.0
        assert np.array_equal(f.ZH, Z.conj().T)
        assert np.array_equal(f.eigvals, np.diagonal(T))


@settings(max_examples=60, deadline=None)
@given(seed=st_seed, k=st.integers(0, 10))
@example(seed=0, k=0)
@example(seed=0, k=1)
@example(seed=0, k=2)  # a complex pair
def test_schur_factor_eigvals_match_numpy(seed, k):
    M = np.random.default_rng(seed).standard_normal((k, k))
    ref = np.linalg.eigvals(M)
    tol = 1e-12 * max(1.0, np.abs(ref).max(initial=0.0))
    fac = SchurFactor.of(M)
    for got in (fac.eigvals, fac.transposed().eigvals):
        assert got.shape == ref.shape
        # multiset match: pair each eigenvalue with a distinct reference one
        dist = np.abs(got[:, None] - ref[None, :])
        rows, cols = linear_sum_assignment(dist)
        assert dist[rows, cols].max(initial=0.0) <= tol
        # exactly closed under conjugation: real eigenvalues carry no
        # imaginary roundoff and pairs are exact conjugates
        assert np.array_equal(np.sort_complex(got), np.sort_complex(got.conj()))


def test_spectral_radius_values():
    # the radius is read off the system's cached Schur factor
    def radius(A):
        return LtiSystem.with_identity_output(A, np.ones((3, 1))).spectral_radius()

    assert radius(np.diag([0.2, -0.9, 0.5])) == pytest.approx(0.9)
    assert radius(np.zeros((3, 3))) == 0.0


def test_pseudoinverse_rank_deficient_fixed_value():
    A = np.array([[1.0, 0.0], [1.0, 0.0]])
    np.testing.assert_allclose(pseudoinverse(A),
                               np.array([[0.5, 0.5], [0.0, 0.0]]), atol=1e-14)


@settings(max_examples=30, deadline=None)
@given(seed=st_seed, k=st.integers(1, 8), r=st.integers(1, 8))
def test_pseudoinverse_penrose_identities(seed, k, r):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((k, r))
    P = pseudoinverse(A)
    tol = 1e-9 * max(1.0, np.abs(A).max() ** 2)
    np.testing.assert_allclose(A @ P @ A, A, atol=tol)
    np.testing.assert_allclose(P @ A @ P, P, atol=tol)
    np.testing.assert_allclose((A @ P).T, A @ P, atol=tol)
    np.testing.assert_allclose((P @ A).T, P @ A, atol=tol)


def test_pseudoinverse_rcond_truncates_small_singular_values():
    A = np.diag([1.0, 1e-15])
    P = pseudoinverse(A, rcond=1e-12)
    np.testing.assert_allclose(P, np.diag([1.0, 0.0]), atol=1e-14)


@settings(max_examples=30, deadline=None)
@given(seed=st_seed, k=st.integers(1, 40), r=st.integers(1, 12),
       deficiency=st.integers(0, 3), order=st.sampled_from("CF"))
def test_pseudoinverse_svd_is_numpy_pinv_bit_for_bit(seed, k, r, deficiency, order):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((k, r))
    A[:, :min(deficiency, r - 1)] = 0.0
    A = np.asarray(A, order=order)
    np.testing.assert_array_equal(pseudoinverse(A, 1e-10), np.linalg.pinv(A, rcond=1e-10))


def test_pencil_identity_pair():
    rep = pencil_diagnostics(np.eye(2), np.eye(2), other_spectrum=(2.0,))
    assert rep.is_regular
    np.testing.assert_allclose(sorted(np.real(rep.spectra)), [1.0, 1.0], atol=1e-12)
    assert rep.min_separation == pytest.approx(1.0, abs=1e-12)


def test_pencil_zero_pair_is_irregular():
    rep = pencil_diagnostics(np.zeros((2, 2)), np.zeros((2, 2)))
    assert not rep.is_regular
    assert rep.spectra == ()
    assert rep.min_separation == float("inf")


def test_pencil_singular_second_matrix_drops_infinite_part():
    rep = pencil_diagnostics(np.eye(2), np.diag([1.0, 0.0]), other_spectrum=(3.0,))
    assert rep.is_regular
    finite = np.asarray(rep.spectra)
    assert finite.shape == (1,)
    assert finite[0] == pytest.approx(1.0)
    assert rep.min_separation == pytest.approx(2.0)


def test_spectral_separation_basic():
    assert spectral_separation([1.0, 2.0], [2.5]) == pytest.approx(0.5)
    assert spectral_separation([], [1.0]) == float("inf")
    assert spectral_separation([1j, -1j], [0.0]) == pytest.approx(1.0)


@pytest.mark.parametrize("k", [1, 2, 6, 100])
def test_schur_factors_are_c_contiguous(k):
    M = mixed_spectrum(np.random.default_rng(k), k)
    fac = SchurFactor.of(M)
    for f in (fac, fac.transposed()):
        for name in ("T", "Z", "ZH"):
            assert getattr(f, name).flags.c_contiguous, name


def triangular_with_shifts(rng, mus):
    """Upper triangular N with the given diagonal and random coupling above it.

    LAPACK's Schur form of a triangular matrix keeps its diagonal entries
    exactly, so the sweep sees exactly these column shifts.
    """
    r = len(mus)
    return np.triu(rng.standard_normal((r, r)), 1) + np.diag(mus)


@pytest.mark.parametrize("mus", [
    [0.0, 0.0, 0.0],                    # nilpotent N: every column is y = b
    [0.5, 0.0, -0.3, 0.0, 0.8, 0.0],    # zero shifts between ordinary ones
    [1e-12, -0.6, 1e-12, 0.4],          # the rom annulus floor
    [5e-320, 0.7, -5e-320, 0.2],        # subnormal: 1 / mu overflows
    [1e-305, -0.5, 1e-305],             # 1 / mu finite, but b / mu overflows
], ids=["nilpotent", "zero-shifts", "annulus-floor", "subnormal", "tiny-normal"])
def test_sylvester_sweep_handles_tiny_and_zero_shifts(mus):
    rng = np.random.default_rng(len(mus))
    M = mixed_spectrum(rng, 40)
    N = triangular_with_shifts(rng, mus)
    fn = SchurFactor.of(N)
    assert np.array_equal(np.sort_complex(fn.eigvals), np.sort_complex(np.array(mus, complex)))
    # a large right-hand side: b / mu must not overflow for shifts above the floor
    W = 1e6 * rng.standard_normal((40, len(mus)))
    X = solve_discrete_sylvester(M, N, W)
    assert np.isfinite(X).all()
    assert rel_max_err(X, kron_solve_sylvester(M, N, W)) < 1e-10
    XT = solve_discrete_sylvester(N.T, M.T, W.T)  # the shifts on the M side
    assert np.isfinite(XT).all()
    assert rel_max_err(XT, kron_solve_sylvester(N.T, M.T, W.T)) < 1e-10


def test_sylvester_tiny_shift_still_checks_uniqueness():
    # a shift at the annulus floor against an eigenvalue of 1e12: the product
    # is 1, and the rescaled sweep must still refuse it
    M = np.array([[1e12]])
    with pytest.raises(NoUniqueSolution):
        solve_discrete_sylvester(M, np.array([[1e-12]]), np.array([[1.0]]))


def test_schur_coordinate_solve_matches_back_transformed_result():
    rng = np.random.default_rng(17)
    M = mixed_spectrum(rng, 30)
    N = mixed_spectrum(rng, 5)
    W = rng.standard_normal((30, 5))
    fm, fn = SchurFactor.of(M), SchurFactor.of(N)
    Ct = to_schur(fm, fn, W)
    assert Ct.shape == (5, 30) and Ct.flags.c_contiguous
    Yt = solve_schur(fm, fn, Ct)
    assert Yt is Ct  # solved in place
    np.testing.assert_allclose(from_schur(fm, fn, Yt),
                               solve_discrete_sylvester(M, N, W), rtol=0, atol=1e-13)
    # Y = Zm^H X Zn solves the triangular equation
    Y = Yt.T
    np.testing.assert_allclose(fm.T @ Y @ fn.T + to_schur(fm, fn, W).T, Y, atol=1e-12)
