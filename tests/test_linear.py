import numpy as np
import pytest

from decaycert.linear import (
    eps_max,
    neumann_inverse,
    perron_direction,
    random_contractive,
    spectral_radius,
)


class TestSpectralRadius:
    def test_zero_matrix(self):
        assert spectral_radius(np.zeros((3, 3))) == 0.0

    def test_swap_half(self):
        # characteristic polynomial x^2 - 0.25
        assert spectral_radius([[0, 0.5], [0.5, 0]]) == pytest.approx(0.5, rel=1e-9)

    def test_scalar(self):
        assert spectral_radius([[0.8]]) == pytest.approx(0.8)

    def test_nilpotent(self):
        assert spectral_radius([[0, 1], [0, 0]]) == 0.0

    def test_permutation_needs_shift(self):
        assert spectral_radius([[0, 1], [1, 0]]) == pytest.approx(1.0, rel=1e-6)

    def test_asymmetric_periodic_needs_shift(self):
        # eigenvalues +-1: periodic, so plain power iteration would oscillate
        assert spectral_radius([[0, 2], [0.5, 0]]) == pytest.approx(1.0, rel=1e-6)

    def test_against_dense_eigensolver(self):
        rng = np.random.default_rng(51)
        for _ in range(40):
            n = int(rng.integers(2, 9))
            A = rng.random((n, n)) * rng.choice([0.1, 1.0, 10.0])
            expected = float(max(abs(np.linalg.eigvals(A))))
            assert spectral_radius(A) == pytest.approx(expected, rel=1e-6)

    def test_constant_row_sums(self):
        # A 1 = c 1 with A > 0, so rho = c and the right Perron vector is 1/n
        rng = np.random.default_rng(55)
        for _ in range(200):
            n = int(rng.integers(1, 12))
            c = float(rng.uniform(0.05, 20.0))
            B = rng.random((n, n))
            A = c * B / B.sum(axis=1, keepdims=True)
            assert spectral_radius(A) == pytest.approx(c, rel=1e-12)
            np.testing.assert_allclose(perron_direction(A), np.full(n, 1.0 / n), atol=1e-12)

    def test_upper_triangular(self):
        rng = np.random.default_rng(56)
        for _ in range(100):
            n = int(rng.integers(1, 12))
            A = np.triu(rng.random((n, n)) * rng.choice([0.1, 1.0, 10.0]))
            assert spectral_radius(A) == pytest.approx(A.diagonal().max(), rel=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    @pytest.mark.parametrize("lam", [0.0, 0.5, 1.0, 7.5])
    def test_jordan_block(self, n, lam):
        # defective: one eigenvector e_1 for the n-fold eigenvalue lam
        J = lam * np.eye(n) + np.eye(n, k=1)
        assert spectral_radius(J) == pytest.approx(lam, rel=1e-12, abs=1e-12)
        np.testing.assert_allclose(perron_direction(J), np.eye(n)[0], atol=1e-12)

    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError):
            spectral_radius([[0.5, -0.1], [0.0, 0.5]])


class TestRandomContractive:
    def test_target_radius_met(self):
        for seed in range(5):
            A = random_contractive(5, 0.8, seed)
            assert spectral_radius(A) == pytest.approx(0.8, rel=1e-6)

    def test_deterministic(self):
        np.testing.assert_array_equal(
            random_contractive(4, 0.9, seed=7), random_contractive(4, 0.9, seed=7)
        )

    def test_different_seeds_differ(self):
        assert not np.array_equal(
            random_contractive(4, 0.9, seed=7), random_contractive(4, 0.9, seed=8)
        )

    def test_one_dimensional(self):
        np.testing.assert_allclose(random_contractive(1, 0.8, seed=0), [[0.8]], rtol=1e-12)

    def test_entries_nonnegative(self):
        assert np.all(random_contractive(6, 1.2, seed=2) >= 0.0)

    def test_rejects_a_draw_with_radius_zero(self, monkeypatch):
        # a uniform draw is almost surely positive, so only a stand-in radius reaches this
        monkeypatch.setattr("decaycert.linear.spectral_radius", lambda A: 0.0)
        with pytest.raises(ValueError, match="^seed 3 drew a matrix with spectral radius 0$"):
            random_contractive(2, 0.5, seed=3)

    @pytest.mark.parametrize("rho", [float("nan"), float("inf")])
    def test_rejects_non_finite_target(self, rho):
        with pytest.raises(ValueError, match="rho_target must be positive and finite"):
            random_contractive(3, rho, seed=0)


class TestNeumannInverse:
    def test_scalar_geometric_series(self):
        np.testing.assert_allclose(neumann_inverse([[0.5]]), [[2.0]], atol=1e-9)

    def test_zero_matrix_gives_identity(self):
        np.testing.assert_allclose(neumann_inverse(np.zeros((3, 3))), np.eye(3))

    def test_two_by_two_hand_inverse(self):
        expected = [[4 / 3, 2 / 3], [2 / 3, 4 / 3]]
        np.testing.assert_allclose(
            neumann_inverse([[0, 0.5], [0.5, 0]], tol=1e-12), expected, atol=1e-9
        )

    def test_residual_bound_and_nonnegativity(self):
        rng = np.random.default_rng(52)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            A = random_contractive(n, float(rng.uniform(0.2, 0.95)), int(rng.integers(1000)))
            tol = 1e-8
            M = neumann_inverse(A, tol=tol)
            assert np.all(M >= 0.0)
            residual = np.max(np.abs((np.eye(n) - A) @ M - np.eye(n)))
            assert residual < 10 * tol

    @pytest.mark.parametrize("rho", [0.9999, 0.99999])
    def test_near_unit_radius_within_its_residual(self, rho):
        # a term-by-term sum would need over 1e5 products here; doubling needs about 30
        for n, seed in [(2, 0), (5, 0), (8, 3)]:
            A = random_contractive(n, rho, seed)
            M = neumann_inverse(A)
            assert np.all(M >= 0.0)
            assert np.max(np.abs((np.eye(n) - A) @ M - np.eye(n))) < 10 * 1e-10

    def test_rejects_a_radius_beyond_its_stated_range(self):
        with pytest.raises(ValueError, match="above 1 - 1e-6"):
            neumann_inverse(random_contractive(5, 1.0 - 1e-7, 0))

    def test_nilpotent_matrix_with_a_large_entry(self):
        # rho = 0: the series stops after one term however large that term is
        np.testing.assert_array_equal(neumann_inverse([[0, 2e12], [0, 0]]), [[1, 2e12], [0, 1]])

    @pytest.mark.parametrize("A", [
        [[0, 1e200, 0], [0, 0, 1e200], [0, 0, 0]],  # rho = 0, but A^2 has the entry 1e400
        [[0, 1e308, 1e308], [0, 0, 1], [0, 0, 0]],  # rho = 0, but a sum overflows
    ])
    def test_an_overflowing_series_raises(self, A):
        with pytest.raises(ValueError, match="overflows"):
            neumann_inverse(A)

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0])
    def test_rejects_a_bad_tolerance(self, tol):
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            neumann_inverse([[0, 0.5], [0.5, 0]], tol=tol)

    @pytest.mark.parametrize("A", [[[1.0]], [[0, 1], [1, 0]], [[1.2]]])
    def test_rejects_non_contractive(self, A):
        with pytest.raises(ValueError, match="spectral radius"):
            neumann_inverse(A)


class TestEpsMax:
    def test_closed_forms(self):
        # s -> a s decays by (1 - a) s_i; the swap's optimum is the uniform point
        assert eps_max([[0.8]], 10.0) == pytest.approx(2.0, rel=1e-12)
        assert eps_max([[0, 0.5], [0.5, 0]], 10.0) == pytest.approx(2.5, rel=1e-12)
        assert eps_max(np.zeros((4, 4)), 1.0) == pytest.approx(0.25, rel=1e-12)

    def test_optimum_decays_equally_in_every_component(self):
        for seed in range(5):
            A = random_contractive(6, 0.9, seed)
            w = np.linalg.solve(np.eye(6) - A, np.ones(6))
            s = 10.0 * w / np.sum(w)
            np.testing.assert_allclose(s - A @ s, eps_max(A, 10.0), rtol=1e-12)

    @pytest.mark.parametrize("A", [np.eye(3), [[0, 1], [1, 0]], [[1.5]],
                                   [[1e308, 1e308], [1e308, 1e308]]])
    def test_zero_without_contraction(self, A):
        assert eps_max(A, 10.0) == 0.0

    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError, match="negative"):
            eps_max([[0.5, -0.1], [0, 0.5]], 1.0)

    @pytest.mark.parametrize("r", [float("nan"), float("inf"), -1.0])
    def test_rejects_a_bad_radius(self, r):
        with pytest.raises(ValueError, match="r must be positive and finite"):
            eps_max([[0.5]], r)


class TestPerronDirection:
    def test_symmetric_swap(self):
        np.testing.assert_allclose(perron_direction([[0, 0.5], [0.5, 0]]), [0.5, 0.5], atol=1e-10)

    def test_scalar(self):
        np.testing.assert_allclose(perron_direction([[0.8]]), [1.0])

    def test_eigen_equation_holds(self):
        A = np.array([[0.4, 0.4], [0.1, 0.7]])
        v = perron_direction(A)
        rho = spectral_radius(A)
        assert np.max(np.abs(A @ v - rho * v)) < 1e-8
        assert v.sum() == pytest.approx(1.0)

    def test_against_dense_eigensolver(self):
        rng = np.random.default_rng(53)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            A = rng.random((n, n))
            v = perron_direction(A)
            w, vecs = np.linalg.eig(A)
            dom = np.argmax(np.abs(w))
            expected = np.abs(np.real(vecs[:, dom]))
            expected /= expected.sum()
            np.testing.assert_allclose(v, expected, atol=1e-6)

    def test_residual_invariant_on_random_matrices(self):
        rng = np.random.default_rng(54)
        for _ in range(30):
            n = int(rng.integers(2, 8))
            A = rng.random((n, n)) + 0.01
            v = perron_direction(A)
            rho = spectral_radius(A)
            assert np.max(np.abs(A @ v - rho * v)) < 1e-8

    def test_a_defective_root_falls_back_to_the_null_direction(self):
        # two blocks with rho = 1.0325 coupled one way: eig splits rho into a complex
        # pair whose eigenvector misses the residual bound
        A = np.array([[0.4, 0.8, 0, 0], [0.5, 0.4, 0, 0], [0.7, 0.9, 0.4, 0.5],
                      [0.2, 0.1, 0.8, 0.4]])
        rho = float(np.max(np.linalg.eigvals(A).real))
        v = perron_direction(A)
        assert np.all(v >= 0.0) and v.sum() == pytest.approx(1.0)
        assert np.max(np.abs(A @ v - rho * v)) <= 1e-8 * rho
        np.testing.assert_allclose(v[:2], 0.0, atol=1e-12)  # the block that feeds the other

    def test_contractive_direction_is_a_decay_witness(self):
        # for rho < 1 the scaled direction satisfies A(rv) << rv with margin (1-rho) r min(v)
        r = 10.0
        for seed in range(5):
            A = random_contractive(4, 0.8, seed=seed)
            v = perron_direction(A)
            w = r * v
            margin = float(np.min(w - A @ w))
            assert margin == pytest.approx((1 - 0.8) * r * float(np.min(v)), rel=1e-6)
            assert margin > 0.0
