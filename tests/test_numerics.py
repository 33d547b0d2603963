import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import linalg

from conftest import ladder_block
from netstab.analysis import StateSpace, h2_norm_squared
from netstab.errors import (
    AxisEigenvalue,
    Diverged,
    IllConditioned,
    InvalidInput,
    NetstabError,
    NotHurwitz,
    Overflow,
    Unstabilizable,
)
from netstab.numerics import (
    LYAPUNOV,
    RICCATI,
    _quasi_triangular_eigenvalues,
    integrate_linear_matrix_ode,
    solve_care_stabilizing,
    solve_lyapunov,
    spectral_radius,
)


class TestLyapunov:
    def test_scalar(self):
        L = solve_lyapunov(np.array([[-1.0]]), np.array([[2.0]]))
        assert_allclose(L, [[1.0]])

    def test_decoupled_diagonal(self):
        L = solve_lyapunov(np.diag([-4.0, -2.0, -1.0]), np.eye(3))
        assert_allclose(L, np.diag([1 / 8, 1 / 4, 1 / 2]), atol=1e-12)

    def test_residual_and_psd_on_random(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = rng.integers(2, 7)
            A = rng.normal(size=(n, n))
            A -= (np.max(np.linalg.eigvals(A).real) + 0.5) * np.eye(n)
            W = rng.normal(size=(n, n))
            Q = W @ W.T
            L = solve_lyapunov(A, Q)
            assert_allclose(A @ L + L @ A.T + Q, np.zeros((n, n)),
                            atol=1e-8 * np.linalg.norm(Q))
            assert_allclose(L, L.T)
            assert np.min(np.linalg.eigvalsh(L)) >= -1e-9 * np.linalg.norm(L)

    def test_not_hurwitz(self):
        with pytest.raises(NotHurwitz):
            solve_lyapunov(np.array([[1.0]]), np.array([[1.0]]))

    def test_not_hurwitz_names_the_abscissa(self):
        # a rotation: the 2 x 2 Schur block has zero diagonal
        with pytest.raises(NotHurwitz, match="spectral abscissa 0.000e"):
            solve_lyapunov(np.array([[0.0, 1.0], [-1.0, 0.0]]), np.eye(2))

    def test_stack_matches_single_solves_and_scipy_bit_for_bit(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            n, k = rng.integers(1, 7), rng.integers(1, 5)
            A = rng.normal(size=(n, n))
            A -= (np.max(np.linalg.eigvals(A).real) + 0.3) * np.eye(n)
            W = rng.normal(size=(k, n, n))
            Q = W @ np.swapaxes(W, 1, 2)
            Q = 0.5 * (Q + np.swapaxes(Q, 1, 2))
            L = solve_lyapunov(A, Q)
            assert L.shape == (k, n, n)
            for Qj, Lj in zip(Q, L):
                assert np.array_equal(Lj, solve_lyapunov(A, Qj))
                X = linalg.solve_continuous_lyapunov(A, -Qj)
                assert np.array_equal(Lj, 0.5 * (X + X.T))

    def test_stack_of_one_keeps_its_shape(self):
        L = solve_lyapunov(np.diag([-1.0, -2.0]), np.eye(2)[None])
        assert L.shape == (1, 2, 2)
        assert_allclose(L[0], np.diag([0.5, 0.25]))

    @pytest.mark.parametrize("Q", [np.ones((2, 3, 3)), np.ones((1, 1, 2, 2)), np.ones(2)])
    def test_rejects_bad_stack_shapes(self, Q):
        with pytest.raises(InvalidInput):
            solve_lyapunov(-np.eye(2), Q)

    def test_one_failing_right_hand_side_fails_the_stack(self):
        A = -1e-10 * np.eye(2)
        with pytest.raises(Overflow):
            solve_lyapunov(A, np.stack([np.eye(2), 1e300 * np.eye(2)]))
        with pytest.raises(InvalidInput):
            solve_lyapunov(A, np.stack([np.eye(2), np.full((2, 2), np.nan)]))

    def test_overflowing_solution_is_typed(self):
        # the exact solution is 5e309 I; trsyl returns it scaled by 1e-300
        with pytest.raises(Overflow, match="trsyl scale 1.000e-300"):
            solve_lyapunov(-1e-10 * np.eye(2), 1e300 * np.eye(2))

    def test_non_finite_residual_fails_closed(self):
        # trsyl does not scale, but ||A|| ||L|| and the residual overflow
        A = np.array([[-1e10, 1e20], [0.0, -1e10]])
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NetstabError, match="residual inf"):
                solve_lyapunov(A, 1e250 * np.eye(2))

    def test_perturbed_eigenvalue_pair_is_typed(self):
        # lambda_1 + lambda_2 = -2e-10 against ||T|| = 1e10: trsyl perturbs the
        # sum, and its indefinite L (L_11 = -1.8e37) passes the residual check;
        # the solution has L_11 = 2.5e49
        A = np.array([[-1e-10, 1e10], [0.0, -1e-10]])
        with pytest.raises(IllConditioned, match=r"smallest \|lambda_i \+ lambda_j\| "
                           r"of Acl is 2\.000e-20 of \|\|T\|\|") as err:
            solve_lyapunov(A, np.eye(2))
        assert err.value.stage == LYAPUNOV
        assert err.value.cond == pytest.approx(5e19)

    def test_schur_form_eigenvalues_match_eigvals(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            M = rng.normal(size=(rng.integers(1, 9),) * 2)
            T = linalg.schur(M, sort="lhp")[0]
            assert_allclose(np.sort_complex(_quasi_triangular_eigenvalues(T)),
                            np.sort_complex(np.linalg.eigvals(M)), atol=1e-10)


class TestRiccati:
    def test_scalar_unstable(self):
        X = solve_care_stabilizing(np.array([[1.0]]), np.array([[1.0]]))
        assert_allclose(X, [[2.0]], atol=1e-10)

    def test_scalar_stable_gives_zero(self):
        X = solve_care_stabilizing(np.array([[-1.0]]), np.array([[1.0]]))
        assert_allclose(X, [[0.0]], atol=1e-10)

    def test_benchmark_block_gain(self):
        A = np.diag([4.0, 2.0, 1.0])
        b = np.ones((3, 1))
        X = solve_care_stabilizing(A, b)
        assert_allclose(-(b.T @ X), [[-40.0, 36.0, -10.0]], atol=1e-6)

    def test_axis_eigenvalue_rejected(self):
        with pytest.raises(AxisEigenvalue):
            solve_care_stabilizing(np.array([[0.0, 1.0], [-1.0, 0.0]]), np.eye(2))

    def test_unstabilizable_rejected(self):
        with pytest.raises(Unstabilizable):
            solve_care_stabilizing(np.array([[1.0]]), np.array([[0.0]]))

    def test_unreached_complex_pair_is_unstabilizable(self):
        # the pair 1 +- 2i sits in a 2 x 2 Schur block; S e_3 reaches only the
        # stable mode, S (e_1 + e_3) reaches the pair too
        S, _ = np.linalg.qr(np.random.default_rng(14).normal(size=(3, 3)))
        A = S @ linalg.block_diag([[1.0, 2.0], [-2.0, 1.0]], [[-1.0]]) @ S.T
        with pytest.raises(Unstabilizable):
            solve_care_stabilizing(A, S @ [[0.0], [0.0], [1.0]])
        b = S @ [[1.0], [0.0], [1.0]]
        X = solve_care_stabilizing(A, b)
        assert np.max(np.linalg.eigvals(A - b @ b.T @ X).real) < 0

    def test_pbh_reads_the_sorted_schur_form(self, factorizations):
        # the closed-loop Hurwitz check is the one eigen-solve left
        solve_care_stabilizing(*ladder_block(0, 8))
        assert factorizations["eigvals"] == 1

    def test_axis_eigenvalue_reported_ahead_of_unstabilizable(self):
        with pytest.raises(AxisEigenvalue):
            solve_care_stabilizing(np.diag([1.0, 0.0]), np.zeros((2, 1)))

    def test_mirror_spectrum_and_optimal_energy(self):
        # closed loop mirrors the unstable spectrum; for antistable A the
        # noise-to-input energy of the optimal loop equals twice the entropy
        rng = np.random.default_rng(5)
        for _ in range(10):
            n = int(rng.integers(2, 5))
            A = rng.normal(size=(n, n))
            A += (0.3 - np.min(np.linalg.eigvals(A).real)) * np.eye(n)
            b = rng.normal(size=(n, 1))
            if np.linalg.matrix_rank(
                np.hstack([b] + [np.linalg.matrix_power(A, i) @ b for i in range(1, n)])
            ) < n:
                continue
            X = solve_care_stabilizing(A, b)
            f = -(b.T @ X)
            closed = np.sort_complex(np.linalg.eigvals(A + b @ f))
            mirrored = np.sort_complex(-np.conj(np.linalg.eigvals(A)))
            assert_allclose(closed, mirrored, atol=1e-6)
            energy = h2_norm_squared(StateSpace(Acl=A + b @ f, Bcl=b, Ccl=f))
            assert_allclose(energy, 2 * np.sum(np.linalg.eigvals(A).real), rtol=1e-8)

    def test_optimal_energy_on_strongly_nonnormal_loop(self):
        # antistable pair with ||X|| ~ 5e7: the Riccati closed loop is
        # strongly non-normal, so the Lyapunov step must not lose digits
        A = np.array([
            [0.7493422231313607, -0.47341650034876176, -0.4069872199661861],
            [0.45500684820107246, 2.4983920527400016, 0.29596302128679725],
            [-1.700031542693344, -0.2589934834043972, 1.170099418847672],
        ])
        b = np.array([[-0.6562495832731701], [0.15690204251624446], [-1.2665742471174815]])
        X = solve_care_stabilizing(A, b)
        f = -(b.T @ X)
        entropy = float(np.sum(np.linalg.eigvals(A).real))
        best = 0.5 * h2_norm_squared(StateSpace(Acl=A + b @ f, Bcl=b, Ccl=f))
        assert abs(best - entropy) <= 1e-6 * max(1.0, entropy)

    def test_matches_scipy_on_mixed_spectra(self):
        # independent reference: scipy's Hamiltonian-based CARE solver with
        # zero state weight; X must also annihilate the stable subspace
        rng = np.random.default_rng(31)
        checked = 0
        while checked < 30:
            n = int(rng.integers(2, 11))
            m = int(rng.integers(1, 4))
            A = rng.normal(size=(n, n))
            re = np.linalg.eigvals(A).real
            if np.min(np.abs(re)) < 0.1 or np.all(re > 0) or np.all(re < 0):
                continue
            B = rng.normal(size=(n, m))
            X = solve_care_stabilizing(A, B)
            reference = linalg.solve_continuous_are(A, B, np.zeros((n, n)), np.eye(m))
            assert np.linalg.norm(X - reference) <= 1e-8 * np.linalg.norm(reference)
            _, Z, sdim = linalg.schur(A, sort="lhp")
            assert 0 < sdim < n
            assert np.linalg.norm(X @ Z[:, :sdim]) <= 1e-10 * np.linalg.norm(X)
            checked += 1

    def test_ill_conditioned_gramian_is_typed(self):
        # 12 spread poles through one input: cond(Y) is far past 1/eps
        A, b = ladder_block(0, 24)
        with pytest.raises(IllConditioned) as err:
            solve_care_stabilizing(A, b)
        assert err.value.stage == RICCATI
        assert err.value.block is None
        assert np.isfinite(err.value.cond) and err.value.cond > 1e16
        assert "cond(Y)" in str(err.value)


class TestSpectralRadius:
    @pytest.mark.parametrize(
        "Z, expected",
        [
            (np.eye(2), 1.0),
            (np.array([[0.0, 1.0], [1.0, 0.0]]), 1.0),
            (np.array([[2.0, 1.0], [1.0, 2.0]]), 3.0),
        ],
    )
    def test_values(self, Z, expected):
        assert_allclose(spectral_radius(Z), expected, rtol=1e-10)

    def test_rejects_negative_entries(self):
        with pytest.raises(InvalidInput):
            spectral_radius(np.array([[1.0, -1.0], [0.0, 1.0]]))


class TestIntegrator:
    def test_scalar_decay(self):
        traj = integrate_linear_matrix_ode(lambda X: -2.0 * X, np.eye(2), 1.0, 0.01)
        assert_allclose(traj.states[-1], np.exp(-2.0) * np.eye(2), atol=1e-6)
        assert traj.times[-1] == pytest.approx(1.0)

    def test_zero_rhs_constant(self):
        X0 = np.array([[2.0, 1.0], [1.0, 3.0]])
        traj = integrate_linear_matrix_ode(lambda X: 0.0 * X, X0, 0.5, 0.1)
        assert_allclose(traj.states[-1], X0)

    def test_fourth_order_convergence(self):
        # halving the step shrinks the scalar-decay error at least 8x
        exact = np.exp(-2.0)
        errs = []
        for dt in (0.1, 0.05):
            traj = integrate_linear_matrix_ode(
                lambda X: -2.0 * X, np.eye(1), 1.0, dt
            )
            errs.append(abs(traj.states[-1][0, 0] - exact))
        assert errs[0] / errs[1] >= 8.0

    def test_divergence_raises_with_time(self):
        with pytest.raises(Diverged) as err:
            integrate_linear_matrix_ode(lambda X: 500.0 * X, np.eye(1), 5.0, 0.01)
        assert 0.0 < err.value.time <= 5.0

    def test_divergence_flagged_when_not_raising(self):
        traj = integrate_linear_matrix_ode(
            lambda X: 500.0 * X, np.eye(1), 5.0, 0.01, raise_on_divergence=False
        )
        assert traj.diverged
        assert traj.times[-1] < 5.0

    def test_symmetry_enforced(self):
        rng = np.random.default_rng(0)
        M = rng.normal(size=(3, 3))
        traj = integrate_linear_matrix_ode(
            lambda X: M @ X + X @ M.T, np.eye(3), 0.3, 0.01
        )
        for X in traj.states:
            assert_allclose(X, X.T)

    def test_rejects_bad_steps(self):
        with pytest.raises(InvalidInput):
            integrate_linear_matrix_ode(lambda X: X, np.eye(1), 1.0, -0.1)
