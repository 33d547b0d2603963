import os

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import linalg

from conftest import U_BENCH_FADING, nearest_isometry
from netstab.analysis import (
    StateSpace,
    analyze,
    channel_powers_awgn,
    closed_loop,
    covariance_rhs,
    default_time_step,
    h2_gramian_entrywise,
    h2_norm_squared,
    mixed_norms,
    ms_norm,
    ms_operator,
    ms_operator_abscissa,
    simulate_fading_covariance,
)
from netstab.cli import main
from netstab.codesign import CoDesign, codesign, synthesize_codec
from netstab.errors import NotHurwitz
from netstab.numerics import (
    integrate_linear_matrix_ode,
    solve_care_stabilizing,
    spectral_radius,
)
from netstab.plantmodel import ChannelEnsemble, Plant

FADING_FILE = os.path.join(
    os.path.dirname(__file__), os.pardir, "problems", "demo_fading.yaml"
)


def scalar_entry_system(gains, poles):
    """Diagonal transfer matrix with prescribed entry H2 norms.

    Entry i is  c_i / (s + a_i)  whose squared H2 norm is c_i^2 / (2 a_i).
    """
    a = np.asarray(poles, float)
    c = np.asarray(gains, float)
    return StateSpace(Acl=np.diag(-a), Bcl=np.eye(a.size), Ccl=np.diag(c))


class TestClosedLoop:
    def test_benchmark_awgn_spectrum(self, bench_plant, bench_awgn):
        res = codesign(bench_plant, bench_awgn)
        ss = closed_loop(bench_plant, res.design)
        assert_allclose(
            np.sort(np.linalg.eigvals(ss.Acl).real), [-4, -2, -1, -1], atol=1e-6
        )
        assert ss.hurwitz

    def test_zero_gain_zero_transfer(self):
        p = Plant(A=np.diag([-1.0, -2.0]), B=np.eye(2))
        ch = ChannelEnsemble(kind="awgn", power=[1.0, 1.0], noise_density=[1.0, 1.0])
        design = CoDesign(
            kind="awgn", F=np.zeros((2, 2)), T=np.eye(2), R=np.eye(2),
            epsilon=1.0, gamma=np.zeros(2), U=np.eye(2),
        )
        ss = closed_loop(p, design)
        assert_allclose(h2_gramian_entrywise(ss), np.zeros((2, 2)))
        assert analyze(p, design, ch).stabilized


class TestEntrywiseGramians:
    def test_first_block_energy(self):
        A = np.diag([4.0, 2.0, 1.0])
        b = np.ones((3, 1))
        f = -(b.T @ solve_care_stabilizing(A, b))
        ss = StateSpace(Acl=A + b @ f, Bcl=b, Ccl=f)
        assert_allclose(h2_gramian_entrywise(ss), [[14.0]], rtol=1e-9)

    def test_scalar_block_energy(self):
        ss = StateSpace(
            Acl=np.array([[-1.0]]), Bcl=np.array([[1.0]]), Ccl=np.array([[-2.0]])
        )
        assert_allclose(h2_gramian_entrywise(ss), [[2.0]], rtol=1e-12)

    def test_requires_hurwitz(self):
        ss = StateSpace(Acl=np.array([[1.0]]), Bcl=np.eye(1), Ccl=np.eye(1))
        with pytest.raises(NotHurwitz):
            h2_gramian_entrywise(ss)

    def test_entry_sums_match_aggregate(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            n, p, q = 4, 3, 2
            A = rng.normal(size=(n, n))
            A -= (np.max(np.linalg.eigvals(A).real) + 0.4) * np.eye(n)
            B = rng.normal(size=(n, p))
            C = rng.normal(size=(q, n))
            ss = StateSpace(Acl=A, Bcl=B, Ccl=C)
            K = h2_gramian_entrywise(ss)
            assert_allclose(
                K.sum(), h2_norm_squared(ss), rtol=1e-8, atol=1e-10
            )


class TestChannelPowers:
    def test_benchmark_pipeline_powers(self, bench_plant, bench_awgn):
        res = codesign(bench_plant, bench_awgn)
        powers = channel_powers_awgn(bench_plant, res.design, bench_awgn.noise_density)
        assert np.all(powers < bench_awgn.power)
        assert_allclose(powers, res.report.channel_powers, rtol=1e-12)

    def test_zero_noise_zero_power(self, bench_plant, bench_awgn):
        res = codesign(bench_plant, bench_awgn)
        powers = channel_powers_awgn(bench_plant, res.design, np.zeros(3))
        assert_allclose(powers, np.zeros(3), atol=1e-12)

    def test_capacity_identity_lower_bound(self, bench_plant, bench_awgn):
        # any stabilizing design spends at least the plant entropy:
        # sum of powers over twice the noise densities >= H(A)
        rng = np.random.default_rng(42)
        base = codesign(bench_plant, bench_awgn).design
        N = bench_awgn.noise_density
        for _ in range(10):
            W = np.linalg.qr(rng.normal(size=(3, 3)))[0][:, :2]
            T, R = synthesize_codec(bench_awgn, W, epsilon=float(rng.uniform(0.05, 1)), m=2)
            design = CoDesign(
                kind="awgn", F=base.F, T=T, R=R, epsilon=1.0,
                gamma=np.zeros(3), U=W,
            )
            powers = channel_powers_awgn(bench_plant, design, N)
            assert np.sum(powers / (2.0 * N)) >= 8.0 - 1e-6


class TestMeanSquareNorm:
    def test_benchmark_fading_below_one(self, bench_plant, bench_fading):
        res = codesign(bench_plant, bench_fading)
        ss = closed_loop(bench_plant, res.design)
        phi = np.sqrt(bench_fading.variance) / bench_fading.mean
        assert ms_norm(ss, phi) < 1.0

    def test_zero_transfer(self):
        ss = StateSpace(Acl=np.diag([-1.0, -2.0]), Bcl=np.eye(2), Ccl=np.zeros((2, 2)))
        assert ms_norm(ss, np.ones(2)) == 0.0

    def test_diagonal_reduces_to_max(self):
        ss = scalar_entry_system(gains=[np.sqrt(8.0), 6.0], poles=[1.0, 2.0])
        phi = np.array([1.0, 0.5])
        expected = max(4.0 * 1.0, 9.0 * 0.25)
        assert ms_norm(ss, phi) == pytest.approx(np.sqrt(expected), rel=1e-9)


class TestMixedNorms:
    def test_diagonal_entries(self):
        ss = scalar_entry_system(gains=[np.sqrt(8.0), 6.0], poles=[1.0, 2.0])
        n21, n2inf = mixed_norms(ss)
        assert n21 == pytest.approx(3.0, rel=1e-9)
        assert n2inf == pytest.approx(3.0, rel=1e-9)

    def test_zero_transfer(self):
        ss = StateSpace(Acl=np.diag([-1.0]), Bcl=np.eye(1), Ccl=np.zeros((1, 1)))
        assert mixed_norms(ss) == (0.0, 0.0)

    def test_scaling_bounds_ms_norm(self):
        # diagonal scalings never beat the mean-square norm; the scaling
        # built from the Perron eigenvector achieves it
        rng = np.random.default_rng(13)
        for _ in range(5):
            n, l = 4, 3
            A = rng.normal(size=(n, n))
            A -= (np.max(np.linalg.eigvals(A).real) + 0.6) * np.eye(n)
            ss = StateSpace(Acl=A, Bcl=rng.normal(size=(n, l)), Ccl=rng.normal(size=(l, n)))
            K = h2_gramian_entrywise(ss)
            rho = spectral_radius(K)
            ms = np.sqrt(rho)
            for _ in range(20):
                d = rng.uniform(0.2, 5.0, size=l)
                scaled = StateSpace(Acl=A, Bcl=ss.Bcl * d, Ccl=ss.Ccl / d[:, None])
                n21, n2inf = mixed_norms(scaled)
                assert ms <= n21 + 1e-9
                assert ms <= n2inf + 1e-9
            wl, vl = np.linalg.eig(K.T)
            u = np.abs(vl[:, np.argmax(wl.real)].real)
            scaled = StateSpace(
                Acl=A, Bcl=ss.Bcl / np.sqrt(u), Ccl=ss.Ccl * np.sqrt(u)[:, None]
            )
            assert mixed_norms(scaled)[0] == pytest.approx(ms, abs=1e-6)
            wr, vr = np.linalg.eig(K)
            v = np.abs(vr[:, np.argmax(wr.real)].real)
            scaled = StateSpace(
                Acl=A, Bcl=ss.Bcl * np.sqrt(v), Ccl=ss.Ccl / np.sqrt(v)[:, None]
            )
            assert mixed_norms(scaled)[1] == pytest.approx(ms, abs=1e-6)


class TestCovarianceSimulation:
    def test_benchmark_fading_decays(self, bench_plant, bench_fading):
        res = codesign(bench_plant, bench_fading)
        traj = simulate_fading_covariance(
            bench_plant, res.design, bench_fading, t_end=60.0
        )
        assert not traj.diverged
        norms = traj.frobenius_norms()
        assert norms[-1] < norms.max()
        tail = norms[int(0.8 * norms.size):]
        assert np.all(np.diff(tail) <= 1e-9)

    def test_open_loop_diverges(self, bench_plant, bench_fading):
        U = nearest_isometry(U_BENCH_FADING)
        T, R = synthesize_codec(bench_fading, U, epsilon=0.1, m=2)
        design = CoDesign(
            kind="fading", F=np.zeros((2, 4)), T=T, R=R, epsilon=0.1,
            gamma=np.zeros(3), U=U, mean=bench_fading.mean,
        )
        traj = simulate_fading_covariance(
            bench_plant, design, bench_fading, t_end=60.0, dt=0.0025
        )
        assert traj.diverged
        assert traj.diverged_at < 60.0

    def test_negligible_noise_matches_lyapunov_flow(self, bench_plant):
        ch = ChannelEnsemble(
            kind="fading", mean=[2.0, 0.6, 0.9], variance=[1e-30] * 3
        )
        res = codesign(bench_plant, ch)
        traj = simulate_fading_covariance(bench_plant, res.design, ch, t_end=2.0)
        Acl = bench_plant.A + bench_plant.B @ res.design.F
        X0 = np.outer(bench_plant.x0, bench_plant.x0)
        E = linalg.expm(Acl * traj.times[-1])
        assert_allclose(traj.states[-1], E @ X0 @ E.T, atol=1e-6)

    def test_trajectory_is_decimated(self, bench_plant, bench_fading):
        res = codesign(bench_plant, bench_fading)
        t_end, dt = 150.0, 0.01
        traj = simulate_fading_covariance(
            bench_plant, res.design, bench_fading, t_end=t_end, dt=dt
        )
        assert traj.times.size <= 10_000
        assert traj.times[-1] == pytest.approx(t_end)
        # the fixed-step grid: steps of dt accumulated, the last one
        # shortened to end at t_end, then every stride-th sample and the last
        grid = [0.0]
        while grid[-1] < t_end - 1e-12 * t_end:
            grid.append(grid[-1] + min(dt, t_end - grid[-1]))
        stride = int(np.ceil(len(grid) / 10_000))
        assert stride > 1
        expected = grid[::stride] + ([grid[-1]] if (len(grid) - 1) % stride else [])
        np.testing.assert_array_equal(traj.times, expected)

    def test_coarse_step_at_horizon_stays_exact(self, bench_plant, bench_fading, tmp_path):
        # dt sets only the sample spacing: a step of 0.5 on the criterion-03
        # horizon must neither lose accuracy nor report divergence
        res = codesign(bench_plant, bench_fading)
        L = ms_operator(bench_plant, res.design, bench_fading)
        alpha = ms_operator_abscissa(bench_plant, res.design, bench_fading)
        t_end = float(np.log(1e5) / abs(alpha))
        traj = simulate_fading_covariance(
            bench_plant, res.design, bench_fading, t_end=t_end, dt=0.5
        )
        assert not traj.diverged
        assert traj.times.size == 610
        v0 = np.outer(bench_plant.x0, bench_plant.x0).ravel(order="F")
        for t, X in zip(traj.times, traj.states):
            ref = linalg.expm(L * t) @ v0
            assert np.linalg.norm(X.ravel(order="F") - ref) <= 1e-8 * np.linalg.norm(ref)
        out = tmp_path / "traj.json"
        argv = ["simulate", FADING_FILE, "--t-end", repr(t_end), "--dt", "0.5",
                "--format", "machine", "--out", str(out)]
        assert main(argv) == 0

    def test_strongly_nonnormal_design_matches_rk4(self):
        # codesign accepts this design (ms_norm 0.71), but the covariance
        # rises from 24 to 6.8e9 by t = 10 and falls to 4.6e4 by t = 30.
        # Propagated in the original coordinates, the rounding error of expm
        # grows along that transient: 3-9% off at t = 20, 32x at t = 30
        # with the triangle alone.
        # RK4 at dt/4 and dt/16 agree to 4e-5 up to t = 20 and to 1.5e-2
        # at t = 30.
        n, k = 24, 6
        rng = np.random.default_rng((0, n))
        S, _ = np.linalg.qr(rng.normal(size=(n, n)))
        A = S @ np.diag(np.kron([2.0, 1.0, -1.0, -2.0], np.ones(k))) @ S.T
        plant = Plant(A=0.5 * (A + A.T), B=rng.normal(size=(n, k)), x0=np.ones(n))
        ch = ChannelEnsemble(kind="fading", mean=np.ones(k), variance=np.full(k, 1 / 12))
        design = codesign(plant, ch).design
        dt = default_time_step(plant, design)
        traj = simulate_fading_covariance(plant, design, ch, t_end=30.0)
        ref = integrate_linear_matrix_ode(
            covariance_rhs(plant, design, ch), np.outer(plant.x0, plant.x0), 30.0, dt / 4
        )
        for t, tol in ((10.0, 1e-3), (20.0, 1e-3), (30.0, 5e-2)):
            i = int(np.argmin(abs(traj.times - t)))
            R = ref.states[int(np.argmin(abs(ref.times - traj.times[i])))]
            assert np.linalg.norm(traj.states[i] - R) <= tol * np.linalg.norm(R)
            assert np.linalg.eigvalsh(traj.states[i])[0] >= -1e-12 * np.linalg.norm(R)


class TestMeanSquareOperator:
    def test_operator_applies_the_covariance_rhs(self, bench_plant, bench_fading):
        design = codesign(bench_plant, bench_fading).design
        L = ms_operator(bench_plant, design, bench_fading)
        rhs = covariance_rhs(bench_plant, design, bench_fading)
        rng = np.random.default_rng(5)
        for _ in range(5):
            M = rng.normal(size=(4, 4))
            X = M + M.T
            expected = rhs(X).ravel(order="F")
            got = L @ X.ravel(order="F")
            assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)


class TestAnalyze:
    def test_benchmark_awgn_stabilized(self, bench_plant, bench_awgn):
        res = codesign(bench_plant, bench_awgn)
        report = analyze(bench_plant, res.design, bench_awgn)
        assert report.stabilized
        assert np.all(report.margins > 0)

    def test_inflated_variance_breaks_feasibility(self, bench_plant, bench_fading):
        inflated = ChannelEnsemble(
            kind="fading",
            mean=bench_fading.mean,
            variance=10.0 * bench_fading.variance,
        )
        res = codesign(bench_plant, inflated)
        assert not res.feasible
        # the design tuned for the mild channels violates the norm bound here
        design = codesign(bench_plant, bench_fading).design
        report = analyze(bench_plant, design, inflated)
        assert report.verdict == "ms_norm_violation"
        assert report.ms_norm[0] > 1.0

    def test_unstable_gain_reported(self, bench_plant, bench_awgn):
        design = codesign(bench_plant, bench_awgn).design
        broken = CoDesign(
            kind="awgn", F=np.zeros_like(design.F), T=design.T, R=design.R,
            epsilon=design.epsilon, gamma=design.gamma, U=design.U,
        )
        report = analyze(bench_plant, broken, bench_awgn)
        assert report.verdict == "unstable"


class TestMsNormOdeConsistency:
    def test_norm_below_one_means_decay_and_above_means_growth(
        self, bench_plant, bench_fading
    ):
        res = codesign(bench_plant, bench_fading)
        phi = np.sqrt(bench_fading.variance) / bench_fading.mean
        for eps in (res.design.epsilon, 0.5):
            T, R = synthesize_codec(bench_fading, res.design.U, epsilon=eps, m=2)
            Q_inv = np.linalg.inv(res.decomposition.Q)
            design = CoDesign(
                kind="fading", F=res.design.F, T=T @ Q_inv, R=res.decomposition.Q @ R,
                epsilon=eps, gamma=res.design.gamma, U=res.design.U,
                mean=bench_fading.mean,
            )
            value = ms_norm(closed_loop(bench_plant, design), phi)
            if abs(value - 1.0) < 1e-3:
                continue  # boundary: neither behavior is certifiable
            alpha = ms_operator_abscissa(bench_plant, design, bench_fading)
            if value < 1.0:
                assert alpha < 0
                horizon = np.log(1e5) / abs(alpha)
                traj = simulate_fading_covariance(
                    bench_plant, design, bench_fading, t_end=min(horizon, 500.0)
                )
                norms = traj.frobenius_norms()
                assert norms[-1] < 1e-3 * norms[0]
            else:
                assert alpha > 0
                traj = simulate_fading_covariance(
                    bench_plant, design, bench_fading, t_end=80.0
                )
                norms = traj.frobenius_norms()
                assert traj.diverged or norms[-1] > 1e3 * norms[0]
