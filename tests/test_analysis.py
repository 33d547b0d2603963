import dataclasses
import os
import re

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import linalg

from conftest import U_BENCH_FADING, benchmark_instances, nearest_isometry
from netstab.analysis import (
    MAX_GRID_STEPS,
    StateSpace,
    _ms_loop,
    _ms_lyapunov_coordinates,
    _ms_triangle,
    _sample_grid,
    analyze,
    channel_power_coefficients,
    channel_powers_awgn,
    closed_loop,
    covariance_rhs,
    default_time_step,
    h2_gramian_entrywise,
    h2_norm_squared,
    mixed_norms,
    ms_norm,
    ms_operator_abscissa,
    simulate_fading_covariance,
)
from netstab.cli import main
from netstab.codesign import CoDesign, codesign, synthesize_codec, synthesize_gain
from netstab.errors import InvalidInput, NetstabError, NotHurwitz, Overflow
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

    def test_spectrum_is_computed_once_on_first_use(self):
        Acl = np.array([[-1.0, 2.0, 0.0], [-2.0, -1.0, 0.0], [0.0, 0.0, -3.0]])
        ss = StateSpace(Acl=Acl, Bcl=np.eye(3), Ccl=np.eye(3))
        assert "spectrum" not in vars(ss)
        assert ss.hurwitz
        ev = np.linalg.eigvals(Acl)
        assert np.array_equal(ss.spectrum, ev[np.lexsort((ev.imag, ev.real))])
        assert vars(ss)["spectrum"] is ss.spectrum
        assert not StateSpace(Acl=-Acl, Bcl=np.eye(3), Ccl=np.eye(3)).hurwitz

    def test_non_finite_state_matrix_is_rejected_on_construction(self):
        with pytest.raises(NetstabError, match="A has non-finite entries"):
            StateSpace(Acl=np.array([[np.nan]]), Bcl=np.eye(1), Ccl=np.eye(1))


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

    def test_one_schur_form_for_all_columns(self, factorizations):
        rng = np.random.default_rng(9)
        A = rng.normal(size=(4, 4))
        A -= (np.max(np.linalg.eigvals(A).real) + 0.4) * np.eye(4)
        ss = StateSpace(Acl=A, Bcl=rng.normal(size=(4, 3)), Ccl=rng.normal(size=(3, 4)))
        factorizations.clear()
        h2_gramian_entrywise(ss)
        assert factorizations == {"schur": 1}


def power_coefficients(plant, ch, res):
    """:func:`channel_power_coefficients` of the AWGN design ``res`` found
    for ``plant`` and ``ch``, on its loop in decomposition coordinates."""
    d, m = res.decomposition, res.design.m_active
    _, F_bar = synthesize_gain(d)
    B_bar = d.staircase(plant.B)
    return channel_power_coefficients(
        d.block_diagonal() + B_bar @ F_bar, B_bar[:, :m], F_bar[:m],
        np.sqrt(ch.noise_density)[:, None] * res.design.U)


class TestChannelPowers:
    def test_benchmark_pipeline_powers(self, bench_plant, bench_awgn):
        res = codesign(bench_plant, bench_awgn)
        ss = closed_loop(bench_plant, res.design)
        powers = channel_powers_awgn(ss, bench_awgn.noise_density)
        assert np.all(powers < bench_awgn.power)
        assert_allclose(powers, res.report.channel_powers, rtol=1e-12)

    def test_polynomial_coefficients_give_the_powers(self, bench_plant, bench_awgn):
        # the demo's loop in decomposition coordinates, at scalings from the
        # one its search starts with to 1000 times below the accepted one
        res = codesign(bench_plant, bench_awgn)
        d, m = res.decomposition, res.design.m_active
        c = power_coefficients(bench_plant, bench_awgn, res)
        assert m == 2 and c.shape == (2 * m - 1, 3)
        Q_inv = np.linalg.inv(d.Q)
        for eps in (1.0, 0.3, res.design.epsilon, 1e-3 * res.design.epsilon):
            T, R = synthesize_codec(bench_awgn, res.design.U, eps, m)
            design = dataclasses.replace(res.design, T=T @ Q_inv[:m], R=d.Q[:, :m] @ R,
                                         epsilon=eps)
            powers = channel_powers_awgn(closed_loop(bench_plant, design),
                                         bench_awgn.noise_density)
            assert_allclose(eps ** np.arange(2 * m - 1) @ c, powers, rtol=1e-12)

    @pytest.mark.parametrize("seed", [None, 0, 1, 2])
    def test_constant_coefficient_is_the_limit(self, seed, bench_plant, bench_awgn):
        # c[0], the powers as eps -> 0, is the paper's 2 N gamma: on the AWGN
        # demo (seed None) and every benchmark AWGN design with two or more
        # active inputs
        if seed is None:
            problems = [(bench_plant, bench_awgn)]
        else:
            problems = [(Plant(A=inst.A, B=inst.B),
                         ChannelEnsemble(kind=inst.kind, **inst.params))
                        for inst in benchmark_instances(seed)
                        if inst.kind == "awgn" and inst.B.shape[1] >= 2
                        and len(inst.params["power"]) >= 2]
        checked = 0
        for plant, ch in problems:
            try:
                res = codesign(plant, ch)
            except NetstabError:
                continue
            if res.feasible and res.design.m_active >= 2:
                c = power_coefficients(plant, ch, res)
                assert_allclose(c[0], 2.0 * ch.noise_density * res.design.gamma,
                                rtol=1e-9, atol=0.0)
                checked += 1
        assert checked >= min(len(problems), 40)

    def test_zero_noise_zero_power(self, bench_plant, bench_awgn):
        res = codesign(bench_plant, bench_awgn)
        powers = channel_powers_awgn(closed_loop(bench_plant, res.design), np.zeros(3))
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
            powers = channel_powers_awgn(closed_loop(bench_plant, design), N)
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

    def test_overflow_is_typed(self):
        ss = StateSpace(Acl=-np.eye(2), Bcl=np.eye(2), Ccl=np.full((2, 2), 1e200))
        with pytest.raises(Overflow, match="mean-square norm: 4 of 4 entrywise"):
            ms_norm(ss, np.ones(2))

    def test_size_table_n96_overflows(self):
        # the codec scaling amplifies the dense T F until an entrywise H2
        # norm overflows at eps = 2^-22; the limit, 0.707107, needs the
        # search in decomposition coordinates
        with pytest.raises(Overflow, match=r"mean-square norm: \d+ of 576 "):
            codesign(*size_table_problem(96))

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


def size_table_problem(n):
    """Size-table fading plant: A = S diag((2, 1, -1, -2) (x) 1_k) S' with
    S from the QR of a normal draw of ``default_rng((0, n))``, B drawn next,
    k = n/4 fading subchannels with mean 1 and variance 1/12."""
    k = n // 4
    rng = np.random.default_rng((0, n))
    S, _ = np.linalg.qr(rng.normal(size=(n, n)))
    A = S @ np.diag(np.kron([2.0, 1.0, -1.0, -2.0], np.ones(k))) @ S.T
    plant = Plant(A=0.5 * (A + A.T), B=rng.normal(size=(n, k)), x0=np.ones(n))
    ch = ChannelEnsemble(kind="fading", mean=np.ones(k), variance=np.full(k, 1 / 12))
    return plant, ch


def dense_generator(ss):
    """n^2 x n^2 matrix of X -> Acl X + X Acl' + sum_i b_i b_i' (c_i' X c_i)
    acting on column-major vec(X): the Lyapunov part I (x) Acl + Acl (x) I
    plus, per input i, the rank-one re-injection vec(b_i b_i') (c_i (x) c_i)'."""
    eye, Ct = np.eye(ss.Acl.shape[0]), ss.Ccl.T
    reinjection = linalg.khatri_rao(ss.Bcl, ss.Bcl) @ linalg.khatri_rao(Ct, Ct).T
    return np.kron(eye, ss.Acl) + np.kron(ss.Acl, eye) + reinjection


def mp_ms_abscissa(plant, design, ch, dps=30):
    """Abscissa of the covariance generator restricted to symmetric
    matrices, built in the original coordinates from the stored design and
    solved by mpmath at ``dps`` digits: column (r, c), r <= c, of the
    triangle operator is the upper triangle of
    Acl E + E Acl' + sum_i s2_i g_i g_i' (c_i' E c_i), E = e_r e_c' + e_c e_r'
    (E = e_r e_r' on the diagonal), with Acl = A + BF, G = BR, C = TF."""
    n = plant.n
    with mpmath.workdps(dps):
        def mat(x):
            return mpmath.matrix(np.atleast_2d(x).tolist())

        Acl = mat(plant.A) + mat(plant.B) * mat(design.F)
        C = mat(design.T) * mat(design.F)
        G = mat(plant.B) * mat(design.R)
        s2 = [mpmath.mpf(v) for v in ch.variance]
        tri = [(r, c) for c in range(n) for r in range(c + 1)]
        Ls = mpmath.matrix(len(tri), len(tri))
        for j, (r, c) in enumerate(tri):
            E = mpmath.zeros(n, n)
            E[r, c] = E[c, r] = 1
            X = Acl * E + E * Acl.T
            for i, v in enumerate(s2):
                y = v * (C[i, :] * E * C[i, :].T)[0, 0]
                X += y * G[:, i] * G[:, i].T
            for k, (a, b) in enumerate(tri):
                Ls[k, j] = X[a, b]
        return float(max(mpmath.re(e) for e in mpmath.eig(Ls, left=False, right=False)))


def stepped_grid(t_end, dt):
    """Reference sample grid, built step by step: steps of dt accumulated,
    the last one shortened to end at t_end, then every stride-th sample and
    the last one, at most 10 000 in all."""
    grid = [0.0]
    while grid[-1] < t_end - 1e-12 * t_end:
        grid.append(grid[-1] + min(dt, t_end - grid[-1]))
    stride = int(np.ceil(len(grid) / 10_000))
    tail = [grid[-1]] if (len(grid) - 1) % stride else []
    return np.array(grid[::stride] + tail), stride


class TestSampleGrid:
    def check(self, t_end, dt):
        times, stride = _sample_grid(t_end, dt)
        expected, expected_stride = stepped_grid(t_end, dt)
        assert stride == expected_stride
        assert np.array_equal(times, expected)

    def test_demo_horizon(self, bench_plant, bench_fading):
        res = codesign(bench_plant, bench_fading)
        alpha = ms_operator_abscissa(bench_plant, res.design, bench_fading)
        t_end = float(np.log(1e5) / abs(alpha))
        self.check(t_end, default_time_step(bench_plant, res.design))
        self.check(t_end, 0.5)

    def test_random_horizons_and_steps(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            self.check(float(rng.uniform(0.01, 400.0)), float(10 ** rng.uniform(-3, 1)))

    def test_exact_multiples_and_single_step(self):
        for k in range(1, 40):
            for dt in (0.1, 0.3, 1 / 3):
                self.check(k * dt, dt)
        self.check(1.0, 2.0)

    def test_step_count_is_capped_before_allocating(self):
        assert MAX_GRID_STEPS == 100_000_000
        self.check(1.0, 2e-6)
        for dt, count in ((1e-8, "1e+09"), (1e-300, "1e+301"), (5e-324, "inf")):
            with pytest.raises(InvalidInput, match=(
                    rf"^t_end 10.0 and dt {dt!r} need {re.escape(count)} time steps, "
                    "more than the 100000000 a sample grid may hold$")):
                _sample_grid(10.0, dt)


def indexed_loop_states(plant, design, ch, t_end):
    """Reference covariance stack: the triangle propagated by ``np.dot`` into
    each indexed row in turn, then mapped back to the plant's coordinates."""
    dt = default_time_step(plant, design)
    times, stride = _sample_grid(t_end, dt)
    Ls, W, Winv, r, c = _ms_triangle(_ms_loop(plant, design, ch))
    tri = np.empty((times.size, r.size))
    tri[0] = (W @ np.outer(plant.x0, plant.x0) @ W.T)[r, c]
    step = linalg.expm(Ls * (stride * dt))
    for i in range(1, times.size - 1):
        np.dot(step, tri[i - 1], out=tri[i])
    tri[-1] = linalg.expm(Ls * (times[-1] - times[-2])) @ tri[-2]
    states = np.empty((times.size, plant.n, plant.n))
    states[:, r, c] = tri
    states[:, c, r] = tri
    np.matmul(Winv @ states, Winv.T, out=states)
    states[:, c, r] = states[:, r, c]
    return times, states


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

    def test_criterion_03_states_are_the_indexed_loop(self, bench_plant, bench_fading):
        # the same dgemv on the same rows: equal bit for bit, not just close
        design = codesign(bench_plant, bench_fading).design
        alpha = ms_operator_abscissa(bench_plant, design, bench_fading)
        t_end = float(np.log(1e5) / abs(alpha))
        traj = simulate_fading_covariance(bench_plant, design, bench_fading, t_end=t_end)
        times, states = indexed_loop_states(bench_plant, design, bench_fading, t_end)
        assert times.size == 7604 and not traj.diverged
        assert np.array_equal(traj.times, times)
        assert np.array_equal(traj.states, states)

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
        expected, stride = stepped_grid(t_end, dt)
        assert stride > 1
        np.testing.assert_array_equal(traj.times, expected)

    def test_coarse_step_at_horizon_stays_exact(self, bench_plant, bench_fading, tmp_path):
        # dt sets only the sample spacing: a step of 0.5 on the criterion-03
        # horizon must neither lose accuracy nor report divergence
        res = codesign(bench_plant, bench_fading)
        L = dense_generator(_ms_loop(bench_plant, res.design, bench_fading))
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
        plant, ch = size_table_problem(24)
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
        # Ls maps the triangle of Xw = W X W' to the triangle of W rhs(X) W'
        design = codesign(bench_plant, bench_fading).design
        Ls, W, Winv, r, c = _ms_triangle(_ms_loop(bench_plant, design, bench_fading))
        rhs = covariance_rhs(bench_plant, design, bench_fading)
        rng = np.random.default_rng(5)
        for _ in range(5):
            M = rng.normal(size=(4, 4))
            X = M + M.T
            expected = (W @ rhs(X) @ W.T)[r, c]
            got = Ls @ (W @ X @ W.T)[r, c]
            assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)

    @pytest.mark.parametrize("n", [None, 16])
    def test_triangle_is_the_dense_generator_restricted(self, bench_plant, bench_fading, n):
        # the fading demo (n = None) and the n = 16 size-table plant
        plant, ch = (bench_plant, bench_fading) if n is None else size_table_problem(n)
        ss = _ms_loop(plant, codesign(plant, ch).design, ch)
        Ls, W, Winv, r, c = _ms_triangle(ss)
        L = dense_generator(StateSpace(W @ ss.Acl @ Winv, W @ ss.Bcl, ss.Ccl @ Winv))
        # entry (r, c), r <= c, sits at column-major vec positions a and b
        a, b = r + plant.n * c, c + plant.n * r
        np.testing.assert_array_equal(Ls, L[a][:, a] + L[a][:, b] * (a != b))

    def test_lyapunov_coordinates_take_one_schur_form(
        self, bench_plant, bench_fading, factorizations
    ):
        design = codesign(bench_plant, bench_fading).design
        ss = _ms_loop(bench_plant, design, bench_fading)
        factorizations.clear()
        W, Winv = _ms_lyapunov_coordinates(ss)
        assert factorizations == {"schur": 1}
        assert not np.array_equal(W, np.eye(4))
        assert_allclose(W @ Winv, np.eye(4), atol=1e-12)

    def test_demo_abscissa_matches_extended_precision(self, bench_plant, bench_fading):
        design = codesign(bench_plant, bench_fading).design
        alpha = ms_operator_abscissa(bench_plant, design, bench_fading)
        assert abs(alpha - mp_ms_abscissa(bench_plant, design, bench_fading)) <= 1e-12

    def test_size_table_abscissa_matches_extended_precision(self):
        """The reference is ``mp_ms_abscissa(plant, design, ch)`` on the
        n = 16 size-table design at 30 digits, a 136 x 136 eigenproblem
        that takes minutes in mpmath, so it is pinned."""
        plant, ch = size_table_problem(16)
        design = codesign(plant, ch).design
        alpha = ms_operator_abscissa(plant, design, ch)
        assert abs(alpha - (-0.999997959021226)) <= 1e-3

    @pytest.mark.parametrize("n", [24, 32])
    def test_size_table_abscissa_sign(self, n):
        plant, ch = size_table_problem(n)
        res = codesign(plant, ch)
        assert res.report.ms_norm[0] < 1.0
        assert ms_operator_abscissa(plant, res.design, ch) < 0.0

    def test_abscissa_sign_follows_ms_norm_on_random_plants(self):
        # A = S diag(+-U(0.3, 2.5)) S^-1 with S = N(0, 1) + 2I, n = 1..8,
        # m = 1..2 inputs, l = m..m+2 fading subchannels with means
        # +-U(0.5, 2) and variances U(0.01, 0.3). An accepted design with a
        # clear margin decays; the same design with variances scaled to
        # put its ms_norm at 1.5 grows.
        checked = 0
        for seed in range(200):
            rng = np.random.default_rng((seed, 99))
            n, m = int(rng.integers(1, 9)), int(rng.integers(1, 3))
            S = rng.normal(size=(n, n)) + 2.0 * np.eye(n)
            poles = rng.choice([-1.0, 1.0], n) * rng.uniform(0.3, 2.5, n)
            A = S @ np.diag(poles) @ np.linalg.inv(S)
            B = rng.normal(size=(n, m))
            lch = int(rng.integers(m, m + 3))
            mean = rng.choice([-1.0, 1.0], lch) * rng.uniform(0.5, 2.0, lch)
            variance = rng.uniform(0.01, 0.3, lch)
            try:
                plant = Plant(A=A, B=B)
                ch = ChannelEnsemble(kind="fading", mean=mean, variance=variance)
                res = codesign(plant, ch)
            except NetstabError:
                continue
            if not res.feasible:
                continue
            assert res.report.stabilized
            value = res.report.ms_norm[0]
            if 1.0 - value < 1e-3 or value < 1e-6:
                continue
            checked += 1
            alpha = ms_operator_abscissa(plant, res.design, ch)
            assert alpha < 0.0, (seed, value, alpha)
            louder = ChannelEnsemble(
                kind="fading", mean=mean, variance=variance * (1.5 / value) ** 2
            )
            alpha = ms_operator_abscissa(plant, res.design, louder)
            assert alpha > 0.0, (seed, value, alpha)
        assert checked >= 100


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

    def test_spectrum_sorted_by_real_then_imaginary_part(self, bench_plant, bench_fading):
        # the demo's double eigenvalue -1 comes out of LAPACK as
        # -0.99999999999915, -0.9999999999999996
        spectra = [codesign(bench_plant, bench_fading).report.closed_loop_spectrum]
        p = Plant(A=np.array([[-1.0, 2.0, 0.0], [-2.0, -1.0, 0.0], [0.0, 0.0, -3.0]]),
                  B=np.eye(3))
        ch = ChannelEnsemble(kind="awgn", power=[1.0] * 3, noise_density=[1.0] * 3)
        design = CoDesign(
            kind="awgn", F=np.zeros((3, 3)), T=np.eye(3), R=np.eye(3),
            epsilon=1.0, gamma=np.zeros(3), U=np.eye(3),
        )
        spectra.append(analyze(p, design, ch).closed_loop_spectrum)
        assert_allclose(spectra[1], [-3.0, -1.0 - 2.0j, -1.0 + 2.0j], atol=1e-12)
        for spectrum in spectra:
            keys = [(z.real, z.imag) for z in spectrum]
            assert keys == sorted(keys)


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
