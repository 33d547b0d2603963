"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines. Every tolerance is pinned here; nothing is deferred to calibration.
"""

import os
import time

import numpy as np
from numpy.testing import assert_allclose

from conftest import F_BENCH, U_BENCH_AWGN, U_BENCH_FADING
from test_cyclic import random_diagonalizable

from netstab.analysis import (
    StateSpace,
    analyze,
    h2_gramian_entrywise,
    h2_norm_squared,
    mixed_norms,
    ms_norm,
    ms_operator_abscissa,
    simulate_fading_covariance,
)
from netstab.cli import main as cli_main
from netstab.codesign import check_corollaries, codesign, synthesize_gain
from netstab.cyclic import cyclic_decompose
from netstab.majorize import (
    STRICT_WEAK_ABOVE,
    brute_force_feasible_gamma,
    check_order,
    construct_intermediate,
    pad_to_match,
    schur_horn_isometry,
    strictness_margin,
)
from netstab.numerics import solve_care_stabilizing, solve_lyapunov, stabilizable_pbh
from netstab.plantmodel import ChannelEnsemble, Plant, capacities

PROBLEMS = os.path.join(os.path.dirname(__file__), os.pardir, "problems")


class _Criterion:
    def __init__(self, num, description):
        self.num = num
        self.description = description

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        status = "PASS" if exc_type is None else "FAIL"
        print(f"\n[criterion {self.num:02d}] {status}  {self.description}")
        return False


def test_criterion_01_awgn_reproduction(bench_plant, bench_awgn):
    with _Criterion(1, "AWGN benchmark: gain, powers at eps=0.1, power margins, <1s"):
        start = time.perf_counter()
        res = codesign(bench_plant, bench_awgn)
        assert res.feasible
        assert np.max(np.abs(res.design.F - F_BENCH)) <= 1e-4
        assert np.all(res.report.channel_powers < bench_awgn.power)

        # powers of the published co-design (published isometry, eps = 0.1)
        D_inv = np.diag([1.0, 10.0])
        T = U_BENCH_AWGN @ D_inv
        R = D_inv.T @ np.diag([1.0, 0.01]) @ U_BENCH_AWGN.T  # = D U'
        Acl = bench_plant.A + bench_plant.B @ F_BENCH
        Bcl = bench_plant.B @ R
        Ccl = T @ F_BENCH
        L = solve_lyapunov(Acl, Bcl @ Bcl.T)
        powers = np.einsum("in,nm,im->i", Ccl, L, Ccl)
        assert_allclose(powers, [9.0848, 3.0299, 4.0249], atol=1e-3)
        assert np.all(powers < bench_awgn.power)
        assert time.perf_counter() - start < 1.0


def test_criterion_02_closed_loop_spectrum(bench_plant, bench_awgn):
    with _Criterion(2, "closed-loop spectrum mirrors the open-loop poles"):
        F, _ = synthesize_gain(cyclic_decompose(bench_plant))
        spectrum = np.sort(np.linalg.eigvals(bench_plant.A + bench_plant.B @ F).real)
        assert_allclose(spectrum, [-4.0, -2.0, -1.0, -1.0], atol=1e-6)


def test_criterion_03_fading_reproduction(bench_plant, bench_fading):
    with _Criterion(3, "fading benchmark: codec identity, MS norm, decay, <5s"):
        start = time.perf_counter()
        res = codesign(bench_plant, bench_fading)
        assert res.feasible
        M = np.diag(bench_fading.mean)
        assert np.max(np.abs(res.design.R @ M @ res.design.T - np.eye(2))) <= 1e-10
        assert res.report.ms_norm[0] < 1.0

        alpha = ms_operator_abscissa(bench_plant, res.design, bench_fading)
        assert alpha < 0
        t_end = min(np.log(1e5) / abs(alpha), 450.0)
        traj = simulate_fading_covariance(
            bench_plant, res.design, bench_fading, t_end=t_end
        )
        assert not traj.diverged
        norms = traj.frobenius_norms()
        assert norms[-1] < 1e-3 * norms[0]
        assert time.perf_counter() - start < 5.0


def _random_channels(rng, lch, entropy):
    total = max(entropy, 1.0) * rng.uniform(0.5, 1.7)
    weights = rng.uniform(0.2, 1.0, size=lch)
    caps = total * weights / weights.sum()
    if rng.random() < 0.5:
        noise = rng.uniform(0.5, 2.0, size=lch)
        return ChannelEnsemble(kind="awgn", power=2.0 * caps * noise, noise_density=noise)
    mean = rng.uniform(0.5, 2.0, size=lch)
    return ChannelEnsemble(kind="fading", mean=mean, variance=mean**2 / (2.0 * caps))


def test_criterion_04_theorem_equivalence():
    with _Criterion(4, "200 random plants: feasibility == order check; designs verify"):
        rng = np.random.default_rng(2024)
        checked = 0
        feasible_count = 0
        while checked < 200:
            n = int(rng.integers(1, 6))
            A, k = random_diagonalizable(rng, n)
            m = k + int(rng.integers(0, 2))
            B = rng.normal(size=(n, m))
            if not stabilizable_pbh(A, B):
                continue
            plant = Plant(A=A, B=B)
            d = cyclic_decompose(plant, seed=checked)
            ch = _random_channels(rng, m + int(rng.integers(0, 3)), float(np.sum(d.h)))
            c_pad, h_pad = pad_to_match(capacities(ch), d.h)
            expected = check_order(c_pad, h_pad, STRICT_WEAK_ABOVE).holds
            res = codesign(plant, ch, seed=checked)
            assert res.feasible == expected, (A, B, ch)
            if res.feasible:
                feasible_count += 1
                assert res.report.stabilized
                assert analyze(plant, res.design, ch).stabilized
            checked += 1
        assert 20 < feasible_count < 180  # the sweep covers both verdicts


def test_criterion_05_intermediate_oracle_equivalence():
    with _Criterion(5, "500 random pairs: order check == brute force; construction holds"):
        rng = np.random.default_rng(555)
        checked = 0
        positives = 0
        while checked < 500:
            lv = int(rng.integers(1, 4))
            k = int(rng.integers(1, lv + 1))
            h = np.concatenate(
                [np.sort(rng.uniform(0.2, 4.0, size=k))[::-1], np.zeros(lv - k)]
            )
            c = np.round(rng.uniform(0.1, 3.0, size=lv), 2)
            verdict = check_order(c, h, STRICT_WEAK_ABOVE)
            if 0 < np.min(verdict.slack) < 0.05:
                continue  # inside the finite grid's resolution either way
            found = brute_force_feasible_gamma(c, h, grid=160)
            assert (found is not None) == verdict.holds, (c, h)
            if verdict.holds:
                positives += 1
                gamma = construct_intermediate(c, h)
                assert np.all(c - gamma >= strictness_margin(c))
                gd, hd = -np.sort(-gamma), -np.sort(-h)
                assert np.all(np.cumsum(gd)[:-1] <= np.cumsum(hd)[:-1] + 1e-9)
                assert abs(gamma.sum() - h.sum()) <= 1e-10 * max(1.0, h.sum())
            checked += 1
        assert positives > 50


def test_criterion_06_isometry_construction(bench_awgn, bench_fading):
    with _Criterion(6, "200 random prescribed-diagonal isometries; published ones check out"):
        rng = np.random.default_rng(66)
        for _ in range(200):
            m = int(rng.integers(1, 7))
            lsz = m + int(rng.integers(0, 4))
            lam = np.sort(rng.uniform(0.0, 9.0, size=m))[::-1]
            lam_pad = np.concatenate([lam, np.zeros(lsz - m)])
            W = np.linalg.qr(rng.normal(size=(lsz, lsz)))[0]
            gamma = np.diag(W @ np.diag(lam_pad) @ W.T)
            U = schur_horn_isometry(lam, gamma)
            assert np.max(np.abs(U.T @ U - np.eye(m))) <= 1e-10
            assert np.max(np.abs(np.diag(U @ np.diag(lam) @ U.T) - gamma)) <= 1e-8

        # published isometries: orthonormal to their 4-decimal rounding, and
        # the demands they realize sit below the capacities and inside the
        # demand region (prefix sums within rounding of the entropy budget)
        lam = np.array([7.0, 1.0])
        for U_pub, ch in ((U_BENCH_AWGN, bench_awgn), (U_BENCH_FADING, bench_fading)):
            assert np.max(np.abs(U_pub.T @ U_pub - np.eye(2))) <= 2e-4
            realized = np.diag(U_pub @ np.diag(lam) @ U_pub.T)
            c = capacities(ch)
            assert np.all(realized < c)
            prefix = np.cumsum(-np.sort(-realized))
            budget = np.cumsum([7.0, 1.0, 0.0])
            assert np.all(prefix <= budget + 5e-4)

        # the exact demand vector published for the AWGN case is reachable
        # by our construction at full tolerance
        U = schur_horn_isometry(lam, np.array([4.5, 1.5, 2.0]))
        assert np.max(np.abs(np.diag(U @ np.diag(lam) @ U.T) - [4.5, 1.5, 2.0])) <= 1e-8


def test_criterion_07_optimal_gain_energy():
    with _Criterion(7, "50 antistable pairs: Riccati gain attains the entropy bound"):
        rng = np.random.default_rng(777)
        done = 0
        while done < 50:
            n = int(rng.integers(1, 5))
            A = rng.normal(size=(n, n))
            A += (0.25 - np.min(np.linalg.eigvals(A).real)) * np.eye(n)
            b = rng.normal(size=(n, 1))
            ctrb = np.hstack([np.linalg.matrix_power(A, i) @ b for i in range(n)])
            if np.linalg.matrix_rank(ctrb, tol=1e-8) < n:
                continue
            entropy = float(np.sum(np.linalg.eigvals(A).real))
            X = solve_care_stabilizing(A, b)
            f = -(b.T @ X)
            best = 0.5 * h2_norm_squared(StateSpace(Acl=A + b @ f, Bcl=b, Ccl=f))
            assert abs(best - entropy) <= 1e-6 * max(1.0, entropy)

            tried = 0
            while tried < 20:
                g = f * rng.uniform(0.7, 1.8) + rng.normal(size=f.shape) * rng.uniform(0.05, 1.0)
                if np.max(np.linalg.eigvals(A + b @ g).real) >= -1e-6:
                    continue
                other = 0.5 * h2_norm_squared(StateSpace(Acl=A + b @ g, Bcl=b, Ccl=g))
                assert other >= entropy - 1e-6
                tried += 1
            done += 1


def test_criterion_08_scaling_lemma():
    with _Criterion(8, "mean-square norm bounds 100 diagonal scalings; Perron attains it"):
        rng = np.random.default_rng(88)
        for _ in range(5):
            n, lsz = 5, 3
            A = rng.normal(size=(n, n))
            A -= (np.max(np.linalg.eigvals(A).real) + 0.5) * np.eye(n)
            ss = StateSpace(
                Acl=A, Bcl=rng.normal(size=(n, lsz)), Ccl=rng.normal(size=(lsz, n))
            )
            value = ms_norm(ss, np.ones(lsz))
            for _ in range(100):
                d = rng.uniform(0.1, 10.0, size=lsz)
                scaled = StateSpace(Acl=A, Bcl=ss.Bcl * d, Ccl=ss.Ccl / d[:, None])
                n21, n2inf = mixed_norms(scaled)
                assert value <= n21 + 1e-9
                assert value <= n2inf + 1e-9
            K = h2_gramian_entrywise(ss)
            wl, vl = np.linalg.eig(K.T)
            u = np.abs(vl[:, np.argmax(wl.real)].real)
            left = StateSpace(Acl=A, Bcl=ss.Bcl / np.sqrt(u), Ccl=ss.Ccl * np.sqrt(u)[:, None])
            assert abs(mixed_norms(left)[0] - value) <= 1e-6
            wr, vr = np.linalg.eig(K)
            v = np.abs(vr[:, np.argmax(wr.real)].real)
            right = StateSpace(Acl=A, Bcl=ss.Bcl * np.sqrt(v), Ccl=ss.Ccl / np.sqrt(v)[:, None])
            assert abs(mixed_norms(right)[1] - value) <= 1e-6


def test_criterion_09_corollary_consistency():
    with _Criterion(9, "200 corollary-regime instances: simplified == full verdict"):
        rng = np.random.default_rng(99)

        done = 0
        while done < 100:  # one unstable cyclic block
            n = int(rng.integers(1, 5))
            unstable = sorted(
                rng.uniform(0.3, 3.0, size=int(rng.integers(1, min(n, 2) + 1))),
                reverse=True,
            )
            stable = list(rng.uniform(-3.0, -0.3, size=n - len(unstable)))
            if n - len(unstable) >= 2 and rng.random() < 0.4:
                stable[1] = stable[0]  # stable double keeps extra blocks stable
            diag = np.diag(unstable + stable)
            S = rng.normal(size=(n, n))
            if np.linalg.cond(S) > 40:
                continue
            A = S @ diag @ np.linalg.inv(S)
            k = 2 if len(stable) >= 2 and stable[0] == stable[1] else 1
            B = rng.normal(size=(n, k))
            if not stabilizable_pbh(A, B):
                continue
            plant = Plant(A=A, B=B)
            ch = _random_channels(rng, k + int(rng.integers(0, 3)), float(sum(unstable)))
            rep = check_corollaries(plant, ch)
            assert rep.single_unstable_block and rep.applicable
            assert rep.agree, (A, B, ch)
            done += 1

        done = 0
        while done < 100:  # equal capacities
            n = int(rng.integers(1, 6))
            A, k = random_diagonalizable(rng, n)
            B = rng.normal(size=(n, k + int(rng.integers(0, 2))))
            if not stabilizable_pbh(A, B):
                continue
            plant = Plant(A=A, B=B)
            d = cyclic_decompose(plant)
            lch = plant.m + int(rng.integers(0, 3))
            cap = max(float(np.sum(d.h)), 1.0) * rng.uniform(0.4, 1.8) / lch
            ch = ChannelEnsemble(
                kind="awgn",
                power=np.full(lch, 2.0 * cap),
                noise_density=np.ones(lch),
            )
            rep = check_corollaries(plant, ch)
            assert rep.equal_capacities and rep.applicable
            assert rep.agree, (A, B, cap)
            done += 1


def test_criterion_10_determinism(tmp_path):
    with _Criterion(10, "byte-identical machine output for every command, two runs"):
        cases = []
        for problem in ("demo_awgn.yaml", "demo_fading.yaml"):
            path = os.path.join(PROBLEMS, problem)
            for command in ("validate", "decompose", "check", "codesign", "analyze"):
                cases.append((command, path))
            if "fading" in problem:
                cases.append(("simulate", path))
        for idx, (command, path) in enumerate(cases):
            outputs = []
            for run in range(2):
                out = tmp_path / f"{idx}_{run}.json"
                code = cli_main(
                    [command, path, "--format", "machine", "--seed", "0",
                     "--out", str(out)]
                )
                assert code == 0, (command, path, code)
                outputs.append(out.read_bytes())
            assert outputs[0] == outputs[1], (command, path)
