import importlib

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import (
    F_BENCH,
    U_BENCH_AWGN,
    U_BENCH_FADING,
    ladder_block,
    nearest_isometry,
)
from netstab import analysis
from netstab.analysis import analyze, channel_powers_awgn
from netstab.codesign import (
    CoDesign,
    check_corollaries,
    codesign,
    synthesize_codec,
    synthesize_gain,
)
from netstab.cyclic import CyclicDecomposition, cyclic_decompose
from netstab.errors import (
    CodecInvalid,
    EpsilonExhausted,
    IllConditioned,
    InvalidInput,
    Unstabilizable,
)
from netstab.plantmodel import ChannelEnsemble, Plant


class TestSynthesizeGain:
    def test_benchmark_gain(self, bench_plant):
        F = synthesize_gain(cyclic_decompose(bench_plant))
        assert_allclose(F, F_BENCH, atol=1e-6)

    def test_scalar_unstable_block(self):
        p = Plant(A=np.array([[1.0]]), B=np.array([[1.0]]))
        F = synthesize_gain(cyclic_decompose(p))
        assert_allclose(F, [[-2.0]], atol=1e-9)

    def test_stable_block_gets_zero_row(self):
        p = Plant(A=np.array([[-1.0]]), B=np.array([[1.0]]))
        F = synthesize_gain(cyclic_decompose(p))
        assert_allclose(F, [[0.0]], atol=1e-12)

    def test_gain_stabilizes_randomized(self):
        from test_cyclic import random_diagonalizable

        rng = np.random.default_rng(99)
        for trial in range(30):
            n = int(rng.integers(2, 6))
            A, k = random_diagonalizable(rng, n)
            B = rng.normal(size=(n, k + int(rng.integers(0, 2))))
            d = cyclic_decompose(Plant(A=A, B=B), seed=trial)
            F = synthesize_gain(d)
            assert np.max(np.linalg.eigvals(A + B @ F).real) < 0

    @pytest.mark.parametrize("n", [4, 8, 12, 20, 24])
    def test_conditioning_ladder(self, n):
        # up to n = 12 every draw passes every check, the energy identity
        # included; at n = 20 and 24 cond(Y) is past 1e12 and every failure
        # is the typed error naming the block
        for seed in range(10):
            A, b = ladder_block(seed, n)
            entropy = float(np.sum(np.maximum(np.linalg.eigvals(A).real, 0.0)))
            d = CyclicDecomposition(P=np.eye(n), Q=np.eye(1), blocks=((A, b),),
                                    k=1, h=np.array([entropy]), seed=0)
            try:
                F = synthesize_gain(d)
            except IllConditioned as exc:
                assert n >= 20
                assert exc.block == 0
                assert np.isfinite(exc.cond) and exc.cond > 1e12
                continue
            assert np.max(np.linalg.eigvals(A + b @ F).real) < 0


class TestSynthesizeCodec:
    def test_trivial_identity(self):
        ch = ChannelEnsemble(kind="awgn", power=[1.0, 1.0], noise_density=[1.0, 1.0])
        T, R = synthesize_codec(ch, np.eye(2), epsilon=1.0, m=2)
        assert_allclose(T, np.eye(2))
        assert_allclose(R, np.eye(2))

    def test_benchmark_awgn(self, bench_awgn):
        U = nearest_isometry(U_BENCH_AWGN)
        T, R = synthesize_codec(bench_awgn, U, epsilon=0.1, m=2)
        assert np.max(np.abs(R @ T - np.eye(2))) <= 1e-10
        # D = diag(1, 0.1) scales the second data stream up tenfold
        assert_allclose(T[:, 1], U[:, 1] * 10.0)

    def test_benchmark_fading(self, bench_fading):
        U = nearest_isometry(U_BENCH_FADING)
        T, R = synthesize_codec(bench_fading, U, epsilon=0.1, m=2)
        M = np.diag(bench_fading.mean)
        assert np.max(np.abs(R @ M @ T - np.eye(2))) <= 1e-10

    def test_negative_mean_signs_fold_into_decoder(self):
        ch = ChannelEnsemble(
            kind="fading", mean=[-2.0, 0.6, 0.9], variance=[0.35, 0.2, 0.25]
        )
        U = nearest_isometry(U_BENCH_FADING)
        T, R = synthesize_codec(ch, U, epsilon=0.25, m=2)
        assert np.max(np.abs(R @ np.diag(ch.mean) @ T - np.eye(2))) <= 1e-10

    def test_rounded_isometry_rejected(self, bench_awgn):
        # published 4-decimal data misses orthonormality by ~1e-4
        with pytest.raises(CodecInvalid):
            synthesize_codec(bench_awgn, U_BENCH_AWGN, epsilon=0.1, m=2)

    def test_epsilon_range(self, bench_awgn):
        with pytest.raises(InvalidInput):
            synthesize_codec(bench_awgn, nearest_isometry(U_BENCH_AWGN), 1.5, 2)


class TestCoDesignPipeline:
    def test_benchmark_awgn(self, bench_plant, bench_awgn):
        res = codesign(bench_plant, bench_awgn)
        assert res.feasible
        assert res.report.stabilized
        assert_allclose(res.design.F, F_BENCH, atol=1e-6)
        assert np.all(res.report.channel_powers < bench_awgn.power)
        assert res.epsilon_trail[-1][1] == "stabilized"
        assert np.max(np.abs(res.design.R @ res.design.T - np.eye(2))) <= 1e-10

    def test_benchmark_fading(self, bench_plant, bench_fading):
        res = codesign(bench_plant, bench_fading)
        assert res.feasible
        assert res.report.stabilized
        M = np.diag(bench_fading.mean)
        assert np.max(np.abs(res.design.R @ M @ res.design.T - np.eye(2))) <= 1e-10
        assert res.report.ms_norm[0] < 1.0

    def test_insufficient_total_capacity(self, bench_plant):
        ch = ChannelEnsemble(kind="awgn", power=[8.0, 2.0, 2.0], noise_density=[1.0] * 3)
        res = codesign(bench_plant, ch)
        assert not res.feasible
        assert res.design is None
        assert np.min(res.order.slack) < 0

    def test_epsilon_override(self, bench_plant, bench_awgn):
        res = codesign(bench_plant, bench_awgn, epsilon=0.05)
        assert res.design.epsilon == 0.05
        assert res.report.stabilized

    def test_epsilon_override_too_large(self, bench_plant, bench_awgn):
        with pytest.raises(EpsilonExhausted):
            codesign(bench_plant, bench_awgn, epsilon=1.0)

    def test_unstable_gain_ends_the_search(self, bench_plant, bench_awgn, monkeypatch):
        # A + BF does not depend on epsilon: one "unstable" verdict settles it
        calls = []

        def counting_analyze(*args):
            calls.append(args)
            return analyze(*args)

        # the package exports the function codesign under the module's name
        module = importlib.import_module("netstab.codesign")
        monkeypatch.setattr(module, "synthesize_gain", lambda d: np.zeros((2, 4)))
        monkeypatch.setattr(analysis, "analyze", counting_analyze)
        with pytest.raises(EpsilonExhausted, match=r"spectral abscissa 4\b"):
            codesign(bench_plant, bench_awgn)
        assert len(calls) == 1

    def test_epsilon_halving_keeps_passing(self, bench_plant, bench_awgn):
        # once a scaling passes, further halving keeps the verdict
        accepted = codesign(bench_plant, bench_awgn).design.epsilon
        for eps in (accepted / 2, accepted / 4):
            res = codesign(bench_plant, bench_awgn, epsilon=eps)
            assert res.report.stabilized

    def test_unstabilizable_plant_rejected(self, bench_awgn):
        p = Plant(A=np.diag([1.0, 2.0, 3.0]), B=np.array([[0.0], [1.0], [1.0]]))
        with pytest.raises(Unstabilizable):
            codesign(p, ChannelEnsemble(kind="awgn", power=[9.0], noise_density=[1.0]))

    def test_unused_inputs_carry_zero_signal(self):
        # more inputs than needed: the gain's extra block rows are zero
        p = Plant(A=np.diag([2.0, -1.0]), B=np.array([[1.0, 0.3, 0.1], [0.2, 1.0, 0.4]]))
        ch = ChannelEnsemble(kind="awgn", power=[6.0, 6.0, 6.0], noise_density=[1.0] * 3)
        res = codesign(p, ch)
        assert res.feasible and res.report.stabilized
        assert res.design.T.shape == (3, 3)

    def test_fewer_channels_than_inputs(self):
        # one subchannel suffices for one unstable block even with m = 2
        p = Plant(A=np.diag([2.0, -1.0]), B=np.array([[1.0, 0.3], [0.2, 1.0]]))
        ch = ChannelEnsemble(kind="awgn", power=[6.0], noise_density=[1.0])
        res = codesign(p, ch)
        assert res.feasible and res.report.stabilized
        assert res.design.m_active == 1
        assert res.note
        assert res.design.T.shape == (1, 2)
        mid = res.design.R @ res.design.T
        assert np.max(np.abs(mid @ res.design.F - res.design.F)) <= 1e-9


class TestDesignAgainstChannel:
    def test_published_design_reproduces_powers(self, bench_plant, bench_awgn):
        # wrap the published isometry (orthonormalized) at the published
        # scaling and check the stationary powers against the published ones
        U = nearest_isometry(U_BENCH_AWGN)
        T, R = synthesize_codec(bench_awgn, U, epsilon=0.1, m=2)
        design = CoDesign(
            kind="awgn", F=F_BENCH, T=T, R=R, epsilon=0.1,
            gamma=np.diag(U @ np.diag([7.0, 1.0]) @ U.T), U=U,
        )
        powers = channel_powers_awgn(bench_plant, design, bench_awgn.noise_density)
        assert_allclose(powers, [9.0848, 3.0299, 4.0249], atol=1.5e-3)
        report = analyze(bench_plant, design, bench_awgn)
        assert report.stabilized
        assert_allclose(report.margins, [0.0152, 0.0701, 0.0751], atol=1.5e-3)


class TestCorollaries:
    def test_single_unstable_block_agrees(self):
        p = Plant(A=np.diag([2.0, 1.0]), B=np.array([[1.0], [1.0]]))
        feasible = ChannelEnsemble(kind="awgn", power=[5.0, 4.0], noise_density=[1.0] * 2)
        rep = check_corollaries(p, feasible)
        assert rep.single_unstable_block and rep.applicable
        assert rep.simplified_feasible and rep.full_feasible and rep.agree

    def test_equal_capacities_agree_infeasible(self, bench_plant):
        ch = ChannelEnsemble(kind="awgn", power=[4.0, 4.0, 4.0], noise_density=[1.0] * 3)
        rep = check_corollaries(bench_plant, ch)
        assert rep.equal_capacities and rep.applicable
        assert not rep.simplified_feasible and not rep.full_feasible and rep.agree

    def test_benchmark_not_applicable(self, bench_plant, bench_awgn):
        rep = check_corollaries(bench_plant, bench_awgn)
        assert not rep.applicable
        assert rep.simplified_feasible is None and rep.agree is None
