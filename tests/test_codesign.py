import importlib

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from conftest import (
    F_BENCH,
    U_BENCH_AWGN,
    U_BENCH_FADING,
    benchmark_instances,
    ladder_block,
    nearest_isometry,
)
from netstab import analysis
from netstab.analysis import analyze, channel_powers_awgn, closed_loop
from netstab.codesign import (
    _PREDICTION_RTOL,
    CoDesign,
    CoDesignResult,
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
    NetstabError,
    Unstabilizable,
)
from netstab.numerics import RICCATI
from netstab.plantmodel import ChannelEnsemble, Plant


class TestSynthesizeGain:
    def test_benchmark_gain(self, bench_plant):
        F, _ = synthesize_gain(cyclic_decompose(bench_plant))
        assert_allclose(F, F_BENCH, atol=1e-6)

    def test_scalar_unstable_block(self):
        p = Plant(A=np.array([[1.0]]), B=np.array([[1.0]]))
        F, _ = synthesize_gain(cyclic_decompose(p))
        assert_allclose(F, [[-2.0]], atol=1e-9)

    def test_stable_block_gets_zero_row(self):
        p = Plant(A=np.array([[-1.0]]), B=np.array([[1.0]]))
        F, _ = synthesize_gain(cyclic_decompose(p))
        assert_allclose(F, [[0.0]], atol=1e-12)

    def test_gain_stabilizes_randomized(self):
        from test_cyclic import random_diagonalizable

        rng = np.random.default_rng(99)
        for trial in range(30):
            n = int(rng.integers(2, 6))
            A, k = random_diagonalizable(rng, n)
            B = rng.normal(size=(n, k + int(rng.integers(0, 2))))
            d = cyclic_decompose(Plant(A=A, B=B), seed=trial)
            F, _ = synthesize_gain(d)
            assert np.max(np.linalg.eigvals(A + B @ F).real) < 0

    @staticmethod
    def _single_block(A, b):
        entropy = float(np.sum(np.maximum(np.linalg.eigvals(A).real, 0.0)))
        return CyclicDecomposition(P=np.eye(len(A)), Q=np.eye(1), blocks=((A, b),),
                                   k=1, h=np.array([entropy]), seed=0)

    @pytest.mark.parametrize("n", [4, 8, 12, 20, 24])
    def test_conditioning_ladder(self, n):
        # up to n = 12 every draw passes every check, the energy identity
        # included; at n = 20 and 24 cond(Y) is past 1e12 and every failure
        # is the typed error naming the block
        for seed in range(10):
            A, b = ladder_block(seed, n)
            try:
                F, _ = synthesize_gain(self._single_block(A, b))
            except IllConditioned as exc:
                assert n >= 20
                assert exc.block == 0
                assert np.isfinite(exc.cond) and exc.cond > 1e12
                continue
            assert np.max(np.linalg.eigvals(A + b @ F).real) < 0

    def test_energy_identity_failure_is_typed(self):
        # cond(Y) = 3.3e11: the Riccati solve passes its checks, the energy
        # identity misses its 1e-6 bound
        with pytest.raises(IllConditioned) as err:
            synthesize_gain(self._single_block(*ladder_block(4, 16)))
        assert err.value.stage == RICCATI
        assert err.value.block == 0
        assert err.value.cond == pytest.approx(3.3e11, rel=0.05)

    def test_energy_identity_failure_on_stable_block(self):
        # X = 0 and Y is empty; a hand-built entropy of 1 cannot be met
        d = CyclicDecomposition(P=np.eye(1), Q=np.eye(1),
                                blocks=((np.array([[-1.0]]), np.array([1.0])),),
                                k=1, h=np.array([1.0]), seed=0)
        with pytest.raises(IllConditioned) as err:
            synthesize_gain(d)
        assert err.value.block == 0
        assert err.value.cond == 1.0


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
        monkeypatch.setattr(module, "synthesize_gain", lambda d: (np.zeros((2, 4)),) * 2)
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


def _searched(plant, ch, monkeypatch):
    """``(started, predicted, coefficients, from_one)``: ``codesign``'s
    outcome with its predicted start, the per-scaling predictions it started
    from and the expansion's ``(c, scale)`` they came from, and its outcome
    when every scaling from one is verified by ``analyze``. An outcome is
    the result, or the type and message of the error raised."""
    module = importlib.import_module("netstab.codesign")
    predicted, coefficients = [], []

    def outcome():
        try:
            return codesign(plant, ch)
        except NetstabError as exc:
            return type(exc), str(exc)

    def recorded(record, func):
        def wrapper(*args):
            record.append(func(*args))
            return record[-1]
        return wrapper

    with monkeypatch.context() as mp:
        mp.setattr(module, "_predicted_passes",
                   recorded(predicted, module._predicted_passes))
        mp.setattr(analysis, "channel_power_coefficients",
                   recorded(coefficients, analysis.channel_power_coefficients))
        started = outcome()
    with monkeypatch.context() as mp:
        mp.setattr(module, "_predicted_passes", lambda *args: None)
        from_one = outcome()
    return (started, predicted[0] if predicted else None,
            coefficients[0] if coefficients else None, from_one)


def assert_prediction_matches_analyze(plant, ch, monkeypatch):
    """The predicted start changes nothing: ``codesign`` ends as the search
    from one does. At every scaling up to the accepted one the expansion's
    verdict equals ``analyze``'s wherever the expansion is decisive, its
    shortfall from the 1e-9 margin beyond the rounding allowance either
    way: every scaling it skips fails, and none before the accepted one is
    predicted to pass. Returns the accepted trail."""
    started, predicted, coefficients, from_one = _searched(plant, ch, monkeypatch)
    if not isinstance(from_one, CoDesignResult):
        assert started == from_one
        return ()
    trail = from_one.epsilon_trail
    assert started.epsilon_trail == trail
    assert started.design.epsilon == from_one.design.epsilon
    assert np.array_equal(started.report.margins, from_one.report.margins)
    m = started.design.m_active
    if m >= 2:
        assert predicted is not None
        c, scale = coefficients
        powers = np.array([eps for eps, _ in trail])[:, None] ** np.arange(2 - 2 * m, 2 * m - 1)
        shortfall = 1e-9 * ch.power - (ch.power - powers @ c)
        allowance = _PREDICTION_RTOL * (powers @ scale)
        assert list(predicted[: len(trail)]) == list(~np.any(shortfall > allowance, axis=1))
        assert predicted[len(trail) - 1]
        for passes, fails, (_, verdict) in zip(np.all(shortfall < -allowance, axis=1),
                                               ~predicted[: len(trail)], trail):
            if passes or fails:
                assert verdict == ("stabilized" if passes else "power_violation")
    return trail


def _ladder(seed, n):
    """The benchmark's ladder plants at size ``n`` for ``seed``, with channels."""
    return [(Plant(A=inst.A, B=inst.B), ChannelEnsemble(kind=inst.kind, **inst.params))
            for inst in benchmark_instances(seed) if inst.name.startswith(f"ladder_n{n}_")]


@st.composite
def two_block_awgn(draw):
    """Sweep-style AWGN plant with a double unstable eigenvalue, so two
    cyclic blocks and two active inputs: S diag(eigenvalues) S^-1 with
    cond(S) < 40 and eigenvalues at least 0.6 apart, 2..4 equal
    subchannels carrying 1.2-1.7 times the entropy."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 6))
    grid = np.array([-2.6, -1.8, -1.0, -0.4, 0.4, 1.0, 1.8, 2.6])
    double = rng.choice(grid[grid > 0])
    rest = rng.choice(grid[grid != double], size=n - 2, replace=False)
    S = rng.normal(size=(n, n))
    assume(np.linalg.cond(S) < 40)
    A = S @ np.diag(np.concatenate([[double, double], rest])) @ np.linalg.inv(S)
    B = rng.normal(size=(n, 2))
    entropy = double + np.sum(np.maximum(np.concatenate([[double], rest]), 0.0))
    count = int(rng.integers(2, 5))
    noise = rng.uniform(0.5, 2.0, size=count)
    capacity = rng.uniform(1.2, 1.7) * entropy / count
    ch = ChannelEnsemble(kind="awgn", power=2.0 * capacity * noise, noise_density=noise)
    return Plant(A=A, B=B), ch


class TestPredictedStart:
    """The search for the codec scaling starts where the Laurent expansion of
    the AWGN channel powers predicts the first pass."""

    def test_demo(self, bench_plant, bench_awgn, monkeypatch):
        trail = assert_prediction_matches_analyze(bench_plant, bench_awgn, monkeypatch)
        assert trail[-1][1] == "stabilized"

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("n", [16, 24])
    def test_benchmark_ladder(self, seed, n, monkeypatch):
        lengths = [len(assert_prediction_matches_analyze(plant, ch, monkeypatch))
                   for plant, ch in _ladder(seed, n)]
        # the rungs need halvings, which the predicted start skips
        assert max(lengths) >= 3

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(two_block_awgn())
    def test_two_block_sweep_plants(self, problem):
        with pytest.MonkeyPatch.context() as mp:
            assert_prediction_matches_analyze(*problem, mp)

    def test_schur_forms_do_not_grow_with_the_trail(self, factorizations, monkeypatch):
        plant, ch = max(_ladder(1, 24), key=lambda p: len(codesign(*p).epsilon_trail))
        analyzed = []
        original = analysis.analyze
        monkeypatch.setattr(analysis, "analyze",
                            lambda *args: analyzed.append(args) or original(*args))
        factorizations.clear()
        res = codesign(plant, ch)
        searched, steps = factorizations["schur"], len(analyzed)
        factorizations.clear()
        codesign(plant, ch, epsilon=res.design.epsilon)
        pinned = factorizations["schur"]
        factorizations.clear()
        original(*analyzed[-1])
        # the expansion's one stacked Lyapunov solve, then analyze from the
        # predicted start, at most one scaling before the accepted one
        assert len(res.epsilon_trail) >= 5 and steps <= 2
        assert searched == pinned + 1 + (steps - 1) * factorizations["schur"]

    @pytest.mark.parametrize("start", [None, 5])
    def test_unstable_loop_keeps_its_message(self, start, bench_plant, bench_awgn,
                                             monkeypatch):
        # with A + BF not Hurwitz the expansion cannot be built (None), or a
        # start predicted past one meets the unstable loop (5); either way
        # the trail is that of the search from one, which stops at once
        module = importlib.import_module("netstab.codesign")
        monkeypatch.setattr(module, "synthesize_gain", lambda d: (np.zeros((2, 4)),) * 2)
        if start is not None:
            monkeypatch.setattr(module, "_predicted_passes",
                                lambda *args: np.arange(60) >= start)
        with pytest.raises(EpsilonExhausted) as exc:
            codesign(bench_plant, bench_awgn)
        assert str(exc.value) == (
            "A+BF is not Hurwitz (spectral abscissa 4) at every codec scaling; "
            "trail: [(1.0, 'unstable')]")


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
        ss = closed_loop(bench_plant, design)
        powers = channel_powers_awgn(ss, bench_awgn.noise_density)
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
