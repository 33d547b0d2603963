import numpy as np
import pytest
from numpy.testing import assert_allclose

from netstab.errors import AxisEigenvalueWarning, InvalidInput
from netstab.plantmodel import (
    ChannelEnsemble,
    Plant,
    capacities,
    stabilizable_pbh,
    topological_entropy,
    total_capacity,
    validate_plant,
)


class TestCapacities:
    def test_awgn_benchmark(self, bench_awgn):
        assert_allclose(capacities(bench_awgn), [4.55, 1.55, 2.05])
        assert total_capacity(bench_awgn) == pytest.approx(8.15)

    def test_fading_benchmark(self, bench_fading):
        caps = capacities(bench_fading)
        assert_allclose(caps, [2.0 / 0.35, 0.9, 1.62])
        assert_allclose(caps, [5.7143, 0.9, 1.62], atol=1e-4)

    def test_unit_awgn(self):
        ch = ChannelEnsemble(kind="awgn", power=[1.0], noise_density=[1.0])
        assert_allclose(capacities(ch), [0.5])

    def test_homogeneous_in_power(self, bench_awgn):
        doubled = ChannelEnsemble(
            kind="awgn",
            power=2.0 * bench_awgn.power,
            noise_density=bench_awgn.noise_density,
        )
        assert_allclose(capacities(doubled), 2.0 * capacities(bench_awgn))


class TestChannelInvariants:
    def test_rejects_nonpositive_power(self):
        with pytest.raises(InvalidInput):
            ChannelEnsemble(kind="awgn", power=[-1.0], noise_density=[1.0])

    def test_rejects_length_mismatch(self):
        with pytest.raises(InvalidInput):
            ChannelEnsemble(kind="awgn", power=[1.0, 2.0], noise_density=[1.0])

    def test_rejects_zero_mean(self):
        with pytest.raises(InvalidInput):
            ChannelEnsemble(kind="fading", mean=[0.0], variance=[1.0])

    def test_negative_mean_allowed(self):
        ch = ChannelEnsemble(kind="fading", mean=[-2.0], variance=[0.5])
        assert_allclose(capacities(ch), [4.0])

    def test_rejects_mixed_fields(self):
        with pytest.raises(InvalidInput):
            ChannelEnsemble(
                kind="awgn", power=[1.0], noise_density=[1.0], mean=[1.0]
            )


class TestTopologicalEntropy:
    def test_benchmark(self):
        assert topological_entropy(np.diag([4.0, 2.0, 1.0, 1.0])) == pytest.approx(8.0)

    def test_stable(self):
        assert topological_entropy(np.diag([-1.0, -2.0])) == 0.0

    def test_scalar(self):
        assert topological_entropy(np.array([[1.0]])) == pytest.approx(1.0)

    def test_similarity_invariant(self):
        rng = np.random.default_rng(2)
        A = np.diag([3.0, 1.5, -1.0, 0.5])
        for _ in range(10):
            S = rng.normal(size=(4, 4))
            if np.linalg.cond(S) > 100:
                continue
            sim = S @ A @ np.linalg.inv(S)
            assert topological_entropy(sim) == pytest.approx(5.0, abs=1e-6)

    def test_block_additive(self):
        rng = np.random.default_rng(4)
        A1 = rng.normal(size=(3, 3)) + 1.0 * np.eye(3)
        A2 = rng.normal(size=(2, 2)) - 0.5 * np.eye(2)
        block = np.block(
            [[A1, np.zeros((3, 2))], [np.zeros((2, 3)), A2]]
        )
        assert topological_entropy(block) == pytest.approx(
            topological_entropy(A1) + topological_entropy(A2), abs=1e-9
        )

    def test_axis_warning(self):
        with pytest.warns(AxisEigenvalueWarning):
            topological_entropy(np.array([[0.0]]))


class TestPlant:
    def test_x0_defaults_to_ones(self):
        p = Plant(A=np.diag([1.0, -1.0]), B=np.ones((2, 1)))
        assert_allclose(p.x0, [1.0, 1.0])

    def test_rejects_mismatched_b(self):
        with pytest.raises(InvalidInput):
            Plant(A=np.eye(3), B=np.ones((2, 1)))

    def test_rejects_nonfinite(self):
        with pytest.raises(InvalidInput):
            Plant(A=np.array([[np.inf]]), B=np.ones((1, 1)))


class TestValidatePlant:
    def test_benchmark(self, bench_plant):
        report = validate_plant(bench_plant)
        assert report.stabilizable
        assert report.unstable
        assert not report.has_axis_eigenvalues
        assert report.entropy == pytest.approx(8.0)
        assert report.ok

    def test_unstabilizable(self):
        report = validate_plant(Plant(A=np.array([[1.0]]), B=np.array([[0.0]])))
        assert not report.stabilizable
        assert report.pbh_failures
        assert report.pbh_failures[0] == pytest.approx(1.0)
        # mode 2 is unreachable and unstable, mode -3 unreachable but stable
        plant = Plant(A=np.diag([1.0, 2.0, -3.0]), B=np.array([[1.0], [0.0], [0.0]]))
        assert validate_plant(plant).pbh_failures == (2 + 0j,)
        assert not stabilizable_pbh(plant.A, plant.B)

    def test_stable_plant(self):
        report = validate_plant(Plant(A=np.array([[-1.0]]), B=np.array([[1.0]])))
        assert report.stabilizable
        assert not report.unstable
