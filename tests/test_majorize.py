import numpy as np
import pytest
from numpy.testing import assert_allclose

from netstab.errors import InvalidInput, NotMajorized, Unsupported
from netstab.majorize import (
    MAJORIZE,
    STRICT_WEAK_ABOVE,
    WEAK_ABOVE,
    brute_force_feasible_gamma,
    check_order,
    construct_intermediate,
    pad_to_match,
    schur_horn_isometry,
    strictness_margin,
)

H_BENCH = np.array([7.0, 1.0, 0.0])


def majorized_by(g, h, tol=1e-9):
    gd, hd = -np.sort(-np.asarray(g, float)), -np.sort(-np.asarray(h, float))
    pg, ph = np.cumsum(gd), np.cumsum(hd)
    return np.all(pg[:-1] <= ph[:-1] + tol) and abs(pg[-1] - ph[-1]) <= tol


class TestCheckOrder:
    def test_awgn_benchmark_strictly_above(self):
        v = check_order([4.55, 1.55, 2.05], H_BENCH, STRICT_WEAK_ABOVE)
        assert v.holds
        assert_allclose(v.x_prefix, [1.55, 3.6, 8.15])
        assert_allclose(v.y_prefix, [0.0, 1.0, 8.0])

    def test_fading_benchmark_strictly_above(self):
        v = check_order([2.0 / 0.35, 0.9, 1.62], H_BENCH, STRICT_WEAK_ABOVE)
        assert v.holds

    def test_equal_vectors(self):
        assert check_order([1.0, 1.0], [1.0, 1.0], MAJORIZE).holds
        assert not check_order([1.0, 1.0], [1.0, 1.0], STRICT_WEAK_ABOVE).holds

    def test_weak_above_tolerates_equality(self):
        assert check_order([1.0, 1.0], [1.0, 1.0], WEAK_ABOVE).holds

    def test_permutation_invariance(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            x = rng.uniform(0, 3, size=4)
            y = rng.uniform(0, 3, size=4)
            for rel in (MAJORIZE, STRICT_WEAK_ABOVE, WEAK_ABOVE):
                base = check_order(x, y, rel).holds
                assert check_order(rng.permutation(x), rng.permutation(y), rel).holds == base

    def test_rejects_length_mismatch(self):
        with pytest.raises(InvalidInput):
            check_order([1.0], [1.0, 2.0], MAJORIZE)

    @pytest.mark.parametrize("relation", ["weak_below", "strict_weak_below", "above"])
    def test_rejects_unknown_relation(self, relation):
        with pytest.raises(InvalidInput, match="unknown relation"):
            check_order([1.0], [1.0], relation)

    def test_pad_to_match(self):
        x, y = pad_to_match([1.0, 2.0], [3.0])
        assert_allclose(x, [1.0, 2.0])
        assert_allclose(y, [3.0, 0.0])


class TestConstructIntermediate:
    def assert_postconditions(self, gamma, c, h):
        c = np.asarray(c, float)
        assert np.all(c - gamma >= strictness_margin(c))
        assert majorized_by(gamma, h)
        assert abs(np.sum(gamma) - np.sum(h)) <= 1e-10 * max(1.0, np.sum(np.abs(h)))

    def test_awgn_benchmark(self):
        c = np.array([4.55, 1.55, 2.05])
        gamma = construct_intermediate(c, H_BENCH)
        self.assert_postconditions(gamma, c, H_BENCH)
        # the diagonal realized by the published isometry is one valid choice
        self.assert_postconditions(np.array([4.5, 1.5, 2.0]), c, H_BENCH)

    def test_fading_benchmark(self):
        c = np.array([2.0 / 0.35, 0.9, 1.62])
        gamma = construct_intermediate(c, H_BENCH)
        self.assert_postconditions(gamma, c, H_BENCH)

    def test_two_channel_split(self):
        gamma = construct_intermediate(np.array([2.0, 2.0]), np.array([3.0, 0.0]))
        self.assert_postconditions(gamma, [2.0, 2.0], [3.0, 0.0])

    def test_fill_path_instance(self):
        # the segment construction fails here; the prefix-capped fill must
        # pick up the slack (one coordinate close to its cap)
        c = np.array([3.5, 3.5, 1.2])
        gamma = construct_intermediate(c, H_BENCH)
        self.assert_postconditions(gamma, c, H_BENCH)

    def test_infeasible_raises(self):
        with pytest.raises(NotMajorized):
            construct_intermediate(np.array([4.0, 1.0, 1.0]), H_BENCH)

    def test_permuting_capacities_permutes_gamma(self):
        c = np.array([4.55, 1.55, 2.05])
        gamma = construct_intermediate(c, H_BENCH)
        perm = np.array([2, 0, 1])
        gamma_p = construct_intermediate(c[perm], H_BENCH)
        assert_allclose(gamma_p, gamma[perm], atol=1e-12)

    def test_randomized_postconditions(self):
        rng = np.random.default_rng(21)
        done = 0
        while done < 200:
            lv = int(rng.integers(1, 6))
            k = int(rng.integers(1, lv + 1))
            h = np.concatenate(
                [np.sort(rng.uniform(0, 5, size=k))[::-1], np.zeros(lv - k)]
            )
            c = rng.uniform(0.05, 4.0, size=lv)
            if not check_order(c, h, STRICT_WEAK_ABOVE).holds:
                continue
            gamma = construct_intermediate(c, h)
            self.assert_postconditions(gamma, c, h)
            done += 1


class TestSchurHornIsometry:
    def test_identity_case(self):
        U = schur_horn_isometry([5.0, 0.0], [5.0, 0.0])
        assert_allclose(U, np.eye(2))

    def test_benchmark_diagonal(self):
        lam = np.array([7.0, 1.0])
        gamma = np.array([4.5, 1.5, 2.0])
        U = schur_horn_isometry(lam, gamma)
        assert np.max(np.abs(U.T @ U - np.eye(2))) <= 1e-10
        assert_allclose(np.diag(U @ np.diag(lam) @ U.T), gamma, atol=1e-8)
        # the full symmetric matrix carries the padded spectrum
        ew = np.sort(np.linalg.eigvalsh(U @ np.diag(lam) @ U.T))
        assert_allclose(ew, [0.0, 1.0, 7.0], atol=1e-7)

    def test_sign_convention(self):
        U = schur_horn_isometry([7.0, 1.0], [4.5, 1.5, 2.0])
        for j in range(U.shape[1]):
            lead = U[np.flatnonzero(np.abs(U[:, j]) > 1e-12)[0], j]
            assert lead >= 0

    def test_not_majorized_rejected(self):
        with pytest.raises(NotMajorized):
            schur_horn_isometry([7.0, 1.0], [7.5, 0.5, 0.1])

    def test_randomized(self):
        rng = np.random.default_rng(33)
        for _ in range(100):
            m = int(rng.integers(1, 7))
            lsz = m + int(rng.integers(0, 4))
            lam = np.sort(rng.uniform(0, 10, size=m))[::-1]
            lam_pad = np.concatenate([lam, np.zeros(lsz - m)])
            W = np.linalg.qr(rng.normal(size=(lsz, lsz)))[0]
            gamma = np.diag(W @ np.diag(lam_pad) @ W.T)
            U = schur_horn_isometry(lam, gamma)
            assert np.max(np.abs(U.T @ U - np.eye(m))) <= 1e-10
            assert np.max(np.abs(np.diag(U @ np.diag(lam) @ U.T) - gamma)) <= 1e-8


class TestBruteForce:
    def test_benchmark_hit(self):
        g = brute_force_feasible_gamma([4.55, 1.55, 2.05], H_BENCH, grid=100)
        assert g is not None
        assert np.all(g < [4.55, 1.55, 2.05])
        assert majorized_by(g, H_BENCH, tol=1e-9)

    def test_insufficient_total(self):
        assert brute_force_feasible_gamma([0.5, 0.4], [1.0, 0.0], grid=100) is None

    def test_two_channel_hit(self):
        assert brute_force_feasible_gamma([2.0, 2.0], [3.0, 0.0], grid=60) is not None

    def test_size_limits(self):
        with pytest.raises(Unsupported):
            brute_force_feasible_gamma([1.0] * 5, [1.0] * 5, grid=10)
        with pytest.raises(Unsupported):
            brute_force_feasible_gamma([1.0], [1.0], grid=500)

    def test_agrees_with_order_check(self):
        # quick version of the oracle equivalence; the acceptance suite
        # runs the full 500-instance sweep
        rng = np.random.default_rng(17)
        done = 0
        while done < 50:
            lv = int(rng.integers(1, 4))
            k = int(rng.integers(1, lv + 1))
            h = np.concatenate(
                [np.sort(rng.uniform(0.2, 4.0, size=k))[::-1], np.zeros(lv - k)]
            )
            c = np.round(rng.uniform(0.1, 3.0, size=lv), 2)
            verdict = check_order(c, h, STRICT_WEAK_ABOVE)
            if 0 < np.min(verdict.slack) < 0.05:
                continue  # below the oracle's grid resolution either way
            found = brute_force_feasible_gamma(c, h, grid=160) is not None
            assert found == verdict.holds
            done += 1
