import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy import linalg

from conftest import benchmark_instances
from netstab import cyclic
from netstab.codesign import codesign
from netstab.cyclic import (
    CyclicDecomposition,
    _analyze_clusters,
    _check_diagonalizable,
    _pbh_failures,
    cyclic_decompose,
    cyclic_index,
    verify_decomposition,
)
from netstab.errors import DecompositionFailed, NotDiagonalizable, Unstabilizable
from netstab.numerics import _rank_failures
from netstab.plantmodel import ChannelEnsemble, Plant, topological_entropy


def random_diagonalizable(rng, n, allow_pairs=True):
    """Random plant with simple or double eigenvalues, bounded conditioning."""
    cells, vals = [], []
    dim = 0
    while dim < n:
        r = rng.uniform(-3.0, 3.0)
        if abs(r) < 0.2:
            continue
        if allow_pairs and n - dim >= 2 and rng.random() < 0.25:
            w = rng.uniform(0.3, 2.0)
            cells.append(np.array([[r, w], [-w, r]]))
            vals.append(complex(r, w))
            dim += 2
        elif n - dim >= 2 and rng.random() < 0.35:
            cells.extend([np.array([[r]]), np.array([[r]])])
            vals.extend([r, r])
            dim += 2
        else:
            cells.append(np.array([[r]]))
            vals.append(r)
            dim += 1
    while True:
        S = rng.normal(size=(n, n))
        if np.linalg.cond(S) < 40:
            break
    A = S @ linalg.block_diag(*cells) @ np.linalg.inv(S)
    counts = {}
    for v in vals:
        key = (round(complex(v).real, 6), round(abs(complex(v).imag), 6))
        counts[key] = counts.get(key, 0) + 1
    return A, max(counts.values())


class TestCyclicIndex:
    def test_double_eigenvalue(self):
        assert cyclic_index(np.diag([4.0, 2.0, 1.0, 1.0])) == 2

    def test_simple_spectrum(self):
        assert cyclic_index(np.diag([1.0, 2.0, 3.0])) == 1

    def test_identity(self):
        assert cyclic_index(np.eye(3)) == 3

    def test_defective_rejected(self):
        with pytest.raises(NotDiagonalizable):
            cyclic_index(np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_similarity_invariant(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            A, k = random_diagonalizable(rng, int(rng.integers(2, 6)))
            assert cyclic_index(A) == k


class TestDecomposeBenchmark:
    def test_benchmark_plant(self, bench_plant):
        d = cyclic_decompose(bench_plant)
        assert d.k == 2
        assert d.dims == (3, 1)
        assert_allclose(d.h, [7.0, 1.0])
        assert_allclose(d.P, np.eye(4), atol=1e-9)
        assert_allclose(d.Q, np.eye(2), atol=1e-9)
        assert_allclose(d.blocks[0][0], np.diag([4.0, 2.0, 1.0]), atol=1e-9)
        assert_allclose(d.blocks[0][1], [1.0, 1.0, 1.0], atol=1e-9)
        assert_allclose(d.blocks[1][0], [[1.0]], atol=1e-9)
        assert_allclose(d.blocks[1][1], [1.0], atol=1e-9)

    def test_identity_pair(self):
        d = cyclic_decompose(Plant(A=np.eye(2), B=np.eye(2)))
        assert d.k == 2
        assert_allclose(d.h, [1.0, 1.0])
        for Ai, bi in d.blocks:
            assert_allclose(Ai, [[1.0]])
            assert abs(bi[0]) > 1e-9

    def test_single_input(self):
        p = Plant(A=np.diag([3.0, 5.0]), B=np.array([[1.0], [1.0]]))
        d = cyclic_decompose(p)
        assert d.k == 1
        assert_allclose(d.h, [8.0])
        assert_allclose(
            np.sort(np.linalg.eigvals(d.blocks[0][0]).real), [3.0, 5.0], atol=1e-9
        )

    def test_unstabilizable_rejected(self):
        with pytest.raises(Unstabilizable):
            cyclic_decompose(Plant(A=np.array([[1.0]]), B=np.array([[0.0]])))

    def test_index_exceeding_inputs_rejected(self):
        # stable triple eigenvalue: stabilizable, but no staircase with one input
        p = Plant(A=-np.eye(3), B=np.ones((3, 1)))
        with pytest.raises(DecompositionFailed):
            cyclic_decompose(p)

    def test_singular_q_candidate_replaced(self):
        # the structured candidate leaves the stable double eigenvalue
        # unexcited and has a zero second column; it passes the unstable
        # cluster test, so only the cond(Q) test makes the search go on
        p = Plant(
            A=np.diag([2.0, -1.0, -1.0]),
            B=np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]),
        )
        d = cyclic_decompose(p)
        assert verify_decomposition(p, d).ok
        ch = ChannelEnsemble(kind="awgn", power=[5.0, 5.0], noise_density=[1.0, 1.0])
        assert codesign(p, ch).report.stabilized


class TestVerify:
    def _paper_form(self):
        blocks = (
            (np.diag([4.0, 2.0, 1.0]), np.array([1.0, 1.0, 1.0])),
            (np.array([[1.0]]), np.array([1.0])),
        )
        return CyclicDecomposition(
            P=np.eye(4), Q=np.eye(2), blocks=blocks, k=2,
            h=np.array([7.0, 1.0]), seed=0,
        )

    def test_hand_built_benchmark_passes(self, bench_plant):
        report = verify_decomposition(bench_plant, self._paper_form())
        assert report.ok, report.failed()

    def test_shuffled_blocks_fail_ordering(self, bench_plant):
        shuffled = CyclicDecomposition(
            P=np.eye(4)[:, [3, 0, 1, 2]],
            Q=np.array([[1.0, 1.0], [-1.0, 0.0]]),
            blocks=(
                (np.array([[1.0]]), np.array([-1.0])),
                (np.diag([4.0, 2.0, 1.0]), np.array([1.0, 1.0, 1.0])),
            ),
            k=2,
            h=np.array([1.0, 7.0]),
            seed=0,
        )
        report = verify_decomposition(bench_plant, shuffled)
        assert not report.ok
        assert "entropies_nonincreasing" in report.failed()

    def test_wrong_p_fails_block_residual(self, bench_plant):
        rng = np.random.default_rng(0)
        bad = CyclicDecomposition(
            P=rng.normal(size=(4, 4)),
            Q=np.eye(2),
            blocks=self._paper_form().blocks,
            k=2,
            h=np.array([7.0, 1.0]),
            seed=0,
        )
        report = verify_decomposition(bench_plant, bad)
        assert "state_block_diagonal" in report.failed()


class TestDecomposeProperties:
    def test_randomized_invariants_and_roundtrip(self):
        rng = np.random.default_rng(77)
        for trial in range(60):
            n = int(rng.integers(2, 6))
            A, k_expected = random_diagonalizable(rng, n)
            m = k_expected + int(rng.integers(0, 2))
            B = rng.normal(size=(n, m))
            p = Plant(A=A, B=B)
            d = cyclic_decompose(p, seed=trial)
            report = verify_decomposition(p, d)
            assert report.ok, (trial, report.failed())
            assert d.k == cyclic_index(A) == k_expected

            # entropy splits across blocks
            assert np.sum(d.h) == pytest.approx(topological_entropy(A), abs=1e-8)

            # scipy is the reference for the block-diagonal fill
            assert np.array_equal(d.block_diagonal(),
                                  linalg.block_diag(*[Ai for Ai, _ in d.blocks]))

            # conjugating the block data back recovers the plant
            A_back = d.P @ d.block_diagonal() @ np.linalg.inv(d.P)
            assert_allclose(A_back, A, atol=1e-6 * max(1, np.linalg.norm(A)))
            stair = d.staircase(B)
            offs = d.offsets
            for j in range(d.k):
                stair[offs[j + 1]:, j] = 0.0
                stair[offs[j]: offs[j + 1], j] = d.blocks[j][1]
            B_back = d.P @ stair @ np.linalg.inv(d.Q)
            assert_allclose(B_back, B, atol=1e-6 * max(1, np.linalg.norm(B)))

            # the remix couples each real cell through a positive entry and
            # each 2x2 pair cell through (c, 0) with c > 0
            for Ai, bi in d.blocks:
                scale = np.abs(bi).max()
                i = 0
                while i < len(bi):
                    assert bi[i] > 0, (trial, bi)
                    if i + 1 < len(bi) and Ai[i, i + 1] != 0.0:
                        assert abs(bi[i + 1]) <= 1e-12 * scale, (trial, bi)
                        i += 2
                    else:
                        i += 1

    def test_deterministic_for_fixed_seed(self, bench_plant):
        d1 = cyclic_decompose(bench_plant, seed=0)
        d2 = cyclic_decompose(bench_plant, seed=0)
        assert_allclose(d1.P, d2.P)
        assert_allclose(d1.Q, d2.Q)


def _cut(A, B, lam):
    """B with a left eigenvector of A at ``lam``, the last left singular
    vector of A - lam I, projected out of its columns (for a non-real ``lam``
    its real and imaginary parts), so that rank [A - lam I, B] < n."""
    w = np.linalg.svd(A - lam * np.eye(A.shape[0]))[0][:, -1:]
    pair = abs(lam.imag) > 1e-8
    basis, _ = np.linalg.qr(np.hstack([w.real, w.imag]) if pair else w.real)
    return B - basis @ (basis.T @ B)


def assert_pbh_verdicts_agree(A, B):
    """The decomposition's PBH test names the eigenvalues the pencil test
    names on the whole spectrum, and ``cyclic_decompose`` raises
    Unstabilizable with them, if any. Returns those eigenvalues and the ones
    the decomposition's test left to the pencil test; None when A has no
    well-conditioned eigenbasis, and ``cyclic_decompose`` says so."""
    evals = np.linalg.eigvals(A)
    clusters = _analyze_clusters(A, evals)
    try:
        _check_diagonalizable(A, clusters)
    except NotDiagonalizable:
        with pytest.raises(NotDiagonalizable):
            cyclic_decompose(Plant(A=A, B=B))
        return None
    pencil = []

    def recorded(A, B, eigenvalues):
        pencil.extend(eigenvalues)
        return _rank_failures(A, B, eigenvalues)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cyclic, "_rank_failures", recorded)
        tested = _pbh_failures(A, B, clusters, evals)
    failures = _rank_failures(A, B, evals)
    assert tested == failures
    if failures:
        with pytest.raises(Unstabilizable) as exc:
            cyclic_decompose(Plant(A=A, B=B))
        assert str(exc.value) == f"plant fails the PBH test at eigenvalues {failures}"
    return failures, pencil


class TestClusterPbh:
    """The decomposition's PBH test, passed from the cluster SVDs where they
    prove it and left to the pencil test of ``numerics._rank_failures``
    elsewhere, agrees with the pencil test on the whole spectrum."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_benchmark_plants(self, seed):
        for inst in benchmark_instances(seed):
            # the cluster SVDs decide every benchmark plant
            assert assert_pbh_verdicts_agree(inst.A, inst.B) == ((), [])
            evals = np.linalg.eigvals(inst.A)
            unstable = evals[evals.real > 0]
            if unstable.size:
                lam = unstable[np.argmax(unstable.imag)]
                failures, pencil = assert_pbh_verdicts_agree(
                    inst.A, _cut(inst.A, inst.B, lam))
                assert lam in failures and lam in pencil

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 7), st.floats(0.0, 8.0),
           st.booleans())
    def test_ill_conditioned_eigenbases(self, seed, n, log_cond, cut):
        # S = X diag(geomspace(1, 10^-log_cond)) Y' with X, Y orthogonal
        rng = np.random.default_rng(seed)
        X, _ = np.linalg.qr(rng.normal(size=(n, n)))
        Y, _ = np.linalg.qr(rng.normal(size=(n, n)))
        S = X @ np.diag(np.geomspace(1.0, 10.0**-log_cond, n)) @ Y.T
        cells = [np.array([[a, b], [-b, a]]) if b else np.array([[a]])
                 for a, b in zip(rng.choice([-2.5, -1.5, -0.5, 0.5, 1.5, 2.5], size=n),
                                 rng.choice([0.0, 0.0, 0.7, 1.4], size=n))]
        cells = cells[: np.searchsorted(np.cumsum([len(c) for c in cells]), n, "right")]
        D = linalg.block_diag(*cells, *[[[-3.0]]] * (n - sum(map(len, cells))))
        A = S @ D @ np.linalg.inv(S)
        B = rng.normal(size=(n, int(rng.integers(1, 3))))
        if cut:
            evals = np.linalg.eigvals(A)
            B = _cut(A, B, evals[np.argmax(evals.real)])
        assert_pbh_verdicts_agree(A, B)

    def test_defective_and_unstabilizable_is_not_diagonalizable(self):
        # the PBH test reads the cluster SVDs, so the basis check comes first
        p = Plant(A=np.array([[1.0, 1.0], [0.0, 1.0]]), B=np.array([[1.0], [0.0]]))
        assert _rank_failures(p.A, p.B, np.linalg.eigvals(p.A))
        with pytest.raises(NotDiagonalizable):
            cyclic_decompose(p)
