"""Shared fixtures: the four-state benchmark plant and its two channel banks,
the single-input conditioning ladder, and a counter of eigen-solves and Schur
forms."""

from collections import Counter

import numpy as np
import pytest
from scipy import linalg

from netstab import ChannelEnsemble, Plant

#: Published isometries for the benchmark problem (4 decimal places).
U_BENCH_AWGN = np.array(
    [[0.7817, 0.4714], [0.4629, 0.0], [-0.4179, 0.8819]]
)
U_BENCH_FADING = np.array(
    [[0.8952, -0.1993], [0.0, 0.8944], [0.4456, 0.4004]]
)

F_BENCH = np.array([[-40.0, 36.0, -10.0, 0.0], [0.0, 0.0, 0.0, -2.0]])


@pytest.fixture
def bench_plant():
    A = np.diag([4.0, 2.0, 1.0, 1.0])
    B = np.array([[1.0, 1.0], [1.0, 1.0], [1.0, 1.0], [0.0, 1.0]])
    return Plant(A=A, B=B, x0=np.ones(4))


@pytest.fixture
def bench_awgn():
    return ChannelEnsemble(
        kind="awgn", power=[9.1, 3.1, 4.1], noise_density=[1.0, 1.0, 1.0]
    )


@pytest.fixture
def bench_fading():
    return ChannelEnsemble(
        kind="fading", mean=[2.0, 0.6, 0.9], variance=[0.35, 0.2, 0.25]
    )


@pytest.fixture
def factorizations(monkeypatch):
    """Counter of the ``np.linalg.eigvals`` ("eigvals") and
    ``scipy.linalg.schur`` ("schur") calls made while the test runs."""
    counts = Counter()

    def counted(key, func):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return func(*args, **kwargs)
        return wrapper
    monkeypatch.setattr(np.linalg, "eigvals", counted("eigvals", np.linalg.eigvals))
    monkeypatch.setattr(linalg, "schur", counted("schur", linalg.schur))
    return counts


def nearest_isometry(U):
    """Polar factor: the closest matrix with exactly orthonormal columns."""
    u, _, vt = np.linalg.svd(U, full_matrices=False)
    return u @ vt


def ladder_block(seed, n):
    """Single-input block ``A = S diag(+-linspace(0.5, 3, n/2)) S'`` with a
    Gaussian ``b``: ``S`` from the QR of a normal draw of
    ``default_rng((seed, n, 7))``, ``b`` drawn next from the same generator.
    Placing n/2 spread poles through one input makes the Gramian of the
    unstable part ill conditioned as n grows."""
    rng = np.random.default_rng((seed, n, 7))
    S, _ = np.linalg.qr(rng.normal(size=(n, n)))
    poles = np.linspace(0.5, 3.0, n // 2)
    A = S @ np.diag(np.concatenate([poles, -poles])) @ S.T
    return A, rng.normal(size=(n, 1))
