"""Problem data types: plant, channel ensemble, capacities, entropy."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import AxisEigenvalueWarning, InvalidInput
from .numerics import TAU_AXIS, _as_square, pbh_failures, stabilizable_pbh

AWGN = "awgn"
FADING = "fading"


@dataclass(frozen=True)
class Plant:
    """Continuous-time plant ``dx/dt = A x + B u`` with optional initial state.

    Shape and finiteness are enforced at construction. Stabilizability is a
    modeling assumption checked by :func:`validate_plant` and at pipeline
    entry, so that invalid plants can still be loaded and diagnosed.
    """

    A: np.ndarray
    B: np.ndarray
    x0: np.ndarray = None

    def __post_init__(self):
        A = _as_square(self.A, "A")
        B = np.asarray(self.B, dtype=float)
        if B.ndim == 1:
            B = B.reshape(-1, 1)
        if B.ndim != 2 or B.shape[0] != A.shape[0]:
            raise InvalidInput(
                f"B must be n x m with n={A.shape[0]}, got shape {B.shape}"
            )
        if B.shape[1] < 1:
            raise InvalidInput("B must have at least one column")
        if not np.all(np.isfinite(B)):
            raise InvalidInput("B has non-finite entries")
        x0 = self.x0
        if x0 is None:
            x0 = np.ones(A.shape[0])
        else:
            x0 = np.asarray(x0, dtype=float).reshape(-1)
            if x0.size != A.shape[0]:
                raise InvalidInput(f"x0 must have length {A.shape[0]}")
            if not np.all(np.isfinite(x0)):
                raise InvalidInput("x0 has non-finite entries")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "x0", x0)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]


@dataclass(frozen=True)
class ChannelEnsemble:
    """A bank of parallel SISO subchannels, either AWGN or fading.

    AWGN subchannels carry admissible input powers ``power`` and noise power
    spectral densities ``noise_density``; fading subchannels carry the means
    and variances of their multiplicative noises. Every parameter must be
    strictly positive except fading means, which must be nonzero.
    """

    kind: str
    power: np.ndarray = None
    noise_density: np.ndarray = None
    mean: np.ndarray = None
    variance: np.ndarray = None

    def __post_init__(self):
        if self.kind not in (AWGN, FADING):
            raise InvalidInput(f"unknown channel kind {self.kind!r}")

        def vec(x, name, positive=True, nonzero=False):
            if x is None:
                raise InvalidInput(f"{self.kind} channels require {name}")
            x = np.asarray(x, dtype=float).reshape(-1)
            if x.size < 1 or not np.all(np.isfinite(x)):
                raise InvalidInput(f"{name} must be a finite nonempty vector")
            if positive and np.any(x <= 0):
                raise InvalidInput(f"{name} entries must be strictly positive")
            if nonzero and np.any(x == 0):
                raise InvalidInput(f"{name} entries must be nonzero")
            return x

        if self.kind == AWGN:
            P = vec(self.power, "power")
            N = vec(self.noise_density, "noise_density")
            if P.size != N.size:
                raise InvalidInput("power and noise_density must have equal length")
            if self.mean is not None or self.variance is not None:
                raise InvalidInput("AWGN channels do not take mean/variance")
            object.__setattr__(self, "power", P)
            object.__setattr__(self, "noise_density", N)
        else:
            mu = vec(self.mean, "mean", positive=False, nonzero=True)
            s2 = vec(self.variance, "variance")
            if mu.size != s2.size:
                raise InvalidInput("mean and variance must have equal length")
            if self.power is not None or self.noise_density is not None:
                raise InvalidInput("fading channels do not take power/noise_density")
            object.__setattr__(self, "mean", mu)
            object.__setattr__(self, "variance", s2)

    @property
    def count(self) -> int:
        v = self.power if self.kind == AWGN else self.mean
        return v.size


def capacities(ch: ChannelEnsemble) -> np.ndarray:
    """Per-subchannel capacity vector.

    AWGN subchannel i supplies ``P_i / (2 N_i)``; a fading subchannel
    supplies the mean-square capacity ``mu_i^2 / (2 sigma_i^2)``.
    """
    if ch.kind == AWGN:
        return 0.5 * ch.power / ch.noise_density
    return 0.5 * ch.mean**2 / ch.variance


def total_capacity(ch: ChannelEnsemble) -> float:
    return float(np.sum(capacities(ch)))


def topological_entropy(A) -> float:
    """Sum of the real parts of the unstable eigenvalues of ``A``.

    Eigenvalues within TAU_AXIS of the imaginary axis trigger an
    AxisEigenvalueWarning and do not contribute.
    """
    A = _as_square(A, "A")
    evals = np.linalg.eigvals(A)
    if np.any(np.abs(evals.real) < TAU_AXIS):
        warnings.warn(
            "eigenvalue within tolerance of the imaginary axis; entropy is "
            "ill-conditioned there",
            AxisEigenvalueWarning,
            stacklevel=2,
        )
    return float(np.sum(evals.real[evals.real > TAU_AXIS]))


@dataclass(frozen=True)
class PlantValidation:
    """Structured validation report for a plant. Never raises."""

    stabilizable: bool
    unstable: bool
    has_axis_eigenvalues: bool
    entropy: float
    eigenvalues: np.ndarray
    pbh_failures: tuple  # eigenvalues where the PBH rank test failed

    @property
    def ok(self) -> bool:
        return self.stabilizable and not self.has_axis_eigenvalues


def validate_plant(plant: Plant, rank_tol=1e-8) -> PlantValidation:
    """PBH stabilizability check plus axis/instability diagnostics."""
    A = plant.A
    evals = np.linalg.eigvals(A)
    has_axis = bool(np.any(np.abs(evals.real) < TAU_AXIS))
    failures = pbh_failures(A, plant.B, rank_tol)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AxisEigenvalueWarning)
        entropy = topological_entropy(A)
    return PlantValidation(
        stabilizable=not failures,
        unstable=entropy > 0.0,
        has_axis_eigenvalues=has_axis,
        entropy=entropy,
        eigenvalues=evals,
        pbh_failures=failures,
    )


__all__ = [
    "AWGN",
    "FADING",
    "Plant",
    "ChannelEnsemble",
    "PlantValidation",
    "capacities",
    "total_capacity",
    "topological_entropy",
    "validate_plant",
    "stabilizable_pbh",
]
