"""Dense linear-algebra kernels shared by the other modules.

Everything here works on small dense matrices (desk scale). The Lyapunov
solver is the Schur-based Bartels-Stewart method (O(n^3) flops, with a
residual at rounding level even on strongly non-normal coefficients); the
Riccati solver extracts the stable invariant subspace of the associated
Hamiltonian matrix with an ordered real Schur decomposition.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import linalg

from .errors import (
    AxisEigenvalue,
    Diverged,
    InvalidInput,
    NetstabError,
    NotHurwitz,
    Unstabilizable,
)

#: Absolute half-width of the strip around the imaginary axis inside which an
#: eigenvalue is treated as an axis eigenvalue.
TAU_AXIS = 1e-9


def _as_square(A, name="matrix"):
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise InvalidInput(f"{name} must be square, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise InvalidInput(f"{name} has non-finite entries")
    return A


def eig_cluster_tolerance(A):
    """Clustering tolerance tau_eig = 1e-8 * max(1, ||A||_F)."""
    return 1e-8 * max(1.0, float(np.linalg.norm(A)))


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues of a real matrix with multiplicity clustering.

    Attributes
    ----------
    eigenvalues : complex ndarray, shape (n,)
    multiplicity_clusters : tuple of tuples of int
        Partition of eigenvalue indices; indices in one group are equal
        within the clustering tolerance.
    basis : complex ndarray, shape (n, n)
        Eigenvector matrix as returned by the dense eigensolver.
    """

    eigenvalues: np.ndarray
    multiplicity_clusters: tuple
    basis: np.ndarray

    def cluster_values(self):
        """Representative value (mean) of each cluster."""
        return [complex(np.mean(self.eigenvalues[list(g)])) for g in self.multiplicity_clusters]


def eigendecompose(A) -> Spectrum:
    """Eigendecomposition with eigenvalues grouped into multiplicity clusters.

    Two eigenvalues belong to the same cluster when their distance is at most
    ``tau_eig = 1e-8 * max(1, ||A||_F)`` (transitively chained).
    """
    A = _as_square(A, "A")
    evals, evecs = np.linalg.eig(A)
    tau = eig_cluster_tolerance(A)
    clusters: list[list[int]] = []
    reps: list[complex] = []
    # deterministic scan order: descending real part, then descending imag
    order = sorted(range(evals.size), key=lambda i: (-evals[i].real, -evals[i].imag))
    for i in order:
        lam = evals[i]
        for g, rep in zip(clusters, reps):
            if abs(lam - rep) <= tau:
                g.append(i)
                break
        else:
            clusters.append([i])
            reps.append(lam)
    # refresh representatives to cluster means (single pass is enough at
    # the tolerances involved)
    groups = tuple(tuple(g) for g in clusters)
    return Spectrum(eigenvalues=evals, multiplicity_clusters=groups, basis=evecs)


def spectral_abscissa(A) -> float:
    """Largest real part over the spectrum of ``A``."""
    A = _as_square(A, "A")
    return float(np.max(np.linalg.eigvals(A).real))


def is_hurwitz(A, margin=0.0) -> bool:
    """True when every eigenvalue of ``A`` satisfies Re(lambda) < -margin."""
    return spectral_abscissa(A) < -margin


def spectral_radius(Z) -> float:
    """Largest eigenvalue modulus of an entrywise nonnegative matrix."""
    Z = _as_square(Z, "Z")
    if np.any(Z < 0):
        raise InvalidInput("spectral_radius expects an entrywise nonnegative matrix")
    return float(np.max(np.abs(np.linalg.eigvals(Z))))


def _lyapunov_bartels_stewart(Acl, Qs):
    """Raw Bartels-Stewart solve of ``Acl L + L Acl' + Qs = 0`` (Qs symmetric)."""
    L = linalg.solve_continuous_lyapunov(Acl, -Qs)
    return 0.5 * (L + L.T)


def solve_lyapunov(Acl, Q) -> np.ndarray:
    """Solve ``Acl L + L Acl' + Q = 0`` for symmetric PSD ``Q`` and Hurwitz ``Acl``.

    Uses the Bartels-Stewart method: a real Schur form of ``Acl`` reduces the
    equation to a quasi-triangular one solved by back substitution. The
    residual is checked on every call against ``1e-8 * max(||Q||, ||A|| ||L||)``:
    the second term is the working scale of the linear system, which
    dominates when the solution is much larger than the forcing.

    Raises
    ------
    NotHurwitz
        When ``Acl`` has an eigenvalue with nonnegative real part.
    """
    Acl = _as_square(Acl, "Acl")
    Q = _as_square(Q, "Q")
    n = Acl.shape[0]
    if Q.shape[0] != n:
        raise InvalidInput("Acl and Q must have matching dimensions")
    if not is_hurwitz(Acl):
        raise NotHurwitz("Lyapunov equation requires a Hurwitz coefficient matrix")
    Qs = 0.5 * (Q + Q.T)
    # no iterative refinement: the orthogonal Schur reduction already leaves
    # a rounding-level residual, and a correction solved from the rounded
    # defect of a strongly non-normal loop adds error instead of removing it
    L = _lyapunov_bartels_stewart(Acl, Qs)
    residual = np.linalg.norm(Acl @ L + L @ Acl.T + Qs)
    scale = max(np.linalg.norm(Qs), np.linalg.norm(Acl) * np.linalg.norm(L), 1e-300)
    if residual > 1e-8 * scale:
        raise NetstabError(
            f"Lyapunov residual {residual:.3e} exceeds tolerance; "
            "the coefficient matrix is too close to the stability boundary"
        )
    return L


def stabilizable_pbh(A, B, rank_tol=1e-8) -> bool:
    """PBH stabilizability test: rank [A - lambda I, B] = n at every
    eigenvalue with Re(lambda) >= -TAU_AXIS."""
    A = _as_square(A, "A")
    B = np.asarray(B, dtype=float)
    n = A.shape[0]
    for lam in np.linalg.eigvals(A):
        if lam.real < -TAU_AXIS:
            continue
        pencil = np.hstack([A - lam * np.eye(n), B.astype(complex)])
        sv = np.linalg.svd(pencil, compute_uv=False)
        if sv[-1] <= rank_tol * sv[0]:
            return False
    return True


def solve_care_stabilizing(A, B) -> np.ndarray:
    """Stabilizing solution of ``A'X + XA - X B B' X = 0``.

    The solution is obtained from the stable invariant subspace of the
    2n x 2n Hamiltonian ``[[A, -BB'], [0, -A']]`` via an ordered real Schur
    decomposition. On success ``X`` is symmetric PSD, the closed loop
    ``A - BB'X`` is Hurwitz, and the residual is below
    ``1e-8 * max(1, ||X||^2)``.

    Raises
    ------
    AxisEigenvalue
        When ``A`` has an eigenvalue within TAU_AXIS of the imaginary axis.
    Unstabilizable
        When (A, B) fails the PBH test.
    """
    A = _as_square(A, "A")
    B = np.asarray(B, dtype=float)
    if B.ndim == 1:
        B = B.reshape(-1, 1)
    n = A.shape[0]
    if B.shape[0] != n:
        raise InvalidInput("A and B must have matching row dimensions")
    if not np.all(np.isfinite(B)):
        raise InvalidInput("B has non-finite entries")
    evals = np.linalg.eigvals(A)
    if np.any(np.abs(evals.real) < TAU_AXIS):
        raise AxisEigenvalue(
            "A has an eigenvalue on the imaginary axis; the stabilizing "
            "Riccati solution is not defined"
        )
    if not stabilizable_pbh(A, B):
        raise Unstabilizable("(A, B) is not stabilizable")
    H = np.block([[A, -B @ B.T], [np.zeros((n, n)), -A.T]])
    _, Z, sdim = linalg.schur(H, output="real", sort=lambda re, im: re < 0.0)
    if sdim != n:
        raise NetstabError(
            f"stable invariant subspace has dimension {sdim}, expected {n}"
        )
    X1 = Z[:n, :n]
    X2 = Z[n:, :n]
    X = np.linalg.solve(X1.T, X2.T).T
    X = 0.5 * (X + X.T)
    # Newton refinement: each step solves one Lyapunov equation in the
    # current closed loop and typically gains several digits on poorly
    # conditioned instances
    BBt = B @ B.T
    for _ in range(4):
        residual_mat = A.T @ X + X @ A - X @ BBt @ X
        if np.linalg.norm(residual_mat) <= 1e-13 * max(1.0, np.linalg.norm(X) ** 2):
            break
        Acl = A - BBt @ X
        if not is_hurwitz(Acl):
            break
        X = X + _lyapunov_bartels_stewart(Acl.T, residual_mat)
        X = 0.5 * (X + X.T)
    residual = np.linalg.norm(A.T @ X + X @ A - X @ BBt @ X)
    if residual > 1e-8 * max(1.0, np.linalg.norm(X) ** 2):
        raise NetstabError(f"Riccati residual {residual:.3e} exceeds tolerance")
    if not is_hurwitz(A - B @ B.T @ X):
        raise NetstabError("Riccati closed loop failed the Hurwitz check")
    min_eig = float(np.min(np.linalg.eigvalsh(X)))
    if min_eig < -1e-8 * max(1.0, np.linalg.norm(X)):
        raise NetstabError("Riccati solution is not positive semidefinite")
    return X


@dataclass(frozen=True)
class MatrixTrajectory:
    """Sampled solution of a matrix ODE.

    ``states[i]`` is the (symmetrized) matrix at ``times[i]``. When the
    solution overflowed, ``diverged_at`` holds the time of the first sample
    past the overflow limit (non-finite, or an entry above 1e150) and the
    trajectory ends at the last sample before it.
    """

    times: np.ndarray
    states: np.ndarray
    diverged_at: float | None = None

    @property
    def diverged(self) -> bool:
        return self.diverged_at is not None

    def frobenius_norms(self) -> np.ndarray:
        return np.linalg.norm(self.states, axis=(1, 2))


_OVERFLOW_LIMIT = 1e150


def integrate_linear_matrix_ode(rhs, X0, t_end, dt, raise_on_divergence=True):
    """Classical fixed-step 4th-order integration of ``dX/dt = rhs(X)``.

    ``rhs`` maps a symmetric matrix to a symmetric matrix. Every accepted
    step is symmetrized. The final step is shortened so the trajectory ends
    exactly at ``t_end``.

    Raises ``Diverged`` (carrying the divergence time) on entry overflow
    unless ``raise_on_divergence`` is False, in which case the truncated
    trajectory is returned with ``diverged_at`` set.
    """
    if dt <= 0 or t_end <= 0:
        raise InvalidInput("t_end and dt must be positive")
    X = np.asarray(X0, dtype=float)
    X = 0.5 * (X + X.T)
    times = [0.0]
    states = [X.copy()]
    t = 0.0
    while t < t_end - 1e-12 * t_end:
        h = min(dt, t_end - t)
        k1 = rhs(X)
        k2 = rhs(X + 0.5 * h * k1)
        k3 = rhs(X + 0.5 * h * k2)
        k4 = rhs(X + h * k3)
        X = X + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        X = 0.5 * (X + X.T)
        t += h
        if not np.all(np.isfinite(X)) or np.max(np.abs(X)) > _OVERFLOW_LIMIT:
            if raise_on_divergence:
                raise Diverged(t)
            return MatrixTrajectory(
                times=np.asarray(times), states=np.asarray(states), diverged_at=t
            )
        times.append(t)
        states.append(X.copy())
    return MatrixTrajectory(times=np.asarray(times), states=np.asarray(states))
