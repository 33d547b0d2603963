"""Dense linear-algebra kernels shared by the other modules.

Everything here works on small dense matrices (desk scale). The one
Lyapunov solver is the Bartels-Stewart method: one real Schur form of the
coefficient is its Hurwitz test and solves a stack of right-hand sides, each
to a rounding-level residual even on strongly non-normal coefficients. The
zero-state-weight Riccati solver builds on it: an ordered real Schur form of
``A``, whose diagonal blocks also give the eigenvalues of its PBH test, and one
Lyapunov solve on the unstable part give the stabilizing solution
(mirror-pole construction).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import linalg

from .errors import (
    AxisEigenvalue,
    Diverged,
    IllConditioned,
    InvalidInput,
    NetstabError,
    NotHurwitz,
    Overflow,
    Unstabilizable,
)

#: Absolute half-width of the strip around the imaginary axis inside which an
#: eigenvalue is treated as an axis eigenvalue.
TAU_AXIS = 1e-9

#: Relative singular-value threshold of the PBH rank test.
RANK_TOL = 1e-8

#: Stage named by the errors of the Riccati gain kernel.
RICCATI = "riccati gain"

#: Stage named by the errors of the Lyapunov kernel.
LYAPUNOV = "lyapunov solve"


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


def spectral_radius(Z) -> float:
    """Largest eigenvalue modulus of an entrywise nonnegative matrix."""
    Z = _as_square(Z, "Z")
    if np.any(Z < 0):
        raise InvalidInput("spectral_radius expects an entrywise nonnegative matrix")
    return float(np.max(np.abs(np.linalg.eigvals(Z))))


def solve_lyapunov(Acl, Q) -> np.ndarray:
    """Solve ``Acl L + L Acl' + Q = 0`` for symmetric PSD ``Q`` and Hurwitz ``Acl``.

    ``Q`` is one n x n matrix or a (k, n, n) stack, and ``L`` has its shape.
    One real Schur form ``Acl = U T U'`` reduces each equation to a
    quasi-triangular one solved by back substitution (Bartels-Stewart). Each
    residual is checked against ``1e-8 * max(||Q||, ||A|| ||L||)``: the second
    term is the working scale of the linear system, which dominates when the
    solution is much larger than the forcing.

    Raises
    ------
    NotHurwitz
        When a diagonal entry of ``T`` (an eigenvalue's real part) is >= 0.
    Overflow
        When trsyl scales a solution down to keep it from overflowing.
    IllConditioned
        When two eigenvalues of ``Acl`` sum to nearly zero relative to ``||T||``
        and trsyl perturbs them; carries ``||T|| / min |lambda_i + lambda_j|``.
    """
    Acl = _as_square(Acl, "Acl")
    Q = np.asarray(Q, dtype=float)
    n = Acl.shape[0]
    if Q.shape[-2:] != (n, n) or Q.ndim > 3:
        raise InvalidInput(f"Q must be {n}x{n} or a stack of them, got shape {Q.shape}")
    Qs = 0.5 * (Q + np.swapaxes(Q, -1, -2))
    if not np.all(np.isfinite(Qs)):
        raise InvalidInput("Q has non-finite entries")
    T, U = linalg.schur(Acl, output="real")
    abscissa = np.max(np.diag(T))
    if not abscissa < 0.0:
        raise NotHurwitz("Lyapunov equation requires a Hurwitz coefficient matrix; "
                         f"spectral abscissa {abscissa:.3e}")
    L = np.empty_like(Qs)
    # no iterative refinement: the orthogonal Schur reduction already leaves
    # a rounding-level residual, and a correction solved from the rounded
    # defect of a strongly non-normal loop adds error instead of removing it
    for Qk, Lk in zip(Qs.reshape(-1, n, n), L.reshape(-1, n, n)):
        Y, shrink, info = linalg.lapack.dtrsyl(T, T, U.T.dot((-Qk).dot(U)), tranb="T")
        if info < 0:
            raise ValueError(f"trsyl: illegal value in argument number {-info}")
        if info == 1:
            # trsyl perturbed an eigenvalue pair sum below its guard of about
            # eps ||T||, so Y solves a different equation
            lam = _quasi_triangular_eigenvalues(T)
            gap = np.min(np.abs(lam[:, None] + lam[None, :])) / np.linalg.norm(T)
            raise IllConditioned(LYAPUNOV, 1.0 / gap,
                                 f"smallest |lambda_i + lambda_j| of Acl is {gap:.3e} "
                                 "of ||T||, below trsyl's perturbation guard")
        # trsyl returns shrink * L, shrink < 1, when L is past its overflow guard
        if shrink < 1.0:
            raise Overflow(f"Lyapunov solution overflows (trsyl scale {shrink:.3e})")
        Lk[:] = U.dot(Y).dot(U.T)
        Lk[:] = 0.5 * (Lk + Lk.T)
        residual = np.linalg.norm(Acl @ Lk + Lk @ Acl.T + Qk)
        scale = max(np.linalg.norm(Qk), np.linalg.norm(Acl) * np.linalg.norm(Lk), 1e-300)
        if not residual <= 1e-8 * scale < np.inf:  # fails on inf and nan
            raise NetstabError(
                f"Lyapunov residual {residual:.3e} exceeds tolerance; "
                "the coefficient matrix is too close to the stability boundary"
            )
    return L


def _quasi_triangular_eigenvalues(T):
    """Eigenvalues of a real Schur form ``T``, read off its diagonal blocks.

    LAPACK standardizes each 2 x 2 block to ``[[a, b], [c, a]]`` with
    ``bc < 0``, whose eigenvalues are ``a +- i sqrt(-bc)``."""
    lam = np.diag(T).astype(complex)
    for i in np.flatnonzero(np.diag(T, -1)):
        im = np.sqrt(-T[i, i + 1] * T[i + 1, i])
        lam[i] += 1j * im
        lam[i + 1] -= 1j * im
    return lam


def _rank_failures(A, B, eigenvalues):
    """The ``eigenvalues`` with Re >= -TAU_AXIS at which rank [A - lambda I, B] < n."""
    n = A.shape[0]
    failures = []
    for lam in eigenvalues:
        if lam.real < -TAU_AXIS:
            continue
        pencil = np.hstack([A - lam * np.eye(n), B.astype(complex)])
        sv = np.linalg.svd(pencil, compute_uv=False)
        if sv[-1] <= RANK_TOL * sv[0]:
            failures.append(complex(lam))
    return tuple(failures)


def stabilizable_pbh(A, B) -> bool:
    """PBH stabilizability test: rank [A - lambda I, B] = n (relative to
    ``RANK_TOL``) at every eigenvalue with Re(lambda) >= -TAU_AXIS."""
    A = _as_square(A, "A")
    return not _rank_failures(A, np.asarray(B, dtype=float), np.linalg.eigvals(A))


def solve_care_stabilizing(A, B) -> np.ndarray:
    """Stabilizing solution of ``A'X + XA - X B B' X = 0``.

    Mirror-pole construction (Zhou, Doyle & Glover, *Robust and Optimal
    Control*, ch. 13): in the real Schur form ``A = U T U'``, stable part
    first, one Lyapunov solve ``T_u Y + Y T_u' = B_u B_u'`` on the unstable
    part, ``B_u = U_u' B``, gives ``X = U_u Y^-1 U_u'`` by a Cholesky factor
    of ``Y``. ``X`` annihilates the stable invariant subspace, ``A - BB'X``
    mirrors the unstable eigenvalues, and ``cond(Y)`` limits the accuracy.
    On success ``X`` is symmetric PSD, ``A - BB'X`` is Hurwitz and the
    residual is below ``1e-8 * max(1, ||X||^2)``.

    Raises
    ------
    AxisEigenvalue
        When ``A`` has an eigenvalue within TAU_AXIS of the imaginary axis.
    Unstabilizable
        When (A, B) fails the PBH test.
    IllConditioned
        When ``Y`` has no Cholesky factor or ``X`` fails the residual or
        Hurwitz check; carries ``cond(Y)``.
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
    T, U, sdim = linalg.schur(A, sort="lhp", check_finite=False)
    if np.any(np.abs(np.diag(T)) < TAU_AXIS):
        raise AxisEigenvalue(
            "A has an eigenvalue on the imaginary axis; the stabilizing "
            "Riccati solution is not defined"
        )
    # past the axis check every eigenvalue the PBH test visits is in the
    # unstable block, which the sort put last
    if _rank_failures(A, B, _quasi_triangular_eigenvalues(T[sdim:, sdim:])):
        raise Unstabilizable("(A, B) is not stabilizable")
    if sdim == n:
        return np.zeros((n, n))
    Uu = U[:, sdim:]
    Bu = Uu.T @ B
    Y = solve_lyapunov(-T[sdim:, sdim:], Bu @ Bu.T)

    def ill_conditioned(detail):
        cond = float(np.linalg.cond(Y))
        return IllConditioned(RICCATI, cond, f"{detail}; cond(Y) = {cond:.3e}")
    try:
        C = linalg.cholesky(Y, lower=True, check_finite=False)
    except linalg.LinAlgError:
        raise ill_conditioned("Y has no Cholesky factor") from None
    W = linalg.solve_triangular(C, Uu.T, lower=True, check_finite=False)
    X = W.T @ W
    BBt = B @ B.T
    residual = np.linalg.norm(A.T @ X + X @ A - X @ BBt @ X)
    if residual > 1e-8 * max(1.0, np.linalg.norm(X) ** 2):
        raise ill_conditioned(f"Riccati residual {residual:.3e} exceeds tolerance")
    if not np.max(np.linalg.eigvals(A - BBt @ X).real) < 0.0:
        raise ill_conditioned("Riccati closed loop failed the Hurwitz check")
    min_eig = float(np.min(np.linalg.eigvalsh(X)))
    if min_eig < -1e-8 * max(1.0, np.linalg.norm(X)):
        raise NetstabError("Riccati solution is not positive semidefinite")
    return X


@dataclass(frozen=True)
class MatrixTrajectory:
    """Sampled solution of a matrix ODE.

    ``states[i]`` is the matrix at ``times[i]``. The covariance simulation,
    ``analysis.simulate_fading_covariance``, writes exactly symmetric states
    (equal to their transposes bit for bit), which the machine and table
    writers format from the upper triangle.

    When the solution overflowed, ``diverged_at`` holds the time of the
    first sample past the overflow limit (non-finite, or an entry above
    1e150) and the trajectory ends at the last sample before it.
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

    No pipeline path calls it: it is the RK4 reference that the tests
    compare ``analysis.simulate_fading_covariance`` against, and it stays in
    ``src/`` because ``benchmark/tracing.py`` looks it up by name.

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
