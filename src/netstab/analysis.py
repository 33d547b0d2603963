"""Closed-loop verification: channel powers, mean-square norms, covariance
simulation, and the final stabilization verdict."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import linalg

from .errors import InvalidInput, NetstabError, Overflow
from .numerics import (
    _OVERFLOW_LIMIT,
    MatrixTrajectory,
    solve_lyapunov,
    spectral_radius,
)
from .plantmodel import AWGN, FADING, ChannelEnsemble, Plant

VERDICT_STABILIZED = "stabilized"
VERDICT_UNSTABLE = "unstable"
VERDICT_POWER_VIOLATION = "power_violation"
VERDICT_MS_NORM_VIOLATION = "ms_norm_violation"

#: Trajectories are decimated to at most this many samples.
MAX_TRAJECTORY_SAMPLES = 10_000

#: Largest number of time steps a sample grid may hold before decimation:
#: 0.8 GB per float64 array of the grid, 2.6 GB at the peak of its build.
MAX_GRID_STEPS = 100_000_000


@dataclass(frozen=True)
class StateSpace:
    """Strictly proper state-space realization ``Ccl (sI - Acl)^-1 Bcl``.

    Shapes and finiteness are checked on construction; the spectrum of
    ``Acl`` is computed on first use and kept.
    """

    Acl: np.ndarray
    Bcl: np.ndarray
    Ccl: np.ndarray

    def __post_init__(self):
        Acl = np.asarray(self.Acl, dtype=float)
        Bcl = np.asarray(self.Bcl, dtype=float)
        Ccl = np.asarray(self.Ccl, dtype=float)
        n = Acl.shape[0]
        if Acl.shape != (n, n) or Bcl.shape[0] != n or Ccl.shape[1] != n:
            raise InvalidInput("inconsistent state-space dimensions")
        if not np.all(np.isfinite(Acl)):
            raise InvalidInput("A has non-finite entries")
        object.__setattr__(self, "Acl", Acl)
        object.__setattr__(self, "Bcl", Bcl)
        object.__setattr__(self, "Ccl", Ccl)

    @cached_property
    def spectrum(self) -> np.ndarray:
        """Eigenvalues of ``Acl`` sorted by real part, then imaginary part."""
        ev = np.linalg.eigvals(self.Acl)
        return ev[np.lexsort((ev.imag, ev.real))]

    @property
    def hurwitz(self) -> bool:
        return float(np.max(self.spectrum.real)) < 0.0


def closed_loop(plant: Plant, design) -> StateSpace:
    """Noise-to-channel-input realization of the closed loop.

    ``Acl = A + BF``; the input matrix is ``BR`` for AWGN designs and
    ``BRM`` for fading designs (the multiplicative noise enters after the
    channel mean); the output matrix is ``TF``.
    """
    Bcl = plant.B @ design.R
    if design.kind == FADING:
        Bcl = Bcl * design.mean
    return StateSpace(plant.A + plant.B @ design.F, Bcl, design.T @ design.F)


def h2_gramian_entrywise(ss: StateSpace) -> np.ndarray:
    """Matrix of squared H2 norms of the scalar transfer-function entries.

    Entry (i, j) is the squared H2 norm of the transfer from input j to
    output i, read off the controllability Gramian of input column j; one
    stacked Lyapunov solve gives the Gramians of all columns. Entries too
    large for floating point raise ``Overflow`` with their count.
    """
    L = solve_lyapunov(ss.Acl, np.einsum("nj,mj->jnm", ss.Bcl, ss.Bcl))
    K = np.array([np.einsum("in,nm,im->i", ss.Ccl, Lj, ss.Ccl) for Lj in L]).T
    bad = np.count_nonzero(~np.isfinite(K))
    if bad:
        raise Overflow(
            f"mean-square norm: {bad} of {K.size} entrywise H2 norms are not finite"
        )
    return np.maximum(K, 0.0)


def h2_norm_squared(ss: StateSpace) -> float:
    """Total squared H2 norm via a single Lyapunov solve."""
    L = solve_lyapunov(ss.Acl, ss.Bcl @ ss.Bcl.T)
    return float(np.trace(ss.Ccl @ L @ ss.Ccl.T))


def channel_powers_awgn(ss: StateSpace, noise_density) -> np.ndarray:
    """Stationary channel input powers E[q_i^2] of an AWGN closed loop.

    One Lyapunov solve with the full noise covariance; the i-th power is the
    i-th diagonal entry of the output covariance.
    """
    N = np.asarray(noise_density, dtype=float).reshape(-1)
    L = solve_lyapunov(ss.Acl, ss.Bcl @ np.diag(N) @ ss.Bcl.T)
    return np.maximum(np.einsum("in,nm,im->i", ss.Ccl, L, ss.Ccl), 0.0)


def channel_power_coefficients(Acl, B, F, W):
    """Coefficients of the AWGN channel powers, a polynomial in the codec
    scaling.

    The loop ``Acl`` is driven through the columns b_j of ``B`` scaled by
    eps^j and read through the rows f_a of ``F`` scaled by eps^-a, mixed by
    ``W`` (l x m). With ``W = N^(1/2) U`` and orthonormal ``U`` this is the
    closed loop of the codec ``T = N^(1/2) U D^-1``, ``R = D U' N^(-1/2)``,
    ``D = diag(eps^j)``, since then ``R N R' = D^2``: the Gramian is
    sum_j eps^2j L_j, L_j that of b_j, and

        power_i(eps) = sum_k c[k, i] eps^k,  k = 0 .. 2(m-1),
        c[k, i] = sum over a, b <= j, 2j - a - b = k of W_ia W_ib f_a' L_j f_b.

    The loop is taken in decomposition coordinates: ``Acl`` and ``B`` block
    upper triangular, ``F`` block diagonal. L_j then lives on the blocks up
    to j, so every term with a or b above j, which are the terms with a
    negative power of eps, is zero by structure and is not summed. c[0] is
    the powers' limit as eps -> 0, the paper's 2 N gamma. One stacked
    Lyapunov solve gives every L_j; its errors (``NotHurwitz`` for a loop
    that is not Hurwitz) pass through.
    """
    m = B.shape[1]
    L = solve_lyapunov(Acl, np.einsum("nj,mj->jnm", B, B))
    G = np.einsum("an,jnk,bk->jab", F, L, F)
    j, a, b = np.indices(G.shape).reshape(3, -1)
    j, a, b = np.compress((a <= j) & (b <= j), [j, a, b], axis=1)
    Wt = np.asarray(W, dtype=float).T
    c = np.zeros((2 * m - 1, Wt.shape[1]))
    np.add.at(c, 2 * j - a - b, G[j, a, b][:, None] * Wt[a] * Wt[b])
    return c


def ms_norm(ss: StateSpace, phi) -> float:
    """Mean-square norm of the realization composed with a positive diagonal
    input scaling: the square root of the spectral radius of the matrix of
    squared entrywise H2 norms."""
    phi = np.asarray(phi, dtype=float).reshape(-1)
    if np.any(phi <= 0):
        raise InvalidInput("input scaling must be positive")
    if ss.Bcl.shape[1] != phi.size:
        raise InvalidInput("scaling length must match the input count")
    scaled = StateSpace(Acl=ss.Acl, Bcl=ss.Bcl * phi, Ccl=ss.Ccl)
    if scaled.Ccl.shape[0] != scaled.Bcl.shape[1]:
        raise InvalidInput("mean-square norm requires a square transfer matrix")
    K = h2_gramian_entrywise(scaled)
    return float(np.sqrt(spectral_radius(K)))


def mixed_norms(ss: StateSpace):
    """(column-sum, row-sum) mixed norms of the entrywise H2-squared matrix,
    square-rooted."""
    K = h2_gramian_entrywise(ss)
    norm_2_1 = float(np.sqrt(np.max(np.sum(K, axis=0))))
    norm_2_inf = float(np.sqrt(np.max(np.sum(K, axis=1))))
    return norm_2_1, norm_2_inf


def _ms_loop(plant: Plant, design, ch: ChannelEnsemble) -> StateSpace:
    """Fading closed loop with its inputs scaled by sigma/|mu|: column i of
    ``Bcl`` is +-sigma_i (BR)_i, so channel i re-injects b_i b_i' (c_i' X c_i)
    into the covariance. This is the realization :func:`ms_norm` measures."""
    if ch.kind != FADING:
        raise InvalidInput("covariance simulation applies to fading channels")
    if design.kind != FADING:
        raise InvalidInput("design kind does not match the channel kind")
    phi = np.sqrt(ch.variance) / np.abs(ch.mean)
    ss = closed_loop(plant, design)
    return StateSpace(Acl=ss.Acl, Bcl=ss.Bcl * phi, Ccl=ss.Ccl)


def covariance_rhs(plant: Plant, design, ch: ChannelEnsemble):
    """Right-hand side of the state-covariance evolution under multiplicative
    channel noise: the stable Lyapunov flow plus a noise re-injection term
    that reads the per-channel signal powers off the diagonal."""
    ss = _ms_loop(plant, design, ch)

    def rhs(X):
        y = np.einsum("in,nm,im->i", ss.Ccl, X, ss.Ccl)
        return ss.Acl @ X + X @ ss.Acl.T + (ss.Bcl * y) @ ss.Bcl.T

    return rhs


def _ms_lyapunov_coordinates(ss: StateSpace):
    """W and its inverse for the coordinates X -> W X W' with W'W = P, P the
    solution of the adjoint equation
    Acl'P + P Acl + sum_i (b_i'P b_i) c_i c_i' = -I.

    For a mean-square stable loop P is positive definite and tr(P X) is a
    Lyapunov function of the covariance flow. With q_i = b_i'P b_i,
    P = P0 + sum_i q_i P_i where P0 and P_i solve, in one stacked call, the
    Lyapunov equations with right-hand sides I and c_i c_i', and q solves
    the l x l system (I - M) q = q0, M_ji = b_j'P_i b_j. The eigenvalues of
    P are floored at 1e-15 of the largest, which keeps W invertible where
    rounding leaves P indefinite; any invertible W gives an exact change
    of coordinates, only the contraction needs P. The identity when no P
    can be computed (A + BF not Hurwitz) or P has no positive eigenvalue.
    """
    n = ss.Acl.shape[0]
    try:
        Q = np.concatenate([np.eye(n)[None], np.einsum("in,im->inm", ss.Ccl, ss.Ccl)])
        P0, *Pi = solve_lyapunov(ss.Acl.T, Q)
        M = np.array([[b @ Pc @ b for Pc in Pi] for b in ss.Bcl.T])
        q = np.linalg.solve(np.eye(len(Pi)) - M, [b @ P0 @ b for b in ss.Bcl.T])
        P = P0 + sum(qi * Pc for qi, Pc in zip(q, Pi))
        lam, V = np.linalg.eigh(0.5 * (P + P.T))
    except (NetstabError, np.linalg.LinAlgError):
        return np.eye(n), np.eye(n)
    if not lam[-1] > 0:
        return np.eye(n), np.eye(n)
    root = np.sqrt(np.maximum(lam, 1e-15 * lam[-1]))
    return root[:, None] * V.T, V / root


def _ms_triangle(ss: StateSpace):
    """``(Ls, W, Winv, r, c)``: the generator
    X -> Acl X + X Acl' + sum_i b_i b_i' (c_i' X c_i) restricted to symmetric
    matrices in the coordinates Xw = W X W' of
    :func:`_ms_lyapunov_coordinates`, an n(n+1)/2 square matrix Ls acting on
    the upper triangle entries (r, c), r <= c, of Xw. Column (p, q) is the
    generator applied to e_p e_q', entry (r, c) being
    [c = q] A_rp + A_cq [r = p] + sum_i B_ri B_ci C_ip C_iq, plus its mirror
    (p and q swapped) when p != q."""
    W, Winv = _ms_lyapunov_coordinates(ss)
    A, B, C = W @ ss.Acl @ Winv, W @ ss.Bcl, ss.Ccl @ Winv
    r, c = np.triu_indices(A.shape[0])
    reinjection = (B[r] * B[c]) @ (C[:, r] * C[:, c])

    def applied(p, q):
        column = A[np.ix_(r, p)] * (c[:, None] == q)
        column += A[np.ix_(c, q)] * (r[:, None] == p)
        column += reinjection
        return column

    return applied(r, c) + applied(c, r) * (r != c), W, Winv, r, c


def ms_operator_abscissa(plant: Plant, design, ch: ChannelEnsemble) -> float:
    """Spectral abscissa of the covariance generator :func:`covariance_rhs`
    applies, read off its triangle operator Ls of :func:`_ms_triangle` that
    :func:`simulate_fading_covariance` propagates. On antisymmetric
    matrices the re-injection vanishes and the eigenvalues are sums of two
    eigenvalues of A + BF, never the largest; W is a similarity.

    Negative exactly when the closed fading loop is mean-square stable; its
    magnitude is the slowest mean-square decay rate, which is the right time
    scale for covariance simulations.
    """
    Ls = _ms_triangle(_ms_loop(plant, design, ch))[0]
    return float(np.max(np.linalg.eigvals(Ls).real))


def default_time_step(plant: Plant, design) -> float:
    """0.01 divided by the closed-loop spectral abscissa magnitude.

    The step sets only the spacing of the simulated samples: the covariance
    is propagated exactly between them, so the step has no bearing on the
    accuracy of a sample.
    """
    alpha = abs(float(np.max(closed_loop(plant, design).spectrum.real)))
    return 0.01 / max(alpha, 1e-3)


def _sample_grid(t_end: float, dt: float):
    """Sample times ``0, dt, 2 dt, ...`` accumulated step by step, the last
    step shortened to end at ``t_end``, decimated so that at most
    ``MAX_TRAJECTORY_SAMPLES`` remain: the samples ``0, stride, 2 stride,
    ...``, and the last one when the stride does not land on it.

    Returns the kept times and the stride. The build peaks at 26 bytes a
    step (the steps, their sums and the masks that find the last one), so a
    grid of more than ``MAX_GRID_STEPS`` = 1e8 steps, over 2.6 GB, raises
    InvalidInput before anything is allocated; 1e9 steps, 26 GB, is past
    the memory of most machines. The fading demo's horizon grid to t = 304
    has 7 604 steps.
    """
    count = np.ceil(t_end / dt)
    if not count <= MAX_GRID_STEPS:
        raise InvalidInput(
            f"t_end {t_end} and dt {dt} need {count:.6g} time steps, more than "
            f"the {MAX_GRID_STEPS} a sample grid may hold"
        )
    thr = t_end - 1e-12 * t_end
    # cumsum adds dt one step at a time, so its sums equal the accumulated
    # times bit for bit; the grid runs full steps while t < thr and a full
    # step still fits, then at most one shortened step lands on t_end
    steps = np.full(int(count) + 1, dt)
    full = np.concatenate([[0.0], np.cumsum(steps)])
    stop = int(np.argmin((full < thr) & (dt <= t_end - full)))
    times = full[: stop + 1]
    if times[-1] < thr:
        times = np.append(times, times[-1] + (t_end - times[-1]))
    nsamp = times.size
    stride = int(np.ceil(nsamp / MAX_TRAJECTORY_SAMPLES))
    keep = np.arange(0, nsamp, stride)
    if keep[-1] != nsamp - 1:
        keep = np.append(keep, nsamp - 1)
    return times[keep], stride


def simulate_fading_covariance(
    plant: Plant,
    design,
    ch: ChannelEnsemble,
    t_end: float = 10.0,
    dt: float | None = None,
) -> MatrixTrajectory:
    """State covariance from ``X(0) = x0 x0'`` by exact propagation.

    The samples lie on the grid of step ``dt`` (last step shortened to end
    at ``t_end``), decimated to at most ``MAX_TRAJECTORY_SAMPLES`` rows.
    The covariance is propagated in the coordinates Xw = W X W' in which
    tr(Xw) = tr(P X) is the Lyapunov function of a mean-square stable loop
    (see :func:`_ms_lyapunov_coordinates`). There the flow is a contraction
    of the trace norm, so rounding errors do not grow along the transient
    of a strongly non-normal loop. Xw stays symmetric, so only its upper
    triangle is propagated, by the operator Ls of :func:`_ms_triangle`.
    Between kept samples the triangle is multiplied by expm(Ls h): one
    exponential for the uniform stride and one for the final interval,
    which is shorter in time even when it spans a full stride of grid
    steps. The stride's product is one matrix-vector product a sample, of
    the sample before it, written in place into the next row of the
    triangle stack; powers of the step would take fewer products but round
    differently (by up to 4.2e-14 relative on the fading demo). A sample
    overflows when an entry is not finite or exceeds 1e150 in magnitude.
    Overflow is reported through ``diverged_at``, the time of the first
    such sample, which the trajectory ends before, rather than raised:
    divergence is a meaningful verdict for an inadequate design.
    """
    if dt is None:
        dt = default_time_step(plant, design)
    if not (0 < t_end < np.inf and 0 < dt < np.inf):  # fails on nan too
        raise InvalidInput(f"t_end {t_end} and dt {dt} must be positive and finite")
    times, stride = _sample_grid(t_end, dt)
    n = plant.n
    Ls, W, Winv, r, c = _ms_triangle(_ms_loop(plant, design, ch))
    tri = np.empty((times.size, r.size))
    tri[0] = (W @ np.outer(plant.x0, plant.x0) @ W.T)[r, c]
    step = linalg.expm(Ls * (stride * dt))
    propagate = step.dot
    rows = list(tri)
    with np.errstate(over="ignore", invalid="ignore"):
        for prev, row in zip(rows, rows[1:-1]):
            propagate(prev, out=row)
        tri[-1] = linalg.expm(Ls * (times[-1] - times[-2])) @ tri[-2]
        states = np.empty((times.size, n, n))
        states[:, r, c] = tri
        states[:, c, r] = tri
        np.matmul(Winv @ states, Winv.T, out=states)
        states[:, c, r] = states[:, r, c]
        # NaN fails the comparison, so it counts as overflow like inf
        bad = ~(np.abs(states) <= _OVERFLOW_LIMIT).all(axis=(1, 2))
    if not bad.any():
        return MatrixTrajectory(times=times, states=states)
    first = int(np.argmax(bad))
    return MatrixTrajectory(
        times=times[:first], states=states[:first], diverged_at=float(times[first])
    )


@dataclass(frozen=True)
class AnalysisReport:
    """Stability verdict with the margins that support it.

    For AWGN designs ``channel_powers`` and per-channel power margins are
    populated; for fading designs ``ms_norm`` and its single margin
    ``1 - ms_norm``. Only the fields relevant to the channel kind are set.
    """

    verdict: str
    kind: str
    closed_loop_spectrum: np.ndarray
    margins: np.ndarray
    channel_powers: np.ndarray | None = None
    ms_norm: np.ndarray | None = None

    @property
    def stabilized(self) -> bool:
        return self.verdict == VERDICT_STABILIZED


def analyze(plant: Plant, design, ch: ChannelEnsemble) -> AnalysisReport:
    """Full closed-loop verdict for a co-design against its channel ensemble.

    AWGN: stabilized iff the loop is Hurwitz and every channel power sits
    below its admissible level with relative slack at least 1e-9.
    Fading: stabilized iff the loop is Hurwitz and the mean-square norm of
    the noise-to-input transfer scaled by sigma/|mu| is below one.
    """
    ss = closed_loop(plant, design)
    if not ss.hurwitz:
        return AnalysisReport(
            verdict=VERDICT_UNSTABLE,
            kind=ch.kind,
            closed_loop_spectrum=ss.spectrum,
            margins=np.array([]),
        )
    if ch.kind == AWGN:
        powers = channel_powers_awgn(ss, ch.noise_density)
        margins = ch.power - powers
        ok = bool(np.all(margins >= 1e-9 * ch.power))
        return AnalysisReport(
            verdict=VERDICT_STABILIZED if ok else VERDICT_POWER_VIOLATION,
            kind=ch.kind,
            closed_loop_spectrum=ss.spectrum,
            margins=margins,
            channel_powers=powers,
        )
    phi = np.sqrt(ch.variance) / np.abs(ch.mean)
    value = ms_norm(ss, phi)
    ok = value < 1.0
    return AnalysisReport(
        verdict=VERDICT_STABILIZED if ok else VERDICT_MS_NORM_VIOLATION,
        kind=ch.kind,
        closed_loop_spectrum=ss.spectrum,
        margins=np.array([1.0 - value]),
        ms_norm=np.array([value]),
    )


__all__ = [
    "StateSpace",
    "AnalysisReport",
    "closed_loop",
    "h2_gramian_entrywise",
    "h2_norm_squared",
    "channel_powers_awgn",
    "channel_power_coefficients",
    "ms_norm",
    "mixed_norms",
    "ms_operator_abscissa",
    "covariance_rhs",
    "default_time_step",
    "simulate_fading_covariance",
    "analyze",
    "VERDICT_STABILIZED",
    "VERDICT_UNSTABLE",
    "VERDICT_POWER_VIOLATION",
    "VERDICT_MS_NORM_VIOLATION",
]
