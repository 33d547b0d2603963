"""Feedback gain and encoder/decoder synthesis with the feasibility pipeline.

The pipeline decides feasibility by comparing subchannel capacities against
block entropies in the strict weak order, then builds: per-block minimum-
energy stabilizing gains (zero-state-weight Riccati solutions), an
intermediate demand vector strictly below the capacities, an isometry
realizing those demands, and a geometrically scaled encoder/decoder pair.
The scaling is halved until the closed loop verifies. For AWGN designs
with two or more active inputs the channel powers are a Laurent polynomial
in the scaling, whose coefficients one Lyapunov solve on the loop in
decomposition coordinates gives; the verified search starts at the first
scaling that polynomial does not predict to fail beyond its rounding, and
``analyze`` decides from there. The search starts from one with a single
active input, on fading channels, when A + BF is not Hurwitz and when
every scaling is predicted to fail.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import analysis
from .cyclic import CyclicDecomposition, cyclic_decompose
from .errors import (
    CodecInvalid,
    EpsilonExhausted,
    IllConditioned,
    InvalidInput,
    NetstabError,
)
from .majorize import (
    STRICT_WEAK_ABOVE,
    OrderVerdict,
    check_order,
    construct_intermediate,
    pad_to_match,
    schur_horn_isometry,
    strictness_margin,
)
from .numerics import RICCATI, solve_care_stabilizing
from .plantmodel import AWGN, FADING, ChannelEnsemble, Plant, capacities

#: Geometric halving schedule for the codec scaling.
EPSILON_SCHEDULE = tuple(0.5**i for i in range(60))


@dataclass(frozen=True)
class CoDesign:
    """A complete coding/control co-design.

    ``F`` is the state feedback gain in original input coordinates; ``T``
    and ``R`` are the encoder/decoder pair around the subchannels, already
    composed with the input transformation of the underlying decomposition.
    ``gamma`` is the per-subchannel demand vector realized by the isometry
    ``U``; ``epsilon`` is the accepted codec scaling. For fading designs
    ``mean`` carries the channel means needed by the closed-loop maps.

    When the plant has more inputs than subchannels, only the leading
    ``m_active`` transformed inputs carry signal; ``note`` documents this
    and the codec identity holds on the active subspace.
    """

    kind: str
    F: np.ndarray
    T: np.ndarray
    R: np.ndarray
    epsilon: float
    gamma: np.ndarray
    U: np.ndarray
    mean: np.ndarray | None = None
    m_active: int | None = None
    note: str = ""

    def __post_init__(self):
        F = np.asarray(self.F, dtype=float)
        T = np.asarray(self.T, dtype=float)
        R = np.asarray(self.R, dtype=float)
        m = F.shape[0]
        if T.shape[1] != m or R.shape[0] != m or T.shape[0] != R.shape[1]:
            raise InvalidInput("codec dimensions do not match the gain")
        object.__setattr__(self, "F", F)
        object.__setattr__(self, "T", T)
        object.__setattr__(self, "R", R)
        object.__setattr__(self, "gamma", np.asarray(self.gamma, dtype=float))
        object.__setattr__(self, "U", np.asarray(self.U, dtype=float))
        if self.mean is not None:
            object.__setattr__(self, "mean", np.asarray(self.mean, dtype=float))
        m_active = m if self.m_active is None else int(self.m_active)
        object.__setattr__(self, "m_active", m_active)
        middle = R @ T if self.kind == AWGN else R @ np.diag(self.mean) @ T
        # the identity holds exactly up to the isometry's orthonormality, but
        # evaluating it in floating point amplifies rounding by the factor
        # gap inside the scaling, hence the product-norm scale
        scale = max(1.0, float(np.linalg.norm(R) * np.linalg.norm(T)))
        if m_active == m:
            err = float(np.max(np.abs(middle - np.eye(m))))
            if err > 1e-10 * scale:
                raise CodecInvalid(f"codec identity residual {err:.3e}")
        else:
            err = float(np.max(np.abs(middle @ F - F)))
            if err > 1e-9 * scale * max(1.0, float(np.max(np.abs(F)))):
                raise CodecInvalid(
                    f"codec does not reproduce the active inputs ({err:.3e})"
                )

    @property
    def l(self) -> int:
        return self.T.shape[0]


def synthesize_gain(d: CyclicDecomposition):
    """State feedback gain built from per-block minimum-energy Riccati gains.

    Each single-input block receives ``f_i = -b_i' X_i`` where ``X_i`` is
    the stabilizing solution of the zero-state-weight Riccati equation; the
    block-diagonal gain ``F_bar`` is padded with zero rows for unused inputs
    and mapped back through the decomposition transformations,
    ``F = Q F_bar P^-1``. Returns ``(F, F_bar)``. Each block's
    noise-to-input energy is verified to equal twice its entropy. A block
    whose Riccati solve or energy identity fails raises ``IllConditioned``
    naming the block, with ``cond(Y)`` read from the spectrum of ``X``.
    """
    m = d.Q.shape[0]
    n = d.P.shape[0]
    offsets = d.offsets
    F_bar = np.zeros((m, n))
    for j, (Aj, bj) in enumerate(d.blocks):
        bj = bj.reshape(-1, 1)
        try:
            X = solve_care_stabilizing(Aj, bj)
        except IllConditioned as exc:
            raise IllConditioned(exc.stage, exc.cond, exc.detail, block=j) from None
        fj = -(bj.T @ X)
        F_bar[j, offsets[j] : offsets[j + 1]] = fj
        Acl = Aj + bj @ fj
        energy = analysis.h2_norm_squared(
            analysis.StateSpace(Acl=Acl, Bcl=bj, Ccl=fj)
        )
        if abs(energy - 2.0 * d.h[j]) > 1e-6 * max(1.0, 2.0 * d.h[j]):
            # X = U_u Y^-1 U_u' has the reciprocals of Y's eigenvalues as its
            # nonzero spectrum, one per unstable eigenvalue of A_j; a block
            # with no unstable part has an empty Y (a hand-built h is off)
            n_u = int(np.sum(np.linalg.eigvals(Aj).real > 0))
            ev = np.linalg.eigvalsh(X)
            cond = float(ev[-1] / ev[-n_u]) if n_u else 1.0
            raise IllConditioned(
                RICCATI, cond,
                f"noise energy {energy:.9f} deviates from twice the entropy "
                f"{2.0 * d.h[j]:.9f}; cond(Y) = {cond:.3e}",
                block=j,
            )
    return d.Q @ F_bar @ np.linalg.inv(d.P), F_bar


def synthesize_codec(ch: ChannelEnsemble, U, epsilon: float, m: int):
    """Encoder/decoder pair around the subchannels for a given isometry.

    With ``D = diag(1, eps, ..., eps^(m-1))``: AWGN couples through the noise
    densities as ``T = N^(1/2) U D^-1``, ``R = D U' N^(-1/2)``; fading couples
    through the channel means as ``T = |M|^(-1/2) U D^-1``,
    ``R = D U' |M|^(-1/2) sign(M)`` (signs of negative means fold into the
    decoder). The defining identity (RT = I, or R M T = I for fading) is
    verified before returning.
    """
    U = np.asarray(U, dtype=float)
    if U.ndim != 2 or U.shape[1] != m:
        raise InvalidInput(f"isometry must have {m} columns, got shape {U.shape}")
    if not 0.0 < epsilon <= 1.0:
        raise InvalidInput("epsilon must lie in (0, 1]")
    if U.shape[0] != ch.count:
        raise InvalidInput("isometry rows must match the subchannel count")
    D = np.diag(epsilon ** np.arange(m))
    D_inv = np.diag(epsilon ** -np.arange(m).astype(float))
    if ch.kind == AWGN:
        root = np.sqrt(ch.noise_density)
        T = (root[:, None] * U) @ D_inv
        R = D @ (U.T / root[None, :])
        identity = R @ T
    else:
        root = np.sqrt(np.abs(ch.mean))
        signs = np.sign(ch.mean)
        T = (U / root[:, None]) @ D_inv
        R = D @ (U.T * (signs / root)[None, :])
        identity = R @ np.diag(ch.mean) @ T
    err = float(np.max(np.abs(identity - np.eye(m))))
    if err > 1e-10 * max(1.0, float(np.linalg.norm(R) * np.linalg.norm(T))):
        raise CodecInvalid(f"codec identity residual {err:.3e}")
    return T, R


@dataclass(frozen=True)
class CoDesignResult:
    """Outcome of the end-to-end pipeline.

    ``feasible`` mirrors the majorization verdict exactly. On feasible
    instances ``design`` is a verified co-design, ``report`` its analysis,
    and ``epsilon_trail`` lists the scalings that were tried with their
    verdicts (the accepted one last). For AWGN designs with two or more
    active inputs the "power_violation" entries before the first scaling
    ``analyze`` ran at are predicted by the Laurent expansion of the channel
    powers, not verified (see :func:`codesign`). On infeasible instances only ``order`` and ``decomposition``
    are populated; the violated prefix margins live in ``order.slack``.
    """

    feasible: bool
    order: OrderVerdict
    decomposition: CyclicDecomposition
    design: CoDesign | None = None
    report: "analysis.AnalysisReport | None" = None
    epsilon_trail: tuple = ()
    note: str = ""


def _feasibility(plant: Plant, ch: ChannelEnsemble, seed: int = 0):
    """``(d, order)``: the cyclic decomposition of the plant and the verdict
    of the capacity vector against its zero-padded block entropies in the
    strict weak order, feasible exactly when it holds."""
    d = cyclic_decompose(plant, seed=seed)
    return d, check_order(*pad_to_match(capacities(ch), d.h), STRICT_WEAK_ABOVE)


#: Relative rounding allowance of the predicted channel powers, per unit of
#: the magnitude bound of their terms.
_PREDICTION_RTOL = 1e-8


def _predicted_passes(d, B, F_bar, U, ch, m_active):
    """Per ``EPSILON_SCHEDULE`` scaling, False where some AWGN power margin
    is predicted to fall short of 1e-9 of its power by more than the
    prediction's rounding allowance; None when the prediction cannot be made
    (A + BF not Hurwitz).

    The prediction evaluates the Laurent expansion of
    :func:`analysis.channel_power_coefficients` on the loop in decomposition
    coordinates, ``A_bar + B_bar F_bar`` with ``B_bar = P^-1 B Q``, at every
    scaling at once. The allowance is ``_PREDICTION_RTOL`` times the
    expansion's magnitude bound at that scaling, so the rounding residue of
    a coefficient that is zero by structure, multiplied by up to
    eps^-(2m-2), cannot make a scaling look failed.
    """
    B_bar = d.staircase(B)
    try:
        c, scale = analysis.channel_power_coefficients(
            d.block_diagonal() + B_bar @ F_bar,
            B_bar[:, :m_active],
            F_bar[:m_active],
            np.sqrt(ch.noise_density)[:, None] * U,
        )
    except NetstabError:
        return None
    eps = np.array(EPSILON_SCHEDULE)[:, None]
    with np.errstate(over="ignore", invalid="ignore"):
        powers = eps ** np.arange(2 - 2 * m_active, 2 * m_active - 1)
        shortfall = 1e-9 * ch.power - (ch.power - powers @ c)
        return ~np.any(shortfall > _PREDICTION_RTOL * (powers @ scale), axis=1)


def codesign(
    plant: Plant,
    ch: ChannelEnsemble,
    seed: int = 0,
    epsilon: float | None = None,
) -> CoDesignResult:
    """Feasibility check plus full synthesis for a plant/channel pair.

    Feasibility holds exactly when the capacity vector is strictly weakly
    above the zero-padded block entropy vector. On feasible instances the
    codec scaling is halved from one until the analysis verdict is
    "stabilized" (guaranteed for small enough scaling); pass ``epsilon`` to
    pin the scaling instead of searching. An "unstable" verdict ends the
    search at once, since the gain, and with it A + BF, does not depend on
    the scaling.

    For AWGN channels with two or more active inputs the search starts at
    the first scaling of ``EPSILON_SCHEDULE`` that the Laurent expansion of
    the channel powers (:func:`_predicted_passes`) does not predict to miss
    a margin of 1e-9 of its power by more than its rounding allowance. Each
    scaling it skips enters ``epsilon_trail`` as a predicted, not verified,
    "power_violation", and ``analyze`` at the start gives the verdict of
    record; where it disagrees, the halving goes on from there. The search starts from one with a single active input (the
    scaling then has no effect), on fading channels, when A + BF is not
    Hurwitz, and when no scaling is predicted to pass.
    """
    d, order = _feasibility(plant, ch, seed)
    if not order.holds:
        return CoDesignResult(feasible=False, order=order, decomposition=d)

    lch = ch.count
    m = plant.m
    note = ""
    if m <= lch:
        m_active = m
    else:
        m_active = d.k
        note = (
            f"{lch} subchannels serve only the {d.k} decomposed inputs that "
            f"carry signal; inputs {d.k + 1}..{m} are unused"
        )
    gamma = construct_intermediate(*pad_to_match(capacities(ch), d.h))
    lam = np.concatenate([d.h, np.zeros(m_active - d.k)])
    U = schur_horn_isometry(lam, gamma)
    F, F_bar = synthesize_gain(d)

    Q_inv = np.linalg.inv(d.Q)
    schedule = (float(epsilon),) if epsilon is not None else EPSILON_SCHEDULE
    passes = None
    if epsilon is None and ch.kind == AWGN and m_active >= 2:
        passes = _predicted_passes(d, plant.B, F_bar, U, ch, m_active)
    start = int(np.argmax(passes)) if passes is not None else 0
    trail = [(eps, analysis.VERDICT_POWER_VIOLATION) for eps in schedule[:start]]
    for eps in schedule[start:]:
        T_d, R_d = synthesize_codec(ch, U, eps, m_active)
        cand = CoDesign(
            kind=ch.kind,
            F=F,
            T=T_d @ Q_inv[:m_active, :],
            R=d.Q[:, :m_active] @ R_d,
            epsilon=eps,
            gamma=gamma,
            U=U,
            mean=ch.mean if ch.kind == FADING else None,
            m_active=m_active,
            note=note,
        )
        rep = analysis.analyze(plant, cand, ch)
        trail.append((eps, rep.verdict))
        if rep.stabilized:
            return CoDesignResult(
                feasible=True,
                order=order,
                decomposition=d,
                design=cand,
                report=rep,
                epsilon_trail=tuple(trail),
                note=note,
            )
        if rep.verdict == analysis.VERDICT_UNSTABLE:
            # A + BF does not depend on the scaling, so a search from the
            # first one would have stopped there with this verdict
            abscissa = float(np.max(rep.closed_loop_spectrum.real))
            raise EpsilonExhausted(
                f"A+BF is not Hurwitz (spectral abscissa {abscissa:.6g}) at "
                f"every codec scaling; trail: {[(schedule[0], rep.verdict)]}"
            )
    raise EpsilonExhausted(
        "no codec scaling verified "
        + ("at the requested value" if epsilon is not None else "after 60 halvings")
        + f"; trail: {trail[-3:]}"
    )


@dataclass(frozen=True)
class CorollaryReport:
    """Agreement between the simplified total-capacity criterion and the
    full prefix criterion, in the two regimes where they must coincide."""

    single_unstable_block: bool
    equal_capacities: bool
    applicable: bool
    full_feasible: bool
    simplified_feasible: bool | None
    agree: bool | None
    total_capacity: float
    entropy: float


def check_corollaries(plant: Plant, ch: ChannelEnsemble, seed: int = 0) -> CorollaryReport:
    """When one cyclic block carries all instability, or all capacities are
    equal, feasibility reduces to total capacity exceeding total entropy;
    this reports both verdicts and whether they agree."""
    d, order = _feasibility(plant, ch, seed)
    c = capacities(ch)
    full = order.holds
    total = float(np.sum(c))
    entropy = float(np.sum(d.h))
    single = int(np.sum(d.h > 0.0)) <= 1
    equal = bool(np.max(c) - np.min(c) <= 1e-12 * max(1.0, float(np.max(c))))
    applicable = single or equal
    simplified = None
    agree = None
    if applicable:
        simplified = bool(total - entropy > strictness_margin(c))
        agree = simplified == full
    return CorollaryReport(
        single_unstable_block=single,
        equal_capacities=equal,
        applicable=applicable,
        full_feasible=full,
        simplified_feasible=simplified,
        agree=agree,
        total_capacity=total,
        entropy=entropy,
    )


__all__ = [
    "CoDesign",
    "CoDesignResult",
    "CorollaryReport",
    "EPSILON_SCHEDULE",
    "synthesize_gain",
    "synthesize_codec",
    "codesign",
    "check_corollaries",
]
