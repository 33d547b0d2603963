"""Decomposition of a stabilizable pair (A, B) into single-input subsystems.

A diagonalizable state matrix splits into blocks whose spectra are nested:
block 1 takes one eigenvalue from every multiplicity cluster, block 2 one
from every cluster of multiplicity at least two, and so on. The number of
blocks equals the largest geometric multiplicity, every block has simple
(block-distinct) eigenvalues and is therefore cyclic, and block entropies
are automatically non-increasing.

The input transformation is found constructively. A candidate set of input
columns must give a nonsingular coupling matrix Y in every unstable cluster
and a nonsingular input transformation Q. Within each cluster, the unitary
factor of the QR factorization Y = Z R then remixes the eigenbasis: the new
couplings are R, so the couplings below the block diagonal are zero. A
structured first candidate aims for unit couplings, falling back to seeded
random candidates. Every result is re-verified against all invariants.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DecompositionFailed,
    InvalidInput,
    NotDiagonalizable,
    Unstabilizable,
)
from .numerics import (
    RANK_TOL,
    TAU_AXIS,
    _as_square,
    _rank_failures,
    eig_cluster_tolerance,
)
from .plantmodel import Plant, _entropy

_MAX_BASIS_COND = 1e8
_Q_ATTEMPTS = 40


class _Cluster:
    """One eigenvalue cluster: a real value or a conjugate pair (Im > 0),
    with orthonormal bases of its (complex) right and left eigenspaces, the
    eigenvalues it groups, and the largest singular value of A - value I and
    the smallest one outside its mult smallest (inf when mult = n)."""

    __slots__ = ("value", "mult", "basis", "left", "members", "norm", "gap",
                 "is_pair", "col_start")

    def __init__(self, value, members, basis, left, sv, is_pair):
        self.value = value
        self.mult = len(members)
        self.members = members
        self.basis = basis  # n x mult, complex for pairs
        self.left = left  # n x mult, complex for pairs
        self.norm = float(sv[0])
        self.gap = float(sv[-self.mult - 1]) if self.mult < len(sv) else np.inf
        self.is_pair = is_pair

    @property
    def width(self):
        """Real columns of one copy: 2 for a pair, 1 otherwise."""
        return 2 if self.is_pair else 1

    @property
    def unstable(self):
        return np.real(self.value) > TAU_AXIS

    def cell_matrix(self):
        if self.is_pair:
            a, b = np.real(self.value), np.imag(self.value)
            return np.array([[a, b], [-b, a]])
        return np.array([[float(np.real(self.value))]])


def _tidy_basis(W):
    """Deterministic sign and column order for an orthonormal basis."""
    W = W.copy()
    keys = []
    for j in range(W.shape[1]):
        lead = int(np.argmax(np.abs(W[:, j])))
        if np.real(W[lead, j]) < 0:
            W[:, j] = -W[:, j]
        keys.append(lead)
    return W[:, np.argsort(keys, kind="stable")]


def _analyze_clusters(A, evals):
    """Cluster the spectrum ``evals`` of A and attach invariant-subspace bases.

    The basis of a cluster of multiplicity mu is taken from the mu smallest
    right singular directions of (A - lambda I); this stays well conditioned
    for repeated eigenvalues, where raw eigenvector columns may be nearly
    parallel. The mu smallest left singular directions of the same SVD span
    the left eigenspace that :func:`_pbh_failures` tests.
    """
    n = A.shape[0]
    tau = eig_cluster_tolerance(A)
    groups: list[list[complex]] = []
    for lam in sorted(evals, key=lambda z: (-z.real, -z.imag)):
        for g in groups:
            if abs(lam - g[0]) <= tau:
                g.append(lam)
                break
        else:
            groups.append([lam])
    clusters = []
    for g in groups:
        value = complex(np.mean(g))
        if abs(value.imag) <= tau:
            value = complex(value.real, 0.0)
        elif value.imag < 0:
            continue  # conjugate partner handled by the Im > 0 member
        mult = len(g)
        shift = A - value * np.eye(n) if value.imag else A - value.real * np.eye(n)
        Us, sv, Vh = np.linalg.svd(shift)
        basis = Vh[n - mult:, :].conj().T
        if not value.imag:
            # eigenspace of a real eigenvalue of a real matrix is real
            basis = _tidy_basis(basis.real)
        else:
            basis = _tidy_basis(basis)
        clusters.append(_Cluster(value, g, basis, Us[:, n - mult:], sv,
                                 is_pair=bool(value.imag)))
    clusters.sort(key=lambda cl: (-np.real(cl.value), -abs(np.imag(cl.value))))
    return clusters


def _assemble_basis(clusters):
    """The candidate diagonalizing basis and the cell model it should give.

    Columns are grouped by cluster, copy after copy; pair clusters
    contribute (Re v_j, Im v_j) column pairs. Returns the real basis matrix
    P0 and the block-diagonal model holding each copy's ``cell_matrix()`` at
    that copy's columns, and sets each cluster's ``col_start``.
    """
    cols = []
    for cl in clusters:
        cl.col_start = len(cols)
        for j in range(cl.mult):
            v = cl.basis[:, j]
            cols.extend([v.real, v.imag] if cl.is_pair else [v])
    model = np.zeros((len(cols), len(cols)))
    for cl in clusters:
        for s in range(cl.col_start, cl.col_start + cl.width * cl.mult, cl.width):
            model[s : s + cl.width, s : s + cl.width] = cl.cell_matrix()
    return np.column_stack(cols), model


def _check_diagonalizable(A, clusters):
    """P0 and the cell model of ``_assemble_basis``, checked to agree with A."""
    P0, model = _assemble_basis(clusters)
    if np.linalg.cond(P0) > _MAX_BASIS_COND:
        raise NotDiagonalizable(
            "eigenvector basis condition number exceeds 1e8; the matrix "
            "appears defective (supply a hand-built decomposition instead)"
        )
    residual = np.linalg.norm(A @ P0 - P0 @ model)
    if residual > 1e-6 * max(1.0, np.linalg.norm(A)):
        raise NotDiagonalizable(
            f"diagonal reconstruction residual {residual:.3e} is too large; "
            "the matrix appears defective"
        )
    return P0, model


def _pbh_failures(A, B, clusters, evals):
    """``_rank_failures(A, B, evals)``, with the clusters whose eigenvalues
    provably pass read off their SVDs in Hautus form.

    With S = A - value I = U diag(sv) V^H, W the left singular vectors of
    its mult smallest singular values, h = sigma_min(W^H B) and g the
    smallest of the other singular values, splitting a unit vector along W
    and its complement bounds sigma_min [S, B] from below by
    g h / |(g, h, ||B||)|, and by h when W spans the space. At a member lambda, |lambda - value| = delta
    moves every singular value by at most delta (Weyl), so the pencil test
    passes there when the bound less delta exceeds RANK_TOL times
    hypot(||S||, ||B||) + delta, which is at least sigma_max [A - lambda I,
    B]; a factor 2 keeps rounding on the safe side. The bound is loose when
    g is small, as at a nearly defective A, and the pencil test decides
    every cluster with an eigenvalue of Re >= -TAU_AXIS that the bound does
    not clear (and the conjugates of its members).
    """
    norm_B = float(np.linalg.norm(B, 2))
    m = B.shape[1]
    undecided = set()
    for cl in clusters:
        if max(lam.real for lam in cl.members) < -TAU_AXIS:
            continue
        h = (np.linalg.svd(cl.left.conj().T @ B, compute_uv=False)[-1]
             if cl.mult <= m else 0.0)
        if h == 0 or cl.gap == np.inf:
            bound = h
        else:
            bound = cl.gap * h / np.linalg.norm([cl.gap, h, norm_B])
        delta = max(abs(lam - cl.value) for lam in cl.members)
        if bound - delta <= 2.0 * RANK_TOL * (np.hypot(cl.norm, norm_B) + delta):
            undecided.update(cl.members)
            undecided.update(np.conj(cl.members))
    return _rank_failures(A, B, [lam for lam in evals if lam in undecided])


def cyclic_index(A) -> int:
    """Largest geometric multiplicity over the clustered spectrum.

    Raises NotDiagonalizable when no well-conditioned diagonalizing basis
    exists (condition number above 1e8 or poor reconstruction).
    """
    A = _as_square(A, "A")
    clusters = _analyze_clusters(A, np.linalg.eigvals(A))
    _check_diagonalizable(A, clusters)
    return max(cl.mult for cl in clusters)


@dataclass(frozen=True)
class CyclicDecomposition:
    """Result of :func:`cyclic_decompose`.

    ``P`` and ``Q`` are the state and input transformations;
    ``P^-1 A P`` is block diagonal with the ``k`` blocks ``A_i`` and
    ``P^-1 B Q`` is block upper triangular with the single-input columns
    ``b_i`` on its block diagonal. Each ``A_i`` is the exact real cell
    model, in the column order of the regrouped ``P``: 1x1 cells ``[[a]]``
    for real eigenvalues and 2x2 cells ``[[a, b], [-b, a]]`` for conjugate
    pairs ``a +- ib``. ``h`` holds the per-block entropies in
    non-increasing order. ``seed`` records the randomization seed that
    produced the accepted construction.
    """

    P: np.ndarray
    Q: np.ndarray
    blocks: tuple  # tuple of (A_i, b_i) pairs
    k: int
    h: np.ndarray
    seed: int

    @property
    def dims(self):
        return tuple(Ai.shape[0] for Ai, _ in self.blocks)

    @property
    def offsets(self):
        return np.concatenate([[0], np.cumsum(self.dims)])

    def block_diagonal(self) -> np.ndarray:
        offsets = self.offsets
        out = np.zeros((offsets[-1], offsets[-1]))
        for (Ai, _), s, e in zip(self.blocks, offsets, offsets[1:]):
            out[s:e, s:e] = Ai
        return out

    def staircase(self, B) -> np.ndarray:
        """The transformed input matrix ``P^-1 B Q``."""
        return np.linalg.solve(self.P, np.asarray(B, dtype=float) @ self.Q)


def _cluster_rows(cl, Bt):
    """Coupling rows of a cluster in complex eigen-coordinates (mult x m)."""
    rows = Bt[cl.col_start : cl.col_start + cl.width * cl.mult, :]
    if cl.is_pair:
        return rows[0::2, :] - 1j * rows[1::2, :]
    return rows.astype(complex)


def _nonsingular(Y):
    sv = np.linalg.svd(Y, compute_uv=False)
    return sv[-1] > 1e-9 * max(1.0, sv[0])


def _structured_candidate(clusters, rows, m, k):
    """Least-squares columns aiming at unit couplings, with the couplings of
    all later copies constrained to zero. Reproduces tidy transformations
    (identity Q) for systems that are already in decomposed form."""
    qs = np.zeros((m, k))
    for j in range(k):
        kill, excite = [], []
        for cl, Z in zip(clusters, rows):
            if cl.mult > j + 1:
                kill.append(Z[j + 1 :, :])
            if cl.mult >= j + 1:
                excite.append(Z[j : j + 1, :])
        if kill:
            K = np.vstack(kill)
            Kr = np.vstack([K.real, K.imag])
            _, sv, Vh = np.linalg.svd(Kr)
            rank = int(np.sum(sv > 1e-10 * max(1.0, sv[0])))
            null = Vh[rank:, :].T
        else:
            null = np.eye(m)
        if null.shape[1] == 0:
            return None
        E = np.vstack(excite)
        Er = np.vstack([E.real, E.imag])
        target = np.concatenate([np.ones(E.shape[0]), np.zeros(E.shape[0])])
        sol, *_ = np.linalg.lstsq(Er @ null, target, rcond=None)
        qs[:, j] = null @ sol
    return qs


def _remix(cl, rows, qs, P):
    """Remix the cluster's columns of P so its couplings are upper triangular.

    The coupling matrix ``Y = rows @ qs[:, :mult]`` factors as ``Y = Z R``
    with ``Z`` unitary. Scaling the columns of ``Z`` by the phases of
    ``diag(R)`` (phase 1 where an entry is zero) leaves ``R`` with a real
    nonnegative diagonal. The new eigenbasis ``V Z`` couples as
    ``Z^H Y = R``: copy i of the cluster sees no input column before i, and
    sees column i through a real entry, positive when ``Y`` is nonsingular.
    ``Z`` is unitary, so the remix exists for every candidate. Pair clusters
    are remixed as complex columns.
    """
    Z, R = np.linalg.qr(rows @ qs[:, : cl.mult])
    d = np.diag(R)
    Z = Z * np.divide(d, np.abs(d), out=np.ones_like(d), where=d != 0)
    s, e = cl.col_start, cl.col_start + cl.width * cl.mult
    if cl.is_pair:
        V = (P[:, s:e:2] + 1j * P[:, s + 1 : e : 2]) @ Z
        P[:, s:e:2] = V.real
        P[:, s + 1 : e : 2] = V.imag
    else:
        P[:, s:e] = P[:, s:e] @ Z.real


def cyclic_decompose(plant: Plant, seed: int = 0) -> CyclicDecomposition:
    """Decompose a stabilizable plant into single-input cyclic subsystems.

    Restricted to diagonalizable state matrices; conjugate pairs are kept
    together as real 2x2 cells so that all outputs stay real. The result is
    verified against every invariant before being returned.
    """
    if seed < 0:
        raise InvalidInput(f"seed must be a non-negative integer, got {seed}")
    A, B = plant.A, plant.B
    m = plant.m
    evals = np.linalg.eigvals(A)
    clusters = _analyze_clusters(A, evals)
    P, model = _check_diagonalizable(A, clusters)
    failures = _pbh_failures(A, B, clusters, evals)
    if failures:
        raise Unstabilizable(f"plant fails the PBH test at eigenvalues {failures}")
    k = max(cl.mult for cl in clusters)
    if k > m:
        raise DecompositionFailed(
            f"cyclic index {k} exceeds the input count {m}; the staircase "
            "form does not exist for this pair"
        )

    Bt = np.linalg.solve(P, B)
    rows = [_cluster_rows(cl, Bt) for cl in clusters]

    rng = np.random.default_rng(seed)
    for attempt in range(_Q_ATTEMPTS):
        qs = (_structured_candidate(clusters, rows, m, k) if attempt == 0
              else rng.normal(size=(m, k)))
        if qs is None or not all(
            _nonsingular(r @ qs[:, : cl.mult])
            for cl, r in zip(clusters, rows)
            if cl.unstable
        ):
            continue
        if k < m:
            basis, _ = np.linalg.qr(np.hstack([qs, np.eye(m)]))
            Q = np.hstack([qs, basis[:, k:m]])
        else:
            Q = qs
        if np.linalg.cond(Q) <= 1e10:
            break
    else:
        raise DecompositionFailed(
            "no input-column candidate excited every unstable cluster with a "
            f"nonsingular input transformation after {_Q_ATTEMPTS} attempts"
        )

    for cl, r in zip(clusters, rows):
        _remix(cl, r, qs, P)

    # copies of equal index regrouped into consecutive blocks of P and model
    perm = []
    offsets = [0]
    for j in range(k):
        for cl in clusters:
            if cl.mult > j:
                s = cl.col_start + cl.width * j
                perm.extend(range(s, s + cl.width))
        offsets.append(len(perm))
    P = P[:, perm]
    model = model[np.ix_(perm, perm)]

    Bs = np.linalg.solve(P, B @ Q)
    pairs = tuple(
        (model[s:e, s:e].copy(), Bs[s:e, j].copy())
        for j, (s, e) in enumerate(zip(offsets, offsets[1:]))
    )
    h = np.array([_entropy(np.linalg.eigvals(Ai)) for Ai, _ in pairs])
    result = CyclicDecomposition(P=P, Q=Q, blocks=pairs, k=k, h=h, seed=seed)

    report = verify_decomposition(plant, result)
    if not report.ok:
        raise DecompositionFailed(
            "constructed decomposition failed verification: "
            + "; ".join(name for name, ok, _ in report.checks if not ok)
        )
    return result


@dataclass(frozen=True)
class DecompositionReport:
    """Per-invariant verification outcome: (name, passed, residual) triples."""

    checks: tuple

    @property
    def ok(self) -> bool:
        return all(passed for _, passed, _ in self.checks)

    def failed(self):
        return [name for name, passed, _ in self.checks if not passed]


def verify_decomposition(plant: Plant, d: CyclicDecomposition) -> DecompositionReport:
    """Numerically re-check every invariant of a decomposition.

    Also the acceptance path for hand-built decompositions of defective
    state matrices.
    """
    A, B = plant.A, plant.B
    n, m = plant.n, plant.m
    checks = []
    dims = d.dims
    offsets = d.offsets

    dims_ok = int(np.sum(dims)) == n and d.k <= m and len(d.blocks) == d.k
    checks.append(("dimensions", dims_ok, 0.0))
    if not dims_ok:
        return DecompositionReport(checks=tuple(checks))

    condP = np.linalg.cond(d.P)
    condQ = np.linalg.cond(d.Q)
    checks.append(("transformations_nonsingular", condP < 1e12 and condQ < 1e12,
                   float(max(condP, condQ))))

    normA = max(1.0, float(np.linalg.norm(A)))
    Abar = np.linalg.solve(d.P, A @ d.P)
    res_block = float(np.linalg.norm(Abar - d.block_diagonal()))
    checks.append(("state_block_diagonal", res_block <= 1e-6 * normA, res_block))

    Bs = d.staircase(B)
    scaleB = max(1.0, float(np.abs(Bs).max()))
    res_stair = 0.0
    res_diag = 0.0
    for j in range(d.k):
        below = Bs[offsets[j + 1] :, j]
        if below.size:
            res_stair = max(res_stair, float(np.abs(below).max()))
        res_diag = max(
            res_diag,
            float(np.abs(Bs[offsets[j] : offsets[j + 1], j] - d.blocks[j][1]).max()),
        )
    checks.append(("input_staircase", res_stair <= 1e-7 * scaleB, res_stair))
    checks.append(("diagonal_columns_match", res_diag <= 1e-9 * scaleB, res_diag))

    # one spectrum per block feeds the PBH, nesting and entropy checks
    spectra = [np.linalg.eigvals(Ai) for Ai, _ in d.blocks]
    stab = not any(_rank_failures(Ai, bi.reshape(-1, 1), ev)
                   for (Ai, bi), ev in zip(d.blocks, spectra))
    checks.append(("blocks_stabilizable", stab, 0.0))

    tau = eig_cluster_tolerance(A)
    nested = True
    worst = 0.0
    for ev_this, ev_next in zip(spectra, spectra[1:]):
        for lam in ev_next:
            gap = float(np.min(np.abs(ev_this - lam)))
            worst = max(worst, gap)
            if gap > tau * 10:
                nested = False
    checks.append(("spectra_nested", nested, worst))

    h_ok = bool(np.all(np.diff(d.h) <= 1e-9))
    checks.append(("entropies_nonincreasing", h_ok, 0.0))

    h_res = float(
        np.max(np.abs(d.h - np.array([_entropy(ev) for ev in spectra])))
    ) if d.k else 0.0
    checks.append(("entropies_match_blocks", h_res <= 1e-8, h_res))

    return DecompositionReport(checks=tuple(checks))


__all__ = [
    "CyclicDecomposition",
    "DecompositionReport",
    "cyclic_index",
    "cyclic_decompose",
    "verify_decomposition",
]
