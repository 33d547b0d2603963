"""Majorization orders, intermediate demand vectors, and the symmetric
inverse-eigenvalue (prescribed spectrum + prescribed diagonal) construction.

The feasibility condition at the core of the toolkit compares a capacity
vector against an entropy vector in the strict weak order "from above":
ascending prefix sums of the left vector must strictly exceed those of the
right vector. When it holds, an intermediate demand vector strictly below
the capacities and majorized by the entropies exists, and an isometry
realizing those demands as the diagonal of a symmetric matrix with the
entropy spectrum can be built by a finite chain of Givens rotations.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import ConstructionFailed, InvalidInput, NotMajorized, Unsupported

MAJORIZE = "majorize"
WEAK_ABOVE = "weak_above"
STRICT_WEAK_ABOVE = "strict_weak_above"

_RELATIONS = (MAJORIZE, WEAK_ABOVE, STRICT_WEAK_ABOVE)

# Majorization compares non-increasing prefix sums x <= y; the "above"
# relations compare non-decreasing prefix sums x >= y.
_ASCENDING = {WEAK_ABOVE, STRICT_WEAK_ABOVE}
_STRICT = {STRICT_WEAK_ABOVE}


def strictness_margin(x) -> float:
    """Slack required of a certified strict inequality: 1e-9 * max(1, ||x||_inf)."""
    x = np.asarray(x, dtype=float)
    return 1e-9 * max(1.0, float(np.max(np.abs(x))) if x.size else 1.0)


def _equality_tolerance(x, y):
    scale = max(1.0, float(np.max(np.abs(x))), float(np.max(np.abs(y))))
    return 1e-10 * scale


def pad_to_match(x, y):
    """Zero-pad the shorter vector so the pair has equal length."""
    x = np.asarray(x, dtype=float).reshape(-1)
    y = np.asarray(y, dtype=float).reshape(-1)
    size = max(x.size, y.size)
    return (
        np.concatenate([x, np.zeros(size - x.size)]),
        np.concatenate([y, np.zeros(size - y.size)]),
    )


@dataclass(frozen=True)
class OrderVerdict:
    """Outcome of a majorization-order comparison.

    ``slack[i]`` is the margin of the i-th prefix inequality, oriented so
    that positive means satisfied. For the plain majorization relation the
    final entry is the negated absolute total mismatch, so it is ~0 when the
    totals agree. ``x_prefix``/``y_prefix`` hold the sorted prefix sums that
    were compared (ascending order for the "above" relations, descending for
    majorization).
    """

    relation: str
    holds: bool
    slack: np.ndarray
    x_prefix: np.ndarray
    y_prefix: np.ndarray
    ascending: bool


def check_order(x, y, relation: str) -> OrderVerdict:
    """Compare ``x`` against ``y`` under a (weak/strict) majorization order.

    Both arguments are sorted internally, so the verdict is permutation
    invariant. Strict relations are certified with slack greater than
    ``strictness_margin(x)``; non-strict inequalities and the equality row
    tolerate rounding at 1e-10 relative scale.
    """
    if relation not in _RELATIONS:
        raise InvalidInput(f"unknown relation {relation!r}")
    x = np.asarray(x, dtype=float).reshape(-1)
    y = np.asarray(y, dtype=float).reshape(-1)
    if x.size != y.size:
        raise InvalidInput(
            f"length mismatch ({x.size} vs {y.size}); zero-pad with pad_to_match first"
        )
    if x.size == 0:
        raise InvalidInput("empty vectors")
    ascending = relation in _ASCENDING
    if ascending:
        xs, ys = np.sort(x), np.sort(y)
        slack = np.cumsum(xs) - np.cumsum(ys)
    else:
        xs, ys = -np.sort(-x), -np.sort(-y)
        slack = np.cumsum(ys) - np.cumsum(xs)
    x_prefix, y_prefix = np.cumsum(xs), np.cumsum(ys)
    tol_eq = _equality_tolerance(x, y)
    if relation == MAJORIZE:
        slack = slack.copy()
        slack[-1] = -abs(x_prefix[-1] - y_prefix[-1])
        holds = bool(np.all(slack[:-1] >= -tol_eq) and slack[-1] >= -tol_eq)
    elif relation in _STRICT:
        holds = bool(np.all(slack > strictness_margin(x)))
    else:
        holds = bool(np.all(slack >= -tol_eq))
    return OrderVerdict(
        relation=relation,
        holds=holds,
        slack=slack,
        x_prefix=x_prefix,
        y_prefix=y_prefix,
        ascending=ascending,
    )


def construct_intermediate(c, h) -> np.ndarray:
    """Demand vector ``gamma`` with ``gamma < c`` elementwise and ``gamma``
    majorized by ``h`` with exactly equal totals.

    Requires ``check_order(c, h, STRICT_WEAK_ABOVE)`` to hold. The primary
    construction walks the segment from ``h`` (sorted to align descending
    with ``c``) toward the constant mean vector; every point of that segment
    stays majorized by ``h``, and the elementwise caps cut a parameter
    interval whose midpoint is taken for healthy margins. When the interval
    is empty a prefix-capped descending fill is used instead; its caps are
    reduced by a share of the tightest feasibility slack so that the fill
    provably lands on the exact total.
    """
    c = np.asarray(c, dtype=float).reshape(-1)
    h = np.asarray(h, dtype=float).reshape(-1)
    if c.size != h.size:
        raise InvalidInput("c and h must have equal length; pad first")
    pre = check_order(c, h, STRICT_WEAK_ABOVE)
    if not pre.holds:
        raise NotMajorized(
            "capacities are not strictly weakly above the demand vector; "
            f"prefix slacks {np.array2string(pre.slack, precision=6)}"
        )
    delta = strictness_margin(c)
    lv = c.size
    order = np.argsort(-c, kind="stable")
    h_desc = -np.sort(-h)
    h_hat = np.empty(lv)
    h_hat[order] = h_desc
    mean = float(np.sum(h)) / lv

    gamma = None
    lo, hi = 0.0, 1.0
    segment_ok = True
    for i in range(lv):
        a = h_hat[i]
        cap = c[i] - delta
        if mean == a:
            if a >= cap:
                segment_ok = False
                break
            continue
        t_cross = (cap - a) / (mean - a)
        if mean > a:
            hi = min(hi, t_cross)
        else:
            lo = max(lo, t_cross)
    if segment_ok and lo < hi:
        t = 0.5 * (lo + hi)
        gamma = (1.0 - t) * h_hat + t * mean
    else:
        # prefix-capped fill in descending-c coordinates
        slack_min = float(np.min(pre.slack))
        delta_fill = slack_min / (2.0 * lv)
        c_desc = c[order]
        h_cum = np.cumsum(h_desc)
        w = np.empty(lv)
        running = 0.0
        for i in range(lv):
            w[i] = min(c_desc[i] - delta_fill, h_cum[i] - running)
            running += w[i]
        gamma = np.empty(lv)
        gamma[order] = w

    post = check_order(gamma, h, MAJORIZE)
    if not post.holds or np.any(c - gamma < delta):
        raise ConstructionFailed(
            "intermediate vector failed its postconditions; this indicates a "
            "pathologically tight instance or a bug"
        )
    return gamma


def schur_horn_isometry(lam, gamma) -> np.ndarray:
    """Matrix ``U`` (l x m) with orthonormal columns such that
    ``diag(U diag(lam) U') = gamma``.

    ``lam`` is the length-m spectrum (conceptually padded with ``l - m``
    zeros); ``gamma`` is the length-l target diagonal, which must be
    majorized by the padded spectrum. The construction fixes one diagonal
    entry exactly per Givens rotation: at each step one working eigenvalue
    bracketing pair (one at-or-above target, one at-or-below) is rotated so
    that one coordinate hits its target and retires, while the displaced
    mass stays in play. ``U`` collects the eigenvector columns belonging to
    the m leading (non-padded) spectrum positions.

    The returned columns are sign-normalized so their first nonzero entry is
    nonnegative. ``U`` is far from unique; only the two postconditions are
    contractual and both are asserted before returning.
    """
    lam = np.asarray(lam, dtype=float).reshape(-1)
    gamma = np.asarray(gamma, dtype=float).reshape(-1)
    m, lsz = lam.size, gamma.size
    if m > lsz:
        raise InvalidInput("spectrum longer than target diagonal")
    lam_pad = np.concatenate([lam, np.zeros(lsz - m)])
    pre = check_order(gamma, lam_pad, MAJORIZE)
    if not pre.holds:
        raise NotMajorized("target diagonal is not majorized by the spectrum")

    order = np.argsort(-gamma, kind="stable")
    targets = gamma[order]
    w = lam_pad.copy()
    V = np.eye(lsz)
    active = list(range(lsz))
    fixed_positions = []
    scale = max(1.0, float(np.max(np.abs(lam_pad))))
    for t in range(lsz):
        d = targets[t]
        pairs = [(w[i], i) for i in active]
        above = [(v, i) for v, i in pairs if v >= d]
        below = [(v, i) for v, i in pairs if v <= d]
        if above and below:
            vi, i = min(above)
            vj, j = max(below)
        else:
            # minor rounding put d outside the active hull; clamp to hull
            vi, i = max(pairs)
            vj, j = min(pairs)
        if i == j or abs(vi - vj) <= 1e-15 * scale:
            w[i] = d
            active.remove(i)
            fixed_positions.append(i)
            continue
        c2 = min(max((d - vj) / (vi - vj), 0.0), 1.0)
        cth = np.sqrt(c2)
        sth = np.sqrt(1.0 - c2)
        rot = np.array([[cth, sth], [-sth, cth]])
        V[[i, j], :] = rot @ V[[i, j], :]
        w[i] = d
        w[j] = vi + vj - d
        active.remove(i)
        fixed_positions.append(i)

    perm = np.zeros((lsz, lsz))
    for t in range(lsz):
        perm[order[t], fixed_positions[t]] = 1.0
    U = (perm @ V)[:, :m]
    for j in range(m):
        nz = np.flatnonzero(np.abs(U[:, j]) > 1e-12)
        if nz.size and U[nz[0], j] < 0:
            U[:, j] = -U[:, j]

    ortho_err = float(np.max(np.abs(U.T @ U - np.eye(m))))
    diag_err = float(np.max(np.abs((U * (lam * U)).sum(axis=1) - gamma)))
    if ortho_err > 1e-10 or diag_err > 1e-8:
        raise ConstructionFailed(
            f"isometry postconditions violated (orthonormality {ortho_err:.2e}, "
            f"diagonal {diag_err:.2e})"
        )
    return U


def brute_force_feasible_gamma(c, h, grid: int):
    """Exhaustive grid search for a demand vector below ``c`` and majorized
    by ``h``. Independent oracle for :func:`construct_intermediate`.

    Enumerates nonnegative rational points with denominator ``grid`` on the
    hyperplane of vectors summing to ``sum(h)`` (any vector majorized by a
    nonnegative ``h`` is itself nonnegative). Returns the first hit in
    lexicographic order, or None.
    """
    c = np.asarray(c, dtype=float).reshape(-1)
    h = np.asarray(h, dtype=float).reshape(-1)
    lv = c.size
    if lv != h.size:
        raise InvalidInput("c and h must have equal length")
    if lv > 4:
        raise Unsupported("brute-force search limited to 4 subchannels")
    if grid > 200 or grid < 1:
        raise Unsupported("grid must be between 1 and 200")
    total = float(np.sum(h))
    if total == 0.0:
        g = np.zeros(lv)
        return g if np.all(g < c) else None
    tol = _equality_tolerance(c, h)

    def hits(g):
        if not np.all(g < c):
            return False
        gd = -np.sort(-g)
        hd = -np.sort(-h)
        pg, ph = np.cumsum(gd), np.cumsum(hd)
        return bool(np.all(pg[:-1] <= ph[:-1] + tol))

    if lv == 1:
        g = np.array([total])
        return g if hits(g) else None
    # compositions of `grid` into lv parts via stars and bars
    for bars in combinations(range(grid + lv - 1), lv - 1):
        prev = -1
        counts = []
        for b in bars:
            counts.append(b - prev - 1)
            prev = b
        counts.append(grid + lv - 2 - prev)
        g = np.asarray(counts, dtype=float) * (total / grid)
        if hits(g):
            return g
    return None


__all__ = [
    "MAJORIZE",
    "WEAK_ABOVE",
    "STRICT_WEAK_ABOVE",
    "OrderVerdict",
    "check_order",
    "pad_to_match",
    "strictness_margin",
    "construct_intermediate",
    "schur_horn_isometry",
    "brute_force_feasible_gamma",
]
