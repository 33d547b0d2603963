"""Output checks computed apart from the program.

These read the program's machine documents as plain JSON and recompute
what they claim with numpy/scipy only; nothing here imports ``netstab``.
Each check returns a list of problems, empty when the output is right.
"""

from __future__ import annotations

import functools
import json

import numpy as np
from scipy import linalg

from inputs import AWGN

CODESIGN_SCHEMA = "netstab/codesign-result/v1"
TRAJECTORY_SCHEMA = "netstab/trajectory/v1"

#: Codec identity RT = I (fading: RMT = I) relative to ||R|| ||T||.
IDENTITY_TOL = 1e-8
#: Largest deviation of a simulated covariance sample from the exact
#: propagation, relative to the sample's norm plus 1e-12 of the first one.
PROPAGATION_TOL = 1e-6
#: PSD test: smallest eigenvalue above -PSD_TOL * ||X||_2.
PSD_TOL = 1e-8
#: Relative symmetry defect allowed in a covariance sample.
SYMMETRY_TOL = 1e-12


def malformed_is_a_problem(check):
    """Report a document that lacks a field or has one of the wrong shape as
    a problem of the output, rather than letting the check raise."""

    @functools.wraps(check)
    def wrapper(*args, **kwargs):
        try:
            return check(*args, **kwargs)
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            return [f"malformed document: {type(exc).__name__}: {exc}"]

    return wrapper


def parse(doc_text, schema):
    """Payload of a machine document, or a problem string."""
    try:
        doc = json.loads(doc_text)
    except json.JSONDecodeError as exc:
        return None, f"output is not JSON: {exc}"
    if not isinstance(doc, dict) or doc.get("schema") != schema:
        found = doc.get("schema") if isinstance(doc, dict) else type(doc).__name__
        return None, f"schema {found!r}, expected {schema!r}"
    if not isinstance(doc.get("payload"), dict):
        return None, "document has no payload object"
    return doc["payload"], None


def lyapunov(Acl, Q):
    """X with Acl X + X Acl' + Q = 0."""
    return linalg.solve_continuous_lyapunov(Acl, -Q)


def design_matrices(payload):
    d = payload["design"]
    return (np.asarray(d["F"], float), np.asarray(d["T"], float),
            np.asarray(d["R"], float))


def check_design(inst, F, T, R):
    """Closed loop Hurwitz, codec identity, and the channel limits.

    AWGN: the stationary power of every subchannel input, from one Lyapunov
    solve, sits below its admissible P_i. Fading: the spectral radius of the
    matrix of entrywise squared H2 norms of the loop scaled by sigma/|mu| is
    below one.
    """
    problems = []
    Acl = inst.A + inst.B @ F
    abscissa = float(np.max(np.linalg.eigvals(Acl).real))
    if not abscissa < 0.0:
        problems.append(f"A+BF is not Hurwitz (abscissa {abscissa:.3e})")
        return problems
    m = F.shape[0]
    scale = max(1.0, float(np.linalg.norm(R) * np.linalg.norm(T)))
    if inst.kind == AWGN:
        middle = R @ T
    else:
        middle = R @ np.diag(inst.params["mean"]) @ T
    err = float(np.max(np.abs(middle - np.eye(m))))
    if err > IDENTITY_TOL * scale:
        problems.append(f"codec identity residual {err:.3e}")
    C = T @ F
    if inst.kind == AWGN:
        G = inst.B @ R
        L = lyapunov(Acl, G @ np.diag(inst.params["noise_density"]) @ G.T)
        powers = np.einsum("in,nm,im->i", C, L, C)
        limit = inst.params["power"]
        if not np.all(powers < limit):
            worst = int(np.argmax(powers - limit))
            problems.append(
                f"subchannel {worst} power {powers[worst]:.6g} >= limit {limit[worst]:.6g}"
            )
    else:
        mean, var = inst.params["mean"], inst.params["variance"]
        G = inst.B @ R @ np.diag(mean * np.sqrt(var) / np.abs(mean))
        K = np.empty((C.shape[0], G.shape[1]))
        for j in range(G.shape[1]):
            L = lyapunov(Acl, np.outer(G[:, j], G[:, j]))
            K[:, j] = np.einsum("in,nm,im->i", C, L, C)
        rho = float(np.max(np.abs(np.linalg.eigvals(K))))
        if not rho < 1.0:
            problems.append(f"spectral radius of K is {rho:.6g} >= 1")
    return problems


@malformed_is_a_problem
def check_codesign(inst, rc, doc_text):
    """Verdict equals the strict weak majorization of the capacities over
    the block entropies; feasible designs pass :func:`check_design`."""
    payload, problem = parse(doc_text, CODESIGN_SCHEMA)
    if problem:
        return [problem]
    problems = []
    expected_rc = 0 if inst.feasible else 1
    if rc != expected_rc:
        problems.append(f"exit code {rc}, expected {expected_rc}")
    if payload["feasible"] != inst.feasible:
        problems.append(f"verdict {payload['feasible']}, expected {inst.feasible}")
    elif inst.feasible:
        problems += check_design(inst, *design_matrices(payload))
    return problems


def covariance_operator(inst, F, T, R):
    """The n^2 x n^2 generator of vec(X) for the fading covariance ODE:
    X' = Acl X + X Acl' + sum_i s2_i (c_i' X c_i) g_i g_i' with G = BR and
    C = TF (column-major vec)."""
    n = inst.n
    Acl = inst.A + inst.B @ F
    G, C = inst.B @ R, T @ F
    eye = np.eye(n)
    op = np.kron(eye, Acl) + np.kron(Acl, eye)
    for i, s2 in enumerate(inst.params["variance"]):
        op += s2 * np.outer(np.outer(G[:, i], G[:, i]).ravel(order="F"),
                            np.kron(C[i], C[i]))
    return op


def propagate(op, X0, times):
    """vec(X(t)) = expm(op t) vec(X0) at the given increasing times,
    stepping sample to sample with one exponential per distinct gap."""
    n = X0.shape[0]
    v = X0.ravel(order="F")
    out = [X0]
    cache = {}
    for gap in np.diff(times):
        key = float(f"{gap:.12e}")
        if key not in cache:
            cache[key] = linalg.expm(op * gap)
        v = cache[key] @ v
        out.append(v.reshape((n, n), order="F"))
    return np.asarray(out)


def trajectory_arrays(payload):
    return np.asarray(payload["times"], float), np.asarray(payload["states"], float)


def check_samples(times, states, t_end):
    """Every sample finite, symmetric and PSD; the last one at t_end."""
    problems = []
    if times.size < 2 or abs(times[-1] - t_end) > 1e-9 * t_end:
        last = times[-1] if times.size else None
        problems.append(f"trajectory ends at {last!r}, expected {t_end!r}")
    if states.ndim != 3 or states.shape[0] != times.size:
        return problems + [f"{times.size} times but samples of shape {states.shape}"]
    if not np.all(np.isfinite(states)):
        return problems + ["non-finite covariance sample"]
    norms = np.linalg.norm(states, ord=2, axis=(1, 2))
    asym = np.max(np.abs(states - np.swapaxes(states, 1, 2)), axis=(1, 2))
    if np.any(asym > SYMMETRY_TOL * np.maximum(norms, 1e-300)):
        problems.append(f"asymmetric sample {int(np.argmax(asym / norms))}")
    low = np.linalg.eigvalsh(states)[:, 0]
    if np.any(low < -PSD_TOL * norms):
        problems.append(f"sample {int(np.argmin(low / norms))} is not PSD")
    return problems


@malformed_is_a_problem
def check_trajectory(inst, rc, doc_text, design, last_below):
    """Exit 0 without divergence, well-formed samples, agreement with
    :func:`propagate` for the design (F, T, R), and :func:`check_decay`."""
    payload, problem = parse(doc_text, TRAJECTORY_SCHEMA)
    if problem:
        return [problem]
    problems = []
    if rc != 0:
        problems.append(f"exit code {rc}, expected 0")
    if payload["diverged_at"] is not None:
        problems.append(f"diverged at t = {payload['diverged_at']}")
    times, states = trajectory_arrays(payload)
    problems += check_samples(times, states, inst.options["t_end"])
    if not problems:
        problems += check_against_reference(inst, design, times, states)
    if not problems:
        problems += check_decay(states, last_below)
    return problems


def check_against_reference(inst, design, times, states):
    """Every sample against the exact propagation from X(0) = x0 x0'."""
    x0 = np.ones(inst.n) if inst.x0 is None else inst.x0
    ref = propagate(covariance_operator(inst, *design), np.outer(x0, x0), times)
    ref_norm = np.linalg.norm(ref, axis=(1, 2))
    dev = np.linalg.norm(states - ref, axis=(1, 2))
    bound = PROPAGATION_TOL * ref_norm + 1e-12 * ref_norm[0]
    if np.any(dev > bound):
        i = int(np.argmax(dev / bound))
        return [f"sample {i} at t = {times[i]:.6g} deviates by {dev[i]:.3e} "
                f"from the exact propagation (norm {ref_norm[i]:.3e})"]
    return []


def check_decay(states, factor):
    """The last sample's norm is below ``factor`` times the first one's."""
    first, last = (np.linalg.norm(states[i]) for i in (0, -1))
    if not last < factor * first:
        return [f"covariance fell only from {first:.3e} to {last:.3e}"]
    return []
