"""The benchmark's output checks accept the program's outputs and reject
wrong ones; the tracer leaves the program as it found it.

Run from the root of a checkout: ``PYTHONPATH=src python -m pytest benchmark``.
"""

import copy
import json
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import inputs
from tracing import Tracer

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import netstab.cli  # noqa: E402


def _run(inst, tmp_path):
    (path,) = inputs.write_problems([inst], tmp_path)
    out = tmp_path / f"{inst.name}.json"
    rc = netstab.cli.main([inst.command, str(path), "--format", "machine", "--out", str(out)])
    return rc, out.read_text(encoding="utf-8")


def _first(kind, feasible):
    return next(i for i in inputs.sweep_instances(0)[: inputs.SWEEP_BLOCK]
                if i.kind == kind and i.feasible == feasible)


def _with_payload(doc, edit):
    data = json.loads(doc)
    edit(data["payload"])
    return json.dumps(data)


@pytest.fixture(scope="module")
def awgn(tmp_path_factory):
    inst = _first(inputs.AWGN, True)
    return inst, *_run(inst, tmp_path_factory.mktemp("awgn"))


@pytest.fixture(scope="module")
def fading(tmp_path_factory):
    inst = _first(inputs.FADING, True)
    return inst, *_run(inst, tmp_path_factory.mktemp("fading"))


@pytest.fixture(scope="module")
def demo_trajectory(tmp_path_factory):
    """Fading demo plant simulated to t = 2, with its design."""
    directory = tmp_path_factory.mktemp("demo")
    inst = inputs.Instance(
        name="demo", command="codesign", A=np.diag([4.0, 2.0, 1.0, 1.0]),
        B=np.array([[1.0, 1.0], [1.0, 1.0], [1.0, 1.0], [0.0, 1.0]]),
        kind=inputs.FADING,
        params={"mean": np.array([2.0, 0.6, 0.9]), "variance": np.array([0.35, 0.2, 0.25])},
        feasible=True, options={"t_end": 2.0})
    rc, doc = _run(inst, directory)
    assert checks.check_codesign(inst, rc, doc) == []
    design = checks.design_matrices(json.loads(doc)["payload"])
    inst.command = "simulate"
    rc, traj = _run(inst, directory)
    return inst, rc, traj, design


def test_codesign_outputs_pass(awgn, fading):
    for inst, rc, doc in (awgn, fading):
        assert checks.check_codesign(inst, rc, doc) == []


def test_infeasible_verdict_passes_and_flipped_one_is_rejected(awgn, tmp_path):
    inst = _first(inputs.FADING, False)
    rc, doc = _run(inst, tmp_path)
    assert rc == 1 and checks.check_codesign(inst, rc, doc) == []
    flipped = _with_payload(doc, lambda p: p.update(feasible=True))
    assert any("verdict" in p for p in checks.check_codesign(inst, rc, flipped))

    inst, rc, doc = awgn
    flipped = _with_payload(doc, lambda p: p.update(feasible=False))
    assert any("verdict" in p for p in checks.check_codesign(inst, 1, flipped))
    assert any("exit code" in p for p in checks.check_codesign(inst, 1, doc))


def test_power_above_its_limit_is_rejected(awgn):
    inst, rc, doc = awgn
    F, T, R = checks.design_matrices(json.loads(doc)["payload"])
    powers = np.einsum("in,nm,im->i", T @ F, checks.lyapunov(
        inst.A + inst.B @ F,
        inst.B @ R @ np.diag(inst.params["noise_density"]) @ (inst.B @ R).T), T @ F)
    tight = copy.deepcopy(inst)
    tight.params["power"][0] = 0.999 * powers[0]
    assert any("power" in p for p in checks.check_design(tight, F, T, R))


def test_codec_identity_violation_is_rejected(fading):
    inst, rc, doc = fading
    F, T, R = checks.design_matrices(json.loads(doc)["payload"])
    assert any("identity" in p for p in checks.check_design(inst, F, 1.01 * T, R))


def test_mean_square_radius_of_one_is_rejected(fading):
    inst, rc, doc = fading
    F, T, R = checks.design_matrices(json.loads(doc)["payload"])
    noisy = copy.deepcopy(inst)
    noisy.params["variance"] = 1e6 * inst.params["variance"]
    assert any("spectral radius" in p for p in checks.check_design(noisy, F, T, R))


def test_unstable_loop_is_rejected(awgn):
    inst, rc, doc = awgn
    F, T, R = checks.design_matrices(json.loads(doc)["payload"])
    assert any("Hurwitz" in p for p in checks.check_design(inst, 0.0 * F, T, R))


def test_trajectory_passes_and_perturbed_sample_is_rejected(demo_trajectory):
    inst, rc, doc, design = demo_trajectory
    assert checks.check_trajectory(inst, rc, doc, design, 1e3) == []

    def nudge(payload):
        # a positive diagonal nudge of 1e-4 of the largest entry keeps the
        # sample symmetric and PSD
        sample = payload["states"][len(payload["states"]) // 2]
        sample[1][1] += 1e-4 * max(max(abs(x) for x in row) for row in sample)

    perturbed = _with_payload(doc, nudge)
    assert any("exact propagation" in p
               for p in checks.check_trajectory(inst, rc, perturbed, design, 1e3))
    # the nudged sample is still finite, symmetric and PSD
    times, states = checks.trajectory_arrays(json.loads(perturbed)["payload"])
    assert checks.check_samples(times, states, inst.options["t_end"]) == []
    assert any("fell only" in p for p in checks.check_trajectory(inst, rc, doc, design, 1.0))


def test_malformed_samples_are_rejected(demo_trajectory):
    inst, rc, doc, _ = demo_trajectory
    times, states = checks.trajectory_arrays(json.loads(doc)["payload"])
    assert checks.check_samples(times, states, inst.options["t_end"]) == []
    bad = states.copy()
    bad[3] = -bad[3]
    assert any("PSD" in p for p in checks.check_samples(times, bad, 2.0))
    bad = states.copy()
    bad[3, 0, 1] += 1e-3
    assert any("asymmetric" in p for p in checks.check_samples(times, bad, 2.0))
    bad = states.copy()
    bad[5, 0, 0] = np.inf
    assert any("non-finite" in p for p in checks.check_samples(times, bad, 2.0))
    assert any("ends at" in p for p in checks.check_samples(times[:-1], states[:-1], 2.0))


def test_malformed_documents_are_problems_not_crashes(awgn, demo_trajectory):
    inst, rc, doc = awgn
    no_design = _with_payload(doc, lambda p: p.pop("design"))
    assert any("malformed" in p for p in checks.check_codesign(inst, rc, no_design))
    no_payload = json.dumps({k: v for k, v in json.loads(doc).items() if k != "payload"})
    assert checks.check_codesign(inst, rc, no_payload) != []
    assert checks.check_codesign(inst, rc, "[]") != []

    inst, rc, doc, design = demo_trajectory
    empty = _with_payload(doc, lambda p: p.update(times=[], states=[]))
    assert any("ends at None" in p
               for p in checks.check_trajectory(inst, rc, empty, design, 1e3))
    flat = _with_payload(doc, lambda p: p.update(states=[1.0] * len(p["times"])))
    assert any("shape" in p for p in checks.check_trajectory(inst, rc, flat, design, 1e3))


def test_insufficient_decay_is_rejected(demo_trajectory):
    inst, rc, doc, _ = demo_trajectory
    states = checks.trajectory_arrays(json.loads(doc)["payload"])[1]
    assert checks.check_decay(states, 1e3) == []
    assert checks.check_decay(states, 1.0) != []


def test_tracer_keeps_documents_and_restores_functions(awgn, tmp_path):
    inst, _, doc = awgn
    modules = [m for k, m in sys.modules.items() if k.startswith("netstab")]
    before = [dict(vars(m)) for m in modules]
    with Tracer() as tracer:
        rc, traced = _run(inst, tmp_path)
    assert traced == doc
    assert [dict(vars(m)) for m in modules] == before
    totals, eps_steps = tracer.totals()
    assert totals["cli"][0] == 1 and totals["codesign"][0] == 1
    assert eps_steps == len(json.loads(doc)["payload"]["epsilon_trail"])
    assert tracer.doc_bytes == len(doc.encode("utf-8"))
    # a span's self time never exceeds its inclusive time
    assert all(0.0 <= own <= incl for _, incl, own in totals.values())
