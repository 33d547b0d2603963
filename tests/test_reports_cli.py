import dataclasses
import json
import os

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose

from conftest import ladder_block
from netstab import ChannelEnsemble, Plant, analysis, cli
from netstab.analysis import analyze, ms_operator_abscissa, simulate_fading_covariance
from netstab.cli import main
from netstab.codesign import codesign
from netstab.cyclic import cyclic_decompose
from netstab.errors import ParseError
from netstab.majorize import STRICT_WEAK_ABOVE, check_order, pad_to_match
from netstab.plantmodel import capacities, validate_plant
from netstab.numerics import MatrixTrajectory
from netstab.reports import emit, emit_machine, emit_table, parse_machine

PROBLEMS = os.path.join(os.path.dirname(__file__), os.pardir, "problems")
AWGN_FILE = os.path.join(PROBLEMS, "demo_awgn.yaml")
FADING_FILE = os.path.join(PROBLEMS, "demo_fading.yaml")
# A = diag(1, 2), B = [1, 0]': the mode at 2 is unreachable
UNSTABILIZABLE = (
    "plant:\n  A: [[1, 0], [0, 2]]\n  B: [[1], [0]]\n"
    "channels:\n  kind: awgn\n  power: [20]\n  noise_density: [1]\n"
)


@pytest.fixture
def all_reports(bench_plant, bench_awgn, bench_fading):
    """Every report type, and every optional or irregular wire form of each."""
    res = codesign(bench_plant, bench_awgn)
    fading = codesign(bench_plant, bench_fading).design
    weak = ChannelEnsemble(kind="awgn", power=[1, 1, 1], noise_density=[1, 1, 1])
    d = cyclic_decompose(bench_plant)
    c_pad, h_pad = pad_to_match(capacities(bench_awgn), d.h)
    traj = simulate_fading_covariance(bench_plant, fading, bench_fading, t_end=0.1)
    open_loop = dataclasses.replace(fading, F=np.zeros_like(fading.F))
    diverged = simulate_fading_covariance(
        bench_plant, open_loop, bench_fading, t_end=60.0, dt=0.5
    )
    unstabilizable = validate_plant(Plant(A=np.diag([1.0, 2.0]), B=[[1.0], [0.0]]))
    infeasible = codesign(bench_plant, weak)
    fading_report = analyze(bench_plant, fading, bench_fading)
    assert unstabilizable.pbh_failures and fading.mean is not None
    assert infeasible.design is None and infeasible.report is None
    assert fading_report.ms_norm is not None and fading_report.channel_powers is None
    assert diverged.diverged
    return [
        validate_plant(bench_plant),
        unstabilizable,
        d,
        check_order(c_pad, h_pad, STRICT_WEAK_ABOVE),
        res.design,
        fading,
        res,
        infeasible,
        analyze(bench_plant, res.design, bench_awgn),
        fading_report,
        traj,
        diverged,
    ]


def assert_same_kinds(obj, rebuilt):
    """Field by field: equal values, and the kind of each value is kept."""
    for f in dataclasses.fields(obj):
        a, b = getattr(obj, f.name), getattr(rebuilt, f.name)
        if dataclasses.is_dataclass(a):
            assert_same_kinds(a, b)
        elif f.name in ("eigenvalues", "closed_loop_spectrum"):
            assert b.dtype == complex and np.array_equal(a, b)
        elif f.name == "blocks":
            for (Ai, bi), (Aj, bj) in zip(a, b, strict=True):
                assert Aj.dtype == float and np.array_equal(Ai, Aj)
                assert bj.dtype == float and np.array_equal(bi, bj)
        elif isinstance(a, np.ndarray):
            assert b.dtype == float and np.array_equal(a, b)
        else:
            assert type(b) is type(a) and b == a
            if f.name == "pbh_failures":
                assert all(type(z) is complex for z in b)


class TestMachineRoundTrip:
    def test_every_report_type_round_trips(self, all_reports):
        for obj in all_reports:
            doc = emit_machine(obj)
            rebuilt = parse_machine(doc)
            assert emit_machine(rebuilt) == doc
            assert type(rebuilt) is type(obj)
            assert_same_kinds(obj, rebuilt)

    @pytest.mark.parametrize("text", [
        "[]",
        '{"schema": "netstab/design/v1", "payload": {}}',
        '{"schema": "netstab/design/v1"}',
        '{"schema": "netstab/design/v2", "payload": {}}',
        '{"schema": 3, "payload": {}}',
        "{not json",
    ])
    def test_malformed_documents_raise_parse_error(self, text):
        with pytest.raises(ParseError):
            parse_machine(text)

    def test_emission_is_deterministic(self, all_reports):
        for obj in all_reports:
            assert emit_machine(obj) == emit_machine(obj)

    def test_human_renders_everything(self, all_reports):
        for obj in all_reports:
            text = emit(obj, "human")
            assert text.endswith("\n") and len(text) > 10


def reference_machine(traj):
    """The trajectory document as one ``json.dumps`` of the full stack writes it."""
    payload = {
        "diverged_at": traj.diverged_at,
        "states": np.asarray(traj.states, dtype=float).tolist(),
        "times": np.asarray(traj.times, dtype=float).tolist(),
    }
    doc = {"payload": payload, "schema": "netstab/trajectory/v1"}
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def reference_table(traj):
    """The trajectory table formatted cell by cell."""
    n = traj.states.shape[1]
    header = ["t", *(f"x{i + 1}{j + 1}" for i in range(n) for j in range(n)),
              "frobenius_norm"]
    rows = [",".join(header)]
    for t, X, fn in zip(traj.times, traj.states, traj.frobenius_norms()):
        rows.append(",".join([f"{t:.17g}", *(f"{v:.17g}" for v in X.ravel()),
                              f"{fn:.17g}"]))
    return "\n".join(rows) + "\n"


#: entries whose texts are irregular: signed zero, subnormals, a float that
#: repr writes in exponent form, NaN and the infinities
_SPECIAL = st.sampled_from([0.0, -0.0, 5e-324, -1e-310, 1e16, 1e-5, 1.0 / 3.0,
                            float("nan"), float("inf"), float("-inf")])


@st.composite
def trajectories(draw):
    """Stacks of n x n matrices, N samples: exactly symmetric, or one lower
    entry one ulp off, or a zero mirrored as -0.0."""
    n = draw(st.integers(1, 6))
    count = draw(st.integers(0, 50))
    # within the producers' overflow limit, 1e150, the Frobenius norms are finite
    entries = st.floats(-1e150, 1e150) | _SPECIAL
    i, j = np.triu_indices(n)
    states = np.zeros((count, n, n))
    states[:, i, j] = draw(arrays(float, (count, i.size), elements=entries))
    states[:, j, i] = states[:, i, j]
    flaw = draw(st.sampled_from(["none", "ulp", "signed-zero"]))
    if flaw != "none" and count and n > 1:
        k = draw(st.integers(0, count - 1))
        r = draw(st.integers(1, n - 1))
        c = draw(st.integers(0, r - 1))
        if flaw == "ulp":
            states[k, r, c] = np.nextafter(states[k, r, c], np.inf)
        else:
            states[k, c, r], states[k, r, c] = 0.0, -0.0
    times = np.cumsum(draw(st.lists(st.floats(1e-6, 1e3), min_size=count,
                                    max_size=count)))
    diverged_at = draw(st.none() | st.floats(0.0, 1e4))
    return MatrixTrajectory(times=times, states=states, diverged_at=diverged_at)


class TestStackEmission:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(trajectories())
    def test_machine_document_is_one_dumps_of_the_full_stack(self, traj):
        assert emit_machine(traj) == reference_machine(traj)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(trajectories())
    def test_table_is_the_per_cell_table(self, traj):
        assert emit_table(traj) == reference_table(traj)

    def test_criterion_03_trajectory_bytes(self, bench_plant, bench_fading):
        # the demo trajectory to the criterion-03 horizon, as `horizon` times it
        design = codesign(bench_plant, bench_fading).design
        alpha = ms_operator_abscissa(bench_plant, design, bench_fading)
        traj = simulate_fading_covariance(
            bench_plant, design, bench_fading, t_end=np.log(1e5) / abs(alpha)
        )
        assert traj.times.size == 7604
        assert np.array_equal(traj.states, traj.states.transpose(0, 2, 1))
        assert emit_machine(traj) == reference_machine(traj)
        assert emit_table(traj) == reference_table(traj)


class TestTrajectoryTable:
    def test_shape_and_precision(self, bench_plant, bench_fading):
        res = codesign(bench_plant, bench_fading)
        traj = simulate_fading_covariance(
            bench_plant, res.design, bench_fading, t_end=0.03, dt=0.01
        )
        table = emit(traj, "table")
        lines = table.strip().split("\n")
        assert lines[0].startswith("t,x11,x12") and lines[0].endswith("frobenius_norm")
        assert len(lines) == 1 + traj.times.size
        # 17 significant digits round-trip exactly
        for line, X in zip(lines[1:], traj.states):
            cells = line.split(",")
            assert len(cells) == 1 + 16 + 1
            assert_allclose(
                np.array(cells[1:-1], dtype=float).reshape(4, 4), X, rtol=0, atol=0
            )


class TestCli:
    def run(self, *argv):
        return main(list(argv))

    def test_validate_exit_codes(self, tmp_path):
        assert self.run("validate", AWGN_FILE) == 0
        bad = tmp_path / "bad.yaml"
        bad.write_text(
            "plant:\n  A: [[1]]\n  B: [[0]]\n"
            "channels:\n  kind: awgn\n  power: [1]\n  noise_density: [1]\n"
        )
        assert self.run("validate", str(bad)) == 1

    def test_check_exit_codes(self, tmp_path):
        assert self.run("check", AWGN_FILE) == 0
        weak = tmp_path / "weak.yaml"
        weak.write_text(
            open(AWGN_FILE).read().replace("[9.1, 3.1, 4.1]", "[1, 1, 1]")
        )
        assert self.run("check", str(weak)) == 1

    def test_codesign_and_analyze(self, tmp_path):
        out = tmp_path / "design.json"
        assert self.run("codesign", AWGN_FILE, "--format", "machine",
                        "--out", str(out)) == 0
        rebuilt = parse_machine(out.read_text())
        assert rebuilt.feasible
        assert self.run("analyze", FADING_FILE) == 0

    def test_simulate_writes_table(self, tmp_path):
        out = tmp_path / "traj.csv"
        assert self.run("simulate", FADING_FILE, "--format", "table",
                        "--t-end", "0.5", "--out", str(out)) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0].split(",")[0] == "t"
        assert len(lines) > 2

    def test_simulate_rejects_awgn(self):
        assert self.run("simulate", AWGN_FILE) == 2

    @pytest.mark.parametrize("command, problem, channel, weaker", [
        ("analyze", AWGN_FILE, "[9.1, 3.1, 4.1]", "[1, 1, 1]"),
        ("simulate", FADING_FILE, "[0.35, 0.2, 0.25]", "[3.5, 2, 2.5]"),
    ])
    def test_infeasible_design_writes_the_codesign_result(
        self, tmp_path, command, problem, channel, weaker
    ):
        # on an infeasible problem neither the analysis nor a trajectory
        # exists: both commands write the co-design result and exit 1
        infeasible = tmp_path / "infeasible.yaml"
        infeasible.write_text(open(problem).read().replace(channel, weaker))
        out = tmp_path / "out.json"
        assert self.run(command, str(infeasible), "--format", "machine",
                        "--out", str(out)) == 1
        doc = json.loads(out.read_text())
        assert doc["schema"] == "netstab/codesign-result/v1"
        assert doc["payload"]["feasible"] is False
        assert doc["payload"]["design"] is None

    def test_parse_error_is_exit_2(self, tmp_path):
        bad = tmp_path / "broken.yaml"
        bad.write_text("plant: [not, a, mapping]\n")
        assert self.run("validate", str(bad)) == 2

    def test_ill_conditioned_gain_is_exit_2(self, tmp_path, capsys):
        A, b = ladder_block(0, 24)
        entropy = float(np.sum(np.maximum(np.linalg.eigvals(A).real, 0.0)))
        problem = tmp_path / "ladder24.yaml"
        problem.write_text(yaml.safe_dump({
            "plant": {"A": A.tolist(), "B": b.tolist()},
            "channels": {"kind": "awgn", "power": [4.0 * entropy],
                         "noise_density": [1.0]},
        }))
        assert self.run("codesign", str(problem)) == 2
        err = capsys.readouterr().err
        assert err.startswith("netstab: IllConditioned: riccati gain, block 0:")
        assert "cond(Y) = " in err

    def test_pinned_epsilon_override(self):
        assert self.run("codesign", AWGN_FILE, "--epsilon", "0.05") == 0
        # a too-coarse pinned scaling is a negative verdict, not an error
        assert self.run("codesign", AWGN_FILE, "--epsilon", "1.0") == 1

    def test_epsilon_pinned_in_file_is_negative(self, tmp_path, capsys):
        # the same failing scaling pinned in the file or by --epsilon is one
        # negative verdict
        pinned = tmp_path / "pinned.yaml"
        pinned.write_text(open(AWGN_FILE).read() + "options:\n  epsilon: 1.0\n")
        assert self.run("codesign", str(pinned)) == 1
        assert "EpsilonExhausted" in capsys.readouterr().err

    def test_simulate_rejects_awgn_before_codesign(self, tmp_path, capsys):
        # an unstabilizable AWGN plant would fail codesign with exit 1
        problem = tmp_path / "unstab.yaml"
        problem.write_text(UNSTABILIZABLE)
        assert self.run("simulate", str(problem)) == 2
        assert capsys.readouterr().err == (
            "netstab: NetstabError: covariance simulation applies to fading "
            "channels only (AWGN loops are verified analytically)\n"
        )

    @pytest.mark.parametrize("argv", [
        ["codesign", AWGN_FILE, "--seed", "-1"],
        ["codesign", "seed_in_file"],
        ["simulate", FADING_FILE, "--t-end", "inf"],
        ["simulate", FADING_FILE, "--t-end", "nan"],
        ["simulate", FADING_FILE, "--dt", "nan"],
        ["simulate", FADING_FILE, "--dt", "1e-300"],
        ["simulate", FADING_FILE, "--dt", "1e-8"],
    ], ids=["seed-flag", "seed-in-file", "t-end-inf", "t-end-nan", "dt-nan",
            "dt-1e-300", "dt-1e-8"])
    def test_bad_run_option_is_a_typed_error(self, argv, tmp_path, capsys):
        # a negative seed, a horizon or step that is not a positive finite
        # number, and a step that puts more than MAX_GRID_STEPS steps on the
        # horizon are errors of the run, not crashes or verdicts
        seeded = tmp_path / "seed.yaml"
        seeded.write_text(open(AWGN_FILE).read() + "options:\n  seed: -3\n")
        assert self.run(*[str(seeded) if a == "seed_in_file" else a for a in argv]) == 2
        assert capsys.readouterr().err.startswith("netstab: InvalidInput:")

    def test_grid_just_under_the_cap_is_simulated(self, monkeypatch, capsys):
        # 5e6 steps on the default horizon of 10, then a grid of exactly
        # MAX_GRID_STEPS steps and one of a step more under a smaller cap
        assert self.run("simulate", FADING_FILE, "--dt", "2e-6") == 0
        monkeypatch.setattr(analysis, "MAX_GRID_STEPS", 40_000)
        assert self.run("simulate", FADING_FILE, "--dt", "2.5e-4") == 0
        capsys.readouterr()
        assert self.run("simulate", FADING_FILE, "--dt", "2.49999e-4") == 2
        assert capsys.readouterr().err.startswith(
            "netstab: InvalidInput: t_end 10.0 and dt 0.000249999 need 40001 time steps")

    @pytest.mark.parametrize("command", ["decompose", "check", "codesign", "analyze"])
    def test_pbh_failure_names_the_eigenvalue(self, command, tmp_path, capsys):
        problem = tmp_path / "unstab.yaml"
        problem.write_text(UNSTABILIZABLE)
        assert self.run(command, str(problem)) == 1
        assert capsys.readouterr().err == (
            "netstab: Unstabilizable: plant fails the PBH test at eigenvalues "
            "((2+0j),)\n"
        )

    def test_options_before_command(self, tmp_path):
        docs = []
        for i, argv in enumerate((
            ["codesign", FADING_FILE, "--format", "machine", "--seed", "0"],
            ["--format", "machine", "--seed", "0", "codesign", FADING_FILE],
            ["--seed", "0", "codesign", "--format", "machine", FADING_FILE],
        )):
            out = tmp_path / f"doc{i}.json"
            assert self.run(*argv, "--out", str(out)) == 0
            docs.append(out.read_bytes())
        assert docs[0] == docs[1] == docs[2]

    def test_help_lists_every_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            self.run("--help")
        assert exc.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        for command, help_text in (
            ("validate", "plant validation report (stabilizability, entropy)"),
            ("decompose", "cyclic decomposition of the plant"),
            ("check", "capacity-vs-entropy feasibility check with prefix table"),
            ("codesign", "full co-design: gain, codec, scaling search"),
            ("analyze", "co-design followed by the closed-loop analysis report"),
            ("simulate", "co-design followed by covariance simulation (fading)"),
        ):
            assert f"{command} {help_text}" in text

    def test_parser_is_reused_without_state(self, monkeypatch):
        seen = []

        def run(args):
            seen.append(vars(args))
            return 0
        monkeypatch.setattr(cli, "_run", run)
        assert self.run("codesign", AWGN_FILE, "--epsilon", "0.05", "--seed", "3") == 0
        assert self.run("codesign", AWGN_FILE) == 0
        assert seen[0]["epsilon"] == 0.05 and seen[0]["seed"] == 3
        assert seen[1]["epsilon"] is None and seen[1]["seed"] is None
        assert cli._build_parser() is cli._build_parser()

    def test_unknown_command_is_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            self.run("frobnicate", AWGN_FILE)
        assert exc.value.code == 2
        assert "frobnicate" in capsys.readouterr().err

    @pytest.mark.parametrize("command, problem, pinned", [
        ("codesign", "demo_awgn.yaml", 19),
        ("codesign", "demo_fading.yaml", 22),
        ("simulate", "demo_fading.yaml", 23),
    ])
    def test_demo_eigen_solve_count(self, tmp_path, factorizations, command, problem, pinned):
        # `pinned` is the count once the Lyapunov kernel read its Hurwitz test off
        # its own Schur form; the Riccati kernel reading its PBH eigenvalues off
        # its sorted Schur form saves one more per cyclic block, and the
        # decomposition check computing each block's spectrum once two more
        # (six in each demo, which has two blocks), and the decomposition
        # taking the plant's spectrum once for its PBH test and its clusters
        # one more
        path = os.path.join(PROBLEMS, problem)
        assert self.run(command, path, "--format", "machine",
                        "--out", str(tmp_path / "out.json")) == 0
        assert factorizations["eigvals"] <= pinned - 7

    def test_validate_takes_one_spectrum(self, tmp_path, factorizations):
        # the axis test, the PBH failures and the entropy read one eigvals(A)
        assert self.run("validate", AWGN_FILE, "--format", "machine",
                        "--out", str(tmp_path / "out.json")) == 0
        assert factorizations["eigvals"] == 1

    def test_decompose(self, tmp_path):
        out = tmp_path / "dec.json"
        assert self.run("decompose", AWGN_FILE, "--format", "machine",
                        "--out", str(out)) == 0
        d = parse_machine(out.read_text())
        assert d.k == 2

    def test_byte_identical_reruns(self, tmp_path):
        for command, path in (
            ("validate", AWGN_FILE),
            ("check", AWGN_FILE),
            ("codesign", FADING_FILE),
        ):
            docs = []
            for i in range(2):
                out = tmp_path / f"{command}{i}.json"
                self.run(command, path, "--format", "machine",
                         "--seed", "0", "--out", str(out))
                docs.append(out.read_bytes())
            assert docs[0] == docs[1]
