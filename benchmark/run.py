"""netstab benchmark: the `codesign` and `simulate` commands, end to end.

Run from the root of a checkout:

    python3 benchmark/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Each operation is one in-process call of ``netstab.cli.main`` on a problem
file written during set-up, with ``--format machine --out``; every output is
then checked by ``checks`` (numpy/scipy only). A run repeats whole passes
over its inputs until ``--seconds`` of wall time have gone, so every run has
the same mix. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of a traced run with
``--trace 1``. See README.md for the workloads and metrics.
"""

import os

# one BLAS thread, set before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import functools  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402
import yaml  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
from tracing import Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
DEMO_FADING = ROOT / "problems" / "demo_fading.yaml"

#: The program's start-up is timed this many times per run; setup_s is the
#: median.
SETUP_REPEATS = 5
#: The horizon runs until the slowest mean-square mode has decayed by this
#: factor; its last sample must then sit below HORIZON_LAST_BELOW of the first.
HORIZON_DECAY = 1e5
HORIZON_LAST_BELOW = 1e-3


class Refused(Exception):
    """The benchmark cannot run in this directory."""


def import_checkout():
    """Import ``netstab`` from this checkout's ``src``, and only there."""
    package = SRC / "netstab"
    if not (package / "__init__.py").is_file():
        raise Refused(f"no netstab package under {SRC}")
    sys.path.insert(0, str(SRC))
    cli = importlib.import_module("netstab.cli")
    if Path(cli.__file__).resolve().parent != package.resolve():
        raise Refused(f"netstab was imported from {cli.__file__}, not from {package}")
    return cli


def startup_seconds():
    """Wall time of a fresh interpreter importing ``netstab.cli`` from this
    checkout's ``src``, with its numpy, scipy and yaml imports: the set-up
    every command pays before it runs."""
    code = "import sys; sys.path.insert(0, sys.argv[1]); import netstab.cli"
    start = perf_counter()
    # no timeout: with one, Popen.wait polls in steps of up to 50 ms
    subprocess.run([sys.executable, "-c", code, str(SRC)], check=True,
                   stdin=subprocess.DEVNULL)
    return perf_counter() - start


class Op:
    """One CLI call and the check of its output document."""

    def __init__(self, inst, path, out, check):
        self.inst = inst
        self.argv = [inst.command, str(path), "--format", "machine", "--out", str(out)]
        self.out = out
        self.check = check


def _codesign_ops(instances, directory):
    paths = inputs.write_problems(instances, directory)
    out = directory / "out.json"
    return [Op(inst, path, out, functools.partial(checks.check_codesign, inst))
            for inst, path in zip(instances, paths)]


def _horizon(seed, directory, cli):
    """`simulate` on the fading demo up to t_end = ln(1e5)/|alpha|, alpha the
    abscissa of the benchmark's own covariance operator for the demo design
    (acceptance criterion 03). The inputs do not depend on the seed."""
    if not DEMO_FADING.is_file():
        raise Refused(f"missing {DEMO_FADING}")
    raw = yaml.safe_load(DEMO_FADING.read_text(encoding="utf-8"))
    inst = inputs.Instance(
        name="horizon",
        command="codesign",
        A=np.asarray(raw["plant"]["A"], float),
        B=np.asarray(raw["plant"]["B"], float),
        kind=raw["channels"]["kind"],
        params={k: np.asarray(v, float) for k, v in raw["channels"].items() if k != "kind"},
        feasible=True,
        x0=np.asarray(raw["plant"]["x0"], float),
    )
    (path,) = inputs.write_problems([inst], directory)
    out = directory / "out.json"
    rc, _, doc = run_op(cli, Op(inst, path, out, None))
    problems = checks.check_codesign(inst, rc, doc or "")
    if problems:
        raise RuntimeError("demo design: " + "; ".join(problems))
    design = checks.design_matrices(checks.parse(doc, checks.CODESIGN_SCHEMA)[0])
    alpha = float(np.max(np.linalg.eigvals(checks.covariance_operator(inst, *design)).real))
    if not alpha < 0.0:
        raise RuntimeError(f"demo design is not mean-square stable (abscissa {alpha})")
    inst.command = "simulate"
    inst.options = {"t_end": np.log(HORIZON_DECAY) / abs(alpha)}
    inputs.write_problems([inst], directory)

    check = functools.partial(checks.check_trajectory, inst, design=design,
                              last_below=HORIZON_LAST_BELOW)
    return [Op(inst, path, out, check)]


WORKLOADS = {
    "sweep": lambda seed, directory, cli: _codesign_ops(inputs.sweep_instances(seed), directory),
    "ladder": lambda seed, directory, cli: _codesign_ops(inputs.ladder_instances(seed), directory),
    "horizon": _horizon,
}


def run_op(cli, op):
    """(exit code or None on an uncaught exception, seconds, document)."""
    op.out.unlink(missing_ok=True)
    start = perf_counter()
    try:
        rc = cli.main(op.argv)
    except Exception:  # a crash is a failed operation, not the end of the run
        rc = None
        traceback.print_exc()
    elapsed = perf_counter() - start
    doc = op.out.read_text(encoding="utf-8") if op.out.exists() else None
    return rc, elapsed, doc


class Tally:
    """Attempted and failed operations, and whether every output was right.

    An operation fails on exit code 2 or a crash, and on an output that
    fails its check (a missing one included); the latter also makes the run
    incorrect.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def record(self, op, rc, doc):
        self.attempted += 1
        if rc is None or rc == 2:
            self.failed += 1
            print(f"{op.inst.name}: {op.inst.command} failed (exit {rc})", file=sys.stderr)
            return
        problems = op.check(rc, doc or "")
        if problems:
            self.failed += 1
            self.correct = False
            print(f"{op.inst.name}: {op.inst.command}: {'; '.join(problems)}",
                  file=sys.stderr)


def run_pass(cli, ops, tally):
    """One pass over the inputs: per-op seconds and documents."""
    times, docs = [], []
    for op in ops:
        rc, elapsed, doc = run_op(cli, op)
        tally.record(op, rc, doc)
        times.append(elapsed)
        docs.append(doc)
    return times, docs


def measure(cli, ops, seconds):
    """End-to-end metrics over whole passes filling ``seconds`` of wall time."""
    tally = Tally()
    times = []
    start = perf_counter()
    while not times or perf_counter() - start < seconds:
        times += run_pass(cli, ops, tally)[0]
    ms = [1e3 * t for t in times]
    metrics = {
        "ops_per_s": (len(times) / sum(times), "1/s"),
        "op_p50_ms": (statistics.median(ms), "ms"),
        "op_p90_ms": (statistics.quantiles(ms, n=10)[8] if len(ms) > 1 else ms[0], "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return tally, metrics


def trace(cli, ops, seconds):
    """Per-layer metrics per operation from traced passes, each paired with
    an untraced pass whose documents the traced ones must equal byte for
    byte. ``trace.overhead_ms`` is the traced minus the untraced time."""
    tally = Tally()
    untraced = traced = 0.0
    count = 0
    totals = {}
    eps_steps = doc_bytes = 0
    start = perf_counter()
    while count == 0 or perf_counter() - start < seconds:
        plain_times, plain_docs = run_pass(cli, ops, tally)
        with Tracer() as tracer:
            traced_times, traced_docs = run_pass(cli, ops, tally)
        for op, a, b in zip(ops, plain_docs, traced_docs):
            if a != b:
                tally.correct = False
                print(f"{op.inst.name}: traced document differs", file=sys.stderr)
        untraced += sum(plain_times)
        traced += sum(traced_times)
        count += len(ops)
        pass_totals, pass_steps = tracer.totals()
        for name, (calls, incl, own) in pass_totals.items():
            c, i, s = totals.get(name, (0, 0.0, 0.0))
            totals[name] = (c + calls, i + incl, s + own)
        eps_steps += pass_steps
        doc_bytes += tracer.doc_bytes

    def ms(name, part=1):
        return 1e3 * totals.get(name, (0, 0.0, 0.0))[part] / count

    def calls(name):
        return totals.get(name, (0, 0.0, 0.0))[0] / count

    metrics = {
        "cli.self_ms": (ms("cli", 2), "ms"),
        "problemfile.load_ms": (ms("problemfile.load"), "ms"),
        "plantmodel.validate_ms": (ms("plantmodel.validate"), "ms"),
        "numerics.pbh_calls": (calls("numerics.pbh"), "count"),
        "cyclic.decompose_ms": (ms("cyclic.decompose"), "ms"),
        "cyclic.verify_ms": (ms("cyclic.verify"), "ms"),
        "majorize.check_ms": (ms("majorize.check"), "ms"),
        "majorize.intermediate_ms": (ms("majorize.intermediate"), "ms"),
        "majorize.isometry_ms": (ms("majorize.isometry"), "ms"),
        "codesign.self_ms": (ms("codesign", 2), "ms"),
        "codesign.gain_ms": (ms("codesign.gain"), "ms"),
        "codesign.codec_ms": (ms("codesign.codec"), "ms"),
        "codesign.eps_steps": (eps_steps / count, "count"),
        "numerics.care_ms": (ms("numerics.care"), "ms"),
        "numerics.care_calls": (calls("numerics.care"), "count"),
        "numerics.lyapunov_ms": (ms("numerics.lyapunov"), "ms"),
        "numerics.lyapunov_calls": (calls("numerics.lyapunov"), "count"),
        "numerics.ode_ms": (ms("numerics.ode"), "ms"),
        "analysis.analyze_ms": (ms("analysis.analyze"), "ms"),
        "analysis.simulate_ms": (ms("analysis.simulate"), "ms"),
        "analysis.rhs_ms": (ms("analysis.rhs"), "ms"),
        "analysis.rhs_calls": (calls("analysis.rhs"), "count"),
        "reports.emit_ms": (ms("reports.emit"), "ms"),
        "reports.doc_bytes": (doc_bytes / count, "bytes"),
        "trace.overhead_ms": (1e3 * (traced - untraced) / count, "ms"),
    }
    return tally, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        cli = import_checkout()
        ops = WORKLOADS[args.workload](args.seed, OUT / args.workload, cli)
    except Refused as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        tally, metrics = trace(cli, ops, args.seconds)
    else:
        tally, metrics = measure(cli, ops, args.seconds)
        startups = [startup_seconds() for _ in range(SETUP_REPEATS)]
        metrics["setup_s"] = (statistics.median(startups), "s")
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
