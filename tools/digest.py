"""One sha256 over the CLI's outputs on the benchmark's problem files.

Run from anywhere:

    python3 tools/digest.py --seed 1 [--src DIR]

``DIR`` is the ``src`` directory that ``netstab`` is imported from (default:
this checkout's), so one copy of the tool hashes two versions of the
program: a refactor that keeps every output the same prints the same digest
at both. The problem files are the benchmark's ``sweep`` and ``ladder``
files for the seed, written by ``benchmark/inputs.py`` into a temporary
directory, plus the two demos. On each file the tool runs ``validate``,
``decompose``, ``check``, ``codesign`` and ``analyze``; on every fading file
also ``simulate`` in the machine and the table format, and on the fading
demo ``simulate --t-end 304``. Each run is one in-process call of
``netstab.cli.main``; the digest covers the file name, the command line,
the exit code (or the uncaught exception), the document and standard error
of every run. The tool prints each run's own sha256 with its file name and
command line, one run a line, and then the total as its last line, ``runs
N sha256 ...``: two versions compare by that line, and a diff of two
listings names the runs that differ. Nothing is written inside the checkout.
"""

import os
import sys

# one BLAS thread, set before numpy is first imported: the outputs are then
# reproducible bit for bit
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.dont_write_bytecode = True

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ("demo_awgn.yaml", "demo_fading.yaml")
COMMANDS = ("validate", "decompose", "check", "codesign", "analyze")


def import_cli(src: Path):
    """``netstab.cli`` imported from ``src``, and only there."""
    sys.path.insert(0, str(src))
    cli = importlib.import_module("netstab.cli")
    if Path(cli.__file__).resolve().parent != (src / "netstab").resolve():
        sys.exit(f"netstab was imported from {cli.__file__}, not from {src}")
    return cli


def write_problems(seed: int, directory: Path):
    """The sweep, ladder and demo files as paths relative to ``directory``,
    each with whether its channels are fading."""
    sys.path.insert(0, str(ROOT / "benchmark"))
    import inputs

    instances = inputs.sweep_instances(seed) + inputs.ladder_instances(seed)
    inputs.write_problems(instances, directory)
    files = [(f"{inst.name}.yaml", inst.kind == inputs.FADING) for inst in instances]
    for name in DEMOS:
        shutil.copy(ROOT / "problems" / name, directory / name)
        files.append((name, name == "demo_fading.yaml"))
    return files


def runs(files):
    """Every (file, argv) the digest covers, in a fixed order."""
    for name, fading in files:
        for command in COMMANDS:
            yield name, [command, name, "--format", "machine"]
        if fading:
            for fmt in ("machine", "table"):
                yield name, ["simulate", name, "--format", fmt]
    yield "demo_fading.yaml", ["simulate", "demo_fading.yaml", "--format", "machine",
                               "--t-end", "304"]


def run(cli, argv):
    """(exit code or the uncaught exception, standard output, standard error)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash is an output like any other
            code = f"{type(exc).__name__}: {exc}"
    return code, out.getvalue(), err.getvalue()


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True,
                        help="seed of the benchmark's problem generators")
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="directory netstab is imported from (default: %(default)s)")
    args = parser.parse_args()
    cli = import_cli(args.src.resolve())
    digest = hashlib.sha256()
    count = 0
    with tempfile.TemporaryDirectory(prefix="netstab-digest-") as tmp:
        files = write_problems(args.seed, Path(tmp))
        # relative paths keep the temporary directory out of every message
        os.chdir(tmp)
        for name, argv in runs(files):
            record = json.dumps([name, argv, *run(cli, argv)]).encode("utf-8") + b"\n"
            digest.update(record)
            count += 1
            print(hashlib.sha256(record).hexdigest(), name, " ".join(argv))
        os.chdir(ROOT)
    print(f"runs {count} sha256 {digest.hexdigest()}")


if __name__ == "__main__":
    main()
