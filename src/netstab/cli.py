"""Command-line interface.

Grammar: ``netstab COMMAND PROBLEM [options]``, one problem file per
invocation; options may stand anywhere, before the command too. The
commands cover validation, structural decomposition, the capacity
feasibility check, full co-design, closed-loop analysis, and covariance
simulation. An option given on the command line overrides the same key in
the problem file's ``options``. Exit status 0 means the command's verdict is
positive (valid / feasible / stabilized / converged), 1 a negative verdict,
2 an error.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import analysis, reports
from .codesign import codesign
from .cyclic import cyclic_decompose
from .errors import (
    DecompositionFailed,
    EpsilonExhausted,
    NetstabError,
    NotDiagonalizable,
    Unstabilizable,
)
from .majorize import STRICT_WEAK_ABOVE, check_order, pad_to_match
from .plantmodel import FADING, capacities, validate_plant
from .problemfile import load_problem_file

EXIT_POSITIVE = 0
EXIT_NEGATIVE = 1
EXIT_ERROR = 2

#: errors that are a negative verdict on the plant, not a failure of the run
_NEGATIVE = (Unstabilizable, NotDiagonalizable, DecompositionFailed)

#: command -> its one-line help
_COMMANDS = {
    "validate": "plant validation report (stabilizability, entropy)",
    "decompose": "cyclic decomposition of the plant",
    "check": "capacity-vs-entropy feasibility check with prefix table",
    "codesign": "full co-design: gain, codec, scaling search",
    "analyze": "co-design followed by the closed-loop analysis report",
    "simulate": "co-design followed by covariance simulation (fading)",
}


@functools.cache
def _build_parser():
    """The command-line parser, built once per process: ``parse_args``
    leaves it as it is."""
    parser = argparse.ArgumentParser(
        prog="netstab",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        description=(
            "Stabilization of a linear plant over fixed-capacity subchannels:\n"
            "decide feasibility, synthesize the controller and codec, verify\n"
            "the closed loop."
        ),
        epilog="commands:\n" + "".join(
            f"  {name:<11}{text}\n" for name, text in _COMMANDS.items()
        ),
    )
    parser.add_argument("command", choices=_COMMANDS, metavar="COMMAND",
                        help="one of the commands listed below")
    parser.add_argument("problem", metavar="PROBLEM", help="problem file (YAML)")
    parser.add_argument(
        "--format",
        choices=(reports.HUMAN, reports.MACHINE, reports.TABLE),
        default=reports.HUMAN,
        help="output rendering (table applies to trajectories)",
    )
    parser.add_argument("--out", help="write the document to this path")
    parser.add_argument("--seed", type=int, help="randomization seed (default 0)")
    parser.add_argument("--epsilon", type=float, help="pin the codec scaling")
    parser.add_argument("--t-end", dest="t_end", type=float, help="simulation horizon")
    parser.add_argument("--dt", type=float, help="simulation step")
    return parser


def _write(doc: str, args) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(doc)
    else:
        sys.stdout.write(doc)


def _run(args) -> int:
    pf = load_problem_file(args.problem)
    # the problem file's options fill in what the command line leaves unset
    for key, value in pf.options.items():
        if getattr(args, key) is None:
            setattr(args, key, value)
    seed = args.seed or 0
    command = args.command

    if command == "validate":
        report = validate_plant(pf.plant)
        _write(reports.emit(report, args.format), args)
        return EXIT_POSITIVE if report.ok else EXIT_NEGATIVE

    if command == "decompose":
        decomposition = cyclic_decompose(pf.plant, seed=seed)
        _write(reports.emit(decomposition, args.format), args)
        return EXIT_POSITIVE

    if command == "check":
        decomposition = cyclic_decompose(pf.plant, seed=seed)
        c_pad, h_pad = pad_to_match(capacities(pf.channels), decomposition.h)
        verdict = check_order(c_pad, h_pad, STRICT_WEAK_ABOVE)
        _write(reports.emit(verdict, args.format), args)
        return EXIT_POSITIVE if verdict.holds else EXIT_NEGATIVE

    if command == "simulate" and pf.channels.kind != FADING:
        raise NetstabError(
            "covariance simulation applies to fading channels only "
            "(AWGN loops are verified analytically)"
        )
    result = codesign(pf.plant, pf.channels, seed=seed, epsilon=args.epsilon)

    if command == "codesign":
        _write(reports.emit(result, args.format), args)
        return EXIT_POSITIVE if result.feasible else EXIT_NEGATIVE

    if not result.feasible:
        _write(reports.emit(result, args.format), args)
        return EXIT_NEGATIVE

    if command == "analyze":
        _write(reports.emit(result.report, args.format), args)
        return EXIT_POSITIVE if result.report.stabilized else EXIT_NEGATIVE

    # simulate
    trajectory = analysis.simulate_fading_covariance(
        pf.plant,
        result.design,
        pf.channels,
        t_end=10.0 if args.t_end is None else args.t_end,
        dt=args.dt,
    )
    _write(reports.emit(trajectory, args.format), args)
    return EXIT_NEGATIVE if trajectory.diverged else EXIT_POSITIVE


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _run(args)
    except NetstabError as exc:
        print(f"netstab: {type(exc).__name__}: {exc}", file=sys.stderr)
        # a scaling pinned on the command line or in the problem file that
        # fails verification is a negative verdict; an exhausted search
        # signals numerical pathology
        pinned = isinstance(exc, EpsilonExhausted) and args.epsilon is not None
        return EXIT_NEGATIVE if pinned or isinstance(exc, _NEGATIVE) else EXIT_ERROR
    except OSError as exc:
        print(f"netstab: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
