"""Paired benchmark runs of two checkouts, and the table that compares them.

Run from anywhere:

    python3 tools/pairs.py --parent DIR --change DIR --workload horizon \\
        --pairs 10 --seconds 30 --seed 1

Each pair runs the benchmark command that ``BENCHMARK.json`` declares once
in each checkout, from that checkout's root: the parent first on odd pairs,
the change first on even ones, so that a drift of the host's speed falls on
both sides alike. The last line each run prints is its JSON result. For
every end-to-end metric of ``BENCHMARK.json`` the tool then prints one
table row: each side's median with its quartiles, the change of the median
in percent, the pairs the change won (ties count for neither side), and
whether the gap of the medians exceeds the parent's quartile spread; then
the failed and attempted operations of each side. It stops with exit code 1
at the first run that fails or reports an incorrect output. The tool writes
nothing itself; the benchmark writes its scratch files under each
checkout's ``benchmark/out``.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(checkout: Path, command, workload, seconds, seed):
    """The JSON result of one benchmark run in ``checkout``, or None with the
    reason printed when the run fails or reports an incorrect output."""
    argv = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds)]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True,
                          stdin=subprocess.DEVNULL)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"{checkout}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
        return None
    result = json.loads(lines[-1])
    if not result["correct"]:
        print(f"{checkout}: incorrect output\n{proc.stderr}", file=sys.stderr)
        return None
    return result


def quartiles(values):
    """(q1, median, q3); one value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def row(workload, metric, better, parent, change):
    """One markdown table row comparing the two sides' values of a metric."""
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    sign = 1 if better == "higher" else -1
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    delta = 100.0 * (cm - pm) / pm if pm else float("nan")
    clear = "yes" if abs(cm - pm) > p3 - p1 else "no"
    return (f"| {workload} | {metric} | {pm:.4g} [{p1:.4g}, {p3:.4g}] | "
            f"{cm:.4g} [{c1:.4g}, {c3:.4g}] | {delta:+.1f}% | "
            f"{wins}/{len(parent)} | {clear} |")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True,
                        help="root of the parent commit's checkout")
    parser.add_argument("--change", type=Path, required=True,
                        help="root of the change's checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    results = {side: [] for side in sides}
    for pair in range(1, args.pairs + 1):
        order = ("parent", "change") if pair % 2 else ("change", "parent")
        for side in order:
            result = run_once(sides[side], spec["command"], args.workload,
                              args.seconds, args.seed)
            if result is None:
                sys.exit(f"pair {pair}: the {side} run failed")
            results[side].append(result)
        print(f"pair {pair}: " + ", ".join(
            f"{side} {results[side][-1]['metrics']['op_p50_ms']['value']:.4g} ms p50"
            for side in order), file=sys.stderr)
    print("| workload | metric | parent median [q1, q3] | change median [q1, q3] "
          "| Δ | change wins | gap > parent spread |")
    print("|---|---|---|---|---|---|---|")
    for metric in spec["end_to_end"]:
        name = metric["name"]
        values = {side: [r["metrics"][name]["value"] for r in results[side]]
                  for side in sides}
        print(row(args.workload, name, metric["better"], values["parent"],
                  values["change"]))
    for side in sides:
        failed = sum(r["failed"] for r in results[side])
        attempted = sum(r["attempted"] for r in results[side])
        print(f"{side}: failed {failed} of {attempted} attempted")


if __name__ == "__main__":
    main()
