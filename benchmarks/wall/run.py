"""The wall-clock benchmark's command line.

One run (what the benchmark driver calls)::

    python3 benchmarks/wall/run.py --workload maintain_rvm --seed 7 \\
        --seconds 15 --trace 0

measures one workload in this process, prints ``workload metric value
unit`` lines and ends with one JSON object: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.

The ledger (no ``--trace``)::

    python3 benchmarks/wall/run.py [--workload NAME]... [--repeats 3]
        [--no-trace] [--json OUT] [--trace-out FILE] [--selfcheck]

takes ``--repeats`` untraced runs and one traced run of every workload,
each in a fresh process, round-robin, and prints per metric the best
repeat with the median and range beside it. It exits non-zero on an
oracle mismatch, a failed op or a count that did not repeat.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import tempfile
from dataclasses import asdict

ROOT = pathlib.Path(__file__).resolve().parents[2]
# The package is ``wall`` under benchmarks/; the script's own directory
# must not be importable as top-level modules (trace.py would shadow the
# standard library's).
sys.path[0] = str(ROOT / "benchmarks")
sys.path.insert(0, str(ROOT / "src"))

# Measure this checkout's source, never a copy installed elsewhere.
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"the program under test is missing: no {ROOT}/src/repro")

from wall import harness  # noqa: E402
from wall.metrics import (  # noqa: E402
    BY_NAME, END_TO_END, MAX_TRACE_OVERHEAD_X, PER_LAYER, RUN_SECONDS,
)
from wall.workloads import BY_NAME as WORKLOADS_BY_NAME  # noqa: E402
from wall.workloads import WORKLOADS, scaled  # noqa: E402


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter
    )
    parser.add_argument(
        "--workload", action="append", choices=sorted(WORKLOADS_BY_NAME),
        help="workload to run (repeatable; default: all six)",
    )
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--seconds", type=float, default=float(RUN_SECONDS),
        help="length of one run's timed phase",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1),
        help="take one run of one workload in this process: 0 = untraced "
        "(end-to-end metrics), 1 = traced (per-layer metrics)",
    )
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="shrink passes (and the 10^5-procedure population) for smoke runs",
    )
    parser.add_argument(
        "--repeats", type=int, default=3,
        help="ledger: untraced runs per workload",
    )
    parser.add_argument(
        "--no-trace", action="store_true",
        help="ledger: skip the traced run (no per-layer metrics)",
    )
    parser.add_argument("--json", metavar="OUT", help="write the result here")
    parser.add_argument(
        "--trace-out", metavar="FILE",
        help="write the traced run's spans here as JSONL (the ledger "
        "appends .<workload> when it runs several)",
    )
    parser.add_argument(
        "--selfcheck", action="store_true",
        help="ledger: take two untraced sets back to back and compare them "
        "against each metric's bound",
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0 or args.scale <= 0:
        parser.error("--seconds and --scale must be positive")
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    if args.trace is not None and len(args.workload or ()) != 1:
        parser.error("--trace takes exactly one --workload")
    return args


# -- one run ------------------------------------------------------------------


def run_once(args: argparse.Namespace) -> int:
    workload = scaled(WORKLOADS_BY_NAME[args.workload[0]], args.scale)
    if args.trace:
        record = harness.run_traced(
            workload, args.seed, args.seconds, args.trace_out
        )
    else:
        record = harness.run_untraced(workload, args.seed, args.seconds)
    for name, value in record.metrics.items():
        print(workload.name, name, repr(value), BY_NAME[name].unit)
    for note in record.notes:
        print(f"# {workload.name}: {note}")
    if args.json:
        with open(args.json, "w") as out:
            json.dump(asdict(record), out)
    print(json.dumps({
        "correct": record.correct,
        "attempted": record.attempted,
        "failed": record.failed,
        "metrics": {
            name: {"value": value, "unit": BY_NAME[name].unit}
            for name, value in record.metrics.items()
        },
    }))
    return 0 if record.correct else 1


# -- the ledger -----------------------------------------------------------------


def _child(args: argparse.Namespace, name: str, trace: int, out: str) -> dict:
    command = [
        sys.executable, __file__, "--workload", name,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--scale", str(args.scale), "--trace", str(trace), "--json", out,
    ]
    if trace and args.trace_out:
        several = len(args.workload) > 1
        command += [
            "--trace-out",
            f"{args.trace_out}.{name}" if several else args.trace_out,
        ]
    done = subprocess.run(command, stdout=subprocess.DEVNULL)
    if not os.path.exists(out):
        raise SystemExit(
            f"{name}: run exited {done.returncode} without a result"
        )
    with open(out) as handle:
        record = json.load(handle)
    os.remove(out)
    return record


def take_set(args: argparse.Namespace, traced: bool) -> dict[str, list[dict]]:
    """``--repeats`` untraced runs of every workload, round-robin so that
    slow drift of the host lands on all of them alike, then the traced
    runs; every run in a fresh process so that peak RSS, compiled
    predicates and collector state never leak from one to the next."""
    records: dict[str, list[dict]] = {name: [] for name in args.workload}
    with tempfile.TemporaryDirectory() as scratch:
        out = os.path.join(scratch, "record.json")
        for _ in range(args.repeats):
            for name in args.workload:
                records[name].append(_child(args, name, 0, out))
        if traced:
            for name in args.workload:
                records[name].append(_child(args, name, 1, out))
    return records


def summarize(records: dict[str, list[dict]]) -> tuple[dict, list[str]]:
    """Per workload and metric: the best repeat, with median and range.

    Host noise on a shared box is one-sided — a run is only ever slowed
    down — so the best repeat is the least disturbed one.
    """
    problems: list[str] = []
    summary: dict = {}
    for name, runs in records.items():
        first = runs[0]
        for run in runs[1:]:
            if (run["counts"], run["op_digests"]) != (
                first["counts"], first["op_digests"]
            ):
                problems.append(f"{name}: first-pass counts did not repeat")
                break
        failed = sum(run["failed"] for run in runs)
        if failed:
            problems.append(f"{name}: {failed} ops failed or disagreed "
                            "with the oracle")
        metrics: dict = {}
        for run in runs:
            for metric, value in run["metrics"].items():
                metrics.setdefault(metric, []).append(value)
        rows = {}
        for metric, values in metrics.items():
            spec = BY_NAME[metric]
            best = max(values) if spec.better == "higher" else min(values)
            rows[metric] = {
                "value": best, "unit": spec.unit,
                "median": statistics.median(values),
                "min": min(values), "max": max(values), "n": len(values),
            }
        notes = [note for run in runs for note in run["notes"]]
        overhead = rows.get("trace.overhead_x", {}).get("value", 0.0)
        if overhead > MAX_TRACE_OVERHEAD_X:
            # Not a failure: over a short pass the ratio is mostly noise.
            notes.append(
                f"WARNING tracing cost {overhead:.2f}x, more than "
                f"{MAX_TRACE_OVERHEAD_X}x: per-layer shares are distorted"
            )
        summary[name] = {
            "metrics": rows,
            "counts": first["counts"],
            "op_digests": first["op_digests"],
            "attempted": sum(run["attempted"] for run in runs),
            "failed": failed,
            "notes": notes,
        }
    return summary, problems


def print_summary(summary: dict) -> None:
    for name, result in summary.items():
        for metric in END_TO_END + PER_LAYER:
            row = result["metrics"].get(metric.name)
            if row is None:
                continue
            print(
                name, metric.name, f"{row['value']:.6g}", row["unit"],
                f"median={row['median']:.6g} min={row['min']:.6g} "
                f"max={row['max']:.6g} n={row['n']}",
            )
        print(name, "failed_frac",
              f"{result['failed'] / result['attempted']:.6g}", "fraction")
        for note in result["notes"]:
            print(f"# {name}: {note}")


def fingerprint() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "machine": platform.machine(),
    }


def selfcheck(args: argparse.Namespace) -> int:
    """Two untraced sets of the same code, compared the way a later
    change will be compared with its parent."""
    first, problems = summarize(take_set(args, traced=False))
    second, more = summarize(take_set(args, traced=False))
    problems += more
    for name in args.workload:
        if first[name]["counts"] != second[name]["counts"]:
            problems.append(f"{name}: counts differ between the two sets")
        for metric in END_TO_END:
            a = first[name]["metrics"][metric.name]["value"]
            b = second[name]["metrics"][metric.name]["value"]
            apart = abs(b - a) / a
            verdict = "ok" if apart <= metric.bound else "APART"
            print(name, metric.name, f"{a:.6g}", f"{b:.6g}", metric.unit,
                  f"apart={apart:.4f} bound={metric.bound} {verdict}")
            if apart > metric.bound:
                problems.append(
                    f"{name} {metric.name}: two sets of the same code are "
                    f"{apart:.1%} apart, bound {metric.bound:.0%}"
                )
    return report(problems)


def report(problems: list[str]) -> int:
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    return 1 if problems else 0


def ledger(args: argparse.Namespace) -> int:
    summary, problems = summarize(take_set(args, traced=not args.no_trace))
    print_summary(summary)
    if args.json:
        with open(args.json, "w") as out:
            json.dump({
                "seed": args.seed, "seconds": args.seconds,
                "scale": args.scale, "repeats": args.repeats,
                "machine": fingerprint(), "workloads": summary,
            }, out, indent=1)
    return report(problems)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if args.trace is not None:
        return run_once(args)
    args.workload = args.workload or [w.name for w in WORKLOADS]
    return selfcheck(args) if args.selfcheck else ledger(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
