"""``python -m bench run|compare`` — see bench/README.md."""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

from bench import harness
from bench.harness import BenchError
from bench.tracing import layer_rows

TRACE_FILE = "bench-trace.json"


def _print_run(name: str, line: Dict[str, Any], failures: List[str],
               trace: Optional[Dict[str, Any]] = None) -> None:
    print(f"== {name} ==")
    for metric, m in line["metrics"].items():
        print(f"  {metric:<32} {m['value']:>14.6g} {m['unit']}")
    print(f"  checks: {line['attempted'] - line['failed']}/{line['attempted']} passed")
    for failure in failures:
        print(f"  FAILED: {failure}")
    if trace is not None:
        print(f"  traced pass {trace['wall_s']:.3f} s "
              f"(untraced {trace['untraced_wall_s']:.3f} s)")
        for row in layer_rows(trace["layers"], trace["wall_s"]):
            print(row)


def run_one(args: argparse.Namespace, spec: Dict[str, Any]) -> Dict[str, Any]:
    """Run one workload in this process; returns its output document."""
    from bench.workloads import WORKLOADS

    traced = bool(args.trace)
    units = harness.metric_units(spec, "per_layer" if traced else "end_to_end")
    harness.pin_to_one_cpu()
    with harness.work_dir(args.workload) as work, harness.HostClock(work) as clock:
        os.nice(harness.PRIORITY_DROP)
        run = WORKLOADS[args.workload](
            seed=args.seed, seconds=args.seconds, trace=traced, work=work, clock=clock
        )
    line = harness.result_line(run, units, traced)
    _print_run(args.workload, line, run.gate.failures, run.trace)
    doc = {
        "fingerprint": harness.fingerprint(),
        "seed": args.seed,
        "seconds": args.seconds,
        "traced": traced,
        "workloads": {args.workload: {**line, "failures": run.gate.failures}},
    }
    if traced:
        doc["traces"] = {args.workload: run.trace}
    return doc


def run_each(args: argparse.Namespace, names: List[str]) -> Dict[str, Any]:
    """Run every workload in its own process (peak-RSS readings stay
    per workload) and merge their documents."""
    merged: Dict[str, Any] = {}
    for name in names:
        with harness.work_dir(f"{name}-out") as work:
            out = work / "doc.json"
            cmd = [
                sys.executable, "-m", "bench", "run", "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--out", str(out),
            ]
            proc = subprocess.run(cmd, cwd=str(harness.ROOT))
            if proc.returncode not in (0, 1) or not out.is_file():
                raise BenchError(f"workload {name} crashed (exit {proc.returncode})")
            doc = json.loads(out.read_text())
        if not merged:
            merged = doc
        else:
            merged["workloads"].update(doc["workloads"])
            merged.setdefault("traces", {}).update(doc.get("traces", {}))
    return merged


def cmd_run(args: argparse.Namespace) -> int:
    spec = harness.load_spec()
    known = [w["name"] for w in spec["workloads"]]
    if args.workload is not None and args.workload not in known:
        raise BenchError(f"unknown workload {args.workload!r}; known: {known}")
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if args.seconds <= 0:
        raise BenchError("--seconds must be positive")
    harness.bootstrap()
    if args.workload is not None:
        doc = run_one(args, spec)
    else:
        doc = run_each(args, known)
    if args.trace:
        Path(TRACE_FILE).write_text(json.dumps({"workloads": doc["traces"]}, indent=1))
        print(f"spans written to {TRACE_FILE}", file=sys.stderr)
    if args.out is not None:
        Path(args.out).write_text(json.dumps(doc, indent=1, sort_keys=True))
    lines = doc["workloads"]
    if len(lines) == 1:
        (last,) = lines.values()
        last = {k: last[k] for k in ("correct", "attempted", "failed", "metrics")}
    else:
        last = {
            "correct": all(w["correct"] for w in lines.values()),
            "attempted": sum(w["attempted"] for w in lines.values()),
            "failed": sum(w["failed"] for w in lines.values()),
            "metrics": {
                f"{name}:{metric}": value
                for name, w in lines.items()
                for metric, value in w["metrics"].items()
            },
        }
    print(json.dumps(last, sort_keys=True))
    return 0 if last["correct"] else 1


def cmd_compare(args: argparse.Namespace) -> int:
    from bench.compare import compare

    lines, code = compare(args.files, args.against, harness.load_spec())
    print("\n".join(lines))
    return code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python -m bench", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run workloads and print their metrics")
    run.add_argument("--workload", default=None, help="one workload (default: all)")
    run.add_argument("--seed", type=int, default=1)
    run.add_argument("--seconds", type=float, default=None,
                     help="measuring time per workload (default: BENCHMARK.json)")
    run.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                     choices=(0, 1), help="report per-layer metrics from a traced pass")
    run.add_argument("--out", default=None, help="write the full output document here")
    run.set_defaults(func=cmd_run)
    cmp_ = sub.add_parser("compare", help="summarize or compare output documents")
    cmp_.add_argument("files", nargs="+", help="output documents (--out) of one set")
    cmp_.add_argument("--against", nargs="+", default=None,
                      help="a baseline set to judge FILES against")
    cmp_.set_defaults(func=cmd_compare)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    # a terminated run still stops its server, probe and workers below
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    harness.adopt_orphans()
    try:
        return args.func(args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    finally:
        harness.end_descendants()


if __name__ == "__main__":
    sys.exit(main())
