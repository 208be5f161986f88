#!/usr/bin/env python
"""CI profile smoke: profiler overhead gate + artifact sanity.

Two checks on the CI-scale fig11 manifest (``ci/profile-fig11.json``):

1. **Overhead** — the grid run through ``runner.execute`` with every
   point's phases timed on a span recorder must stay within
   ``REPRO_PROFILE_OVERHEAD`` (default 5%) of the same grid run with no
   recorder, best of 4 interleaved pairs, plus an absolute slack floor
   for sub-second runs on noisy CI machines.
2. **Accounting** — ``repro profile`` must emit a flamegraph and a span
   tree whose root cumulative seconds match the reported wall-clock
   within 5%.

Artifacts (``flamegraph.txt``, ``span_tree.json``, ``profile.json``)
are left in the working directory for upload.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from contextlib import nullcontext
from time import perf_counter

from repro.eval.runner import execute
from repro.eval.scenario import load_scenario
from repro.obs import Observability, SpanRecorder

SCENARIO = os.environ.get("REPRO_PROFILE_SCENARIO", "ci/profile-fig11.json")
#: relative overhead budget for span instrumentation (fraction)
OVERHEAD = float(os.environ.get("REPRO_PROFILE_OVERHEAD", "0.05"))
#: absolute slack (seconds) so sub-second runs don't gate on timer noise
SLACK = float(os.environ.get("REPRO_PROFILE_SLACK", "0.25"))


def timed_run(entries, traces, timed: bool) -> float:
    """Wall seconds of one in-process grid run; ``timed`` gives every
    point its own span recorder."""
    observe = None
    if timed:
        def observe(index, point):
            return nullcontext(Observability(spans=SpanRecorder()))

    t0 = perf_counter()
    execute(entries, traces=traces, observe=observe)
    return perf_counter() - t0


def check_overhead(spec) -> int:
    profile, tspec, traces = spec.resolve_trace()
    entries = spec.entries(profile, tspec)
    # the warm-up fills ``traces``, so no timed run builds a trace; then
    # interleave base/instrumented pairs so slow-machine noise (easily
    # +-20% on shared CI runners) hits both sides equally; best-of-N
    # approximates the noise-free floor
    timed_run(entries, traces, timed=False)
    base, spans = [], []
    for _ in range(4):
        base.append(timed_run(entries, traces, timed=False))
        spans.append(timed_run(entries, traces, timed=True))
    best_base, best_spans = min(base), min(spans)
    budget = best_base * (1 + OVERHEAD) + SLACK
    verdict = "OK" if best_spans <= budget else "FAIL"
    print(
        f"[overhead] base {best_base:.3f}s, spans {best_spans:.3f}s "
        f"({(best_spans / best_base - 1) * 100:+.1f}% on {os.cpu_count()} "
        f"cores), budget {budget:.3f}s -> {verdict}"
    )
    return 0 if best_spans <= budget else 1


def check_profile_cli() -> int:
    cmd = [
        sys.executable, "-m", "repro", "profile", SCENARIO,
        "--flamegraph", "flamegraph.txt",
        "--span-tree", "span_tree.json",
        "--out", "profile.json",
    ]
    print("[profile]", " ".join(cmd))
    rc = subprocess.call(cmd)
    if rc != 0:
        print(f"[profile] repro profile exited {rc}")
        return 1
    failures = 0
    for path in ("flamegraph.txt", "span_tree.json", "profile.json"):
        if not os.path.exists(path) or os.path.getsize(path) == 0:
            print(f"[profile] missing or empty artifact: {path}")
            failures += 1
    if failures:
        return failures
    with open("profile.json", encoding="utf-8") as fh:
        payload = json.load(fh)
    wall = payload["wall_seconds"]
    root = payload["span_tree"]["seconds"]
    drift = abs(root - wall) / wall if wall else 0.0
    verdict = "OK" if drift <= 0.05 else "FAIL"
    print(
        f"[accounting] wall {wall:.3f}s, root span {root:.3f}s, "
        f"drift {drift * 100:.2f}% -> {verdict}"
    )
    if drift > 0.05:
        failures += 1
    if payload["n_samples"] <= 0:
        print("[accounting] sampler collected no stacks")
        failures += 1
    return failures


def main() -> int:
    spec = load_scenario(SCENARIO).validate()
    failures = check_overhead(spec)
    failures += check_profile_cli()
    print("profile smoke:", "PASS" if not failures else f"{failures} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
