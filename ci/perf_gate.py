#!/usr/bin/env python
"""CI perf gate: serial wall-clock budget for the ci fig11 scenario.

Runs ``ci/profile-fig11.json`` in-process through ``run_scenario``
(best-of-N, warm trace cache, trace materialization outside the timed
window, no phase timing) and fails if the fastest run exceeds a pinned
wall-clock budget.  The pin carries roughly 2x
headroom over the post-overhaul floor (~1.3 s on the benchmark machine,
call it ~3 s on a shared runner), so it trips on a real hot-path
regression — the pre-overhaul engine took ~5.2 s locally, well past the
pin on any runner — without flaking on machine noise.

On failure a span tree of the slow run is exported to
``perf_gate_span_tree.json`` so the regressed layer is visible straight
from the CI artifact — see docs/performance.md ("How to profile a
regression") for how to read it.
"""

from __future__ import annotations

import os
import subprocess
import sys
from time import perf_counter

from repro.eval.scenario import load_scenario, run_scenario

SCENARIO = os.environ.get("REPRO_PERF_SCENARIO", "ci/profile-fig11.json")
#: pinned serial wall-clock budget in seconds (override to re-pin)
BUDGET = float(os.environ.get("REPRO_PERF_BUDGET", "6.0"))
#: best-of-N runs to approximate the noise-free floor
RUNS = int(os.environ.get("REPRO_PERF_RUNS", "3"))
SPAN_TREE = "perf_gate_span_tree.json"


def main() -> int:
    spec = load_scenario(SCENARIO).validate()
    traces: dict = {}
    run_scenario(spec, traces=traces)  # warm-up: fills the trace cache
    times = []
    for i in range(RUNS):
        t0 = perf_counter()
        run_scenario(spec, traces=traces)
        times.append(perf_counter() - t0)
        print(f"[perf-gate] run {i + 1}/{RUNS}: {times[-1]:.3f}s")
    best = min(times)
    verdict = "OK" if best <= BUDGET else "FAIL"
    print(f"[perf-gate] best {best:.3f}s, budget {BUDGET:.3f}s -> {verdict}")
    if best <= BUDGET:
        return 0
    # over budget: export a span tree so the artifact names the slow layer
    rc = subprocess.call(
        [sys.executable, "-m", "repro", "profile", SCENARIO, "--span-tree", SPAN_TREE]
    )
    if rc != 0:
        print(f"[perf-gate] span-tree export exited {rc}", file=sys.stderr)
    else:
        print(f"[perf-gate] span tree -> {SPAN_TREE}")
    return 1


if __name__ == "__main__":
    sys.exit(main())
