"""Parallel sweep executor: wall-clock speedup benchmark.

Runs a representative two-protocol memory-sweep scenario serially and
through the process-pool executor, asserts bit-identical results, and records both
wall-clock times (and the speedup) into ``BENCH_sweeps.json`` via the
conftest recorder — the perf trajectory future PRs build on.

The ≥ 1.7× speedup criterion only applies on machines with at least four
cores (CI's 4-core runners); on smaller boxes the timings are recorded but
the ratio is not asserted.
"""

from __future__ import annotations

import os
from time import perf_counter

from repro.eval.scenario import run_scenario

from .conftest import emit, record_bench, trace_cache

PROTOCOLS = ("DTN-FLOW", "PROPHET")


def test_parallel_memory_sweep_speedup(dart_trace, dart_profile, memory_grid):
    n_cores = os.cpu_count() or 1
    n_jobs = min(4, n_cores)
    spec = dart_profile.scenario(
        protocols=PROTOCOLS, seeds=(3,), trace_seed=1, rate=500.0,
        sweep={"parameter": "memory_kb", "values": memory_grid},
    )

    t0 = perf_counter()
    serial = run_scenario(spec, jobs=1, traces=trace_cache(spec, dart_trace))
    t_serial = perf_counter() - t0

    t0 = perf_counter()
    parallel = run_scenario(spec, jobs=n_jobs, traces=trace_cache(spec, dart_trace))
    t_parallel = perf_counter() - t0

    # determinism: parallel execution is bit-identical to serial, down to
    # each point's provenance
    assert parallel.sweep_result().series == serial.sweep_result().series
    assert [r.metrics.provenance for r in parallel.results] == [
        r.metrics.provenance for r in serial.results
    ]

    speedup = t_serial / t_parallel if t_parallel > 0 else float("inf")
    record_bench("memory_sweep_2proto", {
        "protocols": list(PROTOCOLS),
        "points": len(memory_grid) * len(PROTOCOLS),
        "jobs": n_jobs,
        "cpu_count": n_cores,
        "serial_seconds": round(t_serial, 3),
        "parallel_seconds": round(t_parallel, 3),
        "speedup": round(speedup, 3),
    })
    emit(
        "Parallel sweep executor: 2-protocol DART memory sweep",
        f"serial {t_serial:.2f} s vs jobs={n_jobs} {t_parallel:.2f} s "
        f"-> {speedup:.2f}x on {n_cores} cores",
    )
    if n_cores >= 4:
        assert speedup >= 1.7, (
            f"expected >= 1.7x speedup at jobs={n_jobs} on {n_cores} cores, "
            f"got {speedup:.2f}x"
        )
