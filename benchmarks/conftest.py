"""Shared fixtures for the benchmark harness.

Each benchmark regenerates one table or figure of the paper's evaluation
(see DESIGN.md section 4 for the index) and prints the rows/series the
paper reports.  Workloads are scaled down by default; set
``REPRO_FULL_SCALE=1`` for paper-scale runs (slow).

Shape assertions are deliberately loose: we check orderings and trends
(who wins, what rises/falls), not absolute numbers — our substrate is a
synthetic-trace simulator, not the authors' testbed.

Wall-clock tracking: the suite records its total duration and each
benchmark's call-phase duration, plus whatever extra measurements tests
register via :func:`record_bench` (the parallel-speedup benchmark uses
this), and appends them to the ``BENCH_sweeps.json`` history at session
end — the perf trajectory future PRs compare against.  Every snapshot
carries the same host fingerprint as a ``python -m bench`` output (cores,
python, numpy, platform, ``full_scale`` and git SHA).  Each new snapshot
is also ingested into the experiment store (``$REPRO_DB`` or
``experiments.sqlite``) so ``repro db report`` can chart suite wall-clock
over time; ingest failures never fail the benchmark session.  ``--jobs N``
(or ``auto``) routes the Fig. 11-14 sweeps through the parallel executor.
"""

from __future__ import annotations

import json
import os
import resource
import time
from time import perf_counter
from typing import Dict

import pytest

from bench.harness import fingerprint
from repro.eval.config import full_scale, sweep_grid, trace_profile
from repro.eval.runner import parse_jobs
from repro.eval.scenario import preset_scenario, run_scenario
from repro.mobility.trace import Trace

_BENCH: Dict[str, object] = {"figures": {}, "extra": {}}
_SESSION_T0 = perf_counter()


def record_bench(key: str, value) -> None:
    """Register an extra measurement for the BENCH_sweeps.json export."""
    _BENCH["extra"][key] = value


def pytest_addoption(parser):
    parser.addoption(
        "--jobs", action="store", default="1",
        help="worker processes for the sweep benchmarks ('auto' = all cores)",
    )


@pytest.fixture(scope="session")
def jobs(request) -> int:
    """Worker-process count for the parallel sweep executor (--jobs)."""
    return parse_jobs(request.config.getoption("--jobs"))


def pytest_sessionstart(session):
    global _SESSION_T0
    _SESSION_T0 = perf_counter()


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    t0 = perf_counter()
    yield
    _BENCH["figures"][item.name] = round(perf_counter() - t0, 4)


def _load_bench_history(path: str) -> list:
    """Existing snapshots at ``path`` (legacy single-snapshot files become a
    one-entry history); unreadable/foreign files start a fresh history."""
    try:
        with open(path) as fh:
            existing = json.load(fh)
    except (OSError, json.JSONDecodeError):
        return []
    if isinstance(existing, dict) and isinstance(existing.get("history"), list):
        return [s for s in existing["history"] if isinstance(s, dict)]
    if isinstance(existing, dict) and existing.get("suite") == "benchmarks":
        return [existing]
    return []


def _ingest_bench(session, snapshot: dict) -> None:
    """Best-effort ingest of the new snapshot into the experiment store."""
    try:
        from repro.store import ExperimentDB, ingest_bench_snapshot

        db_path = os.environ.get("REPRO_DB") or os.path.join(
            str(session.config.rootpath), "experiments.sqlite"
        )
        with ExperimentDB(db_path) as db:
            ingest_bench_snapshot(db, snapshot)
        print(f"ingested benchmark snapshot into {db_path}")
    except Exception as exc:  # never fail the benchmark session over storage
        print(f"benchmark snapshot not ingested: {exc}")


def pytest_sessionfinish(session, exitstatus):
    if not _BENCH["figures"] and not _BENCH["extra"]:
        return  # nothing ran (collection error / --collect-only)
    snapshot = {
        "suite": "benchmarks",
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "suite_seconds": round(perf_counter() - _SESSION_T0, 3),
        # ru_maxrss is kB on Linux: peak RSS of this benchmark session, so
        # "memory stays bounded" claims are measured rather than asserted
        "max_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "jobs": str(session.config.getoption("--jobs", default="1")),
        # the host fingerprint `python -m bench` stamps into its outputs
        **fingerprint(),
        "figures": _BENCH["figures"],
        "parallel": _BENCH["extra"],
    }
    out = os.environ.get(
        "REPRO_BENCH_OUT",
        os.path.join(str(session.config.rootpath), "BENCH_sweeps.json"),
    )
    history = _load_bench_history(out) + [snapshot]
    payload = {"suite": "benchmarks", "history": history}
    with open(out, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"\nappended benchmark wall-clock timings to {out} "
          f"({len(history)} snapshot(s))")
    _ingest_bench(session, snapshot)


@pytest.fixture(scope="session")
def dart_profile():
    return trace_profile("DART")


@pytest.fixture(scope="session")
def dnet_profile():
    return trace_profile("DNET")


@pytest.fixture(scope="session")
def dart_trace(dart_profile) -> Trace:
    return dart_profile.build(1)


@pytest.fixture(scope="session")
def dnet_trace(dnet_profile) -> Trace:
    return dnet_profile.build(1)


@pytest.fixture(scope="session")
def memory_grid():
    """Fig. 11/12 x-axis; the full 10-point grid under REPRO_FULL_SCALE."""
    return list(sweep_grid("memory_kb", full_scale()))


def emit(title: str, body: str) -> None:
    """Print a banner + body so the regenerated table stands out in logs."""
    bar = "=" * max(len(title), 30)
    print(f"\n{bar}\n{title}\n{bar}\n{body}\n")


def run_preset_sweep(preset: str, *, jobs: int, trace: Trace):
    """Run a named fig11-14 preset scenario and fold it to a SweepResult.

    The Fig. 11-14 benchmarks are exactly the named preset scenarios — the
    same declarative manifests ``repro scenario run`` executes — so the
    benchmark parameters live in one place.  ``trace`` seeds the trace
    cache with the session-scoped trace fixture, so neither the serial
    path nor a per-call pool's workers rebuild it.
    """
    spec = preset_scenario(preset)
    return run_scenario(
        spec, jobs=jobs, traces=trace_cache(spec, trace)
    ).sweep_result()


def trace_cache(spec, trace: Trace) -> dict:
    """A trace cache holding ``trace`` under ``spec``'s trace key."""
    return {spec.entries()[0][0].key: trace}
