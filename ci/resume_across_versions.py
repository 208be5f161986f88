#!/usr/bin/env python3
"""CI check: checkpoints written by the merge base resume at the head.

A change to pickled protocol or world state can leave a run directory
written by the previous version unable to resume, or resuming into
different numbers.  This script runs in two phases, each against the
library that ``PYTHONPATH`` points at:

1. ``crash DIR`` (the base's ``src`` on ``PYTHONPATH``): for every
   registry protocol, one small-DART point runs in its own run directory
   under ``DIR`` and is crashed right after its 2nd serial checkpoint;
2. ``resume DIR`` (the head's ``src``): every run directory under ``DIR``
   is finished with ``resume_run``.  Each must restore from a checkpoint
   the base wrote, with no ``executor.fallback`` (a checkpoint set aside
   as unloadable, or a trace rebuilt), and end with metrics equal to an
   uninterrupted run of the same point at the head.

Exit code 0 on success; 1 with one line per failed protocol otherwise.

Usage (from the repository root, with the base checked out in ``BASE``)::

    PYTHONPATH=BASE/src python ci/resume_across_versions.py crash resume-base
    PYTHONPATH=src python ci/resume_across_versions.py resume resume-base
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

#: checkpoint cadence in dispatched events: a small-DART point dispatches
#: about 26k, and its packets start at about 6k (the warm-up quarter), so
#: the crash after the 2nd save lands mid-run with every protocol's
#: routing state in use
EVERY_EVENTS = 6000
CRASH_AFTER_SAVES = 2


def log(msg: str) -> None:
    print(f"resume-across-versions: {msg}", flush=True)


def library() -> str:
    """Where ``repro`` was imported from; refuses to run against anything
    but the first ``PYTHONPATH`` entry, so each phase uses the tree it was
    pointed at and not an installed copy."""
    import repro

    where = Path(repro.__file__).resolve()
    first = os.environ.get("PYTHONPATH", "").split(os.pathsep)[0]
    if not first or Path(first).resolve() not in where.parents:
        sys.exit(f"repro imported from {where}, not from PYTHONPATH {first!r}")
    return str(where.parent)


def point_spec(protocol: str):
    from repro.eval.scenario import ScenarioSpec

    return ScenarioSpec.from_dict({
        "name": f"resume-across-versions-{protocol}",
        "trace": {"profile": "DART", "seed": 1, "full_scale": False},
        "sim": {"memory_kb": 2000.0, "rate": 500.0},
        "protocols": [protocol],
        "seeds": [1],
    })


def crash(root: Path) -> int:
    from repro.baselines import protocol_names
    from repro.eval.resume import create_run, run_resumable
    from repro.sim.checkpoint import SimulatedCrash

    log(f"crashing with the library in {library()}")
    for protocol in protocol_names():
        spec = point_spec(protocol)
        run_dir = create_run(root / protocol, spec, every_events=EVERY_EVENTS)
        try:
            run_resumable(
                spec, run_dir, every_events=EVERY_EVENTS,
                injections={0: {"crash_after_saves": CRASH_AFTER_SAVES}},
            )
        except SimulatedCrash:
            log(f"{protocol}: crashed after checkpoint {CRASH_AFTER_SAVES}")
        else:
            sys.exit(f"{protocol}: finished without reaching checkpoint {CRASH_AFTER_SAVES}")
    return 0


def values(summary) -> dict:
    out = summary.as_dict()
    out.pop("provenance", None)
    out.pop("phase_timings", None)
    return json.loads(json.dumps(out))


def resume(root: Path) -> int:
    from repro.eval.resume import resume_run
    from repro.eval.scenario import run_scenario
    from repro.sim.checkpoint import RecoveryLog, RunDir

    log(f"resuming with the library in {library()}")
    runs = sorted(p for p in root.iterdir() if (p / "manifest.json").is_file())
    if not runs:
        sys.exit(f"no run directories under {root}")
    failures = []
    for path in runs:
        try:
            result, _, spec = resume_run(path)
        except Exception as exc:  # report every protocol, not just the first
            failures.append(f"{path.name}: resume raised {type(exc).__name__}: {exc}")
            continue
        (fresh,) = run_scenario(spec).results
        records = RecoveryLog(RunDir(path).recovery_path).records()
        restored = [r for r in records if r["event"] == "executor.resume"]
        fallbacks = [r for r in records if r["event"] == "executor.fallback"]
        if fallbacks:
            failures.append(f"{path.name}: executor.fallback {fallbacks[0]}")
        elif not restored:
            failures.append(f"{path.name}: restored from no checkpoint")
        elif values(result.results[0].metrics) != values(fresh.metrics):
            failures.append(f"{path.name}: resumed metrics differ from an uninterrupted run")
        else:
            log(f"{path.name}: resumed from {restored[-1].get('checkpoint')}, metrics equal")
    for line in failures:
        print(f"resume-across-versions: FAIL {line}", file=sys.stderr)
    return 1 if failures else 0


def main(argv: "list[str]") -> int:
    if len(argv) != 2 or argv[0] not in ("crash", "resume"):
        print(__doc__, file=sys.stderr)
        return 2
    root = Path(argv[1])
    if argv[0] == "crash":
        root.mkdir(parents=True, exist_ok=True)
        return crash(root)
    return resume(root)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
