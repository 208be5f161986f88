#!/usr/bin/env python3
"""CI smoke for ``repro serve``: HTTP-driven gate grid + kill -9 recovery.

What it proves, end to end, against a real server subprocess:

1. a scenario submitted over ``POST /v1/jobs`` runs to completion and its
   SSE stream carries the full per-point lifecycle (the transcript is
   uploaded as a CI artifact);
2. ``kill -9`` of the server mid-second-job loses nothing: a restart on
   the same run root re-queues the unfinished job and resumes it from its
   committed points;
3. everything recorded over HTTP gates against the committed CI baseline
   at **zero tolerance** — serving is an execution detail, never a result
   change.

Exit code 0 on success; non-zero with a diagnostic otherwise.

Usage: ``python ci/serve_smoke.py`` (from the repository root).
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import threading
import time

_SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))
sys.path.insert(0, _SRC)
# subprocesses must resolve ``repro`` the same way this process does
_ENV = dict(os.environ)
_ENV["PYTHONPATH"] = _SRC + os.pathsep + _ENV.get("PYTHONPATH", "")

from repro.serve import ServeClient  # noqa: E402

RUN_ROOT = "serve-smoke-runs"
DB = "serve-gate.sqlite"
TRANSCRIPT = "serve-sse-transcript.txt"
BASELINE = os.path.join("ci", "regression-baseline.json")
SCENARIOS = (
    os.path.join("ci", "regression-scenario.json"),
    os.path.join("ci", "regression-faulted-scenario.json"),
)
WAIT = 900.0  # per-phase deadline on a loaded CI runner

_PORT_RE = re.compile(r"listening on http://([\d.]+):(\d+)")


def log(msg: str) -> None:
    print(f"serve-smoke: {msg}", flush=True)


def start_server() -> "tuple[subprocess.Popen, ServeClient]":
    """Launch ``repro serve`` on an ephemeral port; parse the bound address."""
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--host", "127.0.0.1", "--port", "0",
            "--run-root", RUN_ROOT, "--record", "--db", DB,
        ],
        stderr=subprocess.PIPE,
        text=True,
        env=_ENV,
    )
    deadline = time.monotonic() + 60.0
    address = None
    while time.monotonic() < deadline:
        line = proc.stderr.readline()
        if not line:
            break
        sys.stderr.write(line)
        match = _PORT_RE.search(line)
        if match:
            address = (match.group(1), int(match.group(2)))
            break
    if address is None:
        proc.kill()
        raise SystemExit("server never reported its listening address")
    # keep draining stderr so the server can't block on a full pipe
    threading.Thread(
        target=lambda: [sys.stderr.write(l) for l in proc.stderr],
        daemon=True,
    ).start()
    client = ServeClient(f"http://{address[0]}:{address[1]}", timeout=WAIT)
    for _ in range(100):
        try:
            client.health()
            return proc, client
        except Exception:
            time.sleep(0.1)
    proc.kill()
    raise SystemExit("server bound but never became healthy")


def capture_transcript(client: ServeClient, job_id: str, path: str) -> None:
    """Append one job's full SSE stream to the transcript artifact."""
    with open(path, "a", encoding="utf-8") as fh:
        try:
            for event, data in client.events(job_id):
                fh.write(f"{job_id} {event} {data}\n")
        except Exception as exc:  # stream dies with the killed server
            fh.write(f"{job_id} <stream-ended {type(exc).__name__}>\n")


def main() -> int:
    for stale in (RUN_ROOT, DB, TRANSCRIPT):
        if os.path.exists(stale) and not os.path.isdir(stale):
            os.remove(stale)

    proc, client = start_server()
    killed = False
    try:
        # --- phase 1: full grid over HTTP, SSE transcript captured ---------
        job1 = client.submit(SCENARIOS[0], label="serve-smoke-gate")
        log(f"submitted {SCENARIOS[0]} as {job1['id']} "
            f"({job1['n_points']} points)")
        stream1 = threading.Thread(
            target=capture_transcript, args=(client, job1["id"], TRANSCRIPT)
        )
        stream1.start()
        final1 = client.wait(job1["id"], timeout=WAIT)
        stream1.join(timeout=30.0)
        if final1["state"] != "done":
            raise SystemExit(f"job 1 ended {final1['state']!r}: "
                             f"{final1.get('error')}")
        log(f"job 1 done: {final1['done_points']}/{final1['n_points']} "
            f"points, recorded: {final1['recorded']}")

        # --- phase 2: kill -9 mid-second-job -------------------------------
        job2 = client.submit(SCENARIOS[1], label="serve-smoke-faulted")
        log(f"submitted {SCENARIOS[1]} as {job2['id']}")
        stream2 = threading.Thread(
            target=capture_transcript, args=(client, job2["id"], TRANSCRIPT)
        )
        stream2.start()
        deadline = time.monotonic() + WAIT
        while time.monotonic() < deadline:
            record = client.job(job2["id"])
            if record["state"] == "done":
                raise SystemExit(
                    "job 2 finished before the kill; scenario too small "
                    "for the crash window"
                )
            if record["state"] == "running" and record["done_points"] >= 1:
                break
            time.sleep(0.05)
        else:
            raise SystemExit("job 2 never committed a point")
        log(f"kill -9 with job 2 at {record['done_points']} committed "
            f"point(s)")
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=30.0)
        killed = True
        stream2.join(timeout=30.0)
    finally:
        if not killed and proc.poll() is None:
            proc.kill()
            proc.wait(timeout=30.0)

    # --- phase 3: restart recovers and finishes the queued job -------------
    proc, client = start_server()
    try:
        jobs = {j["id"]: j for j in client.jobs()}
        if jobs[job1["id"]]["state"] != "done":
            raise SystemExit("restart lost the completed job's terminal state")
        if jobs[job2["id"]]["state"] not in ("queued", "running"):
            raise SystemExit(
                f"job 2 should have been re-queued, is "
                f"{jobs[job2['id']]['state']!r}"
            )
        stream2b = threading.Thread(
            target=capture_transcript, args=(client, job2["id"], TRANSCRIPT)
        )
        stream2b.start()
        final2 = client.wait(job2["id"], timeout=WAIT)
        stream2b.join(timeout=30.0)
        if final2["state"] != "done":
            raise SystemExit(f"recovered job ended {final2['state']!r}: "
                             f"{final2.get('error')}")
        log(f"job 2 resumed to done: {final2['done_points']}"
            f"/{final2['n_points']} points, recorded: {final2['recorded']}")
    finally:
        proc.send_signal(signal.SIGINT)
        try:
            proc.wait(timeout=30.0)
        except subprocess.TimeoutExpired:
            proc.kill()

    # --- phase 4: zero-tolerance gate over everything served ---------------
    verdict = subprocess.run(
        [
            sys.executable, "-m", "repro", "db", "regress",
            "--db", DB, "--baseline-file", BASELINE,
            "--out", "serve-regress-verdict.json",
        ],
        env=_ENV,
    )
    if verdict.returncode != 0:
        raise SystemExit(
            "HTTP-served results drifted from the committed baseline"
        )
    log("zero-tolerance gate passed; transcript in " + TRANSCRIPT)
    return 0


if __name__ == "__main__":
    sys.exit(main())
