"""Shared plumbing for the benchmark: bootstrap, gates, stats, results.

The benchmark runs from the root of a source checkout and always measures
the ``repro`` package in that checkout's ``src/`` — never an installed
copy — so :func:`bootstrap` must run before anything imports ``repro``.
"""

from __future__ import annotations

import ctypes
import heapq
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, Iterator, List, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPEC_PATH = ROOT / "BENCHMARK.json"
#: working space for run directories, stores and server roots; removed when
#: a run ends (the benchmark reads and writes only inside its checkout)
WORK_ROOT = ROOT / ".bench_work"

#: set-up is repeated this many times per run and its median reported
SETUP_REPEATS = 5


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing sources, bad arguments)."""


def bootstrap() -> None:
    """Make the checkout's ``src/`` the only source of ``repro``.

    Also pins ``REPRO_FULL_SCALE=0`` (the workloads define their own sizes)
    and exports ``PYTHONPATH`` so server subprocesses import the same code.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no repro sources under {SRC}; run from a source checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    os.environ["REPRO_FULL_SCALE"] = "0"
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p
    )
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise BenchError(f"imported repro from {repro.__file__}, not from {SRC}")


#: prctl(2) option making a process the reaper of its orphaned descendants
PR_SET_CHILD_SUBREAPER = 36


def adopt_orphans() -> None:
    """Make this process the parent of every orphan among its descendants
    (Linux), so :func:`end_descendants` can wait for all of them: a pool
    or shard worker whose parent ended before it would otherwise be
    reparented out of reach."""
    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
    libc.prctl.restype = ctypes.c_int
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER) failed")


def _children() -> List[int]:
    pids: List[int] = []
    for task in Path("/proc/self/task").iterdir():
        try:
            pids += [int(p) for p in (task / "children").read_text().split()]
        except OSError:
            continue  # the thread ended between listing and reading
    return pids


def end_descendants(grace: float = 10.0) -> None:
    """Wait until no process this one started, or adopted, is left.

    Each gets ``grace`` seconds to end on its own; what still runs then is
    killed.  Every process is reaped before this returns.
    """
    deadline = time.monotonic() + grace
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        if time.monotonic() > deadline:
            for pid in _children():
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        time.sleep(0.01)


@contextmanager
def work_dir(name: str) -> Iterator[Path]:
    """A fresh directory under :data:`WORK_ROOT`, removed with its contents
    (and the root, once empty) when the block ends."""
    path = WORK_ROOT / f"{os.getpid()}-{name}"
    path.mkdir(parents=True, exist_ok=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run still uses it


def load_spec(path: Path = SPEC_PATH) -> Dict[str, Any]:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read {path}: {exc}") from None


def metric_units(spec: Dict[str, Any], kind: str) -> Dict[str, str]:
    """``{name: unit}`` for the ``end_to_end`` or ``per_layer`` list."""
    return {m["name"]: m["unit"] for m in spec[kind]}


# -- correctness gate ------------------------------------------------------------


@dataclass
class Gate:
    """Counts correctness checks; every failure is kept with its reason."""

    attempted: int = 0
    failures: List[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    def conserves(self, metrics: Dict[str, Any], label: str) -> bool:
        """Packets cannot be delivered or expire more often than generated."""
        delivered, dropped, generated = (
            metrics["delivered"], metrics["dropped_ttl"], metrics["generated"]
        )
        return self.check(
            delivered + dropped <= generated,
            f"{label}: delivered {delivered} + dropped_ttl {dropped} "
            f"> generated {generated}",
        )

    def same(self, got: Dict[str, Any], want: Dict[str, Any], label: str) -> bool:
        diff = sorted(k for k in set(got) | set(want) if got.get(k) != want.get(k))
        return self.check(not diff, f"{label}: metrics differ on {diff}")


def metric_values(result: Any) -> Dict[str, Any]:
    """A result's metrics as plain JSON values, without provenance/timings.

    Provenance legitimately differs between execution paths (sharded runs
    stamp an ``execution`` block) and phase timings are wall clock; the
    metric values themselves must be identical.
    """
    out = getattr(result, "metrics", result).as_dict()
    out.pop("provenance", None)
    out.pop("phase_timings", None)
    return json.loads(json.dumps(out))


# -- measurement helpers -----------------------------------------------------------


def cycles(seconds: float) -> Iterator[int]:
    """Yield cycle numbers while another cycle is predicted to end in time.

    At least one cycle always runs; a further one starts only when the mean
    cycle so far would still finish within ``seconds``.
    """
    start = perf_counter()
    n = 0
    while True:
        yield n
        n += 1
        elapsed = perf_counter() - start
        if elapsed + elapsed / n > seconds:
            return


def timed_median(clock: "HostClock", fn, repeats: int = SETUP_REPEATS):
    """Call ``fn`` ``repeats`` times; return (median scaled seconds, last result)."""
    times = []
    result = None
    for _ in range(repeats):
        seconds, result = clock.time(fn)
        times.append(seconds)
    return statistics.median(times), result


def median(values: Sequence[float]) -> float:
    if not values:
        raise BenchError("median of no samples")
    return float(statistics.median(values))


def percentile(values: Sequence[float], pct: int) -> float:
    """The ``pct``-th percentile, interpolated between samples."""
    if not values:
        raise BenchError(f"p{pct} of no samples")
    if len(values) == 1:
        return float(values[0])
    return float(statistics.quantiles(values, n=100, method="inclusive")[pct - 1])


# -- host speed ----------------------------------------------------------------------
#
# The host is shared.  Each of its CPUs flips, every few seconds, between a
# fast state and one about half as fast (another tenant busy on the same
# core), and slow spells can last minutes, so raw times of one run spread
# 20-45% over ten runs.  A probe process, pinned with the benchmark to one
# CPU, times a short fixed loop every few tens of milliseconds; a timed call
# is scaled by how slow the probe ran while the call ran.

#: the probe loop's seconds in the fast state of the host the benchmark was
#: tuned on (2-vCPU Xeon VM, Python 3.11): scaled times are fast-state times
PROBE_NOMINAL_S = 0.00145
PROBE_ITERATIONS = 1_500
PROBE_INTERVAL_S = 0.05
#: a reading this many times the run's 5th-percentile reading lost the CPU
#: to another process mid-loop rather than ran slowly, and is dropped
PROBE_PREEMPTED = 2.5
#: a call shorter than this many readings is scaled by the latest readings
PROBE_MIN_READINGS = 3
#: how far the benchmark lowers its own priority below the probe's, so the
#: probe runs its loop without losing the CPU
PRIORITY_DROP = 10


class _Item:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: float) -> None:
        self.key = key
        self.value = value


def _probe_loop(n: int) -> float:
    """What the simulator does most: small objects, attribute reads, dict
    and heap operations and float arithmetic."""
    heap: List[Any] = []
    table: Dict[int, _Item] = {}
    acc = 0.0
    for i in range(n):
        item = _Item(i, i * 0.5)
        heapq.heappush(heap, (item.value * 1.7 % 97.0, i))
        table[i % 512] = item
        other = table.get((i * 7) % 512)
        if other is not None:
            acc += other.value
        if len(heap) > 64:
            heapq.heappop(heap)
    return acc


def probe_main() -> None:
    """The probe process: every :data:`PROBE_INTERVAL_S` it times the loop
    and appends ``<wall-clock start> <seconds>`` to the file named on its
    command line.  It ends when its parent does."""
    parent = os.getppid()
    with open(sys.argv[1], "a", buffering=1) as out:
        while os.getppid() == parent:
            time.sleep(PROBE_INTERVAL_S)
            start = time.time()
            t0 = perf_counter()
            _probe_loop(PROBE_ITERATIONS)
            out.write(f"{start!r} {perf_counter() - t0!r}\n")


def pin_to_one_cpu() -> None:
    """Pin this process, and so every process it starts, to one CPU: the
    one a :class:`HostClock` started afterwards reads.  Lower the priority
    with ``os.nice(PRIORITY_DROP)`` once the clock runs."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class HostClock:
    """Times calls in host-scaled seconds, read off a probe process.

    A call taking ``s`` seconds while the probe's readings averaged ``p``
    is reported as ``s * PROBE_NOMINAL_S / p``: the seconds it would have
    taken in the host's fast state.  A change that slows the program
    slows the scaled time by as much, since the probe runs the benchmark's
    own loop.  Use as a context manager; it stops and waits for the probe.
    """

    def __init__(self, work: Path) -> None:
        self._path = work / "probe.log"
        self._path.write_text("")
        self._log = open(self._path)
        self._pending = ""
        self.readings: List[Any] = []
        self._proc = subprocess.Popen(
            [sys.executable, "-c", "from bench.harness import probe_main; probe_main()",
             str(self._path)],
            cwd=str(ROOT),
        )
        deadline = perf_counter() + 30.0
        while not self._poll():
            if perf_counter() > deadline or self._proc.poll() is not None:
                self.close()
                raise BenchError("the host probe never reported")
            time.sleep(PROBE_INTERVAL_S)

    def close(self) -> None:
        if self._proc.poll() is None:
            self._proc.terminate()
        self._proc.wait()
        self._log.close()

    def __enter__(self) -> "HostClock":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def _poll(self) -> int:
        """Read the probe's new lines; returns how many readings there are."""
        lines = (self._pending + self._log.read()).split("\n")
        self._pending = lines.pop()
        for line in lines:
            start, seconds = line.split()
            self.readings.append((float(start), float(seconds)))
        return len(self.readings)

    def probe_seconds(self, start: float = float("-inf"), end: float = float("inf")) -> float:
        """Mean probe reading over the wall-clock window ``[start, end]``."""
        self._poll()
        times = sorted(seconds for _, seconds in self.readings)
        cutoff = PROBE_PREEMPTED * times[len(times) // 20]
        kept = [(t, seconds) for t, seconds in self.readings if seconds <= cutoff]
        window = [seconds for t, seconds in kept if start <= t <= end]
        if len(window) < PROBE_MIN_READINGS:
            window = [seconds for t, seconds in kept if t <= end][-PROBE_MIN_READINGS:]
        return statistics.fmean(window)

    def scale(self, seconds: float, start: float, end: float) -> float:
        """``seconds`` measured over the wall-clock window, host-scaled."""
        return seconds * PROBE_NOMINAL_S / self.probe_seconds(start, end)

    def speed(self) -> float:
        """The host's mean speed so far, 1.0 being its fast state."""
        return PROBE_NOMINAL_S / self.probe_seconds()

    def time(self, fn, *args, **kwargs):
        """Call ``fn``; return (scaled seconds, its result)."""
        start = time.time()
        t0 = perf_counter()
        result = fn(*args, **kwargs)
        seconds = perf_counter() - t0
        return self.scale(seconds, start, time.time()), result


def self_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def children_rss_mb() -> float:
    """Peak RSS of the largest reaped descendant (Linux ``RUSAGE_CHILDREN``)."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def tree_hwm_mb(pid: int) -> float:
    """Largest ``VmHWM`` over a live process and its descendants (Linux)."""
    peak = 0.0
    todo = [pid]
    while todo:
        p = todo.pop()
        try:
            for line in Path(f"/proc/{p}/status").read_text().splitlines():
                if line.startswith("VmHWM:"):
                    peak = max(peak, int(line.split()[1]) / 1024.0)
            for task in Path(f"/proc/{p}/task").iterdir():
                todo.extend(int(c) for c in (task / "children").read_text().split())
        except OSError:
            continue  # exited between listing and reading
    return peak


# -- results -------------------------------------------------------------------------


@dataclass
class WorkloadRun:
    """What one workload function hands back to the runner."""

    end_to_end: Dict[str, float]
    per_layer: Dict[str, float]
    gate: Gate
    #: the traced pass's span dump (``--trace`` only)
    trace: Optional[Dict[str, Any]] = None


def fingerprint() -> Dict[str, Any]:
    """What makes two outputs comparable, plus the commit they measured."""
    import numpy

    from repro.eval.config import full_scale

    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "full_scale": full_scale(),
        "git_sha": git_sha(),
    }


#: fingerprint keys that must match for two outputs to be compared
COMPARABLE_KEYS = ("cpu_count", "python", "numpy", "platform", "full_scale")


def git_sha() -> Optional[str]:
    """HEAD's commit; None outside a git checkout or without git.

    The ceiling stops git from finding a repository above the checkout.
    """
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=10.0,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def result_line(run: WorkloadRun, units: Dict[str, str], traced: bool) -> Dict[str, Any]:
    """The one-line JSON result for a workload run.

    Untraced, every end-to-end metric must be present.  Traced, a layer the
    workload never enters did no work and reports zero.  An unknown or
    missing name is a benchmark bug and raises.
    """
    values = run.per_layer if traced else run.end_to_end
    unknown = sorted(set(values) - set(units))
    if unknown:
        raise BenchError(f"metrics missing from BENCHMARK.json: {unknown}")
    if traced:
        values = {name: values.get(name, 0.0) for name in units}
    missing = sorted(set(units) - set(values))
    if missing:
        raise BenchError(f"metrics not produced: {missing}")
    return {
        "correct": not run.gate.failures,
        "attempted": run.gate.attempted,
        "failed": len(run.gate.failures),
        "metrics": {
            name: {"value": float(values[name]), "unit": unit}
            for name, unit in units.items()
        },
    }
