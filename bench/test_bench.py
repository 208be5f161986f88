"""Tests for the benchmark harness: every workload at a tiny size.

Run from the checkout root: ``python -m pytest bench/test_bench.py -q``.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
import time

import pytest

from bench import harness

harness.bootstrap()

from bench import compare as bench_compare  # noqa: E402
from bench import workloads  # noqa: E402
from bench.tracing import Tracer, traced  # noqa: E402

SPEC = harness.load_spec()

TINY = {
    "fig11-sweep": dict(points=4),
    "campus-stream": dict(
        campus=dict(
            n_nodes=60, n_departments=3, buildings_per_department=2, n_dorms=3,
            n_dining=1, n_misc=1, days=3, holidays=(),
        ),
        min_success=0.0,
    ),
    "serve-dnet": dict(rate=2.0, open_jobs=3, traced_jobs=1),
    "crash-resume": dict(protocols=("DTN-FLOW",), every_events=2000),
}


def test_tiny_sizes_cover_every_workload():
    assert set(TINY) == set(workloads.WORKLOADS) == {w["name"] for w in SPEC["workloads"]}


@pytest.fixture(scope="module", params=sorted(TINY))
def tiny_run(request, tmp_path_factory):
    name = request.param
    work = tmp_path_factory.mktemp(name)
    with harness.HostClock(work) as clock:
        run = workloads.WORKLOADS[name](
            seed=1, seconds=0.01, trace=True, work=work, clock=clock, **TINY[name],
        )
    return name, run


def test_tiny_run_passes_its_gate(tiny_run):
    name, run = tiny_run
    assert run.gate.attempted > 0
    assert run.gate.failures == [], name


@pytest.mark.parametrize("kind", ["end_to_end", "per_layer"])
def test_every_metric_is_emitted_with_its_unit(tiny_run, kind):
    _, run = tiny_run
    units = harness.metric_units(SPEC, kind)
    line = harness.result_line(run, units, traced=kind == "per_layer")
    assert set(line["metrics"]) == set(units)
    for name, metric in line["metrics"].items():
        assert metric["unit"] == units[name]
        assert isinstance(metric["value"], float)
    json.dumps(line)  # the result line must serialize


def test_end_to_end_metrics_are_never_zero(tiny_run):
    name, run = tiny_run
    zero = [m for m, v in run.end_to_end.items() if not v > 0]
    assert zero == [], name


def test_traced_spans_nest_and_self_times_fit_the_wall(tiny_run):
    name, run = tiny_run
    spans = {s["id"]: s for s in run.trace["spans"]}
    assert spans, name
    for span in spans.values():
        assert span["self_s"] >= -1e-9, span
        assert span["start"] <= span["end"]
        parent = spans.get(span["parent"])
        if parent is not None:
            assert parent["start"] <= span["start"] and span["end"] <= parent["end"], span
    layer_self = sum(row["self_s"] for row in run.trace["layers"].values())
    assert layer_self <= run.trace["wall_s"]


def test_mutated_delivered_count_fails_the_gate(monkeypatch, tmp_path):
    real = workloads.runner.run_point_specs
    corrupted = []

    def corrupt_pool(entries, *, jobs=1, **kwargs):
        """Add one delivery to the first result of the first pool call."""
        results = real(entries, jobs=jobs, **kwargs)
        if jobs > 1 and not corrupted:
            corrupted.append(entries[0])
            bad = results[0].metrics
            results[0] = dataclasses.replace(
                results[0], metrics=dataclasses.replace(bad, delivered=bad.delivered + 1)
            )
        return results

    monkeypatch.setattr(workloads.runner, "run_point_specs", corrupt_pool)
    with harness.HostClock(tmp_path) as clock:
        run = workloads.fig11_sweep(
            seed=1, seconds=0.01, trace=False, work=tmp_path, clock=clock, points=2
        )
    assert len(run.gate.failures) == 1
    assert "delivered" in run.gate.failures[0]


def test_host_clock_scales_by_its_probe_and_stops_it(tmp_path):
    with harness.HostClock(tmp_path) as clock:
        start = time.time()
        seconds, _ = clock.time(time.sleep, 0.2)
        probe = clock.probe_seconds(start, time.time())
    assert clock.readings
    assert seconds == pytest.approx(0.2 * harness.PROBE_NOMINAL_S / probe, rel=0.1)
    assert clock._proc.returncode is not None


#: a child that leaves an orphan sleeping for the given seconds, then exits
_ORPHANING_CHILD = (
    "import subprocess, sys; subprocess.Popen("
    "[sys.executable, '-c', 'import sys, time; time.sleep(float(sys.argv[1]))', sys.argv[1]])"
)


def test_end_descendants_waits_for_and_kills_orphans():
    script = f"""
import subprocess, sys, time
from bench import harness
harness.adopt_orphans()
for sleep, grace in (("0.3", 10.0), ("600", 0.2)):
    subprocess.run([sys.executable, "-c", {_ORPHANING_CHILD!r}, sleep], check=True)
    assert harness._children(), "the orphan was not adopted"
    t0 = time.monotonic()
    harness.end_descendants(grace=grace)
    assert not harness._children()
    assert time.monotonic() - t0 < 5.0
"""
    proc = subprocess.run(
        [sys.executable, "-c", script], cwd=harness.ROOT, capture_output=True,
        text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr


def test_tracer_self_time_excludes_children():
    tracer = Tracer()

    def inner():
        return sum(range(20_000))

    def outer():
        return [inner() for _ in range(3)]

    with tracer.span("outer.call"):
        outer()
        with tracer.span("inner.call"):
            inner()
    (outer_span,) = tracer.named("outer.call")
    (inner_span,) = tracer.named("inner.call")
    assert inner_span.parent == outer_span.id
    assert outer_span.self_time == pytest.approx(outer_span.total - inner_span.total)


def test_install_restores_every_original():
    from repro.eval import runner
    from repro.sim.engine import Simulation

    before = (Simulation.run, runner.run_point_specs)
    with traced(Tracer()):
        assert Simulation.run is not before[0]
        assert runner.run_point_specs is not before[1]
    assert (Simulation.run, runner.run_point_specs) == before


def _doc(tmp_path, name, wall, cpu_count=2):
    doc = {
        "fingerprint": {"cpu_count": cpu_count, "python": "3", "numpy": "2",
                        "platform": "p", "full_scale": False, "git_sha": name},
        "traced": False,
        "workloads": {"w": {"metrics": {"wall_s": {"value": wall, "unit": "s"}}}},
    }
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_compare_verdicts(tmp_path):
    spec = {"end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1}]}
    base = [_doc(tmp_path, f"a{i}", 1.0 + i / 100) for i in range(5)]
    same = [_doc(tmp_path, f"b{i}", 1.0 + i / 100) for i in range(5)]
    slow = [_doc(tmp_path, f"c{i}", 1.3 + i / 100) for i in range(5)]
    lines, code = bench_compare.compare(base, None, spec)
    assert code == 0 and lines[-1].endswith("steady")
    lines, code = bench_compare.compare(same, base, spec)
    assert code == 0 and lines[-1].endswith("ok")
    lines, code = bench_compare.compare(slow, base, spec)
    assert code == 1 and lines[-1].endswith("REGRESSED")


def test_compare_refuses_other_hosts(tmp_path):
    spec = {"end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1}]}
    lines, code = bench_compare.compare(
        [_doc(tmp_path, "a", 1.0)], [_doc(tmp_path, "b", 1.0, cpu_count=8)], spec
    )
    assert code == 2 and "cpu_count" in lines[0]


def test_quartiles_match_the_statistics_module():
    import statistics

    values = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.0, 6.0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    assert bench_compare.quartiles(values) == (q1, med, q3)
    assert bench_compare.spread(values) == pytest.approx((q3 - q1) / med)
