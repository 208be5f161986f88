"""Tests for deep-profiling runs (repro.eval.profiling), live sweep
telemetry (progress events), and the profile -> store round trip."""

from __future__ import annotations

import json
import sqlite3

import pytest

from repro.eval.profiling import point_label, profile_scenario
from repro.eval.runner import PointSpec, ProgressEvent, TraceSpec, run_point_specs
from repro.eval.scenario import ScenarioSpec, run_scenario
from repro.eval.config import TraceProfile
from repro.mobility.synthetic import dart_like
from repro.mobility.trace import days
from repro.store import (
    ExperimentDB,
    canonical_json,
    content_hash,
    ingest_payload,
    trend_report,
)
from repro.store.db import _MIGRATIONS, SCHEMA_VERSION


@pytest.fixture(scope="module")
def tiny_profile():
    return TraceProfile(
        name="tiny",
        build=lambda seed: dart_like("tiny", seed=seed),
        ttl=days(4.0),
        time_unit=days(2.0),
        workload_scale=0.02,
    )


@pytest.fixture(scope="module")
def tiny_trace(tiny_profile):
    return tiny_profile.build(1)


def fast_manifest(**overrides):
    base = {
        "name": "test-profile",
        "trace": {"profile": "DART", "seed": 1},
        "sim": {"memory_kb": 2000, "rate": 100, "workload_scale": 0.004},
        "protocols": ["DTN-FLOW"],
        "seeds": [1],
    }
    base.update(overrides)
    return base


@pytest.fixture(scope="module")
def fast_spec():
    return ScenarioSpec.from_dict(fast_manifest()).validate()


@pytest.fixture(scope="module")
def profiled(fast_spec):
    return profile_scenario(fast_spec, hz=200.0, sample=True)


class TestProfileScenario:
    def test_root_span_matches_wall_clock(self, profiled):
        """Acceptance: root cumulative within 5% of the measured wall."""
        tree = profiled.span_tree()
        root = float(tree["seconds"])
        assert profiled.wall_seconds > 0
        assert abs(root - profiled.wall_seconds) <= 0.05 * profiled.wall_seconds

    def test_point_spans_nest_engine_phases(self, profiled):
        tree = profiled.span_tree()
        profile_node = next(
            c for c in tree["children"] if c["name"] == "profile"
        )
        pt = next(
            c
            for c in profile_node["children"]
            if c["name"].startswith("point[")
        )
        child_names = {c["name"] for c in pt.get("children", [])}
        assert "dispatch.visit_start" in child_names

    def test_each_result_reports_only_its_point(self):
        """Points share one recorder; each result's phase_timings are the
        flat report of its own point span."""
        spec = ScenarioSpec.from_dict(
            fast_manifest(protocols=["DTN-FLOW", "PROPHET"])
        ).validate()
        run = profile_scenario(spec, sample=False)
        profile_node = run.recorder.root.children["profile"]
        assert len(run.results) == 2
        for point, result in zip(run.points, run.results):
            node = profile_node.children[point_label(point)]
            assert result.metrics.phase_timings == run.recorder.flat(node)
            assert result.metrics.phase_timings["setup"]["calls"] == 1

    def test_phases_drop_wrapper_spans(self, profiled):
        phases = profiled.phases()
        assert phases
        assert all(not name.startswith("point[") for name in phases)
        assert "profile" not in phases

    def test_sampler_collected_stacks(self, profiled):
        assert profiled.sampler is not None
        assert profiled.sampler.n_samples > 0

    def test_payload_is_ingestible_shape(self, profiled):
        payload = profiled.payload()
        assert payload["kind"] == "profile"
        assert payload["phases"] and payload["wall_seconds"] > 0
        assert payload["span_tree"]["name"] == "root"
        assert payload["n_samples"] == profiled.sampler.n_samples

    def test_results_match_unprofiled_run(self, fast_spec, profiled):
        """Profiling must not change simulation outcomes."""
        plain = run_scenario(fast_spec, jobs=1)
        assert [r.metrics for r in profiled.results] == [
            r.metrics for r in plain.results
        ]

    def test_point_label_format(self, profiled):
        assert point_label(profiled.points[0]) == (
            "point[DTN-FLOW mem=2000 rate=100 seed=1]"
        )


class TestProfileStoreRoundTrip:
    def test_ingest_report_and_dedup(self, profiled, tmp_path):
        payload = profiled.payload()
        db_path = tmp_path / "exp.db"
        with ExperimentDB(db_path) as db:
            stats = ingest_payload(db, payload, label="ignored-fallback")
            assert stats.runs == 1
            again = ingest_payload(db, payload)
            assert again.runs == 0  # content-hash dedup
            report = trend_report(db)
        assert len(report["profiles"]) == 1
        fam = next(iter(report["profiles"].values()))
        # the payload's own label wins over the ingest fallback
        assert fam["label"] == "test-profile"
        assert fam["recordings"] == 1
        assert "dispatch.visit_start" in fam["phases"]
        phase = fam["phases"]["dispatch.visit_start"][0]
        assert phase["seconds"] > 0 and phase["calls"] > 0

    def test_a_profile_is_a_run_with_run_metrics(self, profiled, tmp_path):
        payload = profiled.payload()
        with ExperimentDB(tmp_path / "exp.db") as db:
            ingest_payload(db, payload)
            (run,) = db.runs(kind="profile")
            values = db.run_metric_rows(run["id"])
        assert run["extra"] == {
            "recorded_at": payload["recorded_at"],
            "scenario_hash": content_hash(payload["scenario"]),
        }
        expected = {"wall_seconds": payload["wall_seconds"]}
        for name, rec in payload["phases"].items():
            expected[f"phase.{name}.seconds"] = rec["seconds"]
            expected[f"phase.{name}.calls"] = rec["calls"]
        assert values == expected

    def test_a_v2_store_reports_like_a_fresh_ingest(self, profiled, tmp_path):
        """A store the v2 schema wrote keeps its profile in ``profiles`` and
        ``profile_phases``; opened now, it reports that profile exactly as
        a fresh ingest of the same payload does."""
        payload = profiled.payload()
        path = tmp_path / "v2.sqlite"
        conn = sqlite3.connect(path)
        for statement in (s for version in _MIGRATIONS[:2] for s in version):
            conn.execute(statement)
        run_id = conn.execute(
            "INSERT INTO runs (created_at, kind, label, content_hash, extra) "
            "VALUES (?, 'profile', ?, ?, ?)",
            (payload["recorded_at"], payload["label"],
             content_hash({"profile": payload}),
             canonical_json({"recorded_at": payload["recorded_at"]})),
        ).lastrowid
        profile_id = conn.execute(
            "INSERT INTO profiles (run_id, recorded_at, scenario_hash, label, "
            "hz, n_samples, wall_seconds) VALUES (?,?,?,?,?,?,?)",
            (run_id, payload["recorded_at"], content_hash(payload["scenario"]),
             payload["label"], payload["hz"], payload["n_samples"],
             payload["wall_seconds"]),
        ).lastrowid
        conn.executemany(
            "INSERT INTO profile_phases (profile_id, phase, seconds, calls) "
            "VALUES (?,?,?,?)",
            [(profile_id, name, rec["seconds"], rec["calls"])
             for name, rec in payload["phases"].items()],
        )
        conn.execute("PRAGMA user_version = 2")
        conn.commit()
        conn.close()
        with ExperimentDB(path) as db:
            assert db.schema_version == SCHEMA_VERSION
            migrated = trend_report(db)["profiles"]
            assert ingest_payload(db, payload).runs == 0  # still deduplicated
        with ExperimentDB(tmp_path / "fresh.sqlite") as db:
            ingest_payload(db, payload)
            fresh = trend_report(db)["profiles"]
        # as JSON text, so an int read back as a float differs too
        assert json.dumps(migrated, sort_keys=True) == json.dumps(
            fresh, sort_keys=True
        )
        (fam,) = fresh.values()
        assert fam["wall_seconds"][0]["value"] == payload["wall_seconds"]
        assert set(fam["phases"]) == set(payload["phases"])

    def test_ingest_rejects_empty_phases(self, tmp_path):
        with ExperimentDB(tmp_path / "exp.db") as db:
            with pytest.raises(ValueError, match="phases"):
                ingest_payload(
                    db, {"kind": "profile", "phases": {}, "wall_seconds": 1.0}
                )

    @pytest.mark.parametrize("field, value, want", [
        ("seconds", None, "a number"),
        ("seconds", True, "a number"),
        ("seconds", "abc", "a number"),
        ("calls", None, "an integer"),
        ("calls", True, "an integer"),
        ("calls", "abc", "an integer"),
        ("calls", 1.7, "an integer"),
    ])
    def test_db_ingest_refuses_a_phase_field_of_the_wrong_type(
        self, field, value, want, tmp_path, capsys
    ):
        """One line naming the phase and the field, exit 2, no row."""
        from repro.cli import main

        payload = {"kind": "profile", "wall_seconds": 1.0, "phases": {
            "a": {"seconds": 0.5, "calls": 1},
            "b": {"seconds": 0.25, "calls": 2},
        }}
        payload["phases"]["b"][field] = value
        path = tmp_path / "profile.json"
        path.write_text(json.dumps(payload))
        db_path = tmp_path / "exp.db"
        assert main(["db", "ingest", str(path), "--db", str(db_path)]) == 2
        (line,) = capsys.readouterr().err.strip().splitlines()
        assert line == (
            f"{path}: profile phase 'b': {field!r} must be {want}, "
            f"got {value!r}"
        )
        with ExperimentDB(db_path) as db:
            assert db.runs() == []


class TestProgressTelemetry:
    @pytest.fixture
    def run_points(self, tiny_scenario, tiny_trace, tiny_profile):
        """``run_points(n, **options)``: ``n`` Direct points through
        ``run_point_specs`` on the tiny trace's CSV, its trace held."""
        spec = TraceSpec.from_path(tiny_scenario().trace.path)

        def run(n=3, **options):
            points = [
                PointSpec(
                    protocol="Direct",
                    memory_kb=500.0 + 100 * i,
                    rate=150.0,
                    seed=0,
                )
                for i in range(n)
            ]
            entries = [
                (spec, p, tiny_profile.sim_config(
                    memory_kb=p.memory_kb, rate=p.rate, seed=0))
                for p in points
            ]
            return run_point_specs(
                entries, materialized={spec.key: tiny_trace}, **options
            )

        return run

    def test_serial_progress_events(self, run_points):
        events = []
        run_points(jobs=1, progress=events.append)
        kinds = [e.kind for e in events]
        assert kinds.count("started") == 3
        assert kinds.count("finished") == 3
        finished = [e for e in events if e.kind == "finished"]
        assert sorted(e.index for e in finished) == [0, 1, 2]
        assert all(isinstance(e, ProgressEvent) for e in events)
        assert all(e.total == 3 for e in events)
        assert all(e.seconds > 0 for e in finished)

    def test_pool_progress_events(self, run_points):
        events = []
        run_points(jobs=2, progress=events.append)
        finished = {e.index for e in events if e.kind == "finished"}
        assert finished == {0, 1, 2}

    def test_progress_callback_errors_are_swallowed(self, run_points):
        def boom(event):
            raise RuntimeError("listener bug")

        results = run_points(n=2, jobs=1, progress=boom)
        assert len(results) == 2

    def test_results_identical_with_and_without_progress(self, run_points):
        with_cb = run_points(n=2, jobs=1, progress=lambda e: None)
        without = run_points(n=2, jobs=1)
        assert [r.metrics for r in with_cb] == [r.metrics for r in without]

