"""Tests for the persistent experiment store (repro.store).

Covers the warehouse core (schema, WAL, content-hash dedup), every ingest
shape, the row equality of a live ``--record`` and a ``repro db ingest``
of the same command's artifact, the query layer, baseline snapshot files
and the exact-equality regression gate over them (PASS on unchanged
reruns, FAIL on any changed value, down to one ulp, and on any missing
row), the trend report, and the ``repro db`` / ``--record`` CLI surface —
including a ``--jobs 4`` sweep recorded in the parent process.
"""

import dataclasses
import json
import math
import sqlite3

import pytest
from hypothesis import given, settings, strategies as st

from repro.cli import main
from repro.eval.resilience import fault_plan_dict
from repro.eval.scenario import ScenarioSpec, run_scenario
from repro.mobility.io import load_trace
from repro.sim.faults import FaultPlan
from repro.store import (
    ExperimentDB,
    PointFilter,
    baseline_snapshot,
    compare_points,
    content_hash,
    ingest_experiment_results,
    ingest_payload,
    ingest_scenario_result,
    latest_per_point,
    query_points,
    regress,
    render_markdown,
    scenario_for_hash,
    select_points,
    snapshot_rows,
    trend_report,
)
from repro.store.db import SCHEMA_VERSION


SCENARIO = {
    "trace": {"profile": "DART", "seed": 1},
    "sim": {"node_memory_kb": 2000.0, "rate_per_landmark_per_day": 100.0},
    "protocol": {"name": "DTN-FLOW", "config": {}},
    "seeds": [1],
}

METRICS = {
    "success_rate": 0.8,
    "avg_delay": 3600.0,
    "avg_hops": 2.5,
    "generated": 100.0,
    "delivered": 80.0,
    "total_cost": 500.0,
}


@pytest.fixture
def store(tmp_path):
    with ExperimentDB(tmp_path / "exp.sqlite") as db:
        yield db


def record(db, metrics=METRICS, scenario=SCENARIO, protocol="DTN-FLOW", **kw):
    run_id = db.record_run("run", label="test")
    return db.record_point(
        run_id, scenario, metrics, protocol=protocol, trace="DART", **kw
    )


#: the stored columns a live recording and a file ingest must agree on
POINT_COLUMNS = ("scenario_hash", "metrics_hash", "protocol", "trace", "seed",
                 "memory_kb", "rate", "sweep_parameter", "sweep_value")


def point_rows(path):
    """Every stored point of the store at ``path`` as a sorted tuple list."""
    with ExperimentDB(path) as db:
        rows = db._conn.execute(f"SELECT {', '.join(POINT_COLUMNS)} FROM points")
        return sorted(tuple(r) for r in rows)


class TestWarehouse:
    def test_schema_and_wal(self, store):
        assert store.schema_version == SCHEMA_VERSION
        mode = store._conn.execute("PRAGMA journal_mode").fetchone()[0]
        assert mode == "wal"

    def test_newer_schema_rejected(self, tmp_path):
        path = tmp_path / "future.sqlite"
        conn = sqlite3.connect(path)
        conn.execute(f"PRAGMA user_version = {SCHEMA_VERSION + 1}")
        conn.close()
        with pytest.raises(ValueError, match="newer than"):
            ExperimentDB(path)

    def test_a_refused_store_leaves_no_connection_open(self, tmp_path, monkeypatch):
        path = tmp_path / "future.sqlite"
        conn = sqlite3.connect(path)
        conn.execute(f"PRAGMA user_version = {SCHEMA_VERSION + 1}")
        conn.close()
        opened = []
        connect = sqlite3.connect

        def tracked(*args, **kwargs):
            opened.append(connect(*args, **kwargs))
            return opened[-1]

        monkeypatch.setattr(sqlite3, "connect", tracked)
        with pytest.raises(ValueError, match="newer than"):
            ExperimentDB(path)
        (refused,) = opened
        with pytest.raises(sqlite3.ProgrammingError, match="closed"):
            refused.execute("SELECT 1")

    def test_reopen_is_idempotent(self, tmp_path):
        path = tmp_path / "exp.sqlite"
        with ExperimentDB(path) as db:
            record(db)
        with ExperimentDB(path) as db:
            assert db.point_count() == 1

    def test_identical_rerecord_is_noop(self, store):
        pid1, new1 = record(store)
        pid2, new2 = record(store)
        assert new1 and not new2
        assert pid1 == pid2
        assert store.point_count() == 1

    def test_changed_metrics_record_history(self, store):
        record(store)
        pid2, new2 = record(store, dict(METRICS, success_rate=0.85))
        assert new2
        assert store.point_count() == 2
        rows = query_points(store)
        assert len({r.scenario_hash for r in rows}) == 1
        latest = latest_per_point(store)
        assert len(latest) == 1
        assert latest[0].metrics["success_rate"] == 0.85

    def test_content_hash_ignores_key_order(self):
        a = {"x": 1, "y": [1, 2], "z": {"a": 1, "b": 2}}
        b = {"z": {"b": 2, "a": 1}, "y": [1, 2], "x": 1}
        assert content_hash(a) == content_hash(b)
        assert content_hash(a) != content_hash({**a, "x": 2})

    def test_half_widths_round_trip(self, store):
        record(store, {"success_rate": (0.8, 0.03), "avg_delay": 3600.0})
        row = query_points(store)[0]
        assert row.half_widths == {"success_rate": 0.03}
        assert row.metrics["avg_delay"] == 3600.0

    def test_empty_metrics_rejected(self, store):
        run_id = store.record_run("run")
        with pytest.raises(ValueError, match="no metrics"):
            store.record_point(run_id, SCENARIO, {}, protocol="DTN-FLOW")

    def test_run_hash_dedup(self, store):
        h = content_hash({"snapshot": 1})
        assert store.record_run("bench", run_hash=h) is not None
        assert store.record_run("bench", run_hash=h) is None

    def test_scenario_blob_stored(self, store):
        pid, _ = record(store)
        assert store.scenario_blob(pid) == SCENARIO


class TestQuery:
    def _populate(self, db):
        for protocol, rate in [("DTN-FLOW", 100.0), ("PROPHET", 100.0),
                               ("DTN-FLOW", 300.0)]:
            scen = dict(SCENARIO, protocol={"name": protocol, "config": {}})
            scen["sim"] = dict(SCENARIO["sim"],
                               rate_per_landmark_per_day=rate)
            record(db, scenario=scen, protocol=protocol, rate=rate,
                   sweep_parameter="rate", sweep_value=rate)

    def test_filters(self, store):
        self._populate(store)
        assert len(query_points(store)) == 3
        assert len(query_points(store, protocol="DTN-FLOW")) == 2
        assert len(query_points(store, protocol="PROPHET", trace="DART")) == 1
        assert query_points(store, trace="DNET") == []
        some_hash = query_points(store)[0].scenario_hash
        assert len(query_points(store, scenario_hash=some_hash[:10])) == 1
        assert len(query_points(store, kind="run")) == 3
        assert query_points(store, kind="sweep") == []

    @pytest.mark.parametrize("prefix", ["_", "%", "", "AB", "a_", "0x1"])
    def test_a_hash_prefix_is_hex_never_a_wildcard(self, store, prefix):
        self._populate(store)
        with pytest.raises(ValueError, match="lowercase hex"):
            PointFilter(scenario_hash=prefix)
        with pytest.raises(ValueError, match="lowercase hex"):
            scenario_for_hash(store, prefix)

    def test_filter_and_kwargs_are_exclusive(self, store):
        with pytest.raises(ValueError, match="not both"):
            query_points(store, filter=PointFilter(), protocol="DTN-FLOW")

    def test_metric_filter(self, store):
        record(store, {"success_rate": 0.5})
        scen2 = dict(SCENARIO, seeds=[2])
        record(store, {"suite_seconds": 1.0}, scenario=scen2)
        assert len(query_points(store)) == 2
        assert len(select_points(store, metric="success_rate")) == 1
        assert len(select_points(store, latest=True, metric="success_rate")) == 1

    def test_select_points_limit(self, store):
        self._populate(store)
        rows = query_points(store)
        assert select_points(store) == rows
        assert select_points(store, limit=2) == rows[-2:]
        assert select_points(store, limit=5) == rows
        assert select_points(store, latest=True, metric="nope") == []
        with pytest.raises(ValueError, match="limit must be >= 0, got -1"):
            select_points(store, limit=-1)


@pytest.fixture(scope="module")
def fast_result():
    """One real (tiny) scenario run shared by the ingestion tests."""
    spec = ScenarioSpec.from_dict({
        "name": "store-test",
        "trace": {"profile": "DART", "seed": 1},
        "sim": {"memory_kb": 2000, "rate": 100, "workload_scale": 0.004},
        "protocols": ["DTN-FLOW", "Direct"],
        "seeds": [1],
    })
    return run_scenario(spec, jobs=1)


@pytest.fixture(scope="module")
def fast_sweep_result():
    """A tiny sweep run through the parallel executor (4 workers)."""
    spec = ScenarioSpec.from_dict({
        "name": "store-sweep",
        "trace": {"profile": "DART", "seed": 1},
        "sim": {"rate": 100, "workload_scale": 0.004},
        "protocols": ["DTN-FLOW"],
        "seeds": [1],
        "sweep": {"parameter": "memory_kb", "values": [1200, 2000]},
    })
    return run_scenario(spec, jobs=4)


class TestIngest:
    def test_scenario_result_round_trip(self, store, fast_result):
        stats = ingest_scenario_result(store, fast_result)
        assert stats.points_new == 2 and stats.points_dup == 0
        again = ingest_scenario_result(store, fast_result)
        assert again.points_new == 0 and again.points_dup == 2
        protocols = {r.protocol for r in query_points(store)}
        assert protocols == {"DTN-FLOW", "Direct"}
        row = query_points(store, protocol="DTN-FLOW")[0]
        assert row.memory_kb == 2000.0 and row.rate == 100.0 and row.seed == 1

    def test_partial_results_skip_unfinished_points(self, store, fast_result):
        # an interrupted grid's results: None marks a point that never ran
        partial = [None, fast_result.results[0], None]
        stats = ingest_experiment_results(store, partial, kind="scenario")
        assert stats.runs == 1 and stats.points_new == 1
        assert ingest_experiment_results(store, [None, None]).runs == 0

    def test_unscenarioed_results_keyed_by_sim_config(
        self, store, shuttle_trace, tiny_sim_config
    ):
        """Results of a simulation run outside any scenario carry none:
        their stored identity is the fallback record, which includes the
        resolved SimConfig."""
        from repro.baselines import make_protocol
        from repro.eval.experiment import ExperimentResult
        from repro.obs.provenance import RunProvenance
        from repro.sim.engine import run_simulation

        summary = run_simulation(shuttle_trace, make_protocol("DTN-FLOW"), tiny_sim_config)
        assert summary.provenance.scenario is None
        other = dataclasses.replace(
            tiny_sim_config, warmup_fraction=tiny_sim_config.warmup_fraction / 2
        )
        # identical metrics, different SimConfig: only the identity differs
        twin = dataclasses.replace(summary, provenance=RunProvenance.from_run(
            "DTN-FLOW", summary.trace, other
        ))
        results = [
            ExperimentResult("DTN-FLOW", summary.trace, 2000.0, 200.0, 5, m)
            for m in (summary, twin)
        ]
        stats = ingest_experiment_results(store, results)
        assert (stats.points_new, stats.points_dup) == (2, 0)
        again = ingest_experiment_results(store, results[:1])
        assert (again.points_new, again.points_dup) == (0, 1)
        blobs = [store.scenario_blob(r.id) for r in query_points(store)]
        assert [b["kind"] for b in blobs] == ["unscenarioed", "unscenarioed"]
        assert sorted(b["config"]["warmup_fraction"] for b in blobs) == sorted(
            [tiny_sim_config.warmup_fraction, other.warmup_fraction]
        )

    def test_parallel_sweep_recorded_in_parent(self, store, fast_sweep_result):
        # the acceptance path: a --jobs 4 run recorded without contention
        # (workers never see the database; ingestion is parent-side)
        stats = ingest_scenario_result(store, fast_sweep_result)
        assert stats.points_new == 2
        rows = query_points(store, sweep_parameter="memory_kb")
        assert sorted(r.sweep_value for r in rows) == [1200.0, 2000.0]

    def test_exported_scenario_payload_dedups_against_object(
        self, store, fast_result
    ):
        ingest_scenario_result(store, fast_result)
        payload = json.loads(json.dumps(fast_result.as_dict()))
        stats = ingest_payload(store, payload)
        assert stats.points_new == 0 and stats.points_dup == 2

    def test_compare_ci_rows(self, store):
        rows = [{
            "protocol": "DTN-FLOW",
            "trace": "DART",
            "memory_kb": 2000.0,
            "rate": 500.0,
            "seeds": [1, 2, 3],
            "metrics": {
                "success_rate": {"mean": 0.8, "half_width": 0.02,
                                 "n": 3, "level": 0.95},
                "avg_delay": {"mean": 3600.0, "half_width": 120.0,
                              "n": 3, "level": 0.95},
            },
        }]
        stats = ingest_payload(store, rows)
        assert stats.points_new == 1
        row = query_points(store)[0]
        assert row.half_widths["success_rate"] == 0.02
        assert ingest_payload(store, rows).points_dup == 1

    def test_bench_snapshot_dedup(self, store):
        snapshot = {
            "suite": "benchmarks",
            "timestamp": "2026-08-07T00:00:00+0000",
            "suite_seconds": 12.5,
            "figures": {"test_fig11": 7.25},
            "parallel": {"speedup": 1.9},
        }
        assert ingest_payload(store, snapshot).runs == 1
        assert ingest_payload(store, snapshot).runs == 0
        history = {"suite": "benchmarks", "history": [snapshot]}
        assert ingest_payload(store, history).runs == 0
        runs = store.runs(kind="bench")
        assert len(runs) == 1
        values = store.run_metric_rows(runs[0]["id"])
        assert values["suite_seconds"] == 12.5
        assert values["figures.test_fig11"] == 7.25
        assert values["parallel.speedup"] == 1.9

    def test_bench_snapshot_keeps_the_host_fingerprint(self, store):
        fingerprint = {
            "cpu_count": 2, "python": "3.11.7", "numpy": "2.4.6",
            "platform": "Linux-x86_64", "full_scale": False, "git_sha": "c278ff2",
        }
        snapshot = {
            "suite": "benchmarks",
            "timestamp": "2026-10-17T00:00:00+0000",
            "jobs": "1",
            "suite_seconds": 3.5,
            **fingerprint,
        }
        ingest_payload(store, snapshot)
        (run,) = store.runs(kind="bench")
        assert run["extra"] == {
            "timestamp": "2026-10-17T00:00:00+0000", "jobs": "1", **fingerprint,
        }

    def test_unrecognized_payload_rejected(self, store):
        with pytest.raises(ValueError, match="no ingestible results"):
            ingest_payload(store, {"hello": "world"})


class TestBaselinesAndRegress:
    @staticmethod
    def baseline(db, tmp_path, name="main"):
        """Write ``db``'s latest results to a snapshot file; return the
        rows read back from it."""
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(baseline_snapshot(db, name)))
        snap_name, rows = snapshot_rows(json.loads(path.read_text()))
        assert snap_name == name
        return rows

    def test_pin_requires_points(self, store):
        with pytest.raises(ValueError, match="no stored points"):
            baseline_snapshot(store, "main")
        record(store)
        with pytest.raises(ValueError, match="no stored points"):
            baseline_snapshot(store, "main", filter=PointFilter(protocol="PER"))

    def test_unchanged_rerun_passes(self, store, tmp_path):
        record(store)
        rows = self.baseline(store, tmp_path)
        record(store)  # identical re-record (deduped)
        verdict = regress(store, rows)
        assert verdict.passed and verdict.verdict == "PASS"
        assert len(verdict.checks) == len(METRICS)
        assert not verdict.failures and not verdict.missing

    def test_perturbation_beyond_tolerance_fails(self, store, tmp_path):
        record(store)
        rows = self.baseline(store, tmp_path)
        # any changed value FAILs, and only that metric's check
        record(store, dict(METRICS, success_rate=0.65))
        verdict = regress(store, rows)
        assert verdict.verdict == "FAIL"
        assert [c.metric for c in verdict.failures] == ["success_rate"]
        check = verdict.failures[0]
        assert check.baseline == 0.8 and check.candidate == 0.65
        assert "FAIL" in verdict.summary()

    def test_two_sided_metric_fails_both_ways(self, store, tmp_path):
        record(store)
        rows = self.baseline(store, tmp_path)
        for generated in (110.0, 90.0):  # exact-match metric
            record(store, dict(METRICS, generated=generated))
            verdict = regress(store, rows)
            assert [c.metric for c in verdict.failures] == ["generated"]

    def test_missing_candidate(self, store, tmp_path):
        record(store)
        rows = self.baseline(store, tmp_path)
        verdict = compare_points("main", rows, [])
        assert verdict.verdict == "FAIL" and len(verdict.missing) == len(METRICS)

    @settings(max_examples=40, deadline=None)
    @given(
        metrics=st.dictionaries(
            st.text("abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=12),
            st.integers(-(2**53), 2**53)
            | st.floats(allow_nan=False, allow_infinity=False),
            min_size=1, max_size=8,
        ),
        data=st.data(),
    )
    def test_gate_is_exact(self, metrics, data):
        """A store passes against its own snapshot, fails with exactly one
        failed check when one metric moves by one ulp, and fails with every
        row missing when it does not hold the point."""
        with ExperimentDB(":memory:") as db:
            record(db, metrics)
            snap = json.loads(json.dumps(baseline_snapshot(db, "main")))
            _, rows = snapshot_rows(snap)
            assert regress(db, rows).passed
            metric = data.draw(st.sampled_from(sorted(metrics)), label="metric")
            value = float(metrics[metric])
            nudged = math.nextafter(value, -math.inf if value >= 0 else math.inf)
            record(db, dict(metrics, **{metric: nudged}))
            verdict = regress(db, rows)
            assert verdict.verdict == "FAIL" and not verdict.missing
            assert [c.metric for c in verdict.failures] == [metric]
        with ExperimentDB(":memory:") as other:
            record(other, metrics, scenario=dict(SCENARIO, seeds=[2]))
            verdict = regress(other, rows)
            assert verdict.verdict == "FAIL" and not verdict.checks
            assert len(verdict.missing) == len(metrics)

    def test_snapshot_export_import_round_trip(self, store, tmp_path):
        # a snapshot written from one store gates another store's rerun
        record(store)
        rows = self.baseline(store, tmp_path)
        assert len(rows) == len(METRICS)
        assert [r["metric"] for r in rows] == sorted(METRICS)
        with ExperimentDB(tmp_path / "other.sqlite") as db2:
            record(db2)
            assert regress(db2, rows).passed


class TestReport:
    def test_trend_report_and_markdown(self, store):
        record(store, sweep_parameter="memory_kb", sweep_value=2000.0)
        record(store, dict(METRICS, success_rate=0.9),
               sweep_parameter="memory_kb", sweep_value=2000.0)
        store.record_run_metrics(
            store.record_run("bench", run_hash=content_hash({"b": 1})),
            {"suite_seconds": 10.0},
        )
        report = trend_report(store)
        assert report["points"] == 2 and report["distinct_points"] == 1
        assert report["runs"]["bench"] == 1
        fam = report["figures"]["DART/memory_kb"]
        assert fam["protocols"]["DTN-FLOW"]["success_rate"] == 0.9
        assert len(report["changed_points"]) == 1
        moved = report["changed_points"][0]["moved_metrics"]["success_rate"]
        assert moved == {"first": 0.8, "last": 0.9}
        md = render_markdown(report)
        assert "fig11 (DART, memory)" in md
        assert "suite_seconds" in md and "10.000" in md


class TestStoreCLI:
    def _run(self, argv, capsys):
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code
        captured = capsys.readouterr()
        return rc, captured.out, captured.err

    def _seed_store(self, db_path):
        with ExperimentDB(db_path) as db:
            record(db)

    def test_query_empty(self, tmp_path, capsys):
        db_path = str(tmp_path / "x.sqlite")
        ExperimentDB(db_path).close()
        rc, out, _ = self._run(["db", "query", "--db", db_path], capsys)
        assert rc == 0 and "no stored points" in out

    @pytest.mark.parametrize("argv", [
        ["db", "query"],
        ["db", "report"],
        ["db", "baseline", "b", "--out", "OUT"],
        ["db", "regress", "--baseline-file", "SNAP"],
    ], ids=lambda argv: argv[1])
    def test_a_read_verb_refuses_a_missing_store(self, argv, tmp_path, capsys):
        """A mistyped ``--db`` is one line and exit 2, not an empty store
        answering (and left behind) at the path."""
        missing = tmp_path / "none.sqlite"
        snap = tmp_path / "snap.json"
        snap.write_text(json.dumps({"baseline": "b", "rows": [
            {"scenario_hash": "ab12", "metric": "success_rate", "value": 0.5},
        ]}))
        paths = {"OUT": tmp_path / "out.json", "SNAP": snap}
        rc, out, err = self._run(
            [str(paths.get(a, a)) for a in argv] + ["--db", str(missing)], capsys
        )
        assert rc == 2 and out == ""
        (line,) = err.strip().splitlines()
        assert line == f"repro db {argv[1]}: no experiment store at {missing}"
        assert not missing.exists() and not (tmp_path / "out.json").exists()

    def test_query_table_and_json(self, tmp_path, capsys):
        db_path = str(tmp_path / "x.sqlite")
        self._seed_store(db_path)
        rc, out, _ = self._run(["db", "query", "--db", db_path], capsys)
        assert rc == 0 and "DTN-FLOW" in out
        rc, out, _ = self._run(
            ["db", "query", "--db", db_path, "--json", "--metric",
             "success_rate"], capsys)
        rows = json.loads(out)
        assert rc == 0 and rows[0]["metrics"]["success_rate"] == 0.8
        rc, out, _ = self._run(
            ["db", "query", "--db", db_path, "--json", "--limit", "1"], capsys)
        assert rc == 0 and len(json.loads(out)) == 1
        rc, _, err = self._run(
            ["db", "query", "--db", db_path, "--limit", "-1"], capsys)
        assert rc == 2 and "--limit: must be >= 0, got -1" in err
        for prefix in ("_", "%", ""):
            rc, out, err = self._run(
                ["db", "query", "--db", db_path, "--hash", prefix], capsys)
            assert rc == 2 and out == ""
            (line,) = err.strip().splitlines()
            assert ("--hash: a scenario-hash prefix must be non-empty "
                    f"lowercase hex, got {prefix!r}") in line

    def test_ingest_file_and_errors(self, tmp_path, capsys):
        db_path = str(tmp_path / "x.sqlite")
        artifact = tmp_path / "rows.json"
        artifact.write_text(json.dumps([{
            "protocol": "PER", "trace": "DART", "memory_kb": 2000.0,
            "rate": 500.0, "seeds": [1, 2],
            "metrics": {"success_rate": {"mean": 0.5, "half_width": 0.01}},
        }]))
        rc, out, _ = self._run(
            ["db", "ingest", str(artifact), "--db", db_path], capsys)
        assert rc == 0 and "1 new" in out
        rc, _, err = self._run(
            ["db", "ingest", str(tmp_path / "missing.json"), "--db", db_path],
            capsys)
        assert rc == 2 and "cannot read" in err
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        rc, _, err = self._run(
            ["db", "ingest", str(bad), "--db", db_path], capsys)
        assert rc == 2 and "no ingestible" in err

    def test_degradation_point_without_intensity_writes_nothing(self, tmp_path, capsys):
        db_path = str(tmp_path / "x.sqlite")
        bad = tmp_path / "curves.json"
        row = {"protocol": "X", "trace": "t", "success_rate": 0.5}
        bad.write_text(json.dumps({"kind": "resilience", "fault_seed": 7, "curves": [
            {"intensity": 0.0, "scenario": SCENARIO, "results": [row]},
            {"scenario": SCENARIO, "results": [row]},
        ]}))
        rc, _, err = self._run(["db", "ingest", str(bad), "--db", db_path], capsys)
        assert rc == 2
        assert err.count("\n") == 1 and "curve 1" in err and "'intensity'" in err
        with ExperimentDB(db_path) as db:
            assert db.runs() == [] and point_rows(db_path) == []

    @pytest.mark.parametrize("report", [
        {"degradation": {"trace": "t", "intensities": [0.0], "fault_seed": 7,
                         "curves": {"X": [{"intensity": 0.0, "success_rate": 0.5}]}},
         "config": {"seed": 1}},
        {"trace": "t", "intensities": [0.0], "fault_seed": 7,
         "curves": {"X": [{"intensity": 0.0, "success_rate": 0.5}]}},
    ], ids=["report", "bare-curves"])
    def test_a_pre_scenario_degradation_report_is_refused(
        self, report, tmp_path, capsys
    ):
        """A curve file from before curve points carried scenarios is one
        line and exit 2, not bare metric rows with no identity."""
        db_path = str(tmp_path / "x.sqlite")
        old = tmp_path / "curves.json"
        old.write_text(json.dumps(report))
        rc, out, err = self._run(["db", "ingest", str(old), "--db", db_path], capsys)
        assert rc == 2 and out == ""
        (line,) = err.strip().splitlines()
        assert line.startswith(f"{old}: a degradation report from before")
        with ExperimentDB(db_path) as db:
            assert db.runs() == [] and point_rows(db_path) == []

    def test_baseline_verbs_and_regress_exit_codes(self, tmp_path, capsys):
        db_path = str(tmp_path / "x.sqlite")
        self._seed_store(db_path)
        snap = tmp_path / "main.json"
        rc, out, _ = self._run(
            ["db", "baseline", "main", "--out", str(snap), "--db", db_path],
            capsys)
        assert rc == 0 and f"({len(METRICS)} row(s))" in out
        written = json.loads(snap.read_text())
        assert written["baseline"] == "main"
        assert {r["metric"] for r in written["rows"]} == set(METRICS)

        # PASS on the unchanged store -> exit 0
        verdict_file = tmp_path / "verdict.json"
        rc, out, _ = self._run(
            ["db", "regress", "--baseline-file", str(snap), "--db", db_path,
             "--out", str(verdict_file)], capsys)
        assert rc == 0 and "PASS" in out
        assert json.loads(verdict_file.read_text())["verdict"] == "PASS"

        # inject a perturbation beyond tolerance -> exit 1, FAIL artifact
        with ExperimentDB(db_path) as db:
            record(db, dict(METRICS, success_rate=0.5))
        rc, out, _ = self._run(
            ["db", "regress", "--baseline-file", str(snap), "--db", db_path,
             "--json", "--out", str(verdict_file)], capsys)
        assert rc == 1
        verdict = json.loads(verdict_file.read_text())
        assert verdict["verdict"] == "FAIL" and verdict["failed"] == 1
        assert json.loads(out)["verdict"] == "FAIL"

        # usage errors -> exit 2, the removed named-baseline forms included
        rc, _, err = self._run(["db", "regress", "--db", db_path], capsys)
        assert rc == 2 and "--baseline-file" in err
        for removed in (["--abs", "0"], ["--rel", "0"], ["--fail-on-missing"],
                        ["--protocol", "PER"], ["--trace", "DART"]):
            rc, _, err = self._run(
                ["db", "regress", "--baseline-file", str(snap), "--db", db_path,
                 *removed], capsys)
            assert rc == 2 and "unrecognized arguments" in err, removed
        # a malformed row is a usage error naming the row and the field
        for field, value in (("value", None), ("value", [0.8]), ("value", True),
                             ("value", "abc"), ("metric", ""),
                             ("scenario_hash", 7), ("value", ...)):
            bad = json.loads(snap.read_text())
            bad["rows"][1][field] = value
            if value is ...:  # the field left out
                del bad["rows"][1][field]
            bad_file = tmp_path / "bad.json"
            bad_file.write_text(json.dumps(bad))
            rc, out, err = self._run(
                ["db", "regress", "--baseline-file", str(bad_file),
                 "--db", db_path], capsys)
            assert rc == 2 and out == "" and err.count("\n") == 1, err
            got = "nothing" if value is ... else repr(value)
            assert f"row 1: {field!r} must be" in err and f"got {got}" in err
        rc, _, err = self._run(
            ["db", "regress", "--baseline", "main", "--db", db_path], capsys)
        assert rc == 2 and "--baseline-file" in err
        for verb in (["pin", "main"], ["list"], ["show", "main"],
                     ["export", "main", str(snap)], ["import", str(snap)]):
            rc, _, err = self._run(
                ["db", "baseline", *verb, "--db", db_path], capsys)
            assert rc == 2 and "--out" in err, verb
        rc, _, err = self._run(
            ["db", "baseline", "empty", "--out", str(tmp_path / "e.json"),
             "--protocol", "PER", "--db", db_path], capsys)
        assert rc == 2 and "no stored points" in err
        assert not (tmp_path / "e.json").exists()

    def test_regress_fails_on_any_changed_value(self, tmp_path, capsys):
        """Against a 0.8 baseline a candidate at 0.79 fails, and so does a
        candidate one ulp off in any single metric; each verdict names
        only that metric."""
        db_path = str(tmp_path / "x.sqlite")
        self._seed_store(db_path)
        snap = str(tmp_path / "main.json")
        self._run(["db", "baseline", "main", "--out", snap, "--db", db_path],
                  capsys)
        nudges = [("success_rate", 0.79)] + [
            (metric, math.nextafter(value, math.inf))
            for metric, value in METRICS.items()
        ]
        for metric, value in nudges:
            with ExperimentDB(db_path) as db:
                record(db, dict(METRICS, **{metric: value}))
            rc, out, _ = self._run(
                ["db", "regress", "--baseline-file", snap, "--db", db_path],
                capsys)
            assert rc == 1, (metric, value)
            lines = out.splitlines()
            assert lines[0].startswith("FAIL:") and "1 failed" in lines[0]
            assert len(lines) == 2 and f"] {metric}: " in lines[1], out
            assert repr(value) in lines[1]

    def test_report_cli(self, tmp_path, capsys):
        db_path = str(tmp_path / "x.sqlite")
        self._seed_store(db_path)
        rc, out, _ = self._run(["db", "report", "--db", db_path], capsys)
        assert rc == 0 and "Experiment store trend report" in out
        out_file = tmp_path / "report.json"
        rc, _, _ = self._run(
            ["db", "report", "--db", db_path, "--json", "--out",
             str(out_file)], capsys)
        assert rc == 0
        assert json.loads(out_file.read_text())["points"] == 1

    def test_record_flag_via_scenario_run(self, tmp_path, capsys):
        manifest = tmp_path / "fast.json"
        manifest.write_text(json.dumps({
            "name": "cli-record",
            "trace": {"profile": "DART", "seed": 1},
            "sim": {"memory_kb": 2000, "rate": 100, "workload_scale": 0.004},
            "protocols": ["DTN-FLOW"],
            "seeds": [1],
        }))
        db_path = str(tmp_path / "rec.sqlite")
        rc, _, err = self._run(
            ["scenario", "run", str(manifest), "--record", "--db", db_path],
            capsys)
        assert rc == 0 and "recorded" in err and "1 new" in err
        # recording the identical run again stores nothing new
        rc, _, err = self._run(
            ["scenario", "run", str(manifest), "--record", "--db", db_path],
            capsys)
        assert rc == 0 and "0 new, 1 already recorded" in err
        with ExperimentDB(db_path) as db:
            assert db.point_count() == 1

    def test_flag_sweep_records_what_the_manifest_sweep_records(
        self, tmp_path, capsys
    ):
        """``sweep rate`` flags and the equivalent manifest run with
        ``scenario run`` record the same point with the same full metric set, so a
        zero-tolerance regress of one against the other passes."""
        manifest = tmp_path / "sweep.json"
        manifest.write_text(json.dumps({
            "trace": {"profile": "DNET", "seed": 1},
            "sim": {"memory_kb": 2000, "rate": 500},
            "protocols": ["DTN-FLOW"],
            "seeds": [1],
            "sweep": {"parameter": "rate", "values": [100]},
        }))
        db_path = str(tmp_path / "sweeps.sqlite")
        rc, _, err = self._run(
            ["scenario", "run", str(manifest), "--record", "--db", db_path],
            capsys)
        assert rc == 0 and "1 new" in err
        snap = str(tmp_path / "manifest.json")
        rc, _, _ = self._run(
            ["db", "baseline", "manifest", "--out", snap, "--db", db_path],
            capsys)
        assert rc == 0
        rc, _, err = self._run(
            ["sweep", "rate", "--trace", "dnet", "--values", "100",
             "--protocols", "DTN-FLOW", "--record", "--db", db_path], capsys)
        assert rc == 0 and "0 new, 1 already recorded" in err
        rc, out, _ = self._run(
            ["db", "regress", "--baseline-file", snap, "--db", db_path], capsys)
        assert rc == 0, out
        assert "0 failed" in out and "0 missing" in out


#: every CLI path that opens a store, each given the file ``V9``
_STORE_PATHS = [
    ["db", "ingest", "ROWS", "--db", "V9"],
    ["db", "query", "--db", "V9"],
    ["db", "baseline", "b", "--out", "OUT", "--db", "V9"],
    ["db", "regress", "--baseline-file", "SNAP", "--db", "V9"],
    ["db", "report", "--db", "V9"],
    ["run", "--trace", "dnet", "--rate", "10", "--record", "--db", "V9"],
    ["compare", "--trace", "dnet", "--record", "--db", "V9"],
    ["sweep", "rate", "--trace", "dnet", "--values", "10", "--record",
     "--db", "V9"],
    ["scenario", "run", "dnet-run", "--record", "--db", "V9"],
    ["scenario", "run", "dnet-run", "--run-dir", "RUN", "--record",
     "--db", "V9"],
    ["resume", "RUN", "--record", "--db", "V9"],
    ["profile", "dnet-run", "--record", "--db", "V9"],
    ["chaos", "dnet-run", "--run-dir", "RUN", "--record", "--db", "V9"],
    ["resilience", "--trace", "dnet", "--record", "--db", "V9"],
    ["serve", "--port", "0", "--run-root", "RUN", "--db", "V9"],
]


@pytest.mark.parametrize(
    "argv", _STORE_PATHS, ids=[" ".join(a[:2]) for a in _STORE_PATHS]
)
def test_a_newer_store_exits_2_before_any_work(
    argv, tmp_path, monkeypatch, capsys
):
    """A store a newer package wrote is one line and exit 2 wherever the
    CLI opens one: before a trace is built, a point runs or serve binds."""
    from repro.eval.runner import TraceSpec

    def no_work(*args, **kwargs):
        raise AssertionError("work started against a refused store")

    monkeypatch.setattr(TraceSpec, "materialize", no_work)
    monkeypatch.setattr("repro.mobility.io.load_trace", no_work)
    monkeypatch.setattr("repro.cli._resolve_trace", no_work)
    monkeypatch.setattr("repro.serve.make_server", no_work)
    v9 = tmp_path / "v9.sqlite"
    conn = sqlite3.connect(v9)
    conn.execute("PRAGMA user_version = 9")
    conn.close()
    rows = tmp_path / "rows.json"
    rows.write_text(json.dumps([{"protocol": "PER", "success_rate": 0.5}]))
    snap = tmp_path / "snap.json"
    snap.write_text(json.dumps({"baseline": "b", "rows": [
        {"scenario_hash": "ab12", "metric": "success_rate", "value": 0.5},
    ]}))
    paths = {"V9": v9, "ROWS": rows, "SNAP": snap,
             "OUT": tmp_path / "out.json", "RUN": tmp_path / "run"}
    rc = main([str(paths.get(a, a)) for a in argv])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    (line,) = captured.err.strip().splitlines()
    assert line == (
        f"{v9}: schema version 9 is newer than this package supports "
        f"({SCHEMA_VERSION}); upgrade repro"
    )
    assert not (tmp_path / "out.json").exists()
    assert not (tmp_path / "run").exists()


def _cli_cases():
    """``(id, argv, artifact)`` per command: ``argv(trace_csv, manifest_for)``
    builds the command line; ``artifact`` names the file it writes, or is
    None when the artifact is its ``--json`` stdout."""
    sweep = {"protocols": ["Direct", "DTN-FLOW"],
             "sweep": {"parameter": "memory_kb", "values": [500, 2000]}}
    grid = {"protocols": ["Direct", "PROPHET"], "seeds": [0, 1]}
    flags = ["--rate", "10"]
    return [
        ("scenario-sweep",
         lambda csv, manifest: ["scenario", "run", manifest(sweep),
                                "--out", "out.json"], "out.json"),
        ("scenario-grid",
         lambda csv, manifest: ["scenario", "run", manifest(grid),
                                "--out", "out.json"], "out.json"),
        ("run-json", lambda csv, manifest: ["run", "--trace", csv, *flags,
                                            "--json"], None),
        ("compare-json", lambda csv, manifest: ["compare", "--trace", csv,
                                                *flags, "--json"], None),
        ("compare-seeds-json",
         lambda csv, manifest: ["compare", "--trace", csv, *flags,
                                "--seeds", "2", "--json"], None),
        ("resilience-out",
         lambda csv, manifest: ["resilience", "--trace", csv, *flags,
                                "--protocols", "Direct",
                                "--intensities", "0,0.5",
                                "--no-reconvergence", "--out", "out.json"],
         "out.json"),
    ]


class TestRecordMatchesIngest:
    """``--record`` and ``repro db ingest`` of the command's artifact write
    the same point rows: one path writes both."""

    @pytest.mark.parametrize(
        "argv, artifact", [c[1:] for c in _cli_cases()],
        ids=[c[0] for c in _cli_cases()],
    )
    def test_record_matches_ingest(
        self, argv, artifact, tiny_scenario, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        csv = tiny_scenario().trace.path

        def manifest(block):
            spec = tiny_scenario(name="record-vs-ingest", **block)
            path = tmp_path / "manifest.json"
            path.write_text(spec.to_json())
            return str(path)

        assert main([*argv(csv, manifest), "--record", "--db", "rec.sqlite"]) == 0
        out = capsys.readouterr().out
        if artifact is None:
            artifact = "stdout.json"
            (tmp_path / artifact).write_text(out)
        assert main(["db", "ingest", artifact, "--db", "ing.sqlite"]) == 0
        recorded = point_rows(tmp_path / "rec.sqlite")
        assert recorded and recorded == point_rows(tmp_path / "ing.sqlite")

    def test_ingested_sweep_lists_its_figure_family(
        self, tiny_scenario, tmp_path, capsys
    ):
        spec = tiny_scenario(
            name="family", protocols=["Direct"],
            sweep={"parameter": "rate", "values": [100, 200]},
        )
        manifest = tmp_path / "sweep.json"
        manifest.write_text(spec.to_json())
        out = tmp_path / "out.json"
        db_path = str(tmp_path / "ing.sqlite")
        assert main(["scenario", "run", str(manifest), "--out", str(out)]) == 0
        assert main(["db", "ingest", str(out), "--db", db_path]) == 0
        capsys.readouterr()
        assert main(["db", "report", "--json", "--db", db_path]) == 0
        figures = json.loads(capsys.readouterr().out)["figures"]
        (family,) = figures.values()
        assert family["parameter"] == "rate"
        assert set(family["protocols"]) == {"Direct"}
        rows = point_rows(db_path)
        assert sorted(r[-1] for r in rows) == [100.0, 200.0]

    def test_each_resilience_point_is_a_resolved_scenario(
        self, tiny_scenario, tmp_path, capsys
    ):
        csv = tiny_scenario().trace.path
        db_path = str(tmp_path / "rec.sqlite")
        assert main(["resilience", "--trace", csv, "--rate", "10",
                     "--protocols", "Direct,PROPHET",
                     "--intensities", "0,0.75", "--fault-seed", "3",
                     "--no-reconvergence", "--record", "--db", db_path]) == 0
        n_landmarks = load_trace(csv).n_landmarks
        with ExperimentDB(db_path) as db:
            rows = query_points(db, sweep_parameter="intensity")
            assert sorted(r.sweep_value for r in rows) == [0.0, 0.0, 0.75, 0.75]
            for r in rows:
                scenario = db.scenario_blob(r.id)
                spec = ScenarioSpec.from_dict(scenario).validate()
                assert spec.n_points() == 1
                assert spec.protocols[0].name == r.protocol
                plan = fault_plan_dict(r.sweep_value, n_landmarks=n_landmarks, seed=3)
                assert spec.faults == (
                    FaultPlan.from_dict(plan) if plan["specs"] else None
                )
        capsys.readouterr()
        assert main(["db", "report", "--json", "--db", db_path]) == 0
        figures = json.loads(capsys.readouterr().out)["figures"]
        (family,) = figures.values()
        assert family["parameter"] == "intensity"
        assert set(family["protocols"]) == {"Direct", "PROPHET"}

    def test_a_recorded_curve_point_replays_and_reruns(
        self, tiny_scenario, tmp_path, capsys
    ):
        """A stored curve point explains itself: a replay of its hash and a
        rerun of the ``--out`` file give the recorded metrics."""
        from repro.serve.replay import ReplayRequest, replay_stream

        out = tmp_path / "res.json"
        db_path = str(tmp_path / "rec.sqlite")
        assert main(["resilience", "--trace", tiny_scenario().trace.path,
                     "--rate", "10", "--protocols", "PROPHET",
                     "--intensities", "0.75", "--no-reconvergence",
                     "--out", str(out), "--record", "--db", db_path]) == 0
        (curve,) = json.loads(out.read_text())["curves"]
        (recorded,) = curve["results"]
        with ExperimentDB(db_path) as db:
            (row,) = query_points(db)
        request = ReplayRequest.from_payload(
            {"point": row.scenario_hash}, db_path=db_path
        )
        replayed = replay_stream(request, lambda name, payload: None)["metrics"]
        assert replayed == {k: v for k, v in recorded.items() if k != "provenance"}
        capsys.readouterr()
        assert main(["rerun", str(out), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["results"] == [recorded]
