"""Tests for trace serialisation, confidence intervals and the CLI."""

import io
import json
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines import PAPER_PROTOCOLS
from repro.eval.confidence import confidence_interval
from repro.eval.scenario import run_scenario
from repro.mobility.io import dump_trace, dumps_trace, load_trace, loads_trace
from repro.mobility.trace import Trace, VisitRecord
from repro.mobility.synthetic import dart_like


def rec(start, end, node, landmark):
    return VisitRecord(start=start, end=end, node=node, landmark=landmark)


class TestTraceIO:
    def test_roundtrip_string(self):
        t = Trace([rec(0.5, 1.25, 3, 7), rec(2, 3, 0, 1)], name="my trace")
        t2 = loads_trace(dumps_trace(t))
        assert t2.name == "my trace"
        assert list(t2) == list(t)

    def test_roundtrip_file(self, tmp_path):
        t = Trace([rec(0, 1, 0, 0)], name="X")
        path = tmp_path / "trace.csv"
        dump_trace(t, path)
        t2 = load_trace(path)
        assert list(t2) == list(t)

    def test_roundtrip_filelike(self):
        t = Trace([rec(0, 1, 0, 0)])
        buf = io.StringIO()
        dump_trace(t, buf)
        buf.seek(0)
        assert list(load_trace(buf)) == list(t)

    def test_load_from_content_string(self):
        t = Trace([rec(0, 1, 0, 0)])
        assert list(load_trace(dumps_trace(t))) == list(t)

    def test_bad_header_rejected(self):
        with pytest.raises(ValueError, match="repro trace"):
            loads_trace("node,landmark,start,end\n0,0,0,1\n")

    def test_bad_row_rejected(self):
        content = "# repro-trace v1 name=x\n0,0,0\n"
        with pytest.raises(ValueError, match="line 2"):
            loads_trace(content)

    def test_float_exactness(self):
        t = Trace([rec(0.1 + 0.2, 1.0 / 3.0 + 1.0, 0, 0)])
        t2 = loads_trace(dumps_trace(t))
        assert t2[0].start == t[0].start  # repr() round-trips floats

    def test_synthetic_roundtrip(self, dart_tiny):
        t2 = loads_trace(dumps_trace(dart_tiny))
        assert t2.n_nodes == dart_tiny.n_nodes
        assert t2.n_landmarks == dart_tiny.n_landmarks
        assert len(t2) == len(dart_tiny)

    @given(
        st.lists(
            st.tuples(
                st.floats(0, 1e6, allow_nan=False),
                st.floats(0, 1e3, allow_nan=False),
                st.integers(0, 50),
                st.integers(0, 20),
            ),
            max_size=30,
        )
    )
    @settings(max_examples=30)
    def test_roundtrip_property(self, raw):
        t = Trace([rec(s, s + d, n, l) for s, d, n, l in raw])
        assert list(loads_trace(dumps_trace(t))) == list(t)


class TestConfidence:
    def test_single_sample(self):
        ci = confidence_interval([5.0])
        assert ci.mean == 5.0 and ci.half_width == 0.0 and ci.n == 1

    def test_symmetric_bounds(self):
        ci = confidence_interval([1.0, 2.0, 3.0])
        assert ci.low == pytest.approx(ci.mean - ci.half_width)
        assert ci.high == pytest.approx(ci.mean + ci.half_width)
        assert ci.mean == 2.0

    def test_zero_variance(self):
        ci = confidence_interval([4.0] * 10)
        assert ci.half_width == 0.0

    def test_wider_level_wider_interval(self):
        data = [1.0, 2.0, 4.0, 8.0]
        ci95 = confidence_interval(data, level=0.95)
        ci99 = confidence_interval(data, level=0.99)
        assert ci99.half_width > ci95.half_width

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            confidence_interval([])

    def test_known_t_value(self):
        # n=2: t(0.975, df=1) = 12.706; sem = std/sqrt(2)
        ci = confidence_interval([0.0, 2.0])
        sem = np.std([0.0, 2.0], ddof=1) / np.sqrt(2)
        assert ci.half_width == pytest.approx(12.706 * sem, rel=1e-3)

    def test_run_with_confidence(self, tiny_scenario):
        spec = tiny_scenario(sim={"rate": 150.0}, seeds=[1, 2])
        cis = run_scenario(spec).confidence()["DTN-FLOW"]
        assert set(cis) == {"success_rate", "avg_delay", "forwarding_ops", "total_cost"}
        sr = cis["success_rate"]
        assert 0.0 <= sr.mean <= 1.0
        assert sr.n == 2
        assert "±" in str(sr)


def _manifest(tmp_path, trace, **knobs):
    """Write the scenario manifest the CLI's default workload flags describe."""
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({
        "trace": trace,
        "sim": {"memory_kb": 2000, "rate": knobs.pop("rate", 500)},
        "seeds": [1],
        **knobs,
    }))
    return str(path)


def _without_timings(rows):
    """Metric dicts minus the wall-clock phase timings."""
    return [{k: v for k, v in r.items() if k != "phase_timings"} for r in rows]


class TestCLI:
    def _run(self, argv, capsys):
        from repro.cli import main
        rc = main(argv)
        out = capsys.readouterr().out
        return rc, out

    def _json(self, argv, capsys):
        rc, out = self._run(argv + ["--json"], capsys)
        assert rc == 0
        return json.loads(out)

    def test_summary(self, capsys):
        rc, out = self._run(["summary", "--trace", "dnet", "--top", "3"], capsys)
        assert rc == 0
        assert "transit links" in out
        assert "busiest links:" in out

    def test_run(self, tmp_path, capsys):
        argv = ["run", "--trace", "dnet", "--protocol", "PROPHET", "--rate", "100"]
        rc, out = self._run(argv, capsys)
        assert rc == 0
        assert "success rate" in out
        # the flags build the scenario this manifest declares
        manifest = _manifest(tmp_path, {"profile": "DNET", "seed": 1},
                             protocol="PROPHET", rate=100)
        flags = self._json(argv, capsys)
        scenario = self._json(["scenario", "run", manifest], capsys)
        assert _without_timings([flags]) == _without_timings(scenario["results"])

    def test_compare_on_a_trace_file(self, tmp_path, capsys, dart_tiny):
        csv = str(tmp_path / "tiny.csv")
        dump_trace(dart_tiny, csv)
        flags = self._json(["compare", "--trace", csv, "--rate", "20"], capsys)
        assert [r["protocol"] for r in flags] == list(PAPER_PROTOCOLS)
        manifest = _manifest(tmp_path, {"path": csv},
                             protocols=list(PAPER_PROTOCOLS), rate=20)
        scenario = self._json(["scenario", "run", manifest], capsys)
        assert _without_timings(flags) == _without_timings(scenario["results"])

    @pytest.fixture
    def tiny_csv(self, tmp_path, dart_tiny):
        path = str(tmp_path / "tiny.csv")
        dump_trace(dart_tiny, path)
        return path

    def test_stats_json_event_counts_equal_the_summary(self, tiny_csv, capsys):
        stats = self._json(["stats", "--trace", tiny_csv, "--rate", "20"], capsys)
        by_type = stats["observability"]["events"]["by_type"]
        for fate in ("generated", "delivered", "dropped_ttl"):
            assert stats[fate] > 0
            assert by_type[fate] == stats[fate]
        assert stats["phase_timings"]

    def test_trace_exports_events_and_follows_a_delivered_packet(
        self, tiny_csv, tmp_path, capsys
    ):
        out_path = tmp_path / "events.jsonl"
        argv = ["trace", "--trace", tiny_csv, "--rate", "20"]
        rc, out = self._run(argv + ["--out", str(out_path)], capsys)
        assert rc == 0
        events = [json.loads(line) for line in out_path.read_text().splitlines()]
        assert f"wrote {len(events)} events to {out_path}" in out
        packet = next(e["packet"] for e in events if e["event"] == "delivered")
        rc, out = self._run(argv + ["--packet", str(packet)], capsys)
        assert rc == 0
        lines = out.splitlines()
        dashes = next(i for i, line in enumerate(lines) if line.startswith("---"))
        rows = [line.split() for line in lines[dashes + 1:lines.index("")]]
        assert rows[0][1] == "generated" and rows[-1][1] == "delivered"
        hours = [float(row[0]) for row in rows]
        assert hours == sorted(hours)
        assert "delivered after" in out

    def test_trace_of_a_packet_with_no_events_exits_1(self, tiny_csv, capsys):
        rc, out = self._run(
            ["trace", "--trace", tiny_csv, "--rate", "20", "--packet", "999999999"],
            capsys,
        )
        assert rc == 1
        assert "no recorded events for packet 999999999" in out

    def test_predict(self, capsys):
        rc, out = self._run(["predict", "--trace", "dnet"], capsys)
        assert rc == 0
        assert "mean accuracy" in out

    def test_sweep_custom_values(self, tmp_path, capsys):
        rc, out = self._run(
            ["sweep", "rate", "--trace", "dnet", "--values", "100,200",
             "--protocols", "DTN-FLOW,Direct"],
            capsys,
        )
        assert rc == 0
        assert "success_rate" in out
        assert "forwarding_cost" in out
        manifest = _manifest(
            tmp_path, {"profile": "DNET", "seed": 1},
            protocols=["DTN-FLOW", "Direct"],
            sweep={"parameter": "rate", "values": [100, 200]},
        )
        rc, scenario = self._run(["scenario", "run", manifest], capsys)
        assert rc == 0
        assert out == scenario

    def test_deployment(self, capsys):
        rc, out = self._run(["deployment", "--days", "4"], capsys)
        assert rc == 0
        assert "success rate" in out

    def test_external_trace_file(self, tmp_path, capsys):
        trace = dart_like("tiny", seed=1)
        path = tmp_path / "t.csv"
        dump_trace(trace, path)
        rc, out = self._run(["summary", "--trace", str(path)], capsys)
        assert rc == 0
        assert "DART-like[tiny]" in out

    def test_unknown_protocol_rejected(self, capsys):
        from repro.cli import main
        with pytest.raises(SystemExit):
            main(["run", "--protocol", "bogus"])


class TestCLIRobustness:
    """Bad inputs exit nonzero with a one-line diagnostic, not a traceback."""

    def _run(self, argv, capsys):
        from repro.cli import main
        rc = main(argv)
        captured = capsys.readouterr()
        return rc, captured.out, captured.err

    def test_scenario_run_missing_file(self, capsys):
        rc, _, err = self._run(["scenario", "run", "/no/such/file.json"], capsys)
        assert rc == 2
        assert "neither a scenario file nor a preset" in err
        assert "Traceback" not in err

    def test_scenario_run_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        rc, _, err = self._run(["scenario", "run", str(path)], capsys)
        assert rc == 2
        assert "not valid JSON" in err

    def test_scenario_run_schema_invalid_names_field(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(
            '{"trace": {"profile": "DART"}, "bogus_knob": 1}'
        )
        rc, _, err = self._run(["scenario", "run", str(path)], capsys)
        assert rc == 2
        assert "bogus_knob" in err

    def test_scenario_run_invalid_faults_names_field(self, tmp_path, capsys):
        path = tmp_path / "badfaults.json"
        path.write_text(
            '{"trace": {"profile": "DART"},'
            ' "faults": {"specs": [{"kind": "transfer_loss"}]}}'
        )
        rc, _, err = self._run(["scenario", "run", str(path)], capsys)
        assert rc == 2
        assert "prob" in err

    def test_rerun_missing_file(self, capsys):
        rc, _, err = self._run(["rerun", "/no/such/export.json"], capsys)
        assert rc == 2
        assert "cannot read" in err
        assert "Traceback" not in err

    def test_rerun_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("[1, 2,")
        rc, _, err = self._run(["rerun", str(path)], capsys)
        assert rc == 2
        assert "not valid JSON" in err

    def test_resilience_rejects_bad_inputs(self, capsys):
        rc, _, err = self._run(
            ["resilience", "--intensities", "0,huge"], capsys
        )
        assert rc == 2
        assert "comma-separated numbers" in err
        rc, _, err = self._run(
            ["resilience", "--protocols", "DTN-FLOW,Bogus"], capsys
        )
        assert rc == 2
        assert "Bogus" in err

    @pytest.mark.parametrize("command", [
        ["scenario", "run", "MANIFEST"],
        ["chaos", "MANIFEST"],
    ])
    def test_a_shards_key_exits_2_naming_the_removal(self, command, tmp_path, capsys):
        path = tmp_path / "sharded.json"
        path.write_text('{"trace": {"profile": "DART"}, "shards": 2}')
        argv = [str(path) if a == "MANIFEST" else a for a in command]
        rc, _, err = self._run(argv, capsys)
        assert rc == 2
        (line,) = err.strip().splitlines()
        assert "'shards' was removed" in line

    @pytest.mark.parametrize("argv", [
        ["run", "--shards", "2"],
        ["scenario", "run", "dart-run", "--shards", "2"],
        ["scenario", "run", "dart-run", "--span-tree", "spans.json"],
        ["chaos", "dart-run", "--shards", "2"],
        ["chaos", "dart-run", "--kill-shard", "1:1"],
    ])
    def test_removed_shard_flags_are_argparse_errors(self, argv, capsys):
        from repro.cli import main
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["run", "--scenario", "dart-run"], "unrecognized arguments"),
        (["run", "--run-dir", "out/run1"], "unrecognized arguments"),
        (["run", "--every-events", "100"], "unrecognized arguments"),
        (["compare", "--scenario", "dart-compare"], "unrecognized arguments"),
        (["sweep"], "the following arguments are required: parameter"),
        (["sweep", "memory", "--scenario", "fig11-dart-memory"],
         "unrecognized arguments"),
    ])
    def test_removed_manifest_flags_are_argparse_errors(self, argv, message, capsys):
        """A manifest or preset runs with ``scenario run`` alone."""
        from repro.cli import main
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("argv, expected", [
        (["scenario", "validate", "dart-run", "--json", "--out", "OUT"],
         "repro scenario validate does not read --out, --json"),
        (["scenario", "validate", "dart-run", "--jobs", "1"],
         "repro scenario validate does not read --jobs"),
        (["scenario", "show", "dart-run", "--record", "--db", "DB",
          "--jobs", "4", "--every-events", "5"],
         "repro scenario show does not read --jobs, --record, --db, "
         "--every-events"),
        (["scenario", "show", "dart-run", "--run-dir", "RUN"],
         "repro scenario show does not read --run-dir"),
        (["scenario", "list", "--out", "OUT", "--json"],
         "repro scenario list does not read --out"),
        (["scenario", "list", "--record"],
         "repro scenario list does not read --record"),
        (["scenario", "run", "dart-run", "--every-events", "5"],
         "repro scenario run: --every-events needs --run-dir"),
    ])
    def test_a_scenario_flag_its_action_does_not_read_exits_2(
        self, argv, expected, tmp_path, monkeypatch, capsys
    ):
        """``list`` reads only ``--json``, ``validate`` and ``show`` only
        their sources, and ``run`` every flag (``--every-events`` with
        ``--run-dir``); any other flag is refused before anything runs."""
        from repro.cli import main
        from repro.eval.runner import TraceSpec

        def no_work(*args, **kwargs):
            raise AssertionError("work started for a refused flag")

        monkeypatch.setattr(TraceSpec, "materialize", no_work)
        monkeypatch.setattr("repro.cli.load_scenario", no_work)
        paths = {"OUT": tmp_path / "x.json", "DB": tmp_path / "y.sqlite",
                 "RUN": tmp_path / "run"}
        rc = main([str(paths.get(a, a)) for a in argv])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        (line,) = captured.err.strip().splitlines()
        assert line == expected
        assert not any(path.exists() for path in paths.values())

    @pytest.mark.parametrize("argv, expected", [
        (["sweep", "memory", "--values", "abc"], "--values"),
        (["sweep", "memory", "--protocols", "bogus"], "bogus"),
        (["sweep", "rate", "--protocols", "DTN-FLOW,DTN-FLOW"], "duplicate"),
        (["run", "--trace", "missing.csv"], "missing.csv"),
        (["run", "--memory", "0"], "node_memory_kb"),
        (["compare", "--seeds", "0"], "--seeds"),
        (["compare", "--seeds", "-1"], "--seeds"),
        (["stats", "--memory", "-5"], "node_memory_kb"),
        (["trace", "--memory", "-5"], "node_memory_kb"),
        (["stats", "--trace", "missing.csv"], "missing.csv"),
        (["trace", "--trace", "missing.csv"], "missing.csv"),
        (["resilience", "--memory", "-5"], "node_memory_kb"),
        (["resilience", "--rate", "-1"], "rate_per_landmark_per_day"),
        (["resilience", "--intensities", "1.5"], "--intensities"),
        (["resilience", "--death-start", "1.5"], "--death-start"),
        (["resilience", "--probes", "1"], "--probes"),
        (["trace", "--limit", "-1"], "--limit"),
        (["trace", "--limit", "0"], "--limit"),
    ])
    def test_bad_workload_flags_exit_2_before_any_trace_is_built(
        self, argv, expected, tmp_path, monkeypatch, capsys
    ):
        from repro.cli import main
        from repro.eval.runner import TraceSpec

        def no_build(*args, **kwargs):
            raise AssertionError("a trace was built for a bad flag")

        monkeypatch.setattr(TraceSpec, "materialize", no_build)
        monkeypatch.setattr("repro.mobility.io.load_trace", no_build)
        usage_error = False
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse rejects a bad --seeds or --limit
            rc, usage_error = exc.code, True
        err = capsys.readouterr().err
        assert rc == 2
        assert "Traceback" not in err
        assert expected in err.strip().splitlines()[-1]
        if not usage_error:  # argparse prints its usage lines first
            assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("command", ["summary", "predict", "resilience"])
    @pytest.mark.parametrize("content", [None, "node,landmark,start,end\n"])
    def test_an_unreadable_trace_csv_exits_2_with_one_line(
        self, command, content, tmp_path, capsys
    ):
        """A missing CSV, or one without the trace header, is named in one
        line instead of a traceback."""
        path = tmp_path / "visits.csv"
        if content is not None:
            path.write_text(content)
        rc, _, err = self._run([command, "--trace", str(path)], capsys)
        assert rc == 2
        (line,) = err.strip().splitlines()
        assert "visits.csv" in line


def test_importing_the_cli_loads_no_sharded_engine(child_env):
    """No CLI path shards a point, so the CLI never imports the kernel."""
    code = (
        "import sys, repro.cli; print(sorted(m for m in sys.modules "
        "if m in ('repro.eval.sharded', 'repro.sim.shard')))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env=child_env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_importing_the_cli_loads_no_scipy(child_env):
    """scipy takes most of a second to import; only ``SubareaMap`` and
    ``confidence_interval`` need it, and they import it when called."""
    code = "import sys, repro.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env=child_env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
