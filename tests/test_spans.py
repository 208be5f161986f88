"""Tests for hierarchical spans (repro.obs.spans) and the per-run phase
reports they give, the sampling profiler, and the flamegraph/span-tree
exports."""

from __future__ import annotations

import json
import threading
import time

from repro.baselines import make_protocol
from repro.obs import Observability
from repro.obs.export import (
    collapsed_lines,
    profile_payload,
    render_span_tree,
    span_tree_rows,
    write_flamegraph,
)
from repro.obs.sampler import SamplingProfiler, frame_label
from repro.obs.spans import SpanRecorder
from repro.sim.engine import Simulation


class TestSpanRecorder:
    def test_nesting_builds_a_tree(self):
        rec = SpanRecorder()
        with rec.span("outer"):
            with rec.span("inner"):
                pass
        outer = rec.root.children["outer"]
        assert outer.calls == 1
        assert "inner" in outer.children
        assert not rec.root.calls  # root is an untimed anchor

    def test_reentry_folds_into_one_node(self):
        rec = SpanRecorder()
        for _ in range(5):
            with rec.span("phase"):
                pass
        assert len(rec.root.children) == 1
        assert rec.root.children["phase"].calls == 5

    def test_add_attaches_to_current_span(self):
        rec = SpanRecorder()
        with rec.span("outer"):
            rec.add("leaf", 0.25, calls=3)
        leaf = rec.root.children["outer"].children["leaf"]
        assert leaf.seconds == 0.25
        assert leaf.calls == 3

    def test_cursor_parking_and_fold(self):
        """The engine's hot-loop idiom: park current, add deltas after
        (``Simulation._fold_dispatch`` adds each kind's total under the
        anchor, landing on the node the cursor was parked on)."""
        rec = SpanRecorder()
        anchor = rec.current
        node = rec.node("dispatch.visit_start", anchor)
        rec.current = node
        rec.add("router.carrier_selection", 0.1)
        rec.current = anchor
        rec.add("dispatch.visit_start", 0.5, calls=10)
        assert node.calls == 10
        assert node.seconds == 0.5
        assert node.children["router.carrier_selection"].seconds == 0.1

    def test_self_seconds_is_cumulative_minus_children(self):
        rec = SpanRecorder()
        with rec.span("outer") as outer:
            rec.add("a", 0.0)
        # overwrite with exact values so the assertion is deterministic
        outer.seconds = 1.0
        outer.children["a"].seconds = 0.3
        outer.children["a"].calls = 1
        assert abs(outer.self_seconds - 0.7) < 1e-12
        assert outer.cumulative_seconds == 1.0

    def test_self_seconds_never_negative(self):
        rec = SpanRecorder()
        with rec.span("outer") as outer:
            pass
        outer.seconds = 0.1
        child = outer.child("c")
        child.seconds = 0.5  # clock skew: child measured more than parent
        child.calls = 1
        assert outer.self_seconds == 0.0

    def test_untimed_anchor_reports_children_sum(self):
        rec = SpanRecorder()
        rec.add("a", 0.2)
        rec.add("b", 0.3)
        assert abs(rec.root.cumulative_seconds - 0.5) < 1e-12
        assert rec.root.self_seconds == 0.0

    def test_flat_aggregates_same_name_across_parents(self):
        rec = SpanRecorder()
        with rec.span("p1"):
            rec.add("shared", 0.1)
        with rec.span("p2"):
            rec.add("shared", 0.2)
        flat = rec.flat()
        assert abs(flat["shared"]["seconds"] - 0.3) < 1e-12
        assert flat["shared"]["calls"] == 2

    def test_tree_ids_and_sorting(self):
        rec = SpanRecorder()
        with rec.span("small"):
            pass
        with rec.span("big"):
            pass
        rec.root.children["big"].seconds = 2.0
        rec.root.children["small"].seconds = 1.0
        tree = rec.tree()
        assert tree["id"] == 0 and tree["parent_id"] is None
        names = [c["name"] for c in tree["children"]]
        assert names == ["big", "small"]  # heaviest first
        ids = [c["id"] for c in tree["children"]]
        assert ids == sorted(ids)
        assert all(c["parent_id"] == 0 for c in tree["children"])

    def test_tree_prunes_zero_cost_leaves(self):
        rec = SpanRecorder()
        rec.node("never_entered", rec.root)  # resolved but never folded
        with rec.span("real"):
            pass
        tree = rec.tree()
        names = [c["name"] for c in tree.get("children", [])]
        assert "never_entered" not in names
        assert "real" in names


class TestPerRunReports:
    def test_rows_returns_float_seconds(self):
        """A report carries float seconds and int calls; formatting is the
        CLI's job."""
        rec = SpanRecorder()
        rec.add("phase", 0.125)
        assert rec.flat() == {"phase": {"seconds": 0.125, "calls": 1}}
        (row,) = rec.flat().values()
        assert isinstance(row["seconds"], float)
        assert isinstance(row["calls"], int)

    def test_report_sorted_by_seconds_desc(self):
        rec = SpanRecorder()
        rec.add("cheap", 0.1)
        rec.add("dear", 0.9)
        assert list(rec.flat()) == ["dear", "cheap"]

    def test_anchor_isolates_runs_on_shared_recorder(
        self, dart_tiny, tiny_sim_config
    ):
        """Two runs on one recorder each report only their own phases."""
        rec = SpanRecorder()
        summaries = []
        for name in ("run1", "run2"):
            with rec.span(name):
                summaries.append(Simulation(
                    dart_tiny, make_protocol("DTN-FLOW"), tiny_sim_config,
                    obs=Observability(spans=rec),
                ).run())
        first, second = (s.phase_timings for s in summaries)
        assert first == rec.flat(rec.root.children["run1"])
        assert second == rec.flat(rec.root.children["run2"])
        # same run twice: the same events, each counted once per report
        calls = {name: r["calls"] for name, r in first.items()}
        assert calls == {name: r["calls"] for name, r in second.items()}
        assert rec.flat()["setup"]["calls"] == 2


class TestSamplingProfiler:
    def test_collects_stacks_from_target_thread(self):
        sampler = SamplingProfiler(hz=500.0)
        stop = threading.Event()

        def busy():
            while not stop.is_set():
                sum(range(200))

        worker = threading.Thread(target=busy, daemon=True)
        worker.start()
        try:
            sampler.start(target_ident=worker.ident)
            time.sleep(0.25)
            sampler.stop()
        finally:
            stop.set()
            worker.join(timeout=2)
        assert sampler.n_samples > 0
        assert sampler.samples
        for stack, count in sampler.samples.items():
            assert isinstance(stack, tuple) and count >= 1
            assert all(isinstance(fr, str) for fr in stack)

    def test_context_manager_and_as_dict(self):
        with SamplingProfiler(hz=200.0) as sampler:
            t0 = time.perf_counter()
            while time.perf_counter() - t0 < 0.1:
                sum(range(100))
        d = sampler.as_dict()
        assert d["n_samples"] == sampler.n_samples
        assert d["hz"] == 200.0

    def test_hz_validation(self):
        import pytest

        with pytest.raises(ValueError):
            SamplingProfiler(hz=0)
        with pytest.raises(ValueError):
            SamplingProfiler(hz=-5)

    def test_frame_label_shapes(self):
        import sys

        frame = sys._getframe()
        label = frame_label(frame)
        assert ":" in label


class TestExports:
    def test_collapsed_lines_heaviest_first(self):
        samples = {("a", "b"): 2, ("a", "c"): 5, ("d",): 5}
        lines = collapsed_lines(samples)
        assert lines == ["a;c 5", "d 5", "a;b 2"]

    def test_write_flamegraph(self, tmp_path):
        out = tmp_path / "fg.txt"
        n = write_flamegraph({("main", "work"): 3}, out)
        assert n == 1
        assert out.read_text() == "main;work 3\n"

    def test_span_tree_rows_depth_and_floor(self):
        tree = {
            "name": "root", "seconds": 10.0, "self_seconds": 0.0, "calls": 0,
            "children": [
                {"name": "big", "seconds": 9.0, "self_seconds": 9.0,
                 "calls": 1},
                {"name": "dust", "seconds": 0.001, "self_seconds": 0.001,
                 "calls": 1},
            ],
        }
        rows = span_tree_rows(tree, min_fraction=0.01)
        assert [(d, n) for d, n, *_ in rows] == [(0, "root"), (1, "big")]

    def test_render_span_tree_elides_beyond_max_rows(self):
        tree = {
            "name": "root", "seconds": 1.0, "self_seconds": 0.0, "calls": 0,
            "children": [
                {"name": f"c{i}", "seconds": 0.1, "self_seconds": 0.1,
                 "calls": 1}
                for i in range(5)
            ],
        }
        text = render_span_tree(tree, max_rows=3)
        assert "more spans elided" in text

    def test_profile_payload_shape(self):
        payload = profile_payload(
            label="lbl",
            scenario={"name": "s"},
            wall_seconds=1.5,
            span_tree={"name": "root", "seconds": 1.5},
            phases={"p": {"seconds": 1.0, "calls": 2}},
            recorded_at="2026-01-01T00:00:00Z",
        )
        assert payload["kind"] == "profile"
        assert payload["phases"]["p"] == {"seconds": 1.0, "calls": 2}
        assert payload["flamegraph"] == [] and payload["hz"] is None
        json.dumps(payload)  # must be JSON-serializable as-is
