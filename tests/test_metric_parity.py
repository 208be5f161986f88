"""Bit-identical metric parity against the committed CI baseline.

The hot-path optimisations (slotted entities, memoized routing lookups,
generation/visit fast paths) all claim *bit-identical* metrics.  This suite
enforces that claim: it re-runs the two ci scenarios — the fig11 point
across all nine registry protocols, plus a faulted variant exercising the
fault plane the fast paths must disable themselves under — and gates every
metric against ``ci/regression-baseline.json`` with zero tolerance.

Any float-level drift (a reordered summation, a skipped scan that was not
actually a verbatim replay, an RNG draw out of order) fails here before it
can reach a sweep benchmark.

Marked ``slow``: the pair of scenario runs takes a couple of minutes, so
the suite is skipped under ``-m 'not slow'`` quick iterations but runs in
CI's regression-gate job (which invokes the same scenarios through the
``repro`` CLI for an exit-coded gate).
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import main

REPO = Path(__file__).resolve().parent.parent
CI = REPO / "ci"

pytestmark = pytest.mark.slow

SCENARIOS = [
    CI / "regression-scenario.json",
    CI / "regression-faulted-scenario.json",
]


@pytest.fixture(scope="module")
def parity_db(tmp_path_factory):
    """Both ci scenarios, run serially and recorded into a fresh store."""
    db = tmp_path_factory.mktemp("parity") / "parity.sqlite"
    for scenario in SCENARIOS:
        rc = main([
            "scenario", "run", str(scenario),
            "--jobs", "1", "--record", "--db", str(db),
        ])
        assert rc == 0, f"scenario run failed for {scenario.name}"
    return db


def test_ci_scenarios_cover_all_registry_protocols():
    spec = json.loads((CI / "regression-scenario.json").read_text())
    from repro.baselines import protocol_names

    assert sorted(spec["protocols"]) == sorted(protocol_names()), (
        "ci/regression-scenario.json must pin every registry protocol: "
        "a protocol outside the parity gate can silently drift"
    )


def test_metrics_bit_identical_to_committed_baseline(parity_db, capsys):
    rc = main([
        "db", "regress",
        "--db", str(parity_db),
        "--baseline-file", str(CI / "regression-baseline.json"),
    ])
    out = capsys.readouterr().out
    assert rc == 0, f"zero-tolerance regress failed:\n{out}"
    assert "0 failed" in out and "0 missing" in out


def test_baseline_covers_both_scenarios():
    baseline = json.loads((CI / "regression-baseline.json").read_text())
    hashes = {row["scenario_hash"] for row in baseline["rows"]}
    assert len(hashes) >= 2, (
        "expected baseline rows from both the plain and the faulted "
        "scenario; re-pin with scripts in ci/ after intentional changes"
    )
