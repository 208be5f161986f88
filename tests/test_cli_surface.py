"""The CLI's settable surface, pinned.

Every subcommand's settable values (its argparse actions minus
``--help``, positionals included) are listed below.  A change that adds
or removes one edits this list, so the surface cannot grow or shrink
unnoticed.
"""

import argparse

from repro.cli import build_parser

SURFACE = {
    "summary": ["--trace", "--seed", "--top"],
    "run": ["--trace", "--seed", "--protocol", "--memory", "--rate", "--jobs",
            "--record", "--db", "--json"],
    "compare": ["--trace", "--seed", "--memory", "--rate", "--seeds", "--jobs",
                "--record", "--db", "--json"],
    "trace": ["--trace", "--seed", "--protocol", "--memory", "--rate",
              "--packet", "--etype", "--limit", "--out", "--capacity"],
    "stats": ["--trace", "--seed", "--protocol", "--memory", "--rate",
              "--capacity", "--json"],
    "sweep": ["--trace", "--seed", "parameter", "--values", "--memory", "--rate",
              "--protocols", "--jobs", "--record", "--db", "--progress"],
    "profile": ["scenario", "--hz", "--no-sampler", "--allocations",
                "--flamegraph", "--span-tree", "--out", "--label", "--max-spans",
                "--record", "--db"],
    "scenario": ["action", "sources", "--jobs", "--record", "--db", "--run-dir",
                 "--every-events", "--out", "--json"],
    "resume": ["run_dir", "--record", "--db", "--out", "--json"],
    "chaos": ["scenario", "--run-dir", "--seed", "--point", "--interrupt-after",
              "--truncate-checkpoint", "--hold-lock-ms", "--every-events",
              "--record", "--db", "--out", "--json"],
    "rerun": ["file", "--index", "--jobs", "--json"],
    "resilience": ["--trace", "--seed", "--memory", "--rate", "--protocols",
                   "--intensities", "--workload-scale", "--fault-seed",
                   "--death-start", "--probes", "--no-reconvergence", "--jobs",
                   "--record", "--db", "--out", "--json"],
    "db ingest": ["--db", "files", "--label"],
    "db query": ["--db", "--protocol", "--trace", "--hash", "--kind", "--metric",
                 "--latest", "--limit", "--json"],
    "db baseline": ["--db", "name", "--out", "--protocol", "--trace"],
    "db regress": ["--db", "--baseline-file", "--out", "--json"],
    "db report": ["--db", "--out", "--json"],
    "serve": ["--host", "--port", "--run-root", "--jobs", "--record", "--db",
              "--verbose"],
    "deployment": ["--days", "--seed"],
    "predict": ["--trace", "--seed"],
}


def settable_values(parser: argparse.ArgumentParser, command: str = "") -> set:
    """``"<subcommand> <value>"`` for every settable value under ``parser``."""
    out = set()
    for action in parser._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                out |= settable_values(sub, f"{command} {name}".strip())
            continue
        name = action.option_strings[0] if action.option_strings else action.dest
        out.add(f"{command} {name}")
    return out


def test_the_cli_surface_is_the_pinned_list():
    pinned = {f"{cmd} {value}" for cmd, values in SURFACE.items() for value in values}
    actual = settable_values(build_parser())
    added, removed = sorted(actual - pinned), sorted(pinned - actual)
    assert not added and not removed, f"added: {added}; removed: {removed}"
    assert len(actual) == 141
