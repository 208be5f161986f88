"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``summary``     trace characteristics + Section III-B analytics
``run``         one experiment (trace x protocol x memory x rate)
``compare``     all six paper protocols on the same workload
``sweep``       the Fig. 11-14 memory/rate sweeps
``scenario``    run/validate/show declarative scenario manifests
``rerun``       reproduce a past run from its exported provenance
``resume``      continue an interrupted checkpointed run directory
``resilience``  degradation curves + re-convergence under injected faults
``chaos``       executor-fault injection: recovery + metric-parity gate
``db``          experiment store: ingest/query/baseline/regress/report
``deployment``  the Section V-C campus deployment
``predict``     the Fig. 6 order-k prediction study
``trace``       replay a run with event tracing; follow a packet hop-by-hop
``stats``       metrics, event counts + phase timings for one traced run

Traces are either the built-in profiles (``dart``, ``dnet``) or a CSV file
written by :func:`repro.mobility.io.dump_trace` (pass a path).

``run`` and ``compare`` accept ``--json`` for machine-readable output; the
rows carry full run provenance (config, seed, package version, resolved
scenario) so result files are self-describing — ``repro rerun`` turns any
such file back into the bit-identical experiment that produced it.
A manifest or preset runs with ``repro scenario run`` (see
``docs/scenarios.md``); the trace and workload flags of ``run``,
``compare``, ``sweep``, ``trace`` and ``stats`` build the equivalent
scenario, so both forms run, validate and record the same way, through
:func:`repro.eval.scenario.run_scenario`.

``run``, ``compare``, ``sweep``, ``scenario run`` and ``resilience`` accept
``--record [--db PATH]`` to persist their results into the SQLite
experiment store; ``repro db`` queries the store, writes baseline
snapshot files and gates candidate results against them (see
``docs/storage.md``).  Recording happens in the parent process only —
parallel workers never touch the database.  A store written by a newer
package is a usage error (one line, exit 2) for every command that opens
one, checked before any point runs.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from contextlib import nullcontext
from typing import List, Optional, Sequence

from repro.baselines import PAPER_PROTOCOLS, protocol_names
from repro.core import evaluate_predictor
from repro.eval.config import profile_for_trace, sweep_grid, trace_profile
from repro.eval.deployment import run_deployment
from repro.eval.resilience import (
    DEFAULT_INTENSITIES,
    degradation_curves,
    reconvergence_after_death,
)
from repro.eval.runner import parse_jobs
from repro.eval.scenario import (
    ScenarioResult,
    ScenarioSpec,
    embedded_scenario,
    load_scenario,
    preset_catalog,
    run_scenario,
)
from repro.eval.profiling import profile_scenario
from repro.mobility import io as trace_io
from repro.mobility import stats
from repro.obs import RUN_EVENTS, Observability, SpanRecorder
from repro.obs.export import render_span_tree, write_flamegraph, write_profile
from repro.obs.provenance import _jsonable
from repro.store import (
    ExperimentDB,
    IngestStats,
    PointFilter,
    baseline_snapshot,
    default_db_path,
    ingest_experiment_results,
    ingest_payload,
    ingest_profile,
    ingest_scenario_result,
    regress,
    select_points,
    snapshot_rows,
    write_report,
)
from repro.sim.engine import SimConfig
from repro.utils.tables import format_table


def _resolve_trace(spec: str, seed: int) -> tuple:
    """Return (trace, profile) for a profile name or a CSV path.

    A missing, unreadable or malformed CSV exits 2 with one line.
    """
    key = spec.upper()
    if key in ("DART", "DNET"):
        profile = trace_profile(key)
        return profile.build(seed), profile
    try:
        trace = trace_io.load_trace(spec)
    except (OSError, ValueError) as exc:
        raise _UsageError(f"cannot read trace {spec!r}: {exc}") from None
    return trace, profile_for_trace(trace, path=spec)


def cmd_summary(args: argparse.Namespace) -> int:
    trace, profile = _resolve_trace(args.trace, args.seed)
    s = stats.trace_summary(trace)
    print(format_table(
        ["trace", "nodes", "landmarks", "days", "records", "transits"],
        [s.as_row()],
    ))
    links = stats.ordered_link_bandwidths(trace, profile.time_unit)
    conc = stats.bandwidth_concentration(trace, profile.time_unit)
    print(f"\ntransit links: {len(links)}; top-20% links carry {conc:.0%} of flow")
    rows = [
        [f"{l.src}->{l.dst}", round(l.bandwidth, 2), round(l.matching_bandwidth, 2)]
        for l in links[: args.top]
    ]
    print(format_table(["link", "bw/unit", "matching"], rows, title="busiest links:"))
    return 0


class _UsageError(Exception):
    """A bad argument: a scenario, trace, JSON file or store this package
    cannot use (prints as one line, exit code 2)."""


def _store_path(args: argparse.Namespace) -> str:
    return getattr(args, "db", None) or default_db_path()


def _open_store(path: str) -> ExperimentDB:
    """The experiment store at ``path``; one a newer package wrote is a
    usage error, not a traceback."""
    try:
        return ExperimentDB(path)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


def _check_store(path: str) -> None:
    """Refuse an existing store this package cannot open, before any work
    runs; a path with no file yet is left to the first recording."""
    if os.path.exists(path):
        _open_store(path).close()


def _maybe_record(args: argparse.Namespace, ingest, *ingest_args, **ingest_kw) -> None:
    """Persist results into the experiment store when ``--record`` is set.

    Runs in the parent process only, after all (possibly parallel) workers
    have returned — workers never open the database.
    """
    if not getattr(args, "record", False):
        return
    path = _store_path(args)
    with _open_store(path) as db:
        stats = ingest(db, *ingest_args, **ingest_kw)
    print(f"recorded {stats} -> {path}", file=sys.stderr)


def _load_scenario_arg(source: str) -> ScenarioSpec:
    """Load + fully validate a manifest path or preset name (CLI wrapper)."""
    try:
        return load_scenario(source).validate()
    except ValueError as exc:
        raise _UsageError(f"invalid scenario {source!r}: {exc}") from None


def _flag_scenario(
    args: argparse.Namespace,
    *,
    name: str,
    protocols: Sequence[str],
    seeds: Sequence[int] = (),
    sweep: Optional[dict] = None,
) -> ScenarioSpec:
    """The scenario the workload flags of ``run``, ``compare``, ``sweep``,
    ``trace`` and ``stats`` describe.

    The trace is ``--trace`` at seed ``--seed`` (a built-in profile's own
    scenario trace block, or a CSV ``path``); ``seeds`` are the sim seeds
    (default ``--seed``).  The spec is validated like a manifest given to
    ``scenario run``, so a bad flag exits 2 before any trace is built.
    """
    key = args.trace.upper()
    try:
        trace = (
            trace_profile(key).trace_field(args.seed)
            if key in ("DART", "DNET")
            else {"path": args.trace}
        )
        return ScenarioSpec.from_dict({
            "name": name,
            "trace": trace,
            "sim": {"memory_kb": args.memory, "rate": args.rate},
            "protocols": list(protocols),
            "seeds": list(seeds) or [args.seed],
            **({"sweep": sweep} if sweep else {}),
        }).validate()
    except ValueError as exc:
        raise _UsageError(f"repro {args.command}: {exc}") from None


def _print_metrics_table(result, title: str) -> None:
    rows = [
        ["packets generated", result.generated],
        ["delivered", result.delivered],
        ["success rate", f"{result.success_rate:.4f}"],
        ["avg delay (h)", f"{result.avg_delay / 3600:.2f}"],
        ["forwarding ops", result.forwarding_ops],
        ["maintenance ops", result.maintenance_ops],
        ["total cost", result.total_cost],
    ]
    print(format_table(["metric", "value"], rows, title=title))


_COMPARE_HEADERS = ["protocol", "success rate", "avg delay (h)", "fwd ops", "total cost"]


def _ci_rows(confidence) -> List[list]:
    """One table row per protocol of ``ScenarioResult.confidence()``."""
    return [
        [
            protocol,
            str(cis["success_rate"]),
            f"{cis['avg_delay'].mean / 3600:.1f} ± "
            f"{cis['avg_delay'].half_width / 3600:.1f}",
            str(cis["forwarding_ops"]),
            str(cis["total_cost"]),
        ]
        for protocol, cis in confidence.items()
    ]


def _print_scenario_result(res: ScenarioResult) -> None:
    """Human-readable rendering of a scenario run (any grid shape)."""
    spec = res.spec
    label = spec.name or "scenario"
    if spec.sweep is not None and len(spec.seeds) == 1:
        sweep = res.sweep_result()
        for metric in sweep.METRICS:
            print(sweep.metric_table(metric))
            print()
        return
    rows = []
    for point, r in zip(res.points, res.results):
        m = r.metrics
        rows.append([
            point.protocol, f"{point.memory_kb:g}", f"{point.rate:g}", point.seed,
            f"{m.success_rate:.3f}", f"{m.avg_delay / 3600:.1f}",
            m.forwarding_ops, m.total_cost,
        ])
    print(format_table(
        ["protocol", "memory_kb", "rate", "seed",
         "success rate", "avg delay (h)", "fwd ops", "total cost"],
        rows,
        title=f"{label} ({res.results[0].trace if res.results else spec.trace}):",
    ))
    if len(spec.seeds) > 1:
        print()
        print(format_table(
            _COMPARE_HEADERS, _ci_rows(res.confidence()),
            title=f"95% confidence over seeds {list(spec.seeds)}:",
        ))


def cmd_run(args: argparse.Namespace) -> int:
    spec = _flag_scenario(
        args, name=f"run-{args.protocol}", protocols=[args.protocol]
    )
    res = run_scenario(spec, jobs=parse_jobs(args.jobs))
    _maybe_record(
        args, ingest_scenario_result, res, kind="run", label=f"run:{args.protocol}"
    )
    result = res.results[0].metrics
    if args.json:
        print(json.dumps(result.as_dict(), indent=2, sort_keys=True))
        return 0
    _print_metrics_table(
        result, f"{res.points[0].protocol} on {res.results[0].trace}:"
    )
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    spec = _flag_scenario(
        args, name="compare", protocols=PAPER_PROTOCOLS,
        seeds=range(args.seed, args.seed + args.seeds),
    )
    res = run_scenario(spec, jobs=parse_jobs(args.jobs))
    trace = res.results[0].trace
    if args.seeds > 1:
        confidence = res.confidence()
        rows = _ci_rows(confidence)
        json_rows = [
            {
                "protocol": protocol,
                "trace": trace,
                "memory_kb": args.memory,
                "rate": args.rate,
                "seeds": list(spec.seeds),
                "metrics": {m: dataclasses.asdict(ci) for m, ci in cis.items()},
            }
            for protocol, cis in confidence.items()
        ]
        # the CI rows carry half-widths, which db query shows
        _maybe_record(args, ingest_payload, json_rows, label=f"compare:{trace}")
    else:
        rows = [
            [
                r.protocol, f"{r.metrics.success_rate:.3f}",
                f"{r.metrics.avg_delay / 3600:.1f}",
                r.metrics.forwarding_ops, r.metrics.total_cost,
            ]
            for r in res.results
        ]
        json_rows = [r.metrics.as_dict() for r in res.results]
        _maybe_record(
            args, ingest_scenario_result, res,
            kind="compare", label=f"compare:{trace}",
        )
    if args.json:
        print(json.dumps(json_rows, indent=2, sort_keys=True))
        return 0
    print(format_table(
        _COMPARE_HEADERS, rows,
        title=f"{trace}, memory={args.memory:g} kB, rate={args.rate:g}/lm/day:",
    ))
    return 0


def _print_phase_table(phases, title: str) -> None:
    """A ``{phase: {"seconds", "calls"}}`` report as a table."""
    print(format_table(
        ["phase", "seconds", "calls"],
        [[name, f"{rec['seconds']:.4f}", int(rec["calls"])]
         for name, rec in phases.items()],
        title=title,
    ))


def _progress_printer(total: int):
    """A sweep ``progress`` callback printing completion + ETA to stderr.

    Ignores ``started`` records — one line per completed point keeps a
    30-point sweep readable.
    """
    from time import perf_counter

    state = {"done": 0, "t0": perf_counter()}

    def on_event(event) -> None:
        if event.kind != "finished":
            return
        state["done"] += 1
        n = state["done"]
        elapsed = perf_counter() - state["t0"]
        eta = elapsed / n * (total - n)
        took = f" in {event.seconds:.1f}s" if event.seconds is not None else ""
        print(
            f"[{n}/{total}] {event.protocol} memory={event.memory_kb:g} "
            f"rate={event.rate:g} seed={event.seed} done{took} — "
            f"elapsed {elapsed:.0f}s, eta {eta:.0f}s",
            file=sys.stderr,
            flush=True,
        )

    return on_event


def cmd_sweep(args: argparse.Namespace) -> int:
    parameter = "memory_kb" if args.parameter == "memory" else "rate"
    try:
        values = (
            [float(v) for v in args.values.split(",")]
            if args.values
            else list(sweep_grid(parameter, full=False))
        )
    except ValueError:
        print(f"--values must be comma-separated numbers, got "
              f"{args.values!r}", file=sys.stderr)
        return 2
    spec = _flag_scenario(
        args,
        name=f"{args.parameter}-sweep",
        protocols=args.protocols.split(",") if args.protocols else PAPER_PROTOCOLS,
        sweep={"parameter": parameter, "values": values},
    )
    progress = _progress_printer(spec.n_points()) if args.progress else None
    res = run_scenario(spec, jobs=parse_jobs(args.jobs), progress=progress)
    _maybe_record(
        args, ingest_scenario_result, res, kind="sweep",
        label=f"{res.results[0].trace}:{args.parameter}",
    )
    _print_scenario_result(res)
    return 0


def cmd_scenario(args: argparse.Namespace) -> int:
    if args.action == "list":
        # the catalog is the same payload GET /v1/scenarios serves
        catalog = preset_catalog()
        if getattr(args, "json", False):
            print(json.dumps(catalog, indent=2, sort_keys=True))
            return 0
        rows = []
        for entry in catalog:
            trace = entry["trace"]
            sweep = entry.get("sweep")
            rows.append([
                entry["name"],
                trace.get("profile") or trace.get("path"),
                entry["n_points"],
                len(entry["protocols"]),
                f"{sweep['parameter']} x{len(sweep['values'])}" if sweep else "-",
            ])
        print(format_table(
            ["preset", "trace", "points", "protocols", "sweep"], rows,
            title="named preset scenarios:",
        ))
        return 0
    if not args.sources:
        print("give at least one scenario file or preset name", file=sys.stderr)
        return 2
    if args.action == "validate":
        # an invalid manifest is a usage error, as for every other command
        failed = 0
        for source in args.sources:
            try:
                spec = _load_scenario_arg(source)
            except _UsageError as exc:
                print(f"{source}: INVALID — {exc}")
                failed += 1
            else:
                print(f"{source}: OK ({spec.n_points()} grid points)")
        return 2 if failed else 0
    if len(args.sources) != 1:
        print(f"scenario {args.action} takes exactly one scenario", file=sys.stderr)
        return 2
    spec = _load_scenario_arg(args.sources[0])
    if args.action == "show":
        print(spec.to_json())
        return 0
    # action == "run"
    if args.run_dir:
        return _run_resumable_cli(args, spec)
    res = run_scenario(spec, jobs=parse_jobs(args.jobs))
    _maybe_record(args, ingest_scenario_result, res)
    return _scenario_output(args, res)


def _scenario_output(args: argparse.Namespace, res: ScenarioResult) -> int:
    """Shared output tail for scenario-shaped results (tables/--out/--json)."""
    payload = res.as_dict()
    out = getattr(args, "out", None)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
        print(f"wrote {len(res.results)} results to {out}")
    if getattr(args, "json", False):
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    if not out:
        _print_scenario_result(res)
    return 0


def _record_partial(args: argparse.Namespace, results, label: str) -> int:
    """Record whatever completed before an interrupt; returns the count.

    The store's content-hash dedup makes this safe: when the resumed run
    records the full sweep, the points recorded here are recognized and
    skipped.
    """
    done = sum(r is not None for r in results)
    if done:
        _maybe_record(
            args, ingest_experiment_results, results,
            kind="scenario", label=f"{label}:partial",
        )
    return done


def _run_resumable_cli(args: argparse.Namespace, spec: ScenarioSpec) -> int:
    """Create-or-continue a checkpointed run directory (``scenario run
    --run-dir``) over ``--jobs`` workers."""
    from repro.eval.resume import create_run, run_resumable
    from repro.eval.runner import SweepInterrupted
    from repro.sim.checkpoint import DEFAULT_EVERY_EVENTS, CheckpointError

    every = args.every_events or DEFAULT_EVERY_EVENTS
    label = spec.name or "scenario"
    try:
        rd = create_run(args.run_dir, spec, every_events=every)
        res, _infos = run_resumable(
            spec, rd, every_events=every, jobs=parse_jobs(args.jobs)
        )
    except CheckpointError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except SweepInterrupted as exc:
        done = _record_partial(args, exc.results, label)
        print(
            f"interrupted: {done}/{len(exc.results)} points complete and "
            f"checkpointed; continue with: repro resume {args.run_dir}",
            file=sys.stderr,
        )
        return 130
    _maybe_record(args, ingest_scenario_result, res)
    return _scenario_output(args, res)


def cmd_resume(args: argparse.Namespace) -> int:
    from repro.eval.resume import resume_run
    from repro.eval.runner import SweepInterrupted
    from repro.sim.checkpoint import CheckpointError

    try:
        res, _infos, spec = resume_run(args.run_dir)
    except CheckpointError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except SweepInterrupted as exc:
        done = _record_partial(args, exc.results, "resume")
        print(
            f"interrupted again: {done}/{len(exc.results)} points complete; "
            f"continue with: repro resume {args.run_dir}",
            file=sys.stderr,
        )
        return 130
    _maybe_record(args, ingest_scenario_result, res)
    return _scenario_output(args, res)


def cmd_chaos(args: argparse.Namespace) -> int:
    import tempfile

    from repro.eval.chaos import (
        ChaosSpec,
        chaos_summary_lines,
        hold_store_lock,
        run_chaos,
    )

    spec = _load_scenario_arg(args.scenario)
    chaos = ChaosSpec(
        seed=args.seed,
        point=args.point,
        interrupt_after=args.interrupt_after,
        truncate_checkpoint=args.truncate_checkpoint,
        hold_store_lock_ms=args.hold_lock_ms,
    )
    run_dir = args.run_dir or tempfile.mkdtemp(prefix="repro-chaos-")
    try:
        report, result = run_chaos(
            spec, chaos, run_dir, every_events=args.every_events
        )
    except RuntimeError as exc:  # recovery itself failed — that IS the verdict
        print(f"chaos: unrecovered executor failure: {exc!r}", file=sys.stderr)
        return 1
    if getattr(args, "record", False):
        lock_thread = None
        if chaos.hold_store_lock_ms:
            path = _store_path(args)
            with ExperimentDB(path):  # ensure the schema exists first
                pass
            lock_thread = hold_store_lock(path, chaos.hold_store_lock_ms)
            report.notes.append(
                f"recorded while a rival held the write lock for "
                f"{chaos.hold_store_lock_ms}ms"
            )
        _maybe_record(args, ingest_scenario_result, result, kind="chaos")
        if lock_thread is not None:
            lock_thread.join()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report.as_dict(), fh, indent=2, sort_keys=True)
        print(f"wrote chaos report to {args.out}")
    if args.json:
        print(json.dumps(report.as_dict(), indent=2, sort_keys=True))
    else:
        print("\n".join(chaos_summary_lines(report)))
    return 0 if report.ok else 1


def cmd_rerun(args: argparse.Namespace) -> int:
    try:
        with open(args.file, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as exc:
        print(f"cannot read {args.file}: {exc.strerror or exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"{args.file} is not valid JSON: {exc}", file=sys.stderr)
        return 2
    try:
        spec = embedded_scenario(payload, index=args.index)
        res = run_scenario(spec, jobs=parse_jobs(args.jobs))
    except ValueError as exc:
        print(f"cannot rerun from {args.file}: {exc}", file=sys.stderr)
        return 2
    return _scenario_output(args, res)


def cmd_resilience(args: argparse.Namespace) -> int:
    # validate cheap arguments before the (expensive) trace build
    protocols = (
        args.protocols.split(",") if args.protocols else ["DTN-FLOW", "PROPHET", "PGR"]
    )
    unknown = [p for p in protocols if p not in protocol_names()]
    if unknown:
        print(
            f"unknown protocol(s): {', '.join(unknown)}; "
            f"known: {', '.join(protocol_names())}",
            file=sys.stderr,
        )
        return 2
    try:
        intensities = (
            [float(v) for v in args.intensities.split(",")]
            if args.intensities
            else list(DEFAULT_INTENSITIES)
        )
    except ValueError:
        print(f"--intensities must be comma-separated numbers, got "
              f"{args.intensities!r}", file=sys.stderr)
        return 2
    try:
        SimConfig(
            node_memory_kb=args.memory,
            rate_per_landmark_per_day=args.rate,
            workload_scale=1.0 if args.workload_scale is None else args.workload_scale,
        )
    except ValueError as exc:
        raise _UsageError(f"repro resilience: {exc}") from None
    trace, profile = _resolve_trace(args.trace, args.seed)
    config = profile.sim_config(memory_kb=args.memory, rate=args.rate, seed=args.seed)
    if args.workload_scale is not None:
        config = dataclasses.replace(config, workload_scale=args.workload_scale)
    curves = degradation_curves(
        trace,
        protocols=protocols,
        intensities=intensities,
        config=config,
        fault_seed=args.fault_seed,
        jobs=parse_jobs(args.jobs),
    )
    # the config rides along as part of each point's identity; --record
    # ingests this same report, so `repro db ingest` of the --out file
    # records the same points
    payload = {
        "degradation": curves.as_dict(),
        "config": _jsonable(dataclasses.asdict(config)),
    }
    _maybe_record(args, ingest_payload, payload, label=trace.name)
    if not args.no_reconvergence:
        rec = reconvergence_after_death(
            trace,
            death_start=args.death_start,
            n_probes=args.probes,
            config=config,
            fault_seed=args.fault_seed,
        )
        payload["reconvergence"] = rec.as_dict()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
        print(f"wrote resilience report to {args.out}")
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    rows = []
    for name in protocols:
        points = curves.curves[name]
        rows.append(
            [name]
            + [f"{p.success_rate:.3f}" for p in points]
        )
    print(format_table(
        ["protocol"] + [f"x={x:g}" for x in curves.intensities],
        rows,
        title=f"success rate vs fault intensity ({trace.name}, "
              f"fault seed {curves.fault_seed}):",
    ))
    if not args.no_reconvergence:
        print(
            f"\nlandmark {rec.dead_landmark} killed at "
            f"{(rec.death_time - trace.start_time) / 3600:.1f} h; stale "
            f"dead-next-hop routes per probe: {rec.stale_routes}"
        )
        if rec.reconverged_at is not None:
            print(f"tables re-converged {rec.reconvergence_delay / 3600:.1f} h "
                  "after the death")
        else:
            print("tables did not fully re-converge within the trace "
                  "(the paper's protocol has no failure detector; stale "
                  "routes decay only as better alternatives propagate)")
    return 0


def cmd_deployment(args: argparse.Namespace) -> int:
    result = run_deployment(trace_days=args.days, seed=args.seed)
    m = result.metrics
    s = result.delay_summary
    print(f"success rate : {m.success_rate:.3f} ({m.delivered}/{m.generated})")
    if s is not None:
        print(
            "delay (min)  : "
            f"min={s.minimum/60:.0f} q1={s.q1/60:.0f} mean={s.mean/60:.0f} "
            f"q3={s.q3/60:.0f} max={s.maximum/60:.0f}"
        )
    rows = [
        [f"L{a}->L{b}", round(bw, 2)]
        for (a, b), bw in sorted(result.link_bandwidths.items(), key=lambda kv: -kv[1])
    ]
    print(format_table(["link", "bw/unit"], rows, title="transit links:"))
    return 0


def cmd_predict(args: argparse.Namespace) -> int:
    trace, _ = _resolve_trace(args.trace, args.seed)
    rows = []
    for k in (1, 2, 3):
        ev = evaluate_predictor(trace, k)
        if not ev.per_node_accuracy:
            # short traces can leave no node with enough visits to score
            rows.append([k, "n/a", "n/a", "n/a"])
            continue
        s = ev.summary()
        rows.append([k, round(ev.mean_accuracy, 3), round(s.q1, 3), round(s.q3, 3)])
    print(format_table(["k", "mean accuracy", "q1", "q3"], rows,
                       title=f"order-k transit prediction on {trace.name}:"))
    return 0


def _observed_point(args: argparse.Namespace, spans: Optional[SpanRecorder] = None):
    """The point the ``trace``/``stats`` flags describe, run through the
    executor with event tracing on (and phase timing when ``spans`` is
    given); returns ``(trace, obs, summary)``."""
    spec = _flag_scenario(
        args, name=f"{args.command}-{args.protocol}", protocols=[args.protocol]
    )
    obs = Observability(enabled=True, event_capacity=args.capacity, spans=spans)
    traces: dict = {}
    res = run_scenario(
        spec, observe=lambda index, point: nullcontext(obs), traces=traces
    )
    (trace,) = traces.values()
    return trace, obs, res.results[0].metrics


def _event_rows(events, t0: float) -> List[list]:
    """Render events as table rows (time in hours since trace start)."""
    rows = []
    for e in events:
        details = ", ".join(
            f"{k}={round(v, 2) if isinstance(v, float) else v}"
            for k, v in (e.data or {}).items()
        )
        rows.append([
            f"{(e.t - t0) / 3600:.2f}",
            e.etype,
            "-" if e.landmark is None else f"L{e.landmark}",
            "-" if e.node is None else f"n{e.node}",
            "-" if e.packet is None else e.packet,
            details,
        ])
    return rows


_EVENT_HEADERS = ["t (h)", "event", "landmark", "node", "packet", "details"]


def cmd_trace(args: argparse.Namespace) -> int:
    # validate the event-type filter before the (expensive) simulation run
    etypes = args.etype.split(",") if args.etype else None
    if etypes:
        unknown = [t for t in etypes if t not in RUN_EVENTS]
        if unknown:
            known = ", ".join(sorted(RUN_EVENTS))
            print(f"unknown event type(s): {', '.join(unknown)}; "
                  f"known types: {known}", file=sys.stderr)
            return 2
    trace, obs, summary = _observed_point(args)
    log = obs.events
    t0 = trace.start_time
    if args.out:
        n = log.to_jsonl(args.out)
        print(f"wrote {n} events to {args.out}"
              + (f" ({log.n_evicted} evicted from the ring buffer)" if log.n_evicted else ""))
    if args.packet is not None:
        journey = log.packet_journey(args.packet)
        if not journey:
            delivered = log.delivered_packets()
            hint = f"; delivered ids include {delivered[:5]}" if delivered else ""
            print(f"no recorded events for packet {args.packet}{hint}")
            return 1
        print(format_table(
            _EVENT_HEADERS, _event_rows(journey, t0),
            title=f"packet {args.packet} journey ({trace.name}, {args.protocol}):",
        ))
        last = journey[-1]
        if last.etype == "delivered":
            delay = (last.data or {}).get("delay", last.t - journey[0].t)
            print(f"\ndelivered after {delay / 3600:.2f} h and "
                  f"{(last.data or {}).get('hops', '?')} forwarding hops")
        elif last.etype == "dropped_ttl":
            print("\npacket expired (dropped_ttl) before reaching its destination")
        else:
            print("\npacket still in flight at the end of the trace")
        return 0
    # no packet selected: print an overview and how to drill down
    if etypes:
        events = log.select(etypes=etypes)
        shown = events[: args.limit]
        print(format_table(
            _EVENT_HEADERS, _event_rows(shown, t0),
            title=f"{len(events)} events of type {args.etype} (showing {len(shown)}):",
        ))
        return 0
    counts = log.counts_by_type()
    rows = [[k, counts[k]] for k in sorted(counts)]
    print(format_table(["event", "count"], rows,
                       title=f"{trace.name} / {args.protocol}: emitted events"))
    if log.n_evicted:
        print(f"({log.n_evicted} older events evicted but still counted; "
              "raise --capacity to keep more)")
    delivered = log.delivered_packets()
    if delivered:
        sample = ", ".join(str(p) for p in delivered[:5])
        print(f"\nfollow a delivered packet hop-by-hop: repro trace --packet {delivered[0]}"
              f"  (delivered ids include: {sample})")
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    trace, obs, summary = _observed_point(args, spans=SpanRecorder())
    if args.json:
        out = summary.as_dict()
        out["observability"] = obs.stats_dict()
        print(json.dumps(out, indent=2, sort_keys=True))
        return 0
    rows = [
        ["packets generated", summary.generated],
        ["delivered", summary.delivered],
        ["success rate", f"{summary.success_rate:.4f}"],
        ["avg delay (h)", f"{summary.avg_delay / 3600:.2f}"],
        ["forwarding ops", summary.forwarding_ops],
        ["maintenance ops", summary.maintenance_ops],
    ]
    print(format_table(["metric", "value"], rows,
                       title=f"{args.protocol} on {trace.name}:"))
    print()
    _print_phase_table(obs.spans.flat(), "phase timings (wall-clock):")
    print()
    ev = obs.events
    evicted = f", {ev.n_evicted} evicted" if ev.n_evicted else ""
    counts = ev.counts_by_type()
    print(format_table(
        ["event", "count"],
        [[k, counts[k]] for k in sorted(counts)],
        title=f"events: {len(ev)} recorded of {ev.n_emitted} emitted "
              f"(ring capacity {ev.capacity}{evicted}); counts are exact:",
    ))
    prov = summary.provenance
    if prov is not None:
        print(f"\nprovenance: repro {prov.package_version}, python {prov.python_version}, "
              f"seed {prov.seed}")
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    spec = _load_scenario_arg(args.scenario)
    run = profile_scenario(
        spec,
        hz=args.hz,
        sample=not args.no_sampler,
        allocations=args.allocations,
        label=args.label,
    )
    payload = run.payload()
    tree = payload["span_tree"]

    print(render_span_tree(tree, max_rows=args.max_spans))
    print()
    _print_phase_table(run.phases(), "per-phase totals (merged over all points):")

    root_seconds = float(tree.get("seconds") or 0.0)
    drift = (
        abs(root_seconds - run.wall_seconds) / run.wall_seconds * 100
        if run.wall_seconds
        else 0.0
    )
    print(
        f"\nwall {run.wall_seconds:.4f}s, root span {root_seconds:.4f}s "
        f"(drift {drift:.2f}%) over {len(run.points)} point(s)"
    )
    if run.sampler is not None:
        print(
            f"sampler: {run.sampler.n_samples} stacks at {run.sampler.hz:g} Hz, "
            f"{len(run.sampler.samples)} unique"
        )
        for site in payload["allocations"][:10]:
            print(
                f"  alloc {site['site']}: {site['size_kb']:.1f} KiB "
                f"in {site['count']} block(s)"
            )

    try:
        if args.flamegraph:
            if run.sampler is None:
                print("--flamegraph needs the sampler; drop --no-sampler",
                      file=sys.stderr)
                return 2
            n = write_flamegraph(run.sampler.samples, args.flamegraph)
            print(f"flamegraph: {n} collapsed stacks -> {args.flamegraph}")
        if args.span_tree:
            with open(args.span_tree, "w", encoding="utf-8") as fh:
                json.dump(tree, fh, indent=2, sort_keys=True)
                fh.write("\n")
            print(f"span tree -> {args.span_tree}")
        if args.out:
            write_profile(payload, args.out)
            print(f"profile payload -> {args.out}")
    except OSError as exc:
        # a bad --out/--span-tree/--flamegraph path is an operator error,
        # not a crash: one line, exit 2, profiling results already printed
        print(f"error: cannot write profile output: {exc}", file=sys.stderr)
        return 2

    _maybe_record(args, ingest_profile, payload, label=run.label)
    return 0


def _load_json_arg(path: str):
    """Load a JSON file CLI argument; raises _UsageError (exit 2)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise _UsageError(
            f"cannot read {path}: {exc.strerror or exc}"
        ) from None
    except json.JSONDecodeError as exc:
        raise _UsageError(f"{path} is not valid JSON: {exc}") from None


def cmd_db_ingest(args: argparse.Namespace) -> int:
    total = IngestStats()
    with _open_store(_store_path(args)) as db:
        for path in args.files:
            payload = _load_json_arg(path)
            try:
                stats = ingest_payload(db, payload, label=args.label or path)
            except ValueError as exc:
                print(f"{path}: {exc}", file=sys.stderr)
                return 2
            print(f"{path}: {stats}")
            total.add(stats)
    if len(args.files) > 1:
        print(f"total: {total}")
    print(f"store: {_store_path(args)}")
    return 0


def _cli_point_filter(args: argparse.Namespace) -> PointFilter:
    return PointFilter(
        protocol=getattr(args, "protocol", None),
        trace=getattr(args, "filter_trace", None),
        scenario_hash=getattr(args, "hash", None),
        kind=getattr(args, "kind", None),
    )


def cmd_db_query(args: argparse.Namespace) -> int:
    try:
        flt = _cli_point_filter(args)
    except ValueError as exc:
        print(f"repro db query: --hash: {exc}", file=sys.stderr)
        return 2
    with _open_store(_store_path(args)) as db:
        rows = select_points(
            db, filter=flt, metric=args.metric,
            latest=args.latest, limit=args.limit,
        )
    if args.json:
        print(json.dumps([r.as_dict() for r in rows], indent=2, sort_keys=True))
        return 0
    if not rows:
        print("no stored points match")
        return 0
    table = []
    for r in rows:
        if args.metric:
            shown = f"{r.metrics[args.metric]:g}"
            if r.half_widths.get(args.metric):
                shown += f" ± {r.half_widths[args.metric]:g}"
        else:
            shown = ", ".join(
                f"{m}={r.metrics[m]:g}"
                for m in ("success_rate", "avg_delay")
                if m in r.metrics
            ) or f"{len(r.metrics)} metric(s)"
        sweep = (
            f"{r.sweep_parameter}={r.sweep_value:g}"
            if r.sweep_parameter is not None and r.sweep_value is not None
            else "-"
        )
        table.append([
            r.recorded_at, r.scenario_hash[:12], r.protocol, r.trace,
            sweep, shown,
        ])
    title = (
        "latest result per resolved point:" if args.latest
        else "stored points (oldest first):"
    )
    print(format_table(
        ["recorded", "point", "protocol", "trace", "sweep",
         args.metric or "metrics"],
        table, title=title,
    ))
    return 0


def cmd_db_baseline(args: argparse.Namespace) -> int:
    with _open_store(_store_path(args)) as db:
        try:
            snap = baseline_snapshot(
                db, args.name, filter=_cli_point_filter(args)
            )
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return 2
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(snap, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote baseline {args.name!r} ({len(snap['rows'])} row(s)) "
          f"to {args.out}")
    return 0


def cmd_db_regress(args: argparse.Namespace) -> int:
    try:
        name, rows = snapshot_rows(_load_json_arg(args.baseline_file))
    except ValueError as exc:
        print(f"{args.baseline_file}: {exc}", file=sys.stderr)
        return 2
    with _open_store(_store_path(args)) as db:
        verdict = regress(db, rows, baseline_name=name)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(verdict.to_json())
            fh.write("\n")
        print(f"wrote verdict to {args.out}", file=sys.stderr)
    if args.json:
        print(verdict.to_json())
    else:
        print(verdict.summary())
    return 0 if verdict.passed else 1


def cmd_db_report(args: argparse.Namespace) -> int:
    with _open_store(_store_path(args)) as db:
        text, _ = write_report(db, out=args.out, as_json=args.json)
    if args.out:
        print(f"wrote report to {args.out}")
    else:
        print(text)
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve import make_server

    db_path = _store_path(args) if (args.db or args.record) else None
    if db_path:
        _check_store(db_path)
    try:
        server = make_server(
            args.host, args.port,
            run_root=args.run_root,
            db_path=db_path,
            jobs=parse_jobs(args.jobs),
            verbose=args.verbose,
        )
    except OSError as exc:
        print(f"cannot bind {args.host}:{args.port}: {exc}", file=sys.stderr)
        return 2
    host, port = server.server_address[:2]
    recovered = sum(
        1 for j in server.manager.list_jobs() if j.state == "queued"
    )
    print(f"repro serve: listening on http://{host}:{port}", file=sys.stderr)
    if recovered:
        print(f"repro serve: re-queued {recovered} unfinished job(s)",
              file=sys.stderr)
    if db_path:
        print(f"repro serve: recording into {db_path}", file=sys.stderr)
    try:
        server.serve_forever(poll_interval=0.2)
    except KeyboardInterrupt:
        print("repro serve: shutting down (unfinished jobs stay resumable)",
              file=sys.stderr)
    finally:
        server.manager.stop()
        server.server_close()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DTN-FLOW reproduction command line",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def positive_int(value: str) -> int:
        n = int(value)
        if n <= 0:
            raise argparse.ArgumentTypeError(f"must be positive, got {n}")
        return n

    def non_negative_int(value: str) -> int:
        n = int(value)
        if n < 0:
            raise argparse.ArgumentTypeError(f"must be >= 0, got {n}")
        return n

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--trace", default="dart",
                       help="'dart', 'dnet', or a trace CSV path (default: dart)")
        p.add_argument("--seed", type=int, default=1, help="trace/workload seed")

    p = sub.add_parser("summary", help="trace characteristics and link analytics")
    add_common(p)
    p.add_argument("--top", type=int, default=10, help="busiest links to list")
    p.set_defaults(func=cmd_summary)

    def add_workload(p: argparse.ArgumentParser) -> None:
        p.add_argument("--protocol", default="DTN-FLOW", choices=protocol_names())
        p.add_argument("--memory", type=float, default=2000.0, help="node memory (kB)")
        p.add_argument("--rate", type=float, default=500.0, help="packets/landmark/day")

    def add_jobs(p: argparse.ArgumentParser) -> None:
        p.add_argument("--jobs", default="1", metavar="N",
                       help="worker processes for independent experiment "
                            "points ('auto' = all cores; default 1 = serial)")

    def add_record(p: argparse.ArgumentParser) -> None:
        p.add_argument("--record", action="store_true",
                       help="record the results into the experiment store "
                            "(see docs/storage.md)")
        p.add_argument("--db", default=None, metavar="PATH",
                       help="experiment store path (default: $REPRO_DB or "
                            "./experiments.sqlite)")

    p = sub.add_parser("run", help="run one protocol on one workload")
    add_common(p)
    add_workload(p)
    add_jobs(p)
    add_record(p)
    p.add_argument("--json", action="store_true",
                   help="print machine-readable JSON (with run provenance)")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("compare", help="all six paper protocols, same workload")
    add_common(p)
    p.add_argument("--memory", type=float, default=2000.0)
    p.add_argument("--rate", type=float, default=500.0)
    p.add_argument("--seeds", type=positive_int, default=1,
                   help="number of workload seeds (>1 adds 95%% CIs)")
    add_jobs(p)
    add_record(p)
    p.add_argument("--json", action="store_true",
                   help="print machine-readable JSON (with run provenance)")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser(
        "trace",
        help="replay a run with event tracing; follow a packet hop-by-hop",
    )
    add_common(p)
    add_workload(p)
    p.add_argument("--packet", type=int, default=None,
                   help="print this packet id's full event journey")
    p.add_argument("--etype", default=None,
                   help="comma-separated event types to list (see docs/observability.md)")
    p.add_argument("--limit", type=positive_int, default=40,
                   help="max events listed with --etype (default 40)")
    p.add_argument("--out", default=None, help="export all events to a JSONL file")
    p.add_argument("--capacity", type=positive_int, default=500_000,
                   help="event ring-buffer capacity (default 500000)")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser(
        "stats",
        help="metrics, event counts + phase timings for one traced run",
    )
    add_common(p)
    add_workload(p)
    p.add_argument("--capacity", type=positive_int, default=500_000,
                   help="event ring-buffer capacity (default 500000)")
    p.add_argument("--json", action="store_true",
                   help="print metrics + event counts + timings + provenance as JSON")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("sweep", help="memory or rate sweep (Figs. 11-14)")
    add_common(p)
    p.add_argument("parameter", choices=["memory", "rate"], help="swept axis")
    p.add_argument("--values", default=None, help="comma-separated sweep values")
    p.add_argument("--memory", type=float, default=2000.0)
    p.add_argument("--rate", type=float, default=500.0)
    p.add_argument("--protocols", default=None, help="comma-separated protocol names")
    add_jobs(p)
    add_record(p)
    p.add_argument("--progress", action="store_true",
                   help="stream per-point completion + ETA to stderr")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser(
        "profile",
        help="deep-profile a scenario: span tree, sampler, flamegraph",
        description="Run every point of a scenario serially under one span "
                    "recorder and (by default) a sampling profiler; print "
                    "the span tree and per-phase totals, optionally export "
                    "a collapsed-stack flamegraph and an ingestible profile "
                    "payload (see docs/observability.md).",
    )
    p.add_argument("scenario", help="scenario JSON file or preset name")
    p.add_argument("--hz", type=float, default=97.0,
                   help="sampling frequency (default 97 Hz)")
    p.add_argument("--no-sampler", action="store_true",
                   help="span tree only; skip stack sampling")
    p.add_argument("--allocations", action="store_true",
                   help="also snapshot allocation sites (tracemalloc)")
    p.add_argument("--flamegraph", default=None, metavar="FILE",
                   help="write collapsed stacks (flamegraph.pl/speedscope)")
    p.add_argument("--span-tree", default=None, metavar="FILE",
                   help="write the span tree as JSON")
    p.add_argument("--out", default=None, metavar="FILE",
                   help="write the full ingestible profile payload")
    p.add_argument("--label", default=None,
                   help="profile label (default: scenario name)")
    p.add_argument("--max-spans", type=positive_int, default=60,
                   help="span-tree rows to print (default 60)")
    add_record(p)
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser(
        "scenario",
        help="run/validate/show declarative scenario manifests",
        description="Declarative experiment scenarios: JSON manifests or "
                    "named presets (see docs/scenarios.md).",
    )
    p.add_argument("action", choices=["run", "validate", "show", "list"])
    p.add_argument("sources", nargs="*", metavar="SCENARIO",
                   help="scenario JSON file(s) or preset name(s)")
    add_jobs(p)
    add_record(p)
    p.add_argument("--run-dir", default=None, metavar="DIR",
                   help="(run) checkpointed execution: create (or continue) "
                        "a crash-safe run directory; interrupted runs "
                        "resume with 'repro resume DIR' "
                        "(see docs/reliability.md)")
    p.add_argument("--every-events", type=positive_int, default=None,
                   metavar="N",
                   help="serial checkpoint cadence in dispatched events "
                        "(with --run-dir; default 200000)")
    p.add_argument("--out", default=None, metavar="FILE",
                   help="(run) write the full results JSON to FILE")
    p.add_argument("--json", action="store_true",
                   help="(run/list) print the results / preset catalog as JSON")
    p.set_defaults(func=cmd_scenario)

    p = sub.add_parser(
        "resume",
        help="continue an interrupted checkpointed run directory",
        description="Continue a --run-dir execution from its last complete "
                    "checkpoints: committed points are skipped, the "
                    "in-flight point restarts mid-run, and the final "
                    "metrics are bit-identical to an uninterrupted run "
                    "(see docs/reliability.md).",
    )
    p.add_argument("run_dir", metavar="RUN_DIR",
                   help="run directory created by --run-dir")
    add_record(p)
    p.add_argument("--out", default=None, metavar="FILE",
                   help="write the full results JSON to FILE")
    p.add_argument("--json", action="store_true",
                   help="print the full results JSON to stdout")
    p.set_defaults(func=cmd_resume)

    p = sub.add_parser(
        "chaos",
        help="executor-fault injection: crash/corrupt, then assert "
             "recovery + metric parity",
        description="Run a scenario under an injected executor failure "
                    "(engine crashed between checkpoints, checkpoint "
                    "truncated, store lock held) and verify the execution "
                    "plane recovers to bit-identical metrics. 'repro "
                    "resilience' injects faults into the simulated DTN; "
                    "'repro chaos' injects them into the runner itself (see "
                    "docs/reliability.md). Exits non-zero when recovery or "
                    "parity fails.",
    )
    p.add_argument("scenario", help="scenario JSON file or preset name")
    p.add_argument("--run-dir", default=None, metavar="DIR",
                   help="run directory for checkpoints + recovery.jsonl "
                        "(default: a fresh temp dir)")
    p.add_argument("--seed", type=int, default=0,
                   help="derives any injection knob left unset (default 0)")
    p.add_argument("--point", type=int, default=None,
                   help="grid point index to target (default: from --seed)")
    p.add_argument("--interrupt-after", type=positive_int, default=None,
                   metavar="N",
                   help="crash the serial engine after its N-th checkpoint")
    p.add_argument("--truncate-checkpoint", action="store_true",
                   help="also corrupt the newest checkpoint before resuming "
                        "(pair with --interrupt-after 2 or more)")
    p.add_argument("--hold-lock-ms", type=positive_int, default=None,
                   metavar="MS",
                   help="with --record: a rival connection holds the store's "
                        "write lock this long while results are recorded")
    p.add_argument("--every-events", type=positive_int, default=50_000,
                   metavar="N",
                   help="serial checkpoint cadence (default 50000 — dense "
                        "enough that small scenarios checkpoint at all)")
    add_record(p)
    p.add_argument("--out", default=None, metavar="FILE",
                   help="write the chaos report JSON to FILE")
    p.add_argument("--json", action="store_true",
                   help="print the chaos report as JSON")
    p.set_defaults(func=cmd_chaos)

    p = sub.add_parser(
        "rerun",
        help="reproduce a past run from its exported provenance",
        description="Re-run the scenario embedded in an exported JSON file "
                    "(repro run/compare --json output, a provenance dict, or "
                    "repro scenario run --out). Results are bit-identical to "
                    "the original run.",
    )
    p.add_argument("file", help="JSON file carrying an embedded scenario")
    p.add_argument("--index", type=int, default=0,
                   help="which embedded scenario to rerun (default: first)")
    add_jobs(p)
    p.add_argument("--json", action="store_true",
                   help="print the reproduced results as JSON")
    p.set_defaults(func=cmd_rerun)

    p = sub.add_parser(
        "resilience",
        help="degradation curves + re-convergence under injected faults",
        description="Run each protocol under composed fault plans of rising "
                    "intensity (landmark outages, node churn, link "
                    "degradation, transfer loss) and measure how gracefully "
                    "it degrades; then kill a landmark and measure DTN-FLOW "
                    "routing-table re-convergence (see docs/resilience.md).",
    )
    add_common(p)
    p.add_argument("--memory", type=float, default=2000.0, help="node memory (kB)")
    p.add_argument("--rate", type=float, default=500.0, help="packets/landmark/day")
    p.add_argument("--protocols", default=None,
                   help="comma-separated protocol names "
                        "(default DTN-FLOW,PROPHET,PGR)")
    p.add_argument("--intensities", default=None,
                   help="comma-separated fault intensities in [0,1] "
                        "(default 0,0.25,0.5,0.75,1)")
    p.add_argument("--workload-scale", type=float, default=None,
                   help="override the profile's workload scale (smaller = "
                        "faster, e.g. 0.05 for a smoke run)")
    p.add_argument("--fault-seed", type=int, default=7,
                   help="seed of the fault plan (target selection + loss hash)")
    p.add_argument("--death-start", type=float, default=0.5,
                   help="when (trace fraction) the re-convergence landmark dies")
    p.add_argument("--probes", type=positive_int, default=16,
                   help="routing-table observation points (default 16)")
    p.add_argument("--no-reconvergence", action="store_true",
                   help="skip the landmark-death re-convergence measurement")
    add_jobs(p)
    add_record(p)
    p.add_argument("--out", default=None, metavar="FILE",
                   help="write the degradation-curve JSON report to FILE")
    p.add_argument("--json", action="store_true",
                   help="print the report as JSON")
    p.set_defaults(func=cmd_resilience)

    p = sub.add_parser(
        "db",
        help="experiment store: ingest/query/baseline/regress/report",
        description="The persistent experiment store: a SQLite warehouse of "
                    "recorded results keyed by the content hash of each "
                    "fully-resolved scenario, with baseline snapshot files "
                    "and an exact-equality regression gate (see "
                    "docs/storage.md).",
    )
    dbsub = p.add_subparsers(dest="db_command", required=True)

    def add_db_path(q: argparse.ArgumentParser) -> None:
        q.add_argument("--db", default=None, metavar="PATH",
                       help="experiment store path (default: $REPRO_DB or "
                            "./experiments.sqlite)")

    def add_db_filters(q: argparse.ArgumentParser) -> None:
        q.add_argument("--protocol", default=None, help="filter by protocol")
        q.add_argument("--trace", dest="filter_trace", default=None,
                       help="filter by trace name")

    q = dbsub.add_parser("ingest", help="ingest exported result JSON file(s)")
    add_db_path(q)
    q.add_argument("files", nargs="+", metavar="FILE",
                   help="scenario/run/compare/resilience/benchmark/profile "
                        "JSON export")
    q.add_argument("--label", default="", help="label stored on the new run(s)")
    q.set_defaults(func=cmd_db_ingest)

    q = dbsub.add_parser("query", help="list stored points")
    add_db_path(q)
    add_db_filters(q)
    q.add_argument("--hash", default=None,
                   help="filter by scenario-hash prefix (lowercase hex)")
    q.add_argument("--kind", default=None,
                   help="filter by run kind (run/compare/sweep/resilience/...)")
    q.add_argument("--metric", default=None,
                   help="show (and require) this metric")
    q.add_argument("--latest", action="store_true",
                   help="only the most recent result per resolved point")
    q.add_argument("--limit", type=non_negative_int, default=0,
                   help="show only the most recent N rows (0: all)")
    q.add_argument("--json", action="store_true",
                   help="print the rows as JSON")
    q.set_defaults(func=cmd_db_query)

    q = dbsub.add_parser(
        "baseline",
        help="write a baseline snapshot file of the latest results",
        description="Write the store's latest-per-point results (optionally "
                    "filtered) to a committable JSON baseline snapshot, the "
                    "file db regress --baseline-file gates against.",
    )
    add_db_path(q)
    q.add_argument("name", metavar="NAME",
                   help="baseline name recorded in the snapshot")
    q.add_argument("--out", required=True, metavar="FILE",
                   help="snapshot file to write")
    add_db_filters(q)
    q.set_defaults(func=cmd_db_baseline)

    # no abbreviations: a bare --baseline must not pass for --baseline-file
    q = dbsub.add_parser(
        "regress",
        help="gate latest results against a baseline snapshot (exit 1 on FAIL)",
        description="FAIL unless every (point, metric) row of the baseline "
                    "snapshot has a latest recording in the store with an "
                    "identical value.",
        allow_abbrev=False,
    )
    add_db_path(q)
    q.add_argument("--baseline-file", required=True, metavar="FILE",
                   help="baseline JSON snapshot to gate against "
                        "(repro db baseline NAME --out FILE)")
    q.add_argument("--out", default=None, metavar="FILE",
                   help="write the machine-readable verdict JSON to FILE")
    q.add_argument("--json", action="store_true",
                   help="print the verdict as JSON instead of a summary")
    q.set_defaults(func=cmd_db_regress)

    q = dbsub.add_parser(
        "report",
        help="regenerate the markdown/JSON trend report (figs. 11-14)",
    )
    add_db_path(q)
    q.add_argument("--out", default=None, metavar="FILE",
                   help="write the report to FILE instead of stdout")
    q.add_argument("--json", action="store_true",
                   help="emit the JSON report instead of markdown")
    q.set_defaults(func=cmd_db_report)

    p = sub.add_parser(
        "serve",
        help="long-running experiment service: REST jobs, SSE streams, "
             "wall-clock replay",
        description="Serve the harness over HTTP (stdlib only): submit "
                    "scenario manifests as durable jobs (POST /v1/jobs), "
                    "stream per-point progress live (GET "
                    "/v1/jobs/<id>/events), and replay recorded traces at "
                    "wall-clock speed (POST /v1/replay); read the store it "
                    "records into with 'repro db'. Jobs run in crash-safe "
                    "run directories: "
                    "kill the server and a restart with the same --run-root "
                    "resumes every unfinished job (see docs/service.md).",
    )
    p.add_argument("--host", default="127.0.0.1", help="bind address")
    p.add_argument("--port", type=int, default=8731,
                   help="bind port (0 = ephemeral; default 8731)")
    p.add_argument("--run-root", default="serve-runs", metavar="DIR",
                   help="directory of per-job durable state + run dirs "
                        "(default ./serve-runs); reuse it across restarts "
                        "to recover unfinished jobs")
    p.add_argument("--jobs", default="1", metavar="N",
                   help="worker processes shared by all jobs ('auto' = all "
                        "cores; default 1 = in-process serial execution "
                        "with mid-point checkpointing)")
    p.add_argument("--record", action="store_true",
                   help="record every completed job into the experiment "
                        "store (same ingest path as scenario run --record)")
    p.add_argument("--db", default=None, metavar="PATH",
                   help="experiment store path (implies --record; default: "
                        "$REPRO_DB or ./experiments.sqlite)")
    p.add_argument("--verbose", action="store_true",
                   help="log every HTTP request to stderr")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("deployment", help="the Section V-C campus deployment")
    p.add_argument("--days", type=int, default=6)
    p.add_argument("--seed", type=int, default=7)
    p.set_defaults(func=cmd_deployment)

    p = sub.add_parser("predict", help="order-k prediction accuracy (Fig. 6)")
    add_common(p)
    p.set_defaults(func=cmd_predict)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "record", False):
            _check_store(_store_path(args))
        return args.func(args)
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    sys.exit(main())
