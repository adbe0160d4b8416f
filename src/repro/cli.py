"""Command-line interface: one declarative entry point per task.

Every paper artefact and workload runs from a declarative experiment
file (TOML or JSON; see :mod:`repro.api` and ``docs/api.md``)::

    python -m repro run examples/experiments/fig4_quick.json
    python -m repro run examples/experiments/sweep_quick.toml
    python -m repro validate examples/experiments/*.toml
    python -m repro describe examples/experiments/cohort_pilot.toml

``run`` executes any workload kind — paper figures (Fig 2, Fig 4, the
Section VI-B energy table, the Section VI-C trade-off), Monte-Carlo
sweeps, adaptive-runtime missions, population cohorts — through the
:class:`repro.api.Session` facade: the experiment plans into campaign
grids, points fan out across the chosen execution backend, results land
in content-hash-keyed stores (re-running resumes), and the report tables
are rendered from the result handle.  ``validate`` checks a file without
running it; ``describe`` prints the execution plan (campaigns, grid
sizes, store targets).  The per-artefact subcommands of earlier releases
(``fig2``, ``fig4``, ``energy``, ``tradeoff``, ``sweep``, ``mission``,
``cohort``) were removed in 1.8.0; ``docs/api.md`` maps each to its
experiment file.

Utility subcommands (not experiments): ``overheads``, ``record``,
``lifetime``, ``cache``, ``report`` (render a run's trace), ``runs``,
``watch``, ``profile`` (merge a run's sampling-profile shards) and
``bench trend`` (benchmark-history drift); see
``docs/observability.md``.

The experiment service (``docs/service.md``) runs experiments as
asynchronous jobs: ``serve`` starts the daemon, ``submit`` enqueues an
experiment file and prints its job id, ``jobs`` lists the durable job
journal, ``cancel`` withdraws a queued job, and ``fetch`` re-attaches
to a finished job's result stores and prints the ordinary report.

Global options come before the subcommand: ``--seed`` fixes the master
Monte-Carlo seed of every experiment (overriding the file's ``seed``
for ``run``), so any artefact is reproducible from the command line
(``python -m repro --seed 7 run fig4.toml``); ``--trace [DIR]`` records a
JSONL trace per run; ``--chaos SPEC`` injects deterministic faults
into supervised execution (see ``docs/robustness.md``); ``-v``/``-q``
adjust stderr diagnostics (stdout carries only tables/JSON, so
pipelines can consume it regardless of verbosity).
"""

from __future__ import annotations

import argparse
import logging
import os
import select
import sys
from collections.abc import Sequence
from pathlib import Path

from . import __version__
from .errors import ReproError, RunInterrupted
from .obs.logcfg import configure as _configure_logging
from .obs.logcfg import get_logger

__all__ = ["main", "build_parser"]

#: The CLI's stderr diagnostics logger (configured per main() call).
_LOG = get_logger("cli")


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Energy vs. Reliability Trade-offs "
            "Exploration in Biomedical Ultra-Low Power Devices' "
            "(Duch et al., DATE 2016)."
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}",
    )
    parser.add_argument(
        "--seed", type=int, default=None,
        help="master Monte-Carlo seed (default: the library's fixed seed); "
             "place before the subcommand",
    )
    parser.add_argument(
        "--verbose", "-v", action="count", default=0,
        help="more stderr diagnostics (repeatable; stdout is unaffected)",
    )
    parser.add_argument(
        "--quiet", "-q", action="count", default=0,
        help="fewer stderr diagnostics: suppress progress and notes, "
             "keep errors (repeatable; stdout is unaffected)",
    )
    parser.add_argument(
        "--trace", nargs="?", const="", default=None, metavar="DIR",
        help="record a JSONL trace per run (span tree, metrics) into DIR "
             "(default: benchmarks/results/traces); inspect with "
             "'repro report <run-id>'",
    )
    parser.add_argument(
        "--profile", action="store_true", dest="profile_run",
        help="record a span-attributed sampling profile alongside the "
             "trace (implies --trace when tracing is unconfigured); "
             "inspect with 'repro profile <run-id>'",
    )
    parser.add_argument(
        "--chaos", default=None, metavar="SPEC",
        help="inject deterministic faults into supervised execution "
             "(testing aid): comma-separated clauses kill:P, raise:P, "
             "delay:P:S, enospc:P, interrupt:N, seed:N — e.g. "
             "'kill:0.2,raise:0.2,seed:7'; equivalent to REPRO_CHAOS",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # -- the unified experiment API ---------------------------------------

    run = sub.add_parser(
        "run",
        help="run a declarative experiment file (.toml or .json) through "
             "the unified Session facade — the primary entry point",
    )
    run.add_argument("experiment", help="path to an experiment file")
    run.add_argument(
        "--workers", type=int, default=None,
        help="worker processes (overrides the experiment's 'workers')",
    )
    run.add_argument(
        "--backend", default=None,
        help="execution backend (overrides the experiment's 'backend'; "
             "built in: inline, multiprocessing)",
    )
    run.add_argument(
        "--store", default=None,
        help="result-store basename (overrides the experiment's 'store')",
    )
    run.add_argument(
        "--store-dir", default=None,
        help="result-store directory (default: benchmarks/results/campaigns "
             "or $REPRO_CAMPAIGN_DIR)",
    )
    run.add_argument(
        "--fresh", action="store_true",
        help="re-execute every point, superseding stored results",
    )

    validate = sub.add_parser(
        "validate",
        help="parse and plan experiment files without running anything; "
             "exits non-zero if any file is invalid",
    )
    validate.add_argument("paths", nargs="+", help="experiment files")

    describe = sub.add_parser(
        "describe",
        help="print an experiment's execution plan: campaigns, grid "
             "sizes, store targets",
    )
    describe.add_argument("experiment", help="path to an experiment file")
    describe.add_argument(
        "--workers", type=int, default=None,
        help="worker processes assumed by the plan",
    )
    describe.add_argument(
        "--store-dir", default=None,
        help="result-store directory assumed by the plan",
    )

    cache = sub.add_parser(
        "cache",
        help="inspect or clear the shared calibration cache "
             "(REPRO_CACHE_DIR)",
    )
    cache.add_argument(
        "--info", action="store_true",
        help="print cache diagnostics (the default action)",
    )
    cache.add_argument(
        "--clear", action="store_true",
        help="delete every cached calibration entry",
    )

    report = sub.add_parser(
        "report",
        help="render a recorded run trace: wall-time span tree, worker "
             "utilization, cache hit rates, slowest spans — or diff two "
             "runs with --diff",
    )
    report.add_argument(
        "targets", nargs="+", metavar="target",
        help="a run id (resolved in the trace directory), 'latest', a "
             "trace .jsonl path, or a BENCH .json artefact; --diff "
             "takes exactly two",
    )
    report.add_argument(
        "--diff", action="store_true",
        help="compare two runs: per-span-path wall-time deltas and "
             "per-metric deltas, regressions highlighted",
    )
    report.add_argument(
        "--alerts", default=None, metavar="RULES.toml",
        help="evaluate TOML alert rules against the trace; any breach "
             "exits non-zero (with --diff, rules run against the "
             "second run)",
    )
    report.add_argument(
        "--top", type=int, default=10,
        help="slowest spans / biggest diff movers / hot functions to "
             "list per section (default: 10)",
    )
    report.add_argument(
        "--profile", action="store_true",
        help="append the run's sampling profile: top-N hot functions "
             "folded per span path (needs shards recorded with "
             "--profile/REPRO_PROFILE)",
    )
    report.add_argument(
        "--trace-dir", default=None,
        help="directory run ids resolve in (default: --trace/"
             "REPRO_TRACE_DIR, falling back to benchmarks/results/traces)",
    )

    runs = sub.add_parser(
        "runs",
        help="list runs from the trace directory's run registry",
    )
    runs.add_argument(
        "--kind", default=None,
        help="only runs of this experiment kind (figure/sweep/mission/"
             "cohort)",
    )
    runs.add_argument(
        "--status", default=None,
        help="only runs in this state (running/ok/failed/interrupted/"
             "stale — 'stale' means registered as running but the owner "
             "process is dead)",
    )
    runs.add_argument(
        "--name", default=None,
        help="only runs whose experiment name contains this substring",
    )
    runs.add_argument(
        "--limit", type=int, default=None,
        help="show at most this many runs (newest first)",
    )
    runs.add_argument(
        "--latest", action="store_true",
        help="print only the newest matching run id (for scripting, "
             "e.g. repro watch \"$(repro runs --latest)\")",
    )
    runs.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit the matching registry records as a JSON array "
             "instead of a table",
    )
    runs.add_argument(
        "--prune-stale", action="store_true",
        help="finalize stale runs (owner process dead, never finalized) "
             "as 'interrupted' so they stop rendering as running",
    )
    runs.add_argument(
        "--trace-dir", default=None,
        help="trace directory whose registry to read (default: --trace/"
             "REPRO_TRACE_DIR, falling back to benchmarks/results/traces)",
    )

    watch = sub.add_parser(
        "watch",
        help="live dashboard over a traced run: progress/ETA, "
             "throughput, workers, cache, failures, alerts",
    )
    watch.add_argument(
        "target",
        help="a run id, 'latest' (newest registered run), or a trace "
             ".jsonl path",
    )
    watch.add_argument(
        "--once", action="store_true",
        help="render one frame and exit (CI / non-interactive mode)",
    )
    watch.add_argument(
        "--interval", type=float, default=1.0,
        help="seconds between refreshes (default: 1.0)",
    )
    watch.add_argument(
        "--alerts", default=None, metavar="RULES.toml",
        help="re-evaluate TOML alert rules every frame; a breach at "
             "the final frame exits non-zero",
    )
    watch.add_argument(
        "--max-seconds", type=float, default=None,
        help="stop watching after this much wall time even if the run "
             "is still going",
    )
    watch.add_argument(
        "--trace-dir", default=None,
        help="directory run ids resolve in (default: --trace/"
             "REPRO_TRACE_DIR, falling back to benchmarks/results/traces)",
    )

    # -- the experiment service -------------------------------------------

    serve = sub.add_parser(
        "serve",
        help="run the experiment-service daemon: accept submissions "
             "over a unix socket, drain the durable job queue through "
             "a supervised worker fleet (see docs/service.md)",
    )
    serve.add_argument(
        "--root", default=None,
        help="service root directory: job journal, socket, discovery "
             "file (default: benchmarks/results/service or "
             "$REPRO_SERVICE_DIR)",
    )
    serve.add_argument(
        "--workers", type=int, default=2,
        help="fleet size — jobs executing concurrently (default: 2)",
    )
    serve.add_argument(
        "--shards", type=int, default=4,
        help="shard count for result stores created by service jobs "
             "(default: 4; 1 keeps stores unsharded)",
    )
    serve.add_argument(
        "--store-dir", default=None,
        help="result-store directory jobs write into (default: "
             "benchmarks/results/campaigns or $REPRO_CAMPAIGN_DIR)",
    )
    serve.add_argument(
        "--trace-dir", default=None,
        help="trace/registry directory for job runs (default: --trace/"
             "REPRO_TRACE_DIR, falling back to benchmarks/results/traces)",
    )
    serve.add_argument(
        "--stop", action="store_true",
        help="ask the daemon at --root to drain in-flight jobs and "
             "exit, instead of starting one",
    )

    submit = sub.add_parser(
        "submit",
        help="submit an experiment file to the service daemon; prints "
             "the job id (content-hash keyed: identical resubmissions "
             "are deduplicated)",
    )
    submit.add_argument("experiment", help="path to an experiment file")
    submit.add_argument(
        "--root", default=None,
        help="service root the daemon was started with",
    )
    submit.add_argument(
        "--priority", type=int, default=0,
        help="dispatch priority; higher runs first (default: 0)",
    )
    submit.add_argument(
        "--wait", action="store_true",
        help="block until the job is terminal, streaming progress "
             "heartbeats to stderr; exits non-zero if the job failed",
    )
    submit.add_argument(
        "--timeout", type=float, default=None,
        help="give up on --wait after this many seconds",
    )

    jobs = sub.add_parser(
        "jobs",
        help="list service jobs from the journal (reads the journal "
             "directly — works with the daemon down)",
    )
    jobs.add_argument(
        "--root", default=None,
        help="service root whose journal to read",
    )
    jobs.add_argument(
        "--status", default=None,
        help="only jobs in this state (queued/claimed/running/done/"
             "failed/cancelled)",
    )
    jobs.add_argument(
        "--kind", default=None,
        help="only jobs of this kind (experiment/campaign)",
    )
    jobs.add_argument(
        "--limit", type=int, default=None,
        help="show at most this many jobs (newest first)",
    )
    jobs.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit the matching job records as a JSON array instead "
             "of a table",
    )

    cancel = sub.add_parser(
        "cancel",
        help="cancel a queued service job (jobs already executing run "
             "to completion)",
    )
    cancel.add_argument("job_id", help="the job id 'repro submit' printed")
    cancel.add_argument(
        "--root", default=None,
        help="service root the daemon was started with",
    )

    fetch = sub.add_parser(
        "fetch",
        help="fetch a finished service job's results from its stores "
             "and print the experiment report (no daemon needed)",
    )
    fetch.add_argument("job_id", help="the job id 'repro submit' printed")
    fetch.add_argument(
        "--root", default=None,
        help="service root the daemon was started with",
    )

    profile = sub.add_parser(
        "profile",
        help="merge a run's sampling-profile shards and print collapsed "
             "stacks (pipe into any flamegraph tool), or write "
             "speedscope JSON with --flamegraph",
    )
    profile.add_argument(
        "target",
        help="a run id (resolved in the trace directory), 'latest', or "
             "a trace .jsonl path whose profile shards to merge",
    )
    profile.add_argument(
        "--flamegraph", default=None, metavar="OUT.json",
        help="write a speedscope-compatible JSON document to OUT.json "
             "(open at https://www.speedscope.app) instead of printing "
             "collapsed stacks",
    )
    profile.add_argument(
        "--trace-dir", default=None,
        help="directory run ids resolve in (default: --trace/"
             "REPRO_TRACE_DIR, falling back to benchmarks/results/traces)",
    )

    bench = sub.add_parser(
        "bench",
        help="benchmark-history utilities (trajectories over every "
             "write_bench measurement)",
    )
    bench_sub = bench.add_subparsers(dest="bench_command", required=True)
    trend = bench_sub.add_parser(
        "trend",
        help="render per-metric history sparklines and flag drift "
             "beyond a rolling-median band (exits non-zero on drift)",
    )
    trend.add_argument(
        "metric", nargs="?", default=None,
        help="only series of this metric name (default: all)",
    )
    trend.add_argument(
        "--history", default=None, metavar="FILE",
        help="history file to read (default: $REPRO_BENCH_HISTORY or "
             "benchmarks/results/bench_history.jsonl)",
    )
    trend.add_argument(
        "--window", type=int, default=None,
        help="rolling-median window in points (default: 5)",
    )
    trend.add_argument(
        "--band", type=float, default=None,
        help="allowed fractional deviation from the rolling median "
             "(default: 0.25)",
    )

    sub.add_parser("overheads", help="Section V / Formula 2 bit overheads")

    record = sub.add_parser(
        "record", help="synthesise and describe one catalog record"
    )
    record.add_argument("name", help="record name, e.g. 106")
    record.add_argument("--duration", type=float, default=10.0)

    lifetime = sub.add_parser(
        "lifetime",
        help="battery-lifetime estimate for a monitoring node",
    )
    lifetime.add_argument("--voltage", type=float, default=0.65)
    lifetime.add_argument("--emt", default="dream")
    lifetime.add_argument(
        "--capacity-mah", type=float, default=230.0,
        help="battery capacity (default: CR2032-class, 230 mAh)",
    )
    return parser


# --------------------------------------------------------------------------
# Report rendering (shared by run and fetch)
# --------------------------------------------------------------------------


def _stderr_progress(done: int, total: int, record: dict) -> None:
    if not _LOG.isEnabledFor(logging.INFO):  # --quiet silences progress
        return
    marker = "." if record.get("status") == "ok" else "!"
    print(f"\r  [{done}/{total}] {marker}", end="", file=sys.stderr)


def _print_point_failures(handle) -> int:
    """Report failed grid points on stderr; returns the failure count."""
    failures = handle.failures()
    for failure in failures:
        where = failure.get("coords", failure.get("params", {}))
        print(f"  failed: {where} -> {failure['error']}", file=sys.stderr)
    return len(failures)


def _print_figure_report(experiment, handle, workers: int) -> int:
    """Render a figure experiment with the paper-table formatters."""
    from .api.schema import EnergyParams, Fig2Params, Fig4Params
    from .exp.report import (
        format_energy_analysis,
        format_fig2,
        format_fig4,
        format_paper_example,
        format_tradeoff,
    )

    if _print_point_failures(handle):
        return 1
    params = experiment.params
    if isinstance(params, Fig2Params):
        print(format_fig2(handle.result()))
    elif isinstance(params, Fig4Params):
        result = handle.result()
        for emt_name in params.emts:
            print(format_fig4(result, emt_name))
            print()
    elif isinstance(params, EnergyParams):
        print(format_energy_analysis(handle.result()))
    else:  # tradeoff
        from .exp.tradeoff import paper_example_savings

        print(format_tradeoff(handle.result()))
        print()
        print(format_paper_example(paper_example_savings()))
    return 0


def _print_sweep_report(experiment, handle, workers: int) -> int:
    """Render a sweep: store counts, frontier, operating points."""
    from .exp.report import (
        format_frontier,
        format_operating_points,
        format_paper_example,
    )
    from .exp.tradeoff import paper_example_savings

    params = experiment.params
    base = experiment.store or experiment.name
    quality = handle.campaigns("quality")[0].result
    energy = [run.result for run in handle.campaigns("energy")]
    e_points = sum(len(c.records) for c in energy)
    e_executed = sum(c.n_executed for c in energy)
    e_cached = sum(c.n_cached for c in energy)
    e_failed = sum(c.n_failed for c in energy)

    print(f"campaign {experiment.name!r}: voltage x EMT x app grid, "
          f"{workers} workers")
    print(
        f"  {base}-quality: {len(quality.records)} points — "
        f"{quality.n_executed} executed, {quality.n_cached} cached, "
        f"{quality.n_failed} failed"
    )
    print(
        f"  {base}-energy: {e_points} points — {e_executed} executed, "
        f"{e_cached} cached, {e_failed} failed"
    )
    n_failed = _print_point_failures(handle)

    reduced = handle.result()
    for app_name in params.apps:
        entry = reduced[app_name]
        print()
        if "error" in entry:
            # A failed point can leave this app unanalysable (e.g. no
            # baseline at nominal supply); report and keep going so the
            # other apps still get their sections.
            print(f"[{app_name}] analysis skipped: {entry['error']}",
                  file=sys.stderr)
            continue
        print(format_frontier(app_name, entry["frontier"]))
        print(format_operating_points(
            app_name, entry["points"], params.tolerance_db
        ))

    print()
    print(format_paper_example(paper_example_savings()))
    if n_failed:
        print(
            f"warning: {n_failed} grid points failed; results above are "
            "partial (failed points are retried on the next run)",
            file=sys.stderr,
        )
        return 1
    return 0


def _print_mission_header(experiment) -> None:
    """The mission context block: timeline and priced ladder."""
    from .runtime import MissionSimulator, resolve_mission

    params = experiment.params
    spec = resolve_mission(
        params.scenario,
        duration_scale=params.duration_scale,
        seed=experiment.seed,
        window_s=params.window_s,
    )
    simulator = MissionSimulator(
        spec,
        n_probe=params.probe_runs,
        probe_duration_s=params.probe_duration_s,
    )
    hours = spec.total_duration_s / 3600.0
    print(
        f"scenario {spec.name!r}: {hours:.1f} h, {spec.n_windows} windows "
        f"of {spec.window_s:g} s, app {spec.app!r}, "
        f"{spec.battery.capacity_mah:g} mAh cell"
    )
    print("timeline: " + ", ".join(
        f"{seg.name} {seg.duration_s / 3600.0:.1f}h"
        + (f" (stress {seg.stress:g})" if seg.stress else "")
        for seg in spec.segments
    ))
    print("ladder:   " + ", ".join(
        f"{p.label} {p.energy_per_window_pj / 1e6:.1f} uJ/window"
        for p in simulator.ladder
    ))
    print()


def _print_mission_report(experiment, handle, workers: int) -> int:
    """Render the per-policy mission comparison table."""
    from .exp.report import format_mission
    from .runtime import resolve_mission

    spec = resolve_mission(experiment.params.scenario)
    n_failed = _print_point_failures(handle)
    results = handle.result()
    if results:
        print(format_mission(spec.name, results))
    return 1 if n_failed else 0


def _print_cohort_header(experiment, workers: int) -> None:
    """The cohort context block: fleet size, mixes, scale, workers."""
    from .api.serde import format_mix

    params = experiment.params
    print(
        f"cohort {experiment.name!r}: {params.size} patients, scenarios "
        f"{format_mix(params.scenarios)}, duration scale "
        f"{params.duration_scale:g}, {workers} workers"
    )


def _print_cohort_report(experiment, handle, workers: int) -> int:
    """Render the population tables: fleet, survival, tail frontier.

    Failed *patients* degrade gracefully (the statistics cover the
    survivors, each failure is reported, exit is non-zero); failed
    *points* (a whole policy's fleet) are reported alongside.
    """
    from .api.serde import policy_label
    from .exp.report import format_fleet, format_survival

    reduced = handle.result()
    summaries = list(reduced["summaries"])
    point_failures = handle.failures()
    for failure in point_failures:
        # Failed policy points still get a row in the fleet table (the
        # formatter renders them as "(? failed)").
        summaries.append(
            {"policy": policy_label(failure.get("coords", {}).get("policy"))}
        )
    print()
    print(format_fleet(experiment.name, summaries))
    for policy_name, curve in reduced["survival"].items():
        if curve:
            print()
            print(format_survival(policy_name, curve))
    if reduced["frontier"]:
        print()
        print("population Pareto frontier "
              "(p5 lifetime vs p10 worst-window quality):")
        for s in reduced["frontier"]:
            print(
                f"  {s['policy']:>24s}  p5 {s['lifetime_p5_days']:6.2f} d  "
                f"p10 {s['quality_p10_db']:6.1f} dB"
            )
    n_failed_patients = 0
    for summary in reduced["summaries"]:
        for failure in summary.get("failures", []):
            n_failed_patients += 1
            print(
                f"  failed: patient {failure['patient']} -> "
                f"{failure['error']}",
                file=sys.stderr,
            )
    if n_failed_patients:
        print(
            f"warning: {n_failed_patients} patients failed; population "
            "statistics above exclude them",
            file=sys.stderr,
        )
    if point_failures:
        for failure in point_failures:
            print(f"  failed: {failure['error']}", file=sys.stderr)
        print(
            f"warning: {len(point_failures)} fleet points failed; "
            "population statistics above exclude them",
            file=sys.stderr,
        )
    return 1 if (n_failed_patients or point_failures) else 0


_REPORTERS = {
    "figure": _print_figure_report,
    "sweep": _print_sweep_report,
    "mission": _print_mission_report,
    "cohort": _print_cohort_report,
}


def _execute_and_report(experiment, session) -> int:
    """Run one experiment through a session and print its report."""
    _backend, workers = session.resolve_backend(experiment)
    if experiment.kind == "mission":
        _print_mission_header(experiment)
    elif experiment.kind == "cohort":
        _print_cohort_header(experiment, workers)
    handle = session.run(experiment)
    if session.progress is not None and _LOG.isEnabledFor(logging.INFO):
        print(file=sys.stderr)
    telemetry = handle.telemetry()
    if telemetry["enabled"]:
        _LOG.info(
            "trace recorded: %s (inspect with 'repro report %s')",
            telemetry["trace_path"], telemetry["run_id"],
        )
    return _REPORTERS[experiment.kind](experiment, handle, workers)


# --------------------------------------------------------------------------
# Unified-API subcommands
# --------------------------------------------------------------------------


def _cmd_run(args) -> int:
    from dataclasses import replace

    from .api.schema import load_experiment
    from .api.session import Session

    experiment = load_experiment(args.experiment)
    if args.seed is not None:
        experiment = experiment.with_seed(args.seed)
    if args.store is not None:
        experiment = replace(experiment, store=args.store)
    session = Session(
        backend=args.backend,
        workers=args.workers,
        store_dir=args.store_dir,
        fresh=args.fresh,
        progress=_stderr_progress,
    )
    return _execute_and_report(experiment, session)


def _cmd_validate(args) -> int:
    from .api.schema import load_experiment
    from .api.session import Session

    session = Session()
    failed = 0
    for path in args.paths:
        where = ""  # loading errors already name the file
        try:
            experiment = load_experiment(path)
            where = f"{path}: "
            # validate() also checks what plan() alone would miss
            # (e.g. an unknown execution backend).
            session.validate(experiment)
            campaigns = session.plan(experiment)
            n_points = sum(len(c.spec.expand()) for c in campaigns)
        except ReproError as error:
            failed += 1
            print(f"error: {where}{error}", file=sys.stderr)
            continue
        kind = experiment.kind
        if kind == "figure":
            kind = f"figure/{experiment.params.KIND}"
        print(
            f"{path}: ok — {kind} experiment {experiment.name!r}, "
            f"{len(campaigns)} campaign(s), {n_points} points"
        )
    return 1 if failed else 0


def _cmd_describe(args) -> int:
    from .api.schema import load_experiment
    from .api.session import Session

    session = Session(workers=args.workers, store_dir=args.store_dir)
    experiment = load_experiment(args.experiment)
    if args.seed is not None:
        experiment = experiment.with_seed(args.seed)
    print(session.describe(experiment))
    return 0


# --------------------------------------------------------------------------
# Utility subcommands (not experiments)
# --------------------------------------------------------------------------


def _cmd_cache(args) -> int:
    from .cache import event_stats, shared_cache

    cache = shared_cache()
    if args.clear:
        removed = cache.clear()
        print(f"cleared {removed} cached calibrations from {cache.root}")
        return 0
    info = cache.info()
    print(f"calibration cache at {info['root']}")
    print(f"  persistent: {info['persistent']}")
    print(f"  entries:    {info['entries']}")
    print(f"  size:       {info['size_bytes']} bytes")
    stats = info["process"]
    print(
        f"  this process: {stats['memory_hits']} memory hits, "
        f"{stats['disk_hits']} disk hits, {stats['computed']} computed"
    )
    events = event_stats(cache.root)
    if events["computed"] or events["disk_hits"] or events["clears"]:
        # Fleet-wide history from the cache's event log — covers every
        # process that ever touched this cache root, unlike the
        # process-local counters above.
        print(
            f"  all processes: {events['computed']} computed "
            f"({events['unique_entries']} unique, "
            f"{events['recomputed']} recomputed after eviction), "
            f"{events['disk_hits']} disk hits, {events['clears']} clears"
        )
        print(f"  disk hit rate: {events['hit_rate']:.1%}")
    return 0


def _resolved_trace_dir(args) -> Path:
    """The trace directory a command's run ids/registry resolve in."""
    from .obs import configured_dir, default_trace_dir

    return (
        Path(args.trace_dir)
        if args.trace_dir is not None
        else (configured_dir() or default_trace_dir())
    )


def _resolve_run_target(target: str, trace_dir: Path):
    """Turn a run id / ``latest`` / path into ``(run_id, trace path)``.

    ``latest`` resolves through the registry; a known run id prefers
    the registry's recorded trace path; anything else falls back to
    :func:`repro.obs.resolve_trace` (direct paths, ``<dir>/<id>.jsonl``).
    """
    from .errors import ObsError
    from .obs import RunRegistry, resolve_trace

    registry = RunRegistry(trace_dir)
    if target == "latest":
        record = registry.latest()
        if record is None:
            raise ObsError(
                f"no runs registered in {trace_dir} — run a traced "
                "experiment first (repro --trace ...)"
            )
        target = record.run_id
    else:
        record = registry.get(target)
    if record is not None:
        # A registered run's sink may not exist yet (nothing flushed);
        # return the expected path anyway — the watch tail waits for it.
        if record.trace_path:
            recorded = Path(record.trace_path)
            if recorded.is_file():
                return record.run_id, recorded
        return record.run_id, trace_dir / f"{record.run_id}.jsonl"
    return target, resolve_trace(target, trace_dir)


def _cmd_report(args) -> int:
    from .errors import ObsError
    from .obs import (
        TraceFold,
        diff_events,
        load_events,
        load_rules,
        render_diff,
        render_report,
    )

    trace_dir = _resolved_trace_dir(args)
    rules = load_rules(args.alerts) if args.alerts else None

    if args.diff:
        if args.profile:
            raise ObsError("--profile cannot be combined with --diff")
        if len(args.targets) != 2:
            raise ObsError(
                "--diff compares exactly two runs "
                f"(got {len(args.targets)} target(s))"
            )
        sides = []
        for target in args.targets:
            _run_id, path = _resolve_run_target(target, trace_dir)
            sides.append(TraceFold(load_events(path)))
        print(render_diff(diff_events(*sides), top=args.top))
        return _print_alerts(rules, sides[1])

    exit_code = 0
    for index, target in enumerate(args.targets):
        _run_id, path = _resolve_run_target(target, trace_dir)
        fold = TraceFold(load_events(path))
        profile = None
        if args.profile:
            from .obs import load_profile

            profile = load_profile(path)
        if index:
            print()
        # A per-run trace sink with no closed spans yet is a run in
        # progress (exit 0: nothing is wrong); an entirely empty trace
        # is an error (exit 1).  BENCH .json artefacts are closed by
        # construction and never "in progress".
        print(
            render_report(
                fold,
                top=args.top,
                live_source=path.suffix != ".json",
                profile=profile,
            )
        )
        if not fold.n_events:
            exit_code = 1
        exit_code = max(exit_code, _print_alerts(rules, fold))
    return exit_code


def _print_alerts(rules, fold) -> int:
    """Print the alert section for one folded trace; 1 when any fired."""
    from .obs import breached, evaluate_rules, render_outcomes

    if rules is None:
        return 0
    outcomes = evaluate_rules(rules, fold)
    print()
    print(render_outcomes(outcomes))
    return 1 if breached(outcomes) else 0


def _cmd_runs(args) -> int:
    import datetime

    from .errors import ObsError
    from .obs import RunRegistry

    trace_dir = _resolved_trace_dir(args)
    registry = RunRegistry(trace_dir)
    if args.prune_stale:
        pruned = registry.prune_stale()
        for record in pruned:
            print(f"pruned stale run {record.run_id} -> interrupted "
                  f"({record.error})")
        if not pruned:
            print(f"no stale runs in {trace_dir}")
        return 0
    records = registry.runs(
        kind=args.kind, status=args.status, name=args.name,
        limit=args.limit,
    )
    if args.latest:
        if not records:
            raise ObsError(
                f"no matching runs registered in {trace_dir}"
            )
        print(records[0].run_id)
        return 0
    if args.as_json:
        import json as _json

        # Machine-readable registry dump: the effective status (with
        # owner-pid staleness applied) rides along so scripts need no
        # liveness logic of their own.
        payload = [
            {**record.to_dict(), "effective_status":
             record.effective_status()}
            for record in records
        ]
        print(_json.dumps(payload, indent=2, sort_keys=True))
        return 0
    if not records:
        print(
            f"No runs registered in {trace_dir} — run a traced "
            "experiment first (repro --trace ...)"
        )
        return 0
    print(f"Runs in {trace_dir} ({len(records)} shown, newest first):")
    print(
        f"  {'RUN ID':<36} {'KIND':<8} {'STATUS':<11} "
        f"{'STARTED':<19} {'WALL':>9} {'POINTS':>7} "
        f"{'CPU':>8} {'PEAK RSS':>9}"
    )
    for record in records:
        started = (
            datetime.datetime.fromtimestamp(record.started_at)
            .strftime("%Y-%m-%d %H:%M:%S")
            if record.started_at
            else "-"
        )
        wall = (
            f"{record.wall_s:.1f} s" if record.wall_s is not None else "-"
        )
        points = record.metrics.get("n_points")
        failed = record.metrics.get("n_failed") or 0
        shown = "-" if points is None else str(points)
        if failed:
            shown += f" ({failed}!)"
        # Resource columns stay blank for records written before
        # schema revision 1.5 (they simply lack the fields).
        cpu = f"{record.cpu_s:.1f} s" if record.cpu_s is not None else "-"
        rss = (
            f"{record.peak_rss_bytes / 1048576.0:.0f} MB"
            if record.peak_rss_bytes is not None
            else "-"
        )
        print(
            f"  {record.run_id:<36} {record.kind or '-':<8} "
            f"{record.effective_status():<11} {started:<19} {wall:>9} "
            f"{shown:>7} {cpu:>8} {rss:>9}"
        )
        if record.error:
            print(f"      error: {record.error}")
        elif record.is_stale():
            print(
                f"      stale: owner pid {record.pid} is dead and never "
                "finalized this run (repro runs --prune-stale)"
            )
    return 0


def _cmd_watch(args) -> int:
    from .obs import RunRegistry, load_rules, watch

    trace_dir = _resolved_trace_dir(args)
    run_id, path = _resolve_run_target(args.target, trace_dir)
    rules = load_rules(args.alerts) if args.alerts else None
    registry = RunRegistry(trace_dir)

    def _finished() -> bool:
        record = registry.get(run_id)
        return record is not None and record.status in (
            "ok", "failed", "interrupted"
        )

    def _dead() -> str | None:
        # A run whose registry row says "running" but whose owner pid
        # is gone will never produce another event: tell the user
        # instead of tailing forever.
        record = registry.get(run_id)
        if record is not None and record.is_stale():
            return (
                f"owner pid {record.pid} of run {run_id} is dead and "
                "the run was never finalized"
            )
        return None

    return watch(
        path,
        run_id=run_id,
        once=args.once,
        interval_s=args.interval,
        rules=rules,
        is_finished=_finished,
        is_dead=_dead,
        max_seconds=args.max_seconds,
    )


# --------------------------------------------------------------------------
# Experiment-service subcommands
# --------------------------------------------------------------------------


def _service_root(args) -> Path | None:
    return Path(args.root) if getattr(args, "root", None) else None


def _cmd_serve(args) -> int:
    from .service import ExperimentService, ServiceClient

    if args.stop:
        client = ServiceClient(root=_service_root(args))
        client.shutdown(wait=True)
        print(f"service daemon at {client.root} drained and stopped")
        return 0
    service = ExperimentService(
        root=_service_root(args),
        workers=args.workers,
        store_dir=args.store_dir,
        trace_dir=args.trace_dir,
        shards=args.shards,
    )
    _LOG.info(
        "service daemon starting: root=%s workers=%d shards=%d "
        "store_dir=%s trace_dir=%s (submit with 'repro submit', stop "
        "with 'repro serve --stop' or SIGTERM)",
        service.root, service.workers, service.shards,
        service.store_dir, service.trace_dir,
    )
    return service.serve()


def _cmd_submit(args) -> int:
    from .api.schema import load_experiment
    from .service import ServiceClient

    client = ServiceClient(root=_service_root(args))
    experiment = load_experiment(args.experiment)
    if args.seed is not None:
        experiment = experiment.with_seed(args.seed)
    job, created = client.submit(experiment, priority=args.priority)
    _LOG.info(
        "job %s %s (status %s, priority %d)",
        job.job_id,
        "submitted" if created else "already known — deduplicated",
        job.status, job.priority,
    )
    print(job.job_id)
    if not args.wait:
        return 0
    for event in client.progress_stream(
        job.job_id, timeout_s=args.timeout
    ):
        total = event.get("attrs", {}).get("total")
        if _LOG.isEnabledFor(logging.INFO):
            print(
                f"\r  {job.job_id}: {int(event.get('value', 0))}"
                f"/{int(total) if total else '?'} points",
                end="", file=sys.stderr, flush=True,
            )
    if _LOG.isEnabledFor(logging.INFO):
        print(file=sys.stderr)
    record = client.status(job.job_id)
    _LOG.info("job %s finished: %s", job.job_id, record.status)
    if record.error:
        _LOG.error(str(record.error))
    return 0 if record.status == "done" else 1


def _cmd_jobs(args) -> int:
    import datetime
    import json as _json

    from .service import ServiceClient

    client = ServiceClient(root=_service_root(args))
    records = client.jobs(
        status=args.status, kind=args.kind, limit=args.limit
    )
    if args.as_json:
        print(_json.dumps(
            [record.to_dict() for record in records],
            indent=2, sort_keys=True,
        ))
        return 0
    if not records:
        print(
            f"No service jobs recorded in {client.queue.path} — submit "
            "one with 'repro submit <experiment.toml>'"
        )
        return 0
    print(
        f"Jobs in {client.queue.path} ({len(records)} shown, newest "
        "first):"
    )
    print(
        f"  {'JOB ID':<36} {'KIND':<10} {'STATUS':<10} {'PRI':>4} "
        f"{'SUBMITTED':<19} {'WALL':>9} {'NAME'}"
    )
    for record in records:
        submitted = (
            datetime.datetime.fromtimestamp(record.submitted_at)
            .strftime("%Y-%m-%d %H:%M:%S")
            if record.submitted_at
            else "-"
        )
        wall = (
            f"{record.updated_at - record.submitted_at:.1f} s"
            if record.terminal and record.updated_at
            else "-"
        )
        print(
            f"  {record.job_id:<36} {record.kind:<10} "
            f"{record.status:<10} {record.priority:>4} {submitted:<19} "
            f"{wall:>9} {record.name}"
        )
        if record.error:
            print(f"      error: {record.error}")
    return 0


def _cmd_cancel(args) -> int:
    from .service import ServiceClient

    client = ServiceClient(root=_service_root(args))
    record = client.cancel(args.job_id)
    print(f"job {record.job_id} cancelled")
    return 0


def _cmd_fetch(args) -> int:
    from .api.schema import experiment_from_payload
    from .errors import ServiceError
    from .service import ServiceClient

    client = ServiceClient(root=_service_root(args))
    record = client.status(args.job_id)
    if record.kind != "experiment":
        raise ServiceError(
            f"job {args.job_id} is a {record.kind} job; its records "
            "live in its campaign store"
        )
    handle = client.fetch(args.job_id)
    experiment = experiment_from_payload(record.payload)
    if not handle.records:
        raise ServiceError(
            f"no stored results for job {args.job_id} (status "
            f"{record.status}); experiments without a 'store' field "
            "are not persisted"
        )
    return _REPORTERS[experiment.kind](experiment, handle, 1)


def _cmd_profile(args) -> int:
    import json as _json

    from .obs import load_profile, speedscope_document
    from .obs.profile import collapsed_lines

    trace_dir = _resolved_trace_dir(args)
    _run_id, path = _resolve_run_target(args.target, trace_dir)
    profile = load_profile(path)
    _LOG.info(
        "merged %d shard(s): %d samples at %.1f ms, %d idle-thread "
        "samples skipped",
        len(profile["shards"]), profile["samples"],
        profile["interval_s"] * 1000.0, profile["skipped"],
    )
    if args.flamegraph:
        out = Path(args.flamegraph)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(
            _json.dumps(speedscope_document(profile), sort_keys=True)
            + "\n",
            encoding="utf-8",
        )
        print(f"wrote speedscope profile to {out}")
        return 0
    # Bare collapsed-stack lines on stdout (the summary goes to the
    # stderr logger) so the output pipes straight into flamegraph.pl.
    for line in collapsed_lines(profile):
        print(line)
    return 0


def _cmd_bench(args) -> int:
    from .obs import bench as bench_history

    history = (
        Path(args.history)
        if args.history is not None
        else bench_history.default_history_path()
    )
    events = bench_history.load_history(history)
    kwargs = {}
    if args.window is not None:
        kwargs["window"] = args.window
    if args.band is not None:
        kwargs["band"] = args.band
    text, drifting = bench_history.render_trend(
        events, metric=args.metric, **kwargs
    )
    print(text)
    return 1 if drifting else 0


def _cmd_overheads(args) -> int:
    from .exp.overheads import overhead_table
    from .exp.report import format_overheads

    print(format_overheads(overhead_table()))
    return 0


def _cmd_record(args) -> int:
    from .signals.dataset import load_record

    record = load_record(args.name, duration_s=args.duration)
    labels = "".join(record.labels)
    print(f"record {record.name}: {record.duration_s:.1f} s @ "
          f"{record.fs_hz:.0f} Hz, {len(record.samples)} samples")
    print(f"  beats: {len(record.labels)}  rhythm: {labels}")
    print(f"  sample range: [{int(record.samples.min())}, "
          f"{int(record.samples.max())}]")
    return 0


def _cmd_lifetime(args) -> int:
    from .campaign.evaluators import measured_workload
    from .emt import make_emt
    from .energy.battery import BatteryModel, estimate_lifetime
    from .energy.technology import TECH_32NM_LP

    battery = BatteryModel(capacity_mah=args.capacity_mah)
    workload = measured_workload("dwt")
    print(f"{args.capacity_mah:.0f} mAh battery, DWT monitoring workload")
    print(f"{'configuration':>24s} {'power':>10s} {'lifetime':>10s}")
    rows = [("none", TECH_32NM_LP.v_nominal), (args.emt, args.voltage)]
    for emt_name, voltage in rows:
        estimate = estimate_lifetime(
            make_emt(emt_name), voltage, battery, workload=workload
        )
        print(
            f"{emt_name + f' @ {voltage:.2f} V':>24s} "
            f"{estimate.average_power_uw:8.2f}uW "
            f"{estimate.lifetime_days:8.0f} d"
        )
    return 0


_HANDLERS = {
    "run": _cmd_run,
    "validate": _cmd_validate,
    "describe": _cmd_describe,
    "overheads": _cmd_overheads,
    "record": _cmd_record,
    "lifetime": _cmd_lifetime,
    "cache": _cmd_cache,
    "report": _cmd_report,
    "runs": _cmd_runs,
    "watch": _cmd_watch,
    "serve": _cmd_serve,
    "submit": _cmd_submit,
    "jobs": _cmd_jobs,
    "cancel": _cmd_cancel,
    "fetch": _cmd_fetch,
    "profile": _cmd_profile,
    "bench": _cmd_bench,
}


def _stdout_reader_gone() -> bool:
    """True when stdout is a pipe whose reading end has been closed."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, ValueError, OSError):
        return False  # not backed by a file descriptor
    if not hasattr(select, "poll"):
        return True  # no way to ask; stdout is the likeliest pipe
    poller = select.poll()
    poller.register(fd, select.POLLOUT)
    return any(events & select.POLLERR for _fd, events in poller.poll(0))


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    _configure_logging(args.verbose - args.quiet)
    if args.trace is not None:
        from .obs import default_trace_dir, set_trace_dir

        set_trace_dir(args.trace if args.trace else default_trace_dir())
    if args.profile_run:
        from .obs import configured_dir, default_trace_dir, set_trace_dir
        from .obs.profile import ENV_PROFILE

        os.environ[ENV_PROFILE] = "1"
        # Profile shards live beside the trace sink, so profiling
        # implies tracing; an explicit --trace/REPRO_TRACE_* wins.
        if configured_dir() is None:
            set_trace_dir(default_trace_dir())
    if args.chaos is not None:
        from .resilience import ENV_CHAOS, parse_chaos

        try:
            parse_chaos(args.chaos)  # fail fast on a malformed spec
        except ReproError as error:
            _LOG.error(str(error))
            return 1
        os.environ[ENV_CHAOS] = args.chaos
    try:
        code = _HANDLERS[args.command](args)
        sys.stdout.flush()  # a closed pipe surfaces here, not at exit
        return code
    except BrokenPipeError as error:
        if not _stdout_reader_gone():
            # Some other pipe broke (a worker, a socket): a real error.
            _LOG.error("broken pipe: %s", error)
            return 1
        # The reader (``| head``, ``| grep -q``) left early: drop the
        # rest of the output quietly and exit like a SIGPIPE'd process.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except RunInterrupted as error:
        # The session already drained and persisted completed work and
        # finalized the registry row as 'interrupted'; exit like a
        # SIGINT'd process so wrappers treat the run as cancelled.
        _LOG.error("interrupted: %s", error)
        return 130
    except ReproError as error:
        # The CLI formatter renders ERROR records as "error: ..." on
        # stderr; --quiet lowers verbosity but never silences these.
        _LOG.error(str(error))
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
