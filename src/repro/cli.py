"""Command-line entry point: run MATCH experiments from a shell.

Every command is a thin adapter over the :mod:`repro.api` facade: it
parses flags into a :class:`repro.api.Campaign`, executes through a
:class:`repro.api.Session` (consuming the typed event stream — pass
``--progress`` to ``campaign`` to watch it live), and renders with the
registered report renderers.

Examples::

    match-bench table1
    match-bench run --app hpccg --design reinit-fti --nprocs 64 \
        --faults single
    match-bench campaign --app minivite,hpccg --design all --nprocs 8 \
        --nnodes 4 --runs 10 --jobs 4 --progress
    match-bench figure --id 7 --app hpccg
    match-bench advise --app hpccg --nprocs 512 --mtbf 4h
    match-bench model-validate --app hpccg --nprocs 64,256
"""

from __future__ import annotations

import argparse
import sys
import time

from .core.configs import (
    DESIGN_NAMES,
    INPUT_SIZES,
    NNODES,
    valid_proc_counts,
)
from .core.report import (
    format_breakdown_series,
    format_recovery_series,
    format_table1,
)
from .errors import ConfigurationError


def _cmd_table1(_args) -> int:
    print(format_table1())
    return 0


def _base_campaign(args):
    """The Campaign fields shared by every experiment-running command."""
    from .api import Campaign

    campaign = Campaign()
    if getattr(args, "fti_level", None) is not None:
        campaign = campaign.fti(level=args.fti_level)
    if getattr(args, "seed", None) is not None:
        campaign = campaign.seed(args.seed)
    if getattr(args, "nnodes", None) is not None:
        campaign = campaign.nnodes(args.nnodes)
    if getattr(args, "interval", None) is not None:
        campaign = campaign.interval(_parse_interval(args.interval))
    return campaign


def _parse_interval(value):
    """CLI ``--interval`` values: an int stride or the string 'auto'."""
    if value == "auto":
        return value
    try:
        return int(value)
    except ValueError:
        raise ConfigurationError(
            "--interval takes an integer stride or 'auto' (got %r)"
            % (value,))


def _cmd_run(args) -> int:
    from .api import run_averaged

    campaign = (_base_campaign(args).apps(args.app).designs(args.design)
                .nprocs(args.nprocs).inputs(args.input)
                .faults(args.faults))
    config = campaign.configs()[0]
    result = run_averaged(config, args.reps)
    print(config.label())
    print("  " + str(result.breakdown))
    print("  verified: %s over %d repetition(s)"
          % (result.verified, result.repetitions))
    if config.inject_fault:
        for run in result.runs:
            print("  faults: %s"
                  % (", ".join("r%d@i%d%s"
                               % (e.rank, e.iteration,
                                  "(node)" if e.kind == "node" else "")
                               for e in run.fault_events) or "none drawn"))
    return 0


def _figure_session(args, nprocs_list, input_list, inject_fault):
    """One Session covering a whole figure's (x, design) cells."""
    from .api import Campaign

    campaign = (Campaign().apps(args.app).designs(*DESIGN_NAMES)
                .nprocs(*nprocs_list).inputs(*input_list)
                .faults("single" if inject_fault else None)
                .reps(args.reps))
    return campaign.run()


def _figure_cell(session, **cell):
    # look the cell's config up in the session rather than re-deriving
    # it from ExperimentConfig defaults, so the builder's defaults are
    # the single source of truth
    config = next(c for c in session.configs
                  if all(getattr(c, name) == value
                         for name, value in cell.items()))
    return session.averaged(config)


def _cmd_figure(args) -> int:
    fig = args.id
    app = args.app
    if fig in (5, 6, 7):
        xs = valid_proc_counts(app)
        session = _figure_session(args, xs, ("small",), fig in (6, 7))
        rows = []
        for nprocs in xs:
            for design in DESIGN_NAMES:
                res = _figure_cell(session, design=design,
                                   nprocs=nprocs)
                rows.append((nprocs, design,
                             res.breakdown.recovery_seconds if fig == 7
                             else res.breakdown))
        if fig == 7:
            print(format_recovery_series("Figure 7 (%s)" % app, rows))
        else:
            print(format_breakdown_series("Figure %d (%s)" % (fig, app),
                                          rows))
    elif fig in (8, 9, 10):
        session = _figure_session(args, (64,), INPUT_SIZES, fig in (9, 10))
        rows = []
        for input_size in INPUT_SIZES:
            for design in DESIGN_NAMES:
                res = _figure_cell(session, design=design, nprocs=64,
                                   input_size=input_size)
                rows.append((input_size, design,
                             res.breakdown.recovery_seconds if fig == 10
                             else res.breakdown))
        if fig == 10:
            print(format_recovery_series("Figure 10 (%s)" % app, rows,
                                         x_label="Input"))
        else:
            print(format_breakdown_series("Figure %d (%s)" % (fig, app),
                                          rows, x_label="Input"))
    else:
        print("unknown figure id %d (have 5-10)" % fig, file=sys.stderr)
        return 2
    return 0


def _parse_designs(value: str):
    designs = tuple(DESIGN_NAMES) if value == "all" \
        else tuple(value.split(","))
    for design in designs:
        if design not in DESIGN_NAMES:
            raise ConfigurationError(
                "unknown design %r (have %s or 'all')"
                % (design, DESIGN_NAMES))
    return designs


def _parse_int_list(flag: str, value: str) -> tuple:
    try:
        return tuple(int(part) for part in value.split(","))
    except ValueError:
        raise ConfigurationError(
            "%s takes comma-separated integers (got %r)" % (flag, value))


def _matrix_campaign(args):
    """The Campaign a ``campaign``-shaped flag set describes."""
    campaign = (_base_campaign(args)
                .apps(*args.app.split(","))
                .designs(*_parse_designs(args.design))
                .faults(args.faults if args.faults is not None
                        else "single"))
    if args.nprocs is not None:
        campaign = campaign.nprocs(args.nprocs)
    if args.input is not None:
        campaign = campaign.inputs(args.input)
    return campaign


def _parse_timeout(value):
    if value is None or value == "auto":
        return value
    try:
        return float(value)
    except ValueError:
        raise ConfigurationError(
            "--timeout takes seconds or 'auto' (got %r)" % (value,))


def _format_seconds(seconds: float) -> str:
    if seconds >= 3600:
        return "%dh%02dm" % (seconds // 3600, (seconds % 3600) // 60)
    if seconds >= 60:
        return "%dm%02ds" % (seconds // 60, seconds % 60)
    return "%.1fs" % seconds


def _progress_clock(started: float, completed: int, total: int) -> str:
    """`` [elapsed 12.3s, ETA 1m04s]`` for a --progress line.

    The ETA extrapolates mean time-per-unit over the completed count —
    resumed (skipped) units count too, which deliberately *shortens*
    the estimate: they cost nothing and the remaining work shrinks.
    """
    elapsed = time.perf_counter() - started
    text = " [elapsed %s" % _format_seconds(elapsed)
    remaining = total - completed
    if completed > 0 and remaining > 0:
        eta = elapsed / completed * remaining
        text += ", ETA %s" % _format_seconds(eta)
    return text + "]"


def _cmd_campaign(args) -> int:
    from .api import (
        UnitCompleted,
        UnitFailed,
        UnitRetrying,
        UnitSkipped,
        check_campaign,
    )
    from .core.report import format_campaign_matrix

    from .obs import env as obs_env
    from .obs.metrics import REGISTRY as obs_registry

    campaign = (_matrix_campaign(args).reps(args.runs).jobs(args.jobs)
                .store(args.store).resume(args.resume).shard(args.shard)
                .on_error(args.on_error).retries(args.retries)
                .timeout(_parse_timeout(args.timeout)))
    if args.sim_watchdog is not None:
        campaign = campaign.sim_watchdog(args.sim_watchdog)
    # telemetry: CLI flags win over the MATCH_TRACE/MATCH_OBS defaults
    trace_path = args.trace or obs_env.trace_path_from_env()
    metrics_path = args.metrics_out or obs_env.metrics_snapshot_path()
    if obs_env.metrics_disabled_by_env():
        obs_registry.set_enabled(False)
    if trace_path:
        campaign = campaign.trace()
    if args.profile:
        campaign = campaign.profile(args.profile)
    check_campaign(campaign.configs(), args.runs)
    if args.estimate:
        total = 0.0
        print("pre-flight estimate (analytic model, %d rep(s)/cell):"
              % args.runs)
        for config, prediction in campaign.predict():
            total += prediction.total_seconds * args.runs
            print("  %-44s E[T]=%8.2fs  eff=%5.1f%%"
                  % (config.label(), prediction.total_seconds,
                     100.0 * prediction.efficiency))
        print("  predicted virtual cost of the sweep: %.2f sim-seconds"
              % total)
    session = campaign.session()
    started = time.perf_counter()
    for event in session.stream():
        if not args.progress:
            continue
        if isinstance(event, (UnitCompleted, UnitSkipped)):
            tag = "skip" if isinstance(event, UnitSkipped) else "done"
            print("[%d/%d] %s %s rep %d%s"
                  % (event.completed, event.total, tag,
                     event.unit.config.label(), event.unit.rep,
                     _progress_clock(started, event.completed,
                                     event.total)))
        elif isinstance(event, UnitRetrying):
            print("[%d/%d] retry %s rep %d (attempt %d failed: %s; "
                  "backing off %.1fs)"
                  % (event.completed, event.total,
                     event.unit.config.label(), event.unit.rep,
                     event.attempt, event.error.summary(), event.delay))
        elif isinstance(event, UnitFailed):
            print("[%d/%d] FAIL %s rep %d: %s"
                  % (event.completed, event.total,
                     event.unit.config.label(), event.unit.rep,
                     event.error))
    summaries = session.campaigns()
    for result in summaries.values():
        print(result.report())
    if len(summaries) > 1:
        print()
        print(format_campaign_matrix(summaries))
    print("engine: executed %d run(s), skipped %d already-stored "
          "run(s), %d failure(s)"
          % (session.executed, session.skipped, session.failed))
    # telemetry artifacts land even when the sweep had contained
    # failures — that is exactly when a trace is most wanted
    if trace_path:
        print("trace: %d event(s) written to %s (open in Perfetto / "
              "chrome://tracing)"
              % (len(session.trace()["traceEvents"]),
                 session.write_trace(trace_path)))
    if metrics_path:
        obs_env.write_metrics_snapshot(metrics_path,
                                       obs_registry.snapshot())
        print("metrics: registry snapshot written to %s" % metrics_path)
    if args.profile:
        print("profile: per-unit dumps in %s (rank with: match-bench "
              "profile %s)" % (args.profile, args.profile))
    if session.failed:
        print("failed runs (recorded in the store; a --resume after a "
              "fix re-runs them):", file=sys.stderr)
        for key, record in sorted(session.failures().items()):
            print("  %s: %s" % (key, record.summary()), file=sys.stderr)
        return 1
    return 0


def _cmd_profile(args) -> int:
    from .obs.profiling import (
        aggregate_profiles,
        format_hotspots,
        hotspot_rows,
    )

    stats, n_dumps = aggregate_profiles(args.dir)
    print(format_hotspots(
        hotspot_rows(stats, top=args.top, sort=args.sort), n_dumps))
    return 0


def _cmd_campaign_report(args) -> int:
    from .core.breakdown import try_run_result_from_dict
    from .core.campaign import campaign_results_from_records
    from .core.engine import campaign_units
    from .core.report import render_campaign
    from .core.store import merge_store_paths

    records = merge_store_paths(args.store)
    print(render_campaign(campaign_results_from_records(records),
                          fmt=args.format, title="Merged campaign stores"))
    if args.check_complete:
        # run keys hash the full config: a completeness check against
        # the wrong matrix silently reports INCOMPLETE (or worse,
        # complete), so the identifying flags must be explicit and the
        # assumed defaults are echoed
        if None in (args.app, args.design, args.nprocs, args.runs):
            print("--check-complete needs the sweep's matrix flags: "
                  "--app --design --nprocs --runs (plus --input/--seed/"
                  "--nnodes/--faults/--fti-level if the sweep used "
                  "non-defaults — all of them enter the run key)",
                  file=sys.stderr)
            return 2
        args.input = "small" if args.input is None else args.input
        args.seed = 0 if args.seed is None else args.seed
        args.nnodes = NNODES if args.nnodes is None else args.nnodes
        print("checking completeness for: app=%s design=%s nprocs=%d "
              "input=%s seed=%d nnodes=%d runs=%d faults=%s fti-level=%s"
              % (args.app, args.design, args.nprocs, args.input,
                 args.seed, args.nnodes, args.runs,
                 args.faults if args.faults is not None else "single",
                 args.fti_level if args.fti_level is not None else 1))
        # key presence is not enough: a record the summary had to skip
        # (undecodable payload) must count as a hole, or an incomplete
        # sweep ships as green
        usable = {key for key, record in records.items()
                  if try_run_result_from_dict(record["result"])
                  is not None}
        expected = campaign_units(_matrix_campaign(args).configs(),
                                  args.runs)
        missing = [u for u in expected if u.key not in usable]
        if missing:
            print("INCOMPLETE: %d of %d runs missing from the merged "
                  "stores:" % (len(missing), len(expected)),
                  file=sys.stderr)
            for unit in missing[:20]:
                print("  %s rep %d (%s)" % (unit.config.label(), unit.rep,
                                            unit.key), file=sys.stderr)
            return 1
        print("complete: all %d matrix runs present" % len(expected))
    return 0


def _cmd_explore(args) -> int:
    from .core.events import ExploreStarted, ScheduleProbed

    campaign = (_base_campaign(args).apps(args.app).designs(args.design)
                .nprocs(args.nprocs).inputs(args.input).faults("none"))
    if args.store:
        campaign = campaign.store(args.store).resume()
    config = campaign.configs()[0]
    session = campaign.session()

    def render(event):
        if isinstance(event, ExploreStarted):
            print("exploring %s with %s over %d candidate schedule(s)"
                  % (event.config_label, event.strategy, event.candidates))
            print("  anchors: %s" % (", ".join(event.anchors) or "none"))
        elif args.progress and isinstance(event, ScheduleProbed):
            print("  [%3d] %-40s %10.3f s  (worst so far: %s)"
                  % (event.probes, event.spec, event.makespan,
                     event.best_spec))

    outcome = session.explore(config, strategy=args.strategy,
                              budget=args.budget, seed=args.seed,
                              progress=render)
    print("worst case: at-phase:%s" % outcome.best_spec)
    print("  makespan %.3f s vs %.3f s fault-free (%.2fx slowdown), "
          "%d schedule(s) probed"
          % (outcome.best, outcome.baseline, outcome.slowdown,
             outcome.probes))
    return 0


def _cmd_advise(args) -> int:
    import time

    from .modeling import MODELS  # noqa: F401  (imports the registry)
    from .modeling.advisor import advise, render_advice

    levels = _parse_int_list("--levels", args.levels)
    t0 = time.perf_counter()
    rows = advise(args.app, args.nprocs, args.mtbf,
                  input_size=args.input, nnodes=args.nnodes,
                  designs=_parse_designs(args.design), levels=levels,
                  objective=args.objective, model=args.model)
    model_ms = (time.perf_counter() - t0) * 1e3
    print(render_advice(
        rows, fmt=args.format,
        title="Advice for %s at %d ranks, MTBF %s (objective: %s)"
        % (args.app, args.nprocs, args.mtbf, args.objective)))
    if args.format == "table":
        print("model time: %.2f ms (%d cells)" % (model_ms, len(rows)))
    return 0


def _cmd_serve(args) -> int:
    from .service import AdviceQuery, AdvisorServer, AdvisorService

    service = AdvisorService(model=args.model,
                             query_cache_size=args.query_cache)
    if args.calibrate_store:
        version = service.recalibrate(args.calibrate_store)
        print("calibrated from %d store(s): %s"
              % (len(args.calibrate_store), version), file=sys.stderr)
    if args.warm:
        workloads = []
        for spec in args.warm:
            app, _, nprocs = spec.partition(":")
            try:
                nprocs = int(nprocs) if nprocs else 64
            except ValueError:
                raise ConfigurationError(
                    "--warm takes app or app:nprocs (got %r)" % (spec,))
            workloads.append(AdviceQuery.make(app, nprocs, "1h"))
        entries = service.warm(workloads)
        print("warmed %d workload(s): %d rankings in the query cache"
              % (len(workloads), entries), file=sys.stderr)
    server = AdvisorServer(service, host=args.host, port=args.port)
    print("advisor service (calibration %s) listening on "
          "http://%s:%d — endpoints: /advise /advise/batch /predict "
          "/healthz /metrics /metrics.json" % (service.calibration,
                                               args.host, args.port),
          file=sys.stderr)
    server.run()
    return 0


def _cmd_model_validate(args) -> int:
    from .modeling.validate import validate_model

    report = validate_model(
        app=args.app, nprocs=_parse_int_list("--nprocs", args.nprocs),
        designs=_parse_designs(args.design), faults=args.faults,
        reps=args.runs, input_size=args.input, nnodes=args.nnodes,
        model=args.model, error_budget=args.budget, jobs=args.jobs,
        seed=args.seed, calibrate=args.calibrate)
    print(report.report())
    return 0 if report.within_budget else 1


def _cmd_chart(args) -> int:
    from .api import Campaign
    from .core.charts import figure_chart

    xs = valid_proc_counts(args.app)
    session = (Campaign().apps(args.app).designs(*DESIGN_NAMES)
               .nprocs(*xs).faults("single" if args.fault else None)
               .reps(args.reps).run())
    cells = []
    for nprocs in xs:
        for design in DESIGN_NAMES:
            cells.append((nprocs, design,
                          _figure_cell(session, design=design,
                                       nprocs=nprocs).breakdown))
    print(figure_chart("%s: breakdown by scaling size%s"
                       % (args.app, " (with failure)" if args.fault else ""),
                       cells))
    return 0


def _cmd_lint(args) -> int:
    # delegate to the match-lint CLI so `match-bench lint` and
    # `python -m repro.analysis` stay flag-for-flag identical
    from .analysis.cli import main as lint_main

    argv = list(args.paths) + ["--format", args.format]
    if args.baseline is not None:
        argv += ["--baseline", args.baseline]
    if args.no_baseline:
        argv.append("--no-baseline")
    if args.write_baseline:
        argv.append("--write-baseline")
    if args.select is not None:
        argv += ["--select", args.select]
    if args.list_rules:
        argv.append("--list-rules")
    return lint_main(argv, prog="match-bench lint")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="match-bench",
        description="MATCH MPI fault-tolerance benchmark suite "
                    "(IISWC 2020 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("table1", help="print Table I").set_defaults(
        func=_cmd_table1)

    def add_fault_args(p):
        p.add_argument("--faults", "--scenario", dest="faults",
                       default=None, metavar="SPEC",
                       help="fault scenario spec: none | single | "
                            "independent:K[:node=N] | "
                            "correlated:K[:window=W] | poisson:MTBF | "
                            "at-phase:SCHEDULE | worst-of:BUDGET "
                            "(see docs/FAULTS.md, docs/EXPLORE.md)")
        p.add_argument("--fti-level", dest="fti_level", type=int,
                       default=None, choices=(1, 2, 3, 4),
                       help="FTI reliability level (node-failure "
                            "scenarios need >= 2)")
        p.add_argument("--interval", default=None, metavar="N|auto",
                       help="checkpoint interval in iterations, or "
                            "'auto' for the Daly optimum under the "
                            "configured fault scenario (docs/MODELING.md)")

    run_p = sub.add_parser("run", help="run one configuration")
    run_p.add_argument("--app", required=True)
    run_p.add_argument("--design", required=True, choices=DESIGN_NAMES)
    run_p.add_argument("--nprocs", type=int, default=64)
    run_p.add_argument("--input", default="small", choices=INPUT_SIZES)
    run_p.add_argument("--seed", type=int, default=0)
    run_p.add_argument("--reps", type=int, default=None)
    add_fault_args(run_p)
    run_p.set_defaults(func=_cmd_run)

    fig_p = sub.add_parser("figure", help="regenerate one figure's series")
    fig_p.add_argument("--id", type=int, required=True)
    fig_p.add_argument("--app", default="hpccg")
    fig_p.add_argument("--reps", type=int, default=None)
    fig_p.set_defaults(func=_cmd_figure)

    def add_matrix_args(p, required, with_defaults=True):
        # with_defaults=False leaves every flag None so commands that
        # must reconstruct a sweep's exact run keys can tell an omitted
        # flag from an explicitly-passed default
        p.add_argument("--app", required=required,
                       help="app or comma-separated list of apps")
        p.add_argument("--design", required=required,
                       help="design, comma-separated list, or 'all'")
        p.add_argument("--nprocs", type=int,
                       default=64 if with_defaults else None)
        p.add_argument("--nnodes", type=int,
                       default=NNODES if with_defaults else None)
        p.add_argument("--input", choices=INPUT_SIZES,
                       default="small" if with_defaults else None)
        p.add_argument("--runs", type=int,
                       default=10 if with_defaults else None,
                       help="repetitions per matrix cell")
        p.add_argument("--seed", type=int,
                       default=0 if with_defaults else None)
        # scenario flags: None means "the paper's single kill at FTI
        # defaults", identically on both the sweep and report sides, so
        # an omitted flag reconstructs the same run keys either way
        add_fault_args(p)

    camp_p = sub.add_parser("campaign",
                            help="fault-injection campaign statistics "
                                 "(parallel, resumable, shardable)")
    add_matrix_args(camp_p, required=True)
    camp_p.add_argument("--jobs", type=int, default=1,
                        help="worker processes (1 = serial in-process)")
    camp_p.add_argument("--store", default=None,
                        help="result store for resume/merge: a JSONL "
                             "path or backend:location spec")
    camp_p.add_argument("--resume", action="store_true",
                        help="skip runs already present in --store")
    camp_p.add_argument("--shard", default=None, metavar="K/N",
                        help="run only shard K of N of the matrix")
    camp_p.add_argument("--progress", action="store_true",
                        help="print one line per completed run (the "
                             "session's live event stream)")
    camp_p.add_argument("--estimate", action="store_true",
                        help="print the analytic pre-flight cost "
                             "estimate (predicted makespan per cell) "
                             "before launching")
    camp_p.add_argument("--on-error", default="abort", metavar="POLICY",
                        help="failure policy: abort (default, first "
                             "failure re-raises), continue (record a "
                             "failure record, finish the sweep; exit "
                             "code 1 if anything failed) or retry:N "
                             "(continue plus N transient retries)")
    camp_p.add_argument("--retries", type=int, default=0,
                        help="transient-failure retries per run (dead "
                             "worker, blown timeout — never "
                             "deterministic simulation errors)")
    camp_p.add_argument("--timeout", default=None, metavar="SECONDS|auto",
                        help="per-run wall-clock timeout; 'auto' derives "
                             "one from the modeled makespan of this "
                             "matrix (suggest_timeout: slowest cell x 5, "
                             "floor 30s)")
    camp_p.add_argument("--sim-watchdog", type=int, default=None,
                        metavar="STEPS",
                        help="per-run simulator livelock guard: abort a "
                             "run past this many scheduler steps")
    camp_p.add_argument("--trace", default=None, metavar="OUT.json",
                        help="collect campaign→unit→phase spans and "
                             "write Chrome trace-event JSON there "
                             "(Perfetto-viewable; $MATCH_TRACE sets a "
                             "default path)")
    camp_p.add_argument("--profile", default=None, metavar="DIR",
                        help="cProfile every run unit into DIR "
                             "(aggregate with: match-bench profile DIR)")
    camp_p.add_argument("--metrics-out", default=None, metavar="OUT.json",
                        help="dump the campaign's metrics-registry "
                             "snapshot there at the end ($MATCH_OBS sets "
                             "a default path; MATCH_OBS=off disables "
                             "metrics entirely)")
    camp_p.set_defaults(func=_cmd_campaign)

    prof_p = sub.add_parser("profile",
                            help="aggregate per-unit cProfile dumps "
                                 "from a --profile campaign into a "
                                 "ranked hotspot table")
    prof_p.add_argument("dir", help="the --profile directory")
    prof_p.add_argument("--top", type=int, default=20,
                        help="rows to show (default 20)")
    prof_p.add_argument("--sort", default="cumulative",
                        choices=("cumulative", "internal"),
                        help="ranking: cumulative (incl. callees, "
                             "default) or internal (own time)")
    prof_p.set_defaults(func=_cmd_profile)

    exp_p = sub.add_parser("explore",
                           help="adversarial fault-timing search: find "
                                "the worst-case fault schedule for one "
                                "configuration (docs/EXPLORE.md)")
    exp_p.add_argument("--app", required=True)
    exp_p.add_argument("--design", required=True, choices=DESIGN_NAMES)
    exp_p.add_argument("--nprocs", type=int, default=64)
    exp_p.add_argument("--input", default="small", choices=INPUT_SIZES)
    exp_p.add_argument("--nnodes", type=int, default=None)
    exp_p.add_argument("--seed", type=int, default=0)
    exp_p.add_argument("--strategy", default="exhaustive",
                       help="search strategy registry entry: exhaustive "
                            "(default), random, bisect, or a plugin")
    exp_p.add_argument("--budget", type=int, default=None,
                       help="max candidate schedules to evaluate "
                            "(default: the strategy's own)")
    exp_p.add_argument("--store", default=None,
                       help="result store: candidate runs are memoized "
                            "there under ordinary at-phase run keys, so "
                            "a repeated search resumes")
    exp_p.add_argument("--progress", action="store_true",
                       help="print one line per probed schedule")
    exp_p.add_argument("--fti-level", dest="fti_level", type=int,
                       default=None, choices=(1, 2, 3, 4),
                       help="FTI reliability level of the explored "
                            "configuration")
    exp_p.add_argument("--interval", default=None, metavar="N|auto",
                       help="checkpoint interval of the explored "
                            "configuration")
    exp_p.set_defaults(func=_cmd_explore)

    adv_p = sub.add_parser("advise",
                           help="rank (design, FTI level, interval) "
                                "combinations analytically for a "
                                "workload and MTBF")
    adv_p.add_argument("--app", required=True)
    adv_p.add_argument("--nprocs", type=int, default=64)
    adv_p.add_argument("--mtbf", required=True,
                       help="machine MTBF: seconds or a suffixed value "
                            "like 30m / 4h / 1d (or 'inf')")
    adv_p.add_argument("--input", default="small", choices=INPUT_SIZES)
    adv_p.add_argument("--nnodes", type=int, default=NNODES)
    adv_p.add_argument("--design", default="all",
                       help="design, comma-separated list, or 'all'")
    adv_p.add_argument("--levels", default="1,2,3,4",
                       help="comma-separated FTI levels to consider")
    adv_p.add_argument("--objective", default="makespan",
                       choices=("makespan", "efficiency", "recovery"))
    adv_p.add_argument("--model", default="analytic",
                       help="cost model (any registered 'model' entry)")
    adv_p.add_argument("--format", default="table",
                       help="output renderer: table | json | csv (or "
                            "any registered renderer)")
    adv_p.set_defaults(func=_cmd_advise)

    srv_p = sub.add_parser("serve",
                           help="run the advisor as a long-running "
                                "HTTP/JSON service")
    srv_p.add_argument("--host", default="127.0.0.1")
    srv_p.add_argument("--port", type=int, default=8347)
    srv_p.add_argument("--model", default="analytic",
                       help="cost model (any registered 'model' entry)")
    srv_p.add_argument("--calibrate-store", nargs="+", default=None,
                       metavar="STORE",
                       help="fit a calibrated model from these result "
                            "stores before serving")
    srv_p.add_argument("--warm", nargs="+", default=None,
                       metavar="APP[:NPROCS]",
                       help="pre-populate the query cache with these "
                            "workloads' rankings at the canonical MTBF "
                            "buckets")
    srv_p.add_argument("--query-cache", type=int, default=4096,
                       help="LRU query-cache entries, warmed ones "
                            "included (default 4096)")
    srv_p.set_defaults(func=_cmd_serve)

    val_p = sub.add_parser("model-validate",
                           help="run a small campaign and check the "
                                "analytic predictions against it")
    val_p.add_argument("--app", default="hpccg")
    val_p.add_argument("--nprocs", default="64,256",
                       help="comma-separated scaling sizes")
    val_p.add_argument("--design", default="all",
                       help="design, comma-separated list, or 'all'")
    val_p.add_argument("--faults", default="poisson:20", metavar="SPEC",
                       help="fault scenario the campaign runs under")
    val_p.add_argument("--input", default="small", choices=INPUT_SIZES)
    val_p.add_argument("--nnodes", type=int, default=NNODES)
    val_p.add_argument("--runs", type=int, default=2,
                       help="repetitions per cell")
    val_p.add_argument("--seed", type=int, default=0)
    val_p.add_argument("--jobs", type=int, default=1)
    val_p.add_argument("--budget", type=float, default=0.25,
                       help="max per-cell relative error (default 0.25)")
    val_p.add_argument("--model", default="analytic",
                       help="cost model (any registered 'model' entry)")
    val_p.add_argument("--calibrate", action="store_true",
                       help="fit a calibrated model on the campaign "
                            "first and validate that instead")
    val_p.set_defaults(func=_cmd_model_validate)

    rep_p = sub.add_parser("campaign-report",
                           help="merge result stores and print the "
                                "campaign matrix")
    rep_p.add_argument("--store", nargs="+", required=True,
                       help="one or more JSONL result stores (shards)")
    rep_p.add_argument("--format", default="matrix",
                       help="report renderer: matrix | report | csv "
                            "(or any registered renderer)")
    rep_p.add_argument("--check-complete", action="store_true",
                       help="fail unless the merged stores cover the "
                            "matrix given by --app/--design/--nprocs/"
                            "--runs (and --input/--seed/--nnodes/"
                            "--faults/--fti-level when the sweep used "
                            "non-defaults)")
    add_matrix_args(rep_p, required=False, with_defaults=False)
    rep_p.set_defaults(func=_cmd_campaign_report)

    chart_p = sub.add_parser("chart",
                             help="ASCII stacked-bar chart of a figure")
    chart_p.add_argument("--app", default="hpccg")
    chart_p.add_argument("--fault", action="store_true")
    chart_p.add_argument("--reps", type=int, default=None)
    chart_p.set_defaults(func=_cmd_chart)

    lint_p = sub.add_parser("lint",
                            help="run match-lint (determinism & "
                                 "contract static analysis)")
    lint_p.add_argument("paths", nargs="*", default=["src/repro"],
                        help="files or directories to lint "
                             "(default: src/repro)")
    lint_p.add_argument("--format", default="text",
                        choices=("text", "json"))
    lint_p.add_argument("--baseline", default=None, metavar="PATH")
    lint_p.add_argument("--no-baseline", action="store_true")
    lint_p.add_argument("--write-baseline", action="store_true")
    lint_p.add_argument("--select", default=None, metavar="IDS",
                        help="comma-separated rule ids")
    lint_p.add_argument("--list-rules", action="store_true")
    lint_p.set_defaults(func=_cmd_lint)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigurationError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        # the engine already drained in-flight results and flushed the
        # store (CampaignAborted); --resume continues where this stopped
        print("interrupted; completed runs are in the store",
              file=sys.stderr)
        return 130


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
