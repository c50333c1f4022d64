"""The unified facade: build a campaign fluently, execute it streaming.

The paper's evaluation is one conceptual object — "run this matrix of
(app, design, scale, input, fault scenario) cells and report the
breakdowns". This module is that object's API:

* :class:`Campaign` — a fluent, validated builder for the matrix and
  its execution policy (repetitions, worker processes, result store,
  shard, plugin modules).
* :class:`Session` — executes a campaign through the engine and
  **streams** typed :mod:`repro.core.events` (unit started / completed
  / skipped, with progress counts), then answers questions about the
  results: per-config runs, paper-style five-run averages, campaign
  distribution summaries.

Quickstart::

    from repro.api import Campaign

    session = (Campaign()
               .apps("hpccg", "minife")
               .designs("reinit-fti")
               .nprocs(64, 128)
               .faults("independent:3")
               .reps(5)
               .session())
    for event in session.stream():
        print(event)                      # live progress
    for label, summary in session.campaigns().items():
        print(summary.report())

The CLI commands are thin adapters over this facade. Extension points
(new apps, designs, scenario kinds, store backends, report renderers)
are registries — see :mod:`repro.registry` and docs/API.md.
"""

from __future__ import annotations

import json

from .core.breakdown import average_breakdowns
from .core.configs import (
    DEFAULT_REPETITIONS,
    DESIGN_NAMES,
    NNODES,
    ExperimentConfig,
    config_to_dict,
)
from .core.engine import CampaignEngine, RunUnit, import_plugins
from .core.events import (  # noqa: F401  (re-exported for consumers)
    CampaignAborted,
    CampaignFinished,
    CampaignStarted,
    ExploreFinished,
    ExploreStarted,
    RunEvent,
    ScheduleProbed,
    UnitCompleted,
    UnitFailed,
    UnitRetrying,
    UnitSkipped,
    UnitStarted,
)
from .errors import ConfigurationError
from .fti.config import FtiConfig


def _config_key(config: ExperimentConfig) -> str:
    """Canonical identity of a config (label() is deliberately lossy)."""
    return json.dumps(config_to_dict(config), sort_keys=True,
                      separators=(",", ":"))


class Campaign:
    """Fluent builder for an evaluation matrix plus execution policy.

    Matrix methods (:meth:`apps`, :meth:`designs`, :meth:`nprocs`,
    :meth:`inputs`) each take one or more values; :meth:`configs`
    enumerates their cross product in the documented stable order
    (apps outer, then designs, then nprocs, then inputs — the shard
    contract). Scalar methods (:meth:`faults`, :meth:`seed`,
    :meth:`nnodes`, :meth:`fti`) apply to every cell. Execution
    methods (:meth:`reps`, :meth:`jobs`, :meth:`store`,
    :meth:`resume`, :meth:`shard`, :meth:`plugins`) configure the
    engine.

    Every method returns a **new** ``Campaign`` (the builder is
    immutable), so partial matrices can be shared and forked::

        base = Campaign().apps("hpccg").designs(*DESIGN_NAMES)
        clean = base.faults("none")
        faulty = base.faults("single").reps(5)

    Validation happens at :meth:`configs` time through
    :class:`~repro.core.configs.ExperimentConfig`, so unknown names
    raise :class:`ConfigurationError` messages naming the registered
    entries.
    """

    _FIELDS = dict(apps=(), designs=(), nprocs=(64,), inputs=("small",),
                   faults=None, fti=None, seed=0, nnodes=NNODES,
                   interval=None, reps=None, jobs=1, store=None,
                   resume=False, shard=None, plugins=(),
                   on_error="abort", retries=0, timeout=None,
                   sim_watchdog=None, trace=False, profile=None,
                   explicit_configs=None)

    def __init__(self, **state):
        unknown = set(state) - set(self._FIELDS)
        if unknown:
            raise ConfigurationError(
                "unknown campaign fields %s" % sorted(unknown))
        self._state = dict(self._FIELDS)
        self._state.update(state)

    #: builder fields that shape the configs themselves; meaningless —
    #: and therefore rejected — once from_configs supplied finished ones
    _CONFIG_FIELDS = frozenset({"apps", "designs", "nprocs", "inputs",
                                "faults", "fti", "seed", "nnodes",
                                "interval"})

    def _with(self, **changes) -> "Campaign":
        if self._state["explicit_configs"] is not None:
            rejected = sorted(set(changes) & self._CONFIG_FIELDS)
            if rejected:
                raise ConfigurationError(
                    "a from_configs campaign carries finished configs; "
                    "%s cannot be changed through the builder — rebuild "
                    "the ExperimentConfigs instead (e.g. with_faults/"
                    "with_seed/dataclasses.replace)" % ", ".join(rejected))
        state = dict(self._state)
        state.update(changes)
        return Campaign(**state)

    @classmethod
    def from_configs(cls, configs) -> "Campaign":
        """A campaign over an explicit, already-built config list —
        for irregular matrices the cross product cannot express (e.g.
        per-app scaling sizes).

        Execution-policy methods (reps/jobs/store/resume/shard/plugins)
        still apply; config-shaping methods (apps/designs/nprocs/inputs/
        faults/fti/seed/nnodes) raise, because silently ignoring them
        would run a different experiment than the caller asked for.
        """
        configs = list(configs)
        for config in configs:
            if not isinstance(config, ExperimentConfig):
                raise ConfigurationError(
                    "from_configs takes ExperimentConfig objects "
                    "(got %r)" % (config,))
        return cls(explicit_configs=tuple(configs))

    # -- matrix axes --------------------------------------------------------
    def apps(self, *names) -> "Campaign":
        """The proxy applications to sweep (any ``app`` registry name)."""
        return self._with(apps=tuple(names))

    def designs(self, *names) -> "Campaign":
        """The recovery designs to sweep (any ``design`` registry
        name; default: all three paper designs)."""
        return self._with(designs=tuple(names))

    def nprocs(self, *counts) -> "Campaign":
        """The scaling sizes to sweep (default: the paper's 64)."""
        return self._with(nprocs=tuple(int(c) for c in counts))

    def inputs(self, *sizes) -> "Campaign":
        """The input problem sizes to sweep (default: small)."""
        return self._with(inputs=tuple(sizes))

    # -- per-cell scalars ---------------------------------------------------
    def faults(self, scenario) -> "Campaign":
        """The fault scenario every cell runs under: a spec string
        (``"independent:3:node=1"``), scenario dict or
        :class:`~repro.faults.scenarios.FaultScenario`. ``None`` means
        no injection."""
        return self._with(faults=scenario)

    def fti(self, config=None, *, level=None) -> "Campaign":
        """The checkpoint policy: an
        :class:`~repro.fti.config.FtiConfig`, or just ``level=N``
        (node-failure scenarios need level >= 2)."""
        if config is not None and level is not None:
            raise ConfigurationError(
                "pass fti(config) or fti(level=N), not both")
        if level is not None:
            config = FtiConfig(level=level)
        return self._with(fti=config)

    def interval(self, interval) -> "Campaign":
        """The checkpoint interval every cell runs at: an int stride or
        ``"auto"`` (the Daly optimum for each cell's own scenario and
        scale, via the ``model`` registry). ``None`` keeps the paper's
        every-ten-iterations default (or whatever :meth:`fti` set)."""
        return self._with(interval=interval)

    def seed(self, seed: int) -> "Campaign":
        """Base seed mixed into every repetition's fault draw."""
        return self._with(seed=int(seed))

    def nnodes(self, nnodes: int) -> "Campaign":
        """Cluster node count (default: the paper's 32)."""
        return self._with(nnodes=int(nnodes))

    # -- execution policy ---------------------------------------------------
    def reps(self, reps) -> "Campaign":
        """Repetitions per cell. ``None`` (the default) means the
        paper's convention per cell: five for fault-injecting configs,
        one for deterministic clean runs."""
        if reps is not None:
            reps = int(reps)
            if reps < 1:
                raise ConfigurationError(
                    "a campaign needs at least one repetition per cell")
        return self._with(reps=reps)

    #: alias matching the CLI's --runs vocabulary
    runs = reps

    def jobs(self, jobs: int) -> "Campaign":
        """Worker processes (1 = serial in-process)."""
        return self._with(jobs=int(jobs))

    def store(self, store) -> "Campaign":
        """Result store: a path, ``"backend:location"`` spec or store
        object (see :mod:`repro.core.store`)."""
        return self._with(store=store)

    def resume(self, resume: bool = True) -> "Campaign":
        """Skip runs already present in the store."""
        return self._with(resume=bool(resume))

    def shard(self, shard) -> "Campaign":
        """Run only shard K of N (``"K/N"`` or ``(K, N)``)."""
        return self._with(shard=shard)

    def plugins(self, *modules) -> "Campaign":
        """Self-registering extension modules imported before execution
        — in this process *and* in every spawned worker, so registered
        apps/designs/scenario kinds resolve under ``jobs > 1`` too."""
        return self._with(plugins=tuple(modules))

    def on_error(self, policy: str) -> "Campaign":
        """Failure policy: ``"abort"`` (default — first failure
        re-raises, historical behaviour), ``"continue"`` (record a
        structured failure record, finish the sweep) or ``"retry:N"``
        (``continue`` plus up to N retries of *transient* failures per
        unit). See :mod:`repro.core.engine`."""
        from .core.engine import parse_on_error

        parse_on_error(policy)  # fail at build time, not stream time
        return self._with(on_error=str(policy))

    def retries(self, retries: int) -> "Campaign":
        """Transient-failure retries per unit (dead worker, blown
        timeout, store I/O — never deterministic simulation errors),
        with capped exponential backoff between attempts."""
        retries = int(retries)
        if retries < 0:
            raise ConfigurationError("retries must be >= 0")
        return self._with(retries=retries)

    def timeout(self, timeout) -> "Campaign":
        """Per-unit wall-clock timeout in seconds, or ``"auto"`` to
        derive one from the modeled makespan of the campaign's own
        cells (:func:`repro.modeling.makespan.suggest_timeout`). A unit
        past its deadline has its worker killed and fails with a
        *transient* :class:`~repro.errors.UnitTimeoutError` (retryable).
        ``None`` disables the deadline."""
        if timeout is not None and timeout != "auto":
            timeout = float(timeout)
            if timeout <= 0:
                raise ConfigurationError("timeout must be > 0 seconds")
        return self._with(timeout=timeout)

    def sim_watchdog(self, max_steps: int) -> "Campaign":
        """Per-run simulator livelock guard: abort any run whose
        scheduler exceeds ``max_steps`` step calls with a deterministic
        (never-retried) :class:`~repro.errors.WatchdogError`."""
        max_steps = int(max_steps)
        if max_steps < 1:
            raise ConfigurationError("sim_watchdog must be >= 1")
        return self._with(sim_watchdog=max_steps)

    # -- observability ------------------------------------------------------
    def trace(self, enabled: bool = True) -> "Campaign":
        """Collect a hierarchical trace while executing: campaign →
        unit → sim-phase spans (checkpoint writes/reads, recovery
        steps), exported as Chrome trace-event JSON via
        :meth:`Session.trace` / :meth:`Session.write_trace` (or
        ``match-bench campaign --trace``). Observation only — results
        and run keys are bit-identical with tracing on or off. See
        docs/OBSERVABILITY.md."""
        return self._with(trace=bool(enabled))

    def profile(self, directory) -> "Campaign":
        """Capture a cProfile per run unit into ``directory``
        (workers dump their own files); aggregate with ``match-bench
        profile DIR``. Heavyweight — for diagnosing hot paths, not for
        routine sweeps. ``None`` disables."""
        return self._with(profile=str(directory) if directory else None)

    # -- enumeration --------------------------------------------------------
    def configs(self) -> list:
        """The matrix cells in stable order (validated on every call)."""
        import_plugins(self._state["plugins"])
        if self._state["explicit_configs"] is not None:
            return list(self._state["explicit_configs"])
        if not self._state["apps"]:
            raise ConfigurationError(
                "campaign has no apps (call .apps(...) or "
                ".from_configs(...))")
        designs = self._state["designs"] or DESIGN_NAMES
        fti = self._state["fti"]
        cells = []
        for app in self._state["apps"]:
            for design in designs:
                for nprocs in self._state["nprocs"]:
                    for input_size in self._state["inputs"]:
                        cells.append(ExperimentConfig(
                            app=app, design=design, nprocs=nprocs,
                            input_size=input_size,
                            seed=self._state["seed"],
                            nnodes=self._state["nnodes"],
                            faults=self._state["faults"],
                            interval=self._state["interval"],
                            fti=fti if fti is not None else FtiConfig()))
        return cells

    def reps_for(self, config: ExperimentConfig) -> int:
        """Resolved repetition count for one cell (the paper's
        defaults when :meth:`reps` was not called)."""
        reps = self._state["reps"]
        if reps is not None:
            return reps
        return DEFAULT_REPETITIONS if config.inject_fault else 1

    # -- pre-flight estimation ----------------------------------------------
    def predict(self, model="analytic") -> list:
        """Pre-flight cost estimate: ``(config, MakespanPrediction)``
        per matrix cell, without simulating anything.

        Prices every cell through the ``model`` registry
        (:mod:`repro.modeling`) in microseconds — the CLI's
        ``campaign --estimate`` prints this before launching, and the
        total predicted virtual cost of the sweep is
        ``sum(p.total_seconds * reps_for(c) for c, p in ...)``.
        """
        from .modeling.makespan import predict

        return [(config, predict(config, model=model))
                for config in self.configs()]

    def predict_many(self, model="analytic") -> list:
        """:meth:`predict` through the vectorized model paths.

        Bit-identical ``(config, MakespanPrediction)`` pairs — the
        equivalence is pinned by tests — with the model-protocol calls
        memoized across cells and the makespan arithmetic done in one
        numpy pass (:func:`repro.modeling.vector.predict_configs`).
        Prefer this for large matrices; ``predict`` stays as the
        obvious scalar reference.
        """
        from .modeling.vector import predict_configs

        return predict_configs(self.configs(), model=model)

    # -- execution ----------------------------------------------------------
    def session(self, engine: CampaignEngine = None) -> "Session":
        """An executable :class:`Session` over this campaign."""
        return Session(self, engine=engine)

    def stream(self):
        """Shorthand: build a session and stream its events."""
        return self.session().stream()

    def run(self) -> "Session":
        """Shorthand: build a session, drain it, return it."""
        return self.session().run()


class Session:
    """One execution of a :class:`Campaign` plus result access.

    :meth:`stream` yields the engine's typed events while executing;
    :meth:`run` drains the stream. Both are idempotent — once finished,
    the result accessors (:meth:`run_results`, :meth:`averaged`,
    :meth:`campaigns`) answer from the collected results, and a second
    ``stream()`` replays nothing (the work is done).
    """

    def __init__(self, campaign: Campaign, engine: CampaignEngine = None):
        self.campaign = campaign
        self.configs = campaign.configs()
        state = campaign._state
        self._cells = [(config, campaign.reps_for(config))
                       for config in self.configs]
        self.units = []
        self._cell_index = {}
        for config, reps in self._cells:
            self._cell_index[_config_key(config)] = (len(self.units), reps)
            self.units.extend(RunUnit(config, rep) for rep in range(reps))
        if engine is None:
            timeout = state["timeout"]
            if timeout == "auto":
                from .modeling.makespan import suggest_timeout

                timeout = suggest_timeout(self.configs)
            engine = CampaignEngine(
                jobs=state["jobs"], store_path=state["store"],
                resume=state["resume"], shard=state["shard"],
                plugins=state["plugins"], on_error=state["on_error"],
                retries=state["retries"], timeout=timeout,
                sim_watchdog=state["sim_watchdog"],
                trace_phases=state["trace"],
                profile_dir=state["profile"])
        self.engine = engine
        self.results = None
        self._active = None
        self._failure = None
        self._tracer = None
        if state["trace"]:
            from .obs.trace import Tracer

            self._tracer = Tracer()

    # -- execution ----------------------------------------------------------
    def stream(self):
        """Execute, yielding :mod:`repro.core.events` as they happen.

        Idempotent and resumable: a consumer that stops iterating
        mid-stream has not lost the work — the next ``stream()`` (or
        ``run()``) continues the same underlying execution from where
        it paused rather than re-running completed units. A session
        whose execution raised is *failed*: further ``stream()``/
        ``run()``/accessor calls raise rather than pretending the sweep
        completed (build a new session to retry; with a store attached,
        it resumes past the finished units).
        """
        while self.results is None:
            self._check_not_failed()
            if self._active is None:
                self._active = self.engine.stream(self.units)
            try:
                event = next(self._active)
            except StopIteration:
                break
            except Exception as exc:
                self._failure = exc
                raise
            if self._tracer is not None:
                self._tracer.observe(event)
            if isinstance(event, CampaignFinished):
                self.results = event.results
            yield event

    def _check_not_failed(self) -> None:
        if self._failure is not None:
            raise ConfigurationError(
                "this session's execution failed (%r); build a new "
                "session to retry — with a result store attached it "
                "resumes past the completed units" % (self._failure,))

    def run(self) -> "Session":
        """Execute to completion (draining :meth:`stream`)."""
        for _ in self.stream():
            pass
        return self

    # -- observability ------------------------------------------------------
    def trace(self) -> dict:
        """The collected trace as a Chrome trace-event JSON object
        (``{"traceEvents": [...]}``, Perfetto-viewable). Requires the
        campaign to have been built with :meth:`Campaign.trace` and the
        stream to have run."""
        if self._tracer is None:
            raise ConfigurationError(
                "tracing is off — build the campaign with .trace() "
                "(or run: match-bench campaign --trace out.json)")
        return self._tracer.to_chrome()

    def write_trace(self, path) -> str:
        """Validate and write the collected trace to ``path``."""
        if self._tracer is None:
            raise ConfigurationError(
                "tracing is off — build the campaign with .trace() "
                "(or run: match-bench campaign --trace out.json)")
        return self._tracer.write(path)

    # -- engine bookkeeping -------------------------------------------------
    @property
    def executed(self) -> int:
        """Units actually run by the last execution."""
        return self.engine.executed

    @property
    def skipped(self) -> int:
        """Units satisfied from the resume store."""
        return self.engine.skipped

    @property
    def failed(self) -> int:
        """Units whose failures were contained by ``on_error``
        (0 under the default abort policy — a failure raises)."""
        return self.engine.failed

    def failures(self) -> dict:
        """``{run key: ErrorRecord}`` for the contained failures."""
        return dict(self.engine.failures)

    # -- result access ------------------------------------------------------
    def _require_results(self) -> dict:
        if self.results is None:
            self.run()
        if self.results is None:
            # the engine stream ended without a CampaignFinished (a
            # failure unwound it): never hand accessors a None to crash
            # on downstream
            self._check_not_failed()
            raise ConfigurationError(
                "session execution did not complete; no results "
                "available")
        return self.results

    def _cell_units(self, config: ExperimentConfig) -> list:
        try:
            offset, reps = self._cell_index[_config_key(config)]
        except KeyError:
            raise ConfigurationError(
                "config %s is not part of this session's campaign"
                % config.label()) from None
        return self.units[offset:offset + reps]

    def run_results(self, config: ExperimentConfig) -> list:
        """The config's :class:`RunResult` list in repetition order
        (possibly shorter under a shard that skipped repetitions)."""
        results = self._require_results()
        return [results[u.key] for u in self._cell_units(config)
                if u.key in results]

    def averaged(self, config: ExperimentConfig):
        """The paper's five-run average for one cell, as an
        :class:`~repro.core.harness.AveragedResult` (runs averaged in
        repetition order)."""
        from .core.harness import AveragedResult

        runs = self.run_results(config)
        if not runs:
            raise ConfigurationError(
                "no runs for %s in this session (sharded out?)"
                % config.label())
        return AveragedResult(
            config_label=config.label(),
            breakdown=average_breakdowns(r.breakdown for r in runs),
            repetitions=len(runs),
            runs=runs,
        )

    def advise(self, mtbf, *, objective: str = "makespan",
               levels=(1, 2, 3, 4), calibrate: bool = True) -> dict:
        """Design advice calibrated on this session's own results.

        Fits a :class:`~repro.modeling.fit.CalibratedModel` on the
        session's completed runs (``calibrate=False`` uses the raw
        analytic model), then ranks (design, level, interval)
        combinations for every distinct workload cell the session ran
        — one entry per (app, nprocs, input, nnodes) combination, keyed
        ``"app/pN/input"`` (plus ``"/nM"`` for a non-default node
        count), each list best-first by ``objective`` — see
        :func:`repro.modeling.advisor.advise`.
        """
        from .modeling.advisor import advise as advise_rows
        from .modeling.fit import CalibratedModel, fit_session

        self._require_results()
        model = "analytic"
        if calibrate:
            model = CalibratedModel(fit_session(self))
        advice = {}
        for config in self.configs:
            label = "%s/p%d/%s" % (config.app, config.nprocs,
                                   config.input_size)
            if config.nnodes != NNODES:
                label += "/n%d" % config.nnodes
            if label in advice:
                continue
            advice[label] = advise_rows(
                config.app, config.nprocs, mtbf,
                input_size=config.input_size, nnodes=config.nnodes,
                objective=objective, levels=levels, model=model)
        return advice

    def advise_many(self, queries, *, calibrate: bool = True) -> list:
        """Batch advice through the vectorized core, calibrated on this
        session's results.

        ``queries`` is a sequence of
        :class:`~repro.service.query.AdviceQuery` (or dicts accepted by
        its ``from_dict``); returns one ranked advice list per query,
        parallel to the input, each ``==`` to what a scalar
        :func:`repro.modeling.advisor.advise` call under the same
        calibrated model returns. This is the facade the advisor
        service builds on — a service configured with this session's
        calibration serves byte-identical answers.
        """
        from .modeling.fit import CalibratedModel, fit_session
        from .service.query import AdviceQuery
        from .service.vector import advise_batch_ranked

        self._require_results()
        model = "analytic"
        if calibrate:
            model = CalibratedModel(fit_session(self))
        queries = [query if isinstance(query, AdviceQuery)
                   else AdviceQuery.from_dict(query)
                   for query in queries]
        return advise_batch_ranked(queries, model=model)

    def explore(self, config: ExperimentConfig = None, *,
                strategy: str = "exhaustive", budget: int = None,
                seed: int = None, progress=None):
        """Worst-case fault-timing search for one of this session's
        workload cells (see :mod:`repro.explore`).

        Probes the cell's fault-free phase timeline, then drives the
        named search ``strategy`` (a ``strategy`` registry entry) over
        phase-anchored candidate schedules, sharing this session's
        result store — candidate runs land there under their ordinary
        ``at-phase`` run keys, so a repeated search resumes instead of
        re-running. ``config`` defaults to the campaign's single config
        (ambiguous campaigns must name one); ``progress`` receives every
        streamed event. Returns an
        :class:`~repro.explore.engine.ExploreOutcome` whose
        ``best_config()`` replays the certified worst case.
        """
        from .explore.engine import explore as explore_search

        if config is None:
            if len(self.configs) != 1:
                raise ConfigurationError(
                    "session has %d configs; pass the one to explore"
                    % len(self.configs))
            config = self.configs[0]
        elif _config_key(config) not in self._cell_index:
            raise ConfigurationError(
                "config %s is not part of this session's campaign"
                % config.label())
        if config.faults.injects:
            config = config.with_faults("none")
        # the search's runs take the engine's sim_watchdog, as units do
        with self.engine._watchdog_env():
            return explore_search(config, strategy=strategy, budget=budget,
                                  seed=seed, store=self.engine.store,
                                  progress=progress)

    def campaigns(self) -> dict:
        """``{label: CampaignResult}`` in matrix order: runs in
        repetition order, configs with zero runs in this shard omitted. Labels must be unambiguous — two configs
        ``label()`` cannot distinguish (differing only in seed, nnodes
        or fti) raise rather than silently overwrite each other's row.
        """
        from .core.campaign import CampaignResult

        self._require_results()
        summaries = {}
        for config, _reps in self._cells:
            runs = self.run_results(config)
            if runs:
                label = config.label()
                if label in summaries:
                    raise ConfigurationError(
                        "campaign configs produce duplicate labels "
                        "(label() omits seed/nnodes/fti, so vary only "
                        "fields it shows — or summarise via "
                        "run_results() per config)")
                summaries[label] = CampaignResult(
                    config_label=label, runs=runs)
        return summaries


# -- campaign-mode validation ------------------------------------------------
def check_campaign(configs, runs: int) -> None:
    """The distribution-campaign prerequisites (the CLI ``campaign``
    adapter's gate): at least two runs per cell, fault-injecting
    configs only, and unambiguous labels."""
    configs = list(configs)
    if not configs:
        raise ConfigurationError("campaign matrix is empty")
    if runs is None or runs < 2:
        raise ConfigurationError(
            "a campaign needs at least two runs per cell (distributions "
            "from one sample would report std=0.0)")
    for config in configs:
        if not config.inject_fault:
            raise ConfigurationError(
                "campaigns need a fault-injecting scenario (clean runs "
                "are deterministic; one run suffices)")
    labels = [c.label() for c in configs]
    if len(set(labels)) != len(labels):
        raise ConfigurationError(
            "campaign configs produce duplicate labels (label() omits "
            "seed/nnodes/fti, so vary only fields it shows — or sweep "
            "the others in separate invocations)")


# -- one-config conveniences -------------------------------------------------
def run_single(config: ExperimentConfig):
    """One repetition of one configuration. A single run is repetition
    0 by definition; the config's ``seed`` enters only through the
    fault-seed derivation, not as a repetition index."""
    session = Campaign.from_configs([config]).reps(1).session()
    return session.run().run_results(config)[0]


def run_averaged(config: ExperimentConfig, repetitions=None):
    """The paper's averaged repetitions for one configuration (five by
    default; a deterministic no-fault configuration collapses to one
    run, since every repetition would be bit-identical)."""
    session = Campaign.from_configs([config]).reps(repetitions).session()
    return session.run().averaged(config)


__all__ = [
    "Campaign",
    "CampaignAborted",
    "CampaignFinished",
    "CampaignStarted",
    "ExploreFinished",
    "ExploreStarted",
    "RunEvent",
    "ScheduleProbed",
    "Session",
    "UnitCompleted",
    "UnitFailed",
    "UnitRetrying",
    "UnitSkipped",
    "UnitStarted",
    "check_campaign",
    "run_averaged",
    "run_single",
]
