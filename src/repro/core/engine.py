"""Parallel, resumable, fault-tolerant campaign execution engine.

The paper's figures come from sweeping designs × apps × scales with
repeated random fault injections. This engine fans the individual
``(config, repetition)`` runs of such a sweep across worker processes
while keeping four guarantees:

* **Determinism** — each run derives its fault seed exactly as the
  serial harness does (:func:`repro.core.harness.make_fault_plan` with
  ``rep`` as the repetition index), and the simulator itself is
  deterministic, so a run's result is a pure function of its
  :class:`RunUnit`. Parallel, serial, sharded, resumed and *retried*
  sweeps are bit-identical.
* **One loop, two workers** — :meth:`CampaignEngine._execute` is the
  only driver: it owns the queue, the retry heap and the in-flight list
  and settles every finished attempt in one place. What differs is the
  worker an attempt is launched on. With ``jobs == 1`` (or at most one
  pending unit) *and* no ``timeout``, the **in-process worker** runs the
  unit right in this interpreter — no spawn, but also no deadline to
  enforce and no crash containment. Any other input picks the **spawn
  worker**: at most ``jobs`` long-lived ``spawn``-ed processes, started
  lazily and *leased* one attempt at a time for the lifetime of one
  :meth:`~CampaignEngine.stream`, so interpreter boot and the numpy /
  ``repro`` imports are paid once per slot, not once per attempt.
  Units that share a worker share its module-level state (import
  caches, loaded plugins, the native-kernel handle) exactly as the
  units of an in-process sweep do; a run's result is a pure function of
  its unit either way. A crashing, hanging or OOM-killed run still
  cannot take the campaign down: the worker that died, blew its
  deadline or was killed by a shutdown is *retired*, and the next lease
  that finds no idle worker starts a replacement.
* **Resumability** — with a :class:`~repro.core.store.ResultStore`
  attached, every completed run is flushed to disk immediately and a
  restarted sweep skips all content-keyed runs already present.
* **Failure containment** — the harness practices what the paper
  preaches. ``on_error`` picks the fail-soft policy (``abort`` re-raises
  on the first failure, today's historical behaviour; ``continue``
  records a structured failure record and finishes the sweep;
  ``retry:N`` is ``continue`` plus up to N retries), transient errors
  (dead worker, blown ``timeout`` deadline, store I/O) retry with capped
  exponential backoff while deterministic ones
  (:class:`~repro.errors.ConfigurationError`,
  :class:`~repro.errors.SimulationError`) never do, and SIGINT/SIGTERM
  drain in-flight results into the store before aborting so ``--resume``
  picks up cleanly.

Workers never ship exception objects across the process boundary —
exception classes with non-trivial ``__init__`` signatures can fail to
*unpickle* in the parent, crashing the pool far from the culprit unit —
only structured :class:`~repro.errors.ErrorRecord` payloads.

Sharding (``--shard K/N``) slices the deterministic unit ordering
round-robin (``units[K-1::N]``), so the N shards are disjoint and their
union is exactly the full matrix.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import signal
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from heapq import heappop, heappush
from multiprocessing import connection as mp_connection

from .breakdown import (
    RunResult,
    run_result_from_dict,
    run_result_to_dict,
    try_run_result_from_dict,
)
from .configs import (
    ExperimentConfig,
    config_from_dict,
    config_to_dict,
    run_key,
)
from .events import (
    CampaignAborted,
    CampaignFinished,
    CampaignStarted,
    UnitCompleted,
    UnitFailed,
    UnitRetrying,
    UnitSkipped,
    UnitStarted,
)
from .store import open_store
from ..obs.metrics import REGISTRY as OBS_REGISTRY
from ..errors import (
    WATCHDOG_ENV,
    ConfigurationError,
    CorruptResultError,
    ErrorRecord,
    UnitTimeoutError,
    WorkerLostError,
    describe_error,
    resurrect_error,
)

#: dispatcher poll granularity (seconds): deadline and signal checks
#: happen at least this often while workers are busy
DISPATCH_TICK = 0.1

#: how long a SIGINT/SIGTERM shutdown waits for in-flight results
#: before killing the stragglers
DRAIN_GRACE = 30.0

ON_ERROR_POLICIES = ("abort", "continue", "retry")

#: campaign-level instruments (metric catalog: docs/OBSERVABILITY.md).
#: Worker processes zero their own registry before each payload and
#: ship that payload's deltas back through the result pipe (see
#: ``_proc_worker``), so these totals are campaign-wide even under the
#: spawn workers.
_UNITS_TOTAL = OBS_REGISTRY.counter(
    "match_campaign_units_total",
    "Campaign units by outcome (completed/failed/skipped/retried)")
_QUEUE_DEPTH = OBS_REGISTRY.gauge(
    "match_campaign_queue_depth",
    "Units queued or in retry backoff, waiting for a worker slot")
_WORKER_SPAWNS = OBS_REGISTRY.counter(
    "match_campaign_worker_spawns_total",
    "Worker processes started (one per slot, plus one per worker "
    "replaced after a crash, a blown deadline or a kill)")


def parse_on_error(policy):
    """``"abort" | "continue" | "retry[:N]"`` → ``(mode, retries)``.

    ``retry:N`` is sugar for ``continue`` with N transient retries per
    unit; bare ``retry`` means ``retry:1``.
    """
    if policy is None:
        return "abort", 0
    text = str(policy)
    name, _, count = text.partition(":")
    if name not in ON_ERROR_POLICIES or (count and name != "retry"):
        raise ConfigurationError(
            "--on-error must be abort, continue or retry:N (got %r)"
            % (policy,))
    if name != "retry":
        return name, 0
    try:
        retries = int(count) if count else 1
    except ValueError:
        retries = -1
    if retries < 1:
        raise ConfigurationError(
            "retry policy needs a positive count (got %r)" % (policy,))
    return "continue", retries


def import_plugins(modules) -> None:
    """Import self-registering extension modules by name.

    Registrations live in module state, so a plugin must be imported in
    every process that resolves registry names — the engine calls this
    in each spawned worker (and :class:`repro.api.Session` calls it in
    the driving process) with the campaign's ``plugins`` list.
    """
    import importlib

    for module in modules:
        try:
            importlib.import_module(module)
        except ImportError as exc:
            # chain the original failure: plugin authors need the real
            # ImportError (a missing transitive dep, a syntax error in
            # their module), not just its one-line summary
            raise ConfigurationError(
                "cannot import plugin module %r: %s" % (module, exc)) from exc


@dataclass(frozen=True)
class RunUnit:
    """One schedulable run: a configuration plus a repetition index."""

    config: ExperimentConfig
    rep: int

    @property
    def key(self) -> str:
        # memoised: engine + summarisation consult the key several times
        # per unit, and each computation canonicalises the whole config
        key = self.__dict__.get("_key")
        if key is None:
            key = run_key(self.config, self.rep)
            object.__setattr__(self, "_key", key)
        return key

    def describe(self) -> str:
        """The chaos/progress description: ``"<label>#rep<rep>"``."""
        return "%s#rep%d" % (self.config.label(), self.rep)


def campaign_units(configs, runs: int):
    """The full unit list of a sweep, in stable (config, rep) order."""
    if runs < 1:
        raise ConfigurationError("a sweep needs at least one run per cell")
    return [RunUnit(config, rep) for config in configs
            for rep in range(runs)]


def parse_shard(spec: str):
    """``"K/N"`` → ``(K, N)`` with 1 <= K <= N."""
    try:
        k_text, n_text = spec.split("/")
        k, n = int(k_text), int(n_text)
    except (ValueError, AttributeError):
        raise ConfigurationError(
            "shard spec must look like K/N (got %r)" % (spec,))
    if n < 1 or not 1 <= k <= n:
        raise ConfigurationError(
            "shard spec needs 1 <= K <= N (got %r)" % (spec,))
    return k, n


def shard_units(units, k: int, n: int):
    """Round-robin slice K of N over the stable unit ordering."""
    return list(units)[k - 1::n]


def execute_unit(unit: RunUnit, *, plan=None, phase_hook=None) -> RunResult:
    """Run one unit exactly as the serial harness would.

    This is the single execution path — the only caller of a design's
    ``run_job``: both workers of the dispatch loop, ``api.run_single``-
    style one-offs and the explore probes all come through here, which
    is what makes the parallel/serial equivalence a structural property
    instead of a test-only promise.

    ``plan`` replaces the fault plan drawn from the unit's scenario (a
    timeline probe replays an already-lowered prefix). ``phase_hook``
    observes the run; this is the one place a hook is installed, beside
    whatever hook the plan already carries (an ``at-phase`` plan's
    ``ProgressGuard``), never instead of it.
    """
    from .designs import DESIGNS
    from .harness import build_cluster, make_fault_plan

    config = unit.config
    cluster = build_cluster(config)
    design = DESIGNS[config.design](cluster)
    app = config.make_app()
    if plan is None:
        plan = make_fault_plan(config, app, unit.rep)
    if phase_hook is not None:
        if plan.phase_hook is not None:
            from ..explore.timeline import PhaseFanout

            phase_hook = PhaseFanout(plan.phase_hook, phase_hook)
        plan.phase_hook = phase_hook
    return design.run_job(app, config.fti, plan, label=config.label())


def _observed_execute(unit: RunUnit, trace: bool, profile_dir, attempt: int):
    """``execute_unit`` plus telemetry capture.

    Returns ``(result, obs)`` where a traced run's ``obs`` carries
    ``phases`` (wire rows of its phase spans, virtual time) and
    ``iterations`` (the highest main-loop iteration index started).
    Both telemetry paths are strictly observational: the simulation
    result is bit-identical with them on, off, or profiled (the
    determinism pins enforce this).
    """
    if profile_dir:
        from ..obs.profiling import maybe_profile

        profiled = maybe_profile(profile_dir, unit.key, attempt)
    else:
        profiled = nullcontext()
    with profiled:
        if not trace:
            # the bare call shape: chaos tests and perfbench patch
            # execute_unit with one-argument callables
            return execute_unit(unit), {}
        from ..explore.timeline import PhaseRecorder

        recorder = PhaseRecorder()
        result = execute_unit(unit, phase_hook=recorder)
    return result, {"phases": recorder.to_wire(),
                    "iterations": recorder.last_iteration}


#: "the chaos spec has not been read yet" (``None`` means "read, unset")
_UNREAD = object()


def _proc_worker(conn) -> None:
    """Top-level (spawn-picklable) worker loop: receive a payload from
    ``conn``, run it, send one status-tagged message back; exit on
    ``None`` or on EOF (the parent closed its end, or died).

    Exceptions are caught and shipped back as ``("error", record_dict)``
    — a structured, always-picklable description — never as exception
    objects, so an exception class with a non-trivial ``__init__`` can
    no longer crash the *parent* during unpickling. A worker that dies
    without sending anything (crash, OOM kill, chaos) is detected by the
    parent through the pipe's EOF.
    """
    # a terminal Ctrl-C signals the whole foreground process group;
    # ignoring it here lets the parent's graceful shutdown drain this
    # worker's (bounded) in-flight result instead of losing it
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):
        pass
    chaos = _UNREAD
    while True:
        try:
            payload = conn.recv()
        except (EOFError, OSError):
            break
        if payload is None:
            break
        try:
            if chaos is _UNREAD:
                # once per worker; a spec that does not parse raises
                # here again for every payload, as a unit error
                chaos = _load_chaos()
            conn.send(("ok", _run_payload(payload, chaos)))
        except Exception as exc:
            try:
                conn.send(("error", describe_error(exc).to_dict()))
            except (OSError, ValueError):
                break  # parent already gone
    conn.close()


def _run_payload(payload: dict, chaos) -> dict:
    """One attempt inside a worker: the ``{"result", "obs"}`` envelope."""
    # this process outlives the unit, so "what this attempt counted" is
    # made explicit: zero the registry, run, ship the snapshot. The
    # parent merges it, which keeps worker-side counts (checkpoint
    # writes/reads, plugin metrics) alive past the process boundary
    OBS_REGISTRY.reset()
    import_plugins(payload.get("plugins", ()))
    watchdog = payload.get("sim_watchdog")
    if watchdog:
        os.environ[WATCHDOG_ENV] = str(watchdog)
    config = config_from_dict(payload["config"])
    unit = RunUnit(config, payload["rep"])
    if chaos is not None:
        chaos.fire(unit.describe())
    result, obs = _observed_execute(
        unit, payload.get("trace", False), payload.get("profile_dir"),
        payload.get("attempt", 1))
    outcome = run_result_to_dict(result)
    if chaos is not None:
        outcome = chaos.corrupt(unit.describe(), outcome)
    deltas = OBS_REGISTRY.snapshot()
    if deltas:
        obs["metrics"] = deltas
    return {"result": outcome, "obs": obs}


def _split_envelope(data):
    """Worker wire payload -> ``(result_dict, obs_dict)``.

    Our workers always send the ``{"result", "obs"}`` envelope; anything
    else (a chaos-mangled or foreign payload) flows through whole so the
    existing corrupt-result handling judges it.
    """
    if isinstance(data, dict) and "result" in data and "obs" in data:
        return data["result"], data["obs"]
    return data, {}


def _absorb_obs(obs):
    """Fold an attempt's telemetry into this process: a spawn worker's
    metric deltas merge into the registry (the in-process worker wrote
    to it directly and ships none).

    Returns a traced attempt's UnitCompleted fields (``phases``,
    ``iterations``); empty for an untraced one.
    """
    if not obs:
        return {}
    metrics = obs.get("metrics")
    if metrics:
        OBS_REGISTRY.merge(metrics)
    if "phases" not in obs:
        return {}
    return {"phases": tuple(tuple(row) for row in obs["phases"]),
            "iterations": obs.get("iterations", -1)}


def _load_chaos():
    """The ``$MATCH_CHAOS`` injector, or None (workers only)."""
    from .chaos import ChaosInjector

    return ChaosInjector.from_env()


@dataclass
class _Worker:
    """One long-lived spawn worker: the process running
    :func:`_proc_worker` and this side of its duplex pipe, which is
    payload channel, result channel and death detector at once."""

    process: object
    conn: object

    def send(self, message) -> bool:
        """False when the other end is gone (the worker died idle)."""
        try:
            self.conn.send(message)
        except OSError:
            return False
        return True

    def retire(self, grace: float = 0.0) -> None:
        """Close the pipe and reap the process: ``grace`` seconds to
        exit on its own (a dead or dismissed worker), then SIGTERM,
        then SIGKILL. A retired worker is never leased again."""
        self.conn.close()
        self.process.join(grace)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(2.0)
            if self.process.is_alive():
                self.process.kill()
                self.process.join(2.0)


@dataclass
class _InFlight:
    """One launched unit attempt. ``worker`` is the leased spawn worker
    until its reply (or death) is collected; None for the in-process
    worker, whose ``outcome`` is already set at launch. ``outcome`` is
    ``("ok", result, result_dict, traced_fields)`` or
    ``("error", record, live_exception_or_None)``."""

    unit: RunUnit
    attempt: int
    worker: _Worker | None = None
    deadline: float | None = None
    outcome: tuple = field(default=None)

    def kill(self) -> None:
        """Stop a busy worker; it goes to no idle list."""
        if self.worker is not None:
            self.worker.retire()
            self.worker = None


class CampaignEngine:
    """Executes a list of :class:`RunUnit` with optional parallelism,
    shard selection, a resumable on-disk store, and a configurable
    failure policy.

    After :meth:`run`, :attr:`executed` / :attr:`skipped` say how many
    units were attempted versus satisfied from the store, and
    :attr:`failed` / :attr:`failures` describe the units whose failures
    were contained by ``on_error="continue"``.
    """

    def __init__(self, jobs: int = 1, store_path=None, resume: bool = False,
                 shard=None, plugins=(), on_error="abort", retries: int = 0,
                 timeout=None, sim_watchdog=None,
                 backoff_base: float = 0.5, backoff_cap: float = 30.0,
                 trace_phases: bool = False, profile_dir=None):
        if jobs < 1:
            raise ConfigurationError("--jobs must be >= 1")
        if resume and store_path is None:
            raise ConfigurationError(
                "--resume needs a result store (--store PATH) to resume "
                "from")
        self.jobs = jobs
        # store_path may be a path, a "backend:location" spec, or an
        # already-built store object (see repro.core.store.open_store)
        self.store = open_store(store_path)
        self.resume = resume
        self.plugins = tuple(plugins)
        mode, policy_retries = parse_on_error(on_error)
        self.on_error = mode
        if retries is None:
            retries = 0
        retries = int(retries)
        if retries < 0:
            raise ConfigurationError("--retries must be >= 0")
        self.retries = max(retries, policy_retries)
        if timeout is not None:
            timeout = float(timeout)
            if timeout <= 0:
                raise ConfigurationError("--timeout must be > 0 seconds")
        self.timeout = timeout
        if sim_watchdog is not None:
            sim_watchdog = int(sim_watchdog)
            if sim_watchdog < 1:
                raise ConfigurationError("--sim-watchdog must be >= 1")
        self.sim_watchdog = sim_watchdog
        if backoff_base <= 0 or backoff_cap < backoff_base:
            raise ConfigurationError(
                "backoff needs 0 < base <= cap (got %r, %r)"
                % (backoff_base, backoff_cap))
        self.backoff_base = float(backoff_base)
        self.backoff_cap = float(backoff_cap)
        if shard is None:
            self.shard = None
        else:
            # pre-parsed (K, N) pairs go through the same bounds check
            # as "K/N" strings — a 0-based index must raise, not
            # silently select the wrong slice
            if not isinstance(shard, str):
                try:
                    k, n = shard
                except (TypeError, ValueError):
                    raise ConfigurationError(
                        "shard must be a 'K/N' string or a (K, N) pair")
                shard = "%s/%s" % (k, n)
            self.shard = parse_shard(shard)
        self.trace_phases = bool(trace_phases)
        self.profile_dir = str(profile_dir) if profile_dir else None
        self.executed = 0
        self.skipped = 0
        self.failed = 0
        self.retried = 0
        #: run key -> ErrorRecord for units that failed for good
        self.failures: dict = {}
        self._interrupt_reason = None

    # -- internals ----------------------------------------------------------
    def _record(self, unit: RunUnit, result_dict: dict) -> None:
        if self.store is not None:
            self.store.append(unit.key, config_to_dict(unit.config),
                              unit.rep, result_dict)

    def _record_failure(self, unit: RunUnit, record: ErrorRecord) -> None:
        self.failed += 1
        self.failures[unit.key] = record
        if self.store is not None:
            # failure records are an optional backend capability: a
            # third-party store without the hook degrades to in-memory
            # failure tracking only
            append_failure = getattr(self.store, "append_failure", None)
            if append_failure is not None:
                append_failure(unit.key, config_to_dict(unit.config),
                               unit.rep, record.to_dict())

    def _retry_delay(self, record: ErrorRecord, attempt: int):
        """Backoff before the next attempt, or None for no retry.

        Only transient (harness-level) errors retry — deterministic
        simulation outcomes would fail identically — with capped
        exponential backoff: base, 2·base, 4·base, … up to cap.
        """
        if not record.transient or attempt > self.retries:
            return None
        return min(self.backoff_cap,
                   self.backoff_base * (2.0 ** (attempt - 1)))

    def _completed(self, units) -> dict:
        """Deserialized results for exactly the units this sweep needs.

        Records the sweep doesn't reference (other configs, old
        run-key schemas, foreign tools sharing the store) are never
        deserialized, so they cannot break a resume; a referenced
        record whose payload won't deserialize is treated as not-done
        and simply re-executed — runs are deterministic, so re-running
        is always safe. Failure records never count as done (the store
        skips them), so a fixed bug re-runs the failed units.
        """
        if self.store is None or not self.resume:
            return {}
        records = self.store.load_completed()
        done = {}
        for unit in units:
            record = records.get(unit.key)
            if record is None:
                continue
            result = try_run_result_from_dict(record["result"])
            if result is not None:
                done[unit.key] = result
        return done

    @contextmanager
    def _signal_guard(self, raise_immediately: bool):
        """Turn SIGINT/SIGTERM into a graceful shutdown request.

        With the in-process worker the handler raises KeyboardInterrupt
        itself (the signal must preempt the simulation running in this
        interpreter); with spawn workers the loop instead polls the
        recorded reason every tick — the work is in other processes, and
        raising into an arbitrary frame (possibly the *consumer's*,
        mid-yield) would bypass the drain. Installed only around
        execution, and only in the main thread — elsewhere default
        handling applies.
        """
        self._interrupt_reason = None
        self._interrupt_count = 0

        def handler(signum, frame):
            self._interrupt_reason = signal.Signals(signum).name
            self._interrupt_count += 1
            if raise_immediately:
                raise KeyboardInterrupt

        previous = {}
        try:
            for sig in (signal.SIGINT, signal.SIGTERM):
                previous[sig] = signal.signal(sig, handler)
        except ValueError:
            previous = {}
        try:
            yield
        finally:
            for sig, old in previous.items():
                signal.signal(sig, old)

    @contextmanager
    def _watchdog_env(self):
        """Expose the per-run sim-event budget to in-process execution."""
        if self.sim_watchdog is None:
            yield
            return
        old = os.environ.get(WATCHDOG_ENV)
        os.environ[WATCHDOG_ENV] = str(self.sim_watchdog)
        try:
            yield
        finally:
            if old is None:
                os.environ.pop(WATCHDOG_ENV, None)
            else:
                os.environ[WATCHDOG_ENV] = old

    # -- driver -------------------------------------------------------------
    def stream(self, units):
        """Execute ``units`` (minus shard filter and resumed runs) as a
        generator of typed :mod:`repro.core.events`.

        This is the single execution driver; :meth:`run` is just a
        consumer that drains it. Failure semantics follow ``on_error``
        — see the module docstring and :class:`repro.core.events`.
        """
        units = list(units)
        if self.shard is not None:
            sharded = shard_units(units, *self.shard)
            if units and not sharded:
                # a mistyped shard must not let a CI job pass green
                # having run nothing
                raise ConfigurationError(
                    "shard %d/%d selects zero of the sweep's %d runs"
                    % (self.shard[0], self.shard[1], len(units)))
            units = sharded
        keys = [u.key for u in units]
        if len(set(keys)) != len(keys):
            raise ConfigurationError("duplicate run units in sweep")
        done = self._completed(units)
        pending = [u for u in units if u.key not in done]
        self.skipped = len(units) - len(pending)
        self.executed = len(pending)
        self.failed = 0
        self.retried = 0
        self.failures = {}
        total = len(units)
        yield CampaignStarted(total=total, pending=len(pending),
                              resumed=self.skipped, jobs=self.jobs)
        results = {}
        completed = 0
        for unit in units:
            if unit.key in done:
                results[unit.key] = done[unit.key]
                completed += 1
                _UNITS_TOTAL.inc(outcome="skipped")
                yield UnitSkipped(unit=unit, result=done[unit.key],
                                  completed=completed, total=total)
        # the worker is picked from what the engine can already see: one
        # slot and no deadline to enforce means nothing needs a child
        in_process = ((self.jobs == 1 or len(pending) <= 1)
                      and self.timeout is None)
        with self._signal_guard(raise_immediately=in_process):
            for event in self._execute(pending, results, completed, total,
                                       in_process):
                # one counting site: every unit event flows through here
                if isinstance(event, UnitCompleted):
                    _UNITS_TOTAL.inc(outcome="completed")
                elif isinstance(event, UnitFailed):
                    _UNITS_TOTAL.inc(outcome="failed")
                elif isinstance(event, UnitRetrying):
                    _UNITS_TOTAL.inc(outcome="retried")
                yield event
        yield CampaignFinished(results=results, executed=self.executed,
                               skipped=self.skipped, failed=self.failed,
                               failures=dict(self.failures))

    # -- the dispatch loop ---------------------------------------------------
    def _payload(self, unit: RunUnit, attempt: int = 1) -> dict:
        payload = {"key": unit.key, "rep": unit.rep,
                   "config": config_to_dict(unit.config),
                   "plugins": list(self.plugins)}
        if self.sim_watchdog is not None:
            payload["sim_watchdog"] = self.sim_watchdog
        if self.trace_phases:
            payload["trace"] = True
        if self.profile_dir is not None:
            payload["profile_dir"] = self.profile_dir
            payload["attempt"] = attempt
        return payload

    def _launch(self, ctx, idle, unit: RunUnit, attempt: int) -> _InFlight:
        """Start one attempt on a worker.

        ``ctx is None`` is the in-process worker: the unit runs right
        here and the flight comes back already settled. Otherwise the
        payload goes to a leased spawn worker: one from ``idle``, or —
        when none is idle, so at most ``slots`` are ever alive — a
        newly started one. A worker that died while idle is replaced
        here, without charging the unit an attempt.
        """
        if ctx is None:
            try:
                with self._watchdog_env():
                    result, obs = _observed_execute(
                        unit, self.trace_phases, self.profile_dir, attempt)
                outcome = ("ok", result, run_result_to_dict(result),
                           _absorb_obs(obs))
            except Exception as exc:
                outcome = ("error", describe_error(exc), exc)
            return _InFlight(unit=unit, attempt=attempt, outcome=outcome)
        payload = self._payload(unit, attempt)
        while idle:
            worker = idle.pop()
            if worker.send(payload):
                break
            worker.retire()  # died while idle
        else:
            conn, child_conn = ctx.Pipe()
            process = ctx.Process(target=_proc_worker, args=(child_conn,),
                                  daemon=True)
            process.start()
            child_conn.close()
            _WORKER_SPAWNS.inc()
            worker = _Worker(process, conn)
            # a worker that cannot even take its first payload shows as
            # EOF on the pipe: _collect reports it lost
            worker.send(payload)
        deadline = (time.monotonic() + self.timeout
                    if self.timeout is not None else None)
        return _InFlight(unit=unit, attempt=attempt, worker=worker,
                         deadline=deadline)

    @staticmethod
    def _collect(flight: _InFlight, idle) -> tuple:
        """The outcome of a flight whose pipe signalled: a reply was
        sent — ``ok`` or ``error``, the worker goes back to ``idle`` —
        or EOF from a dead worker, which is retired."""
        worker, flight.worker = flight.worker, None
        try:
            status, data = worker.conn.recv()
        except (EOFError, OSError):
            worker.retire(grace=5.0)
            return ("error", describe_error(WorkerLostError(
                "worker process died without a result (exit code %s) "
                "while running %s" % (worker.process.exitcode,
                                      flight.unit.describe()))), None)
        idle.append(worker)
        if status == "error":
            return ("error", ErrorRecord.from_dict(data), None)
        result_dict, obs = _split_envelope(data)
        traced = _absorb_obs(obs)
        result = try_run_result_from_dict(result_dict)
        if result is None:
            return ("error", describe_error(CorruptResultError(
                "worker returned an undecodable result payload for %s"
                % flight.unit.describe())), None)
        return ("ok", result, result_dict, traced)

    def _expire(self, flight: _InFlight) -> tuple:
        """Kill a flight past its deadline; a timeout error outcome."""
        flight.kill()
        return ("error", describe_error(UnitTimeoutError(self.timeout)), None)

    def _execute(self, pending, results, completed, total, in_process):
        """The one dispatch loop: at most ``jobs`` attempts in flight,
        each watched for results, death and blown deadlines, every
        outcome settled in one block below.

        A shutdown signal does not leave the loop, it flips it into a
        bounded drain: nothing more is launched or retried, what is in
        flight gets ``min(timeout, DRAIN_GRACE)`` to land in the store,
        and a second signal or the deadline kills the stragglers.
        """
        ctx = None if in_process else multiprocessing.get_context("spawn")
        slots = min(self.jobs, max(1, len(pending)))  # 1 when in_process
        idle = []  # spawn workers between leases, alive for this stream
        queue = [(unit, 1) for unit in reversed(pending)]  # pop() the tail
        retry_heap = []  # (ready_at, seq, unit, attempt)
        seq = itertools.count()
        in_flight = []
        abort = None  # (record, live exception or None)
        interrupted = False
        drain_deadline = signals_seen = None
        try:
            while (queue or retry_heap or in_flight) and abort is None:
                now = time.monotonic()
                if interrupted or self._interrupt_reason is not None:
                    if drain_deadline is None:
                        interrupted = True
                        queue.clear()
                        retry_heap.clear()
                        drain_deadline = now + min(
                            self.timeout or DRAIN_GRACE, DRAIN_GRACE)
                        signals_seen = self._interrupt_count
                        continue
                    if now >= drain_deadline \
                            or self._interrupt_count > signals_seen:
                        break
                while retry_heap and retry_heap[0][0] <= now:
                    _, _, unit, attempt = heappop(retry_heap)
                    queue.append((unit, attempt))
                _QUEUE_DEPTH.set(len(queue) + len(retry_heap))
                try:
                    while len(in_flight) < slots and queue:
                        unit, attempt = queue.pop()
                        if attempt == 1:
                            # started = actually dispatched, not merely
                            # queued: progress UIs see at most `jobs`
                            # in-flight units, in dispatch order (yielded
                            # first: the in-process worker blocks in
                            # _launch until the unit is done)
                            yield UnitStarted(unit=unit, completed=completed,
                                              total=total)
                        in_flight.append(
                            self._launch(ctx, idle, unit, attempt))
                    if not in_flight:
                        # only backoff waits remain: sleep until the next
                        # retry matures (in ticks, to notice signals)
                        time.sleep(min(max(retry_heap[0][0] - now, 0.0),
                                       DISPATCH_TICK))
                    elif all(f.outcome is None for f in in_flight):
                        wait = DISPATCH_TICK
                        for flight in in_flight:
                            if flight.deadline is not None:
                                wait = min(wait,
                                           max(flight.deadline - now, 0.0))
                        ready = mp_connection.wait(
                            [f.worker.conn for f in in_flight], timeout=wait)
                        now = time.monotonic()
                        for flight in in_flight:
                            if flight.worker.conn in ready:
                                flight.outcome = self._collect(flight, idle)
                            elif flight.deadline is not None \
                                    and now >= flight.deadline:
                                flight.outcome = self._expire(flight)
                except KeyboardInterrupt:
                    interrupted = True
                    continue
                # the one settle site: whatever worker ran the attempt,
                # and whether or not the loop is draining
                for flight in [f for f in in_flight if f.outcome is not None]:
                    in_flight.remove(flight)
                    unit = flight.unit
                    if flight.outcome[0] == "ok":
                        _, result, result_dict, traced = flight.outcome
                        # flushed before the event (the store fsyncs per
                        # record), so --resume picks up exactly past it
                        self._record(unit, result_dict)
                        results[unit.key] = result
                        completed += 1
                        yield UnitCompleted(unit=unit, result=result,
                                            completed=completed, total=total,
                                            **traced)
                        continue
                    _, record, exc = flight.outcome
                    delay = None if interrupted \
                        else self._retry_delay(record, flight.attempt)
                    if delay is not None:
                        self.retried += 1
                        yield UnitRetrying(unit=unit, error=record,
                                           attempt=flight.attempt,
                                           delay=delay, completed=completed,
                                           total=total)
                        heappush(retry_heap,
                                 (time.monotonic() + delay, next(seq),
                                  unit, flight.attempt + 1))
                        continue
                    yield UnitFailed(unit=unit, error=record.summary(),
                                     record=record, attempt=flight.attempt,
                                     completed=completed, total=total)
                    if self.on_error == "abort":
                        abort = (record, exc)
                        break
                    self._record_failure(unit, record)
        finally:
            # however the stream ends — exhausted, aborted, interrupted
            # or closed early by its consumer — no child outlives it
            _QUEUE_DEPTH.set(0)
            for flight in in_flight:
                flight.kill()
            for worker in idle:
                worker.send(None)  # all told first: they exit together
            for worker in idle:
                worker.retire(grace=5.0)
        if interrupted:
            yield CampaignAborted(
                completed=completed, total=total,
                reason=self._interrupt_reason or "interrupted")
            raise KeyboardInterrupt
        if abort is not None:
            # in process the original exception is still live; from a
            # worker only its structured record crossed the pipe
            record, exc = abort
            raise exc if exc is not None else resurrect_error(record)

    def run(self, units) -> dict:
        """Execute ``units``; returns ``{key: RunResult}`` for every
        selected unit (drains :meth:`stream`, discarding the events)."""
        results = {}
        for event in self.stream(units):
            if isinstance(event, CampaignFinished):
                results = event.results
        return results
