"""The exploration engine: probe, lower, search, certify.

Ties the pieces together:

* :func:`lower_scenario` / :func:`lower_schedule` — turn a
  phase-anchored :class:`~repro.explore.schedule.FaultSchedule` into a
  :class:`~repro.faults.plans.FaultPlan` of exact-time events for one
  exact configuration. Lowering is **iterative**: event *k* resolves
  against a timeline probed with events ``0..k-1`` already replayed, so
  a later event may target a recovery phase an earlier event provokes
  (the probe for ``ckpt.L1.write;ulfm.shrink`` replays the
  checkpoint-window kill and records the repair it triggers). The final
  plan carries a :class:`~repro.explore.guards.ProgressGuard` as its
  phase hook, so a schedule that livelocks a design fails structurally.
* :class:`ExploreContext` — what a search strategy sees: the clean
  timeline, a deterministic candidate enumeration, and a memoized
  ``evaluate`` that runs one candidate schedule through the standard
  engine path (``execute_unit``) with optional result-store resume.
* :func:`explore_stream` / :func:`explore` — drive a strategy from the
  ``strategy`` registry, streaming typed
  :class:`~repro.core.events.ScheduleProbed` progress events, and
  certify the worst case found as an :class:`ExploreOutcome`.
* :func:`worst_case_plan` — the ``worst-of`` scenario kind's lowering:
  search first (exhaustive, budget = ``count``), then lower the winner.

Everything here is deterministic: probes are fault-free simulations,
candidate enumeration is sorted, strategies draw only from their seeded
RNG, and ties break toward the earlier candidate — two identical
invocations pick the same worst case bit-for-bit.

Probe timelines are memoized per ``(configuration, fault prefix)``
within the process, so an exhaustive sweep costs one clean probe plus
one run per candidate, and replaying a frozen schedule re-derives the
identical timeline from the identical probe.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .guards import DEFAULT_LIMIT, ProgressGuard
from .schedule import AnchoredFault, FaultSchedule
from .strategies import STRATEGIES
from .timeline import PhaseTimeline, probe_timeline
from ..core.events import ExploreFinished, ExploreStarted, ScheduleProbed
from ..errors import ConfigurationError
from ..faults.plans import FaultPlan

#: (config key, lowered prefix) -> (PhaseTimeline, clean makespan);
#: probes are deterministic, so the cache is a pure memo
_PROBE_CACHE: dict = {}


def _config_key(config) -> str:
    """Canonical identity of a configuration *minus* its fault fields —
    the coordinate system of probe-timeline memoization."""
    from ..core.configs import config_to_dict

    data = config_to_dict(config)
    data.pop("faults", None)
    data.pop("inject_fault", None)
    data.pop("seed", None)
    return json.dumps(data, sort_keys=True)


def _probed(config, prefix: tuple):
    """Memoized ``(timeline, clean_makespan)`` for a probe run of
    ``config`` with the lowered ``prefix`` events replayed."""
    key = (_config_key(config),
           tuple((e.time, e.rank, e.kind, e.epoch) for e in prefix))
    hit = _PROBE_CACHE.get(key)
    if hit is None:
        timeline, result = probe_timeline(config, prefix)
        hit = (timeline, result.breakdown.total_seconds)
        _PROBE_CACHE[key] = hit
    return hit


# -- lowering ---------------------------------------------------------------
def lower_schedule(schedule: FaultSchedule, config,
                   guard_limit: int = DEFAULT_LIMIT) -> FaultPlan:
    """Lower ``schedule`` against ``config``, iteratively probing."""
    lowered: list = []
    for anchored in schedule.events:
        timeline, _ = _probed(config, tuple(lowered))
        lowered.append(anchored.lower(timeline, config.nprocs,
                                      config.nnodes))
    events = tuple(sorted(lowered, key=lambda e: (e.epoch, e.time, e.rank)))
    return FaultPlan(events=events,
                     phase_hook=ProgressGuard(limit=guard_limit))


def lower_scenario(scenario, config) -> FaultPlan:
    """The ``at-phase`` kind's ``lower_plan`` body."""
    return lower_schedule(FaultSchedule.parse(scenario.schedule), config)


def worst_case_plan(scenario, config, rep: int, seed: int) -> FaultPlan:
    """The ``worst-of`` kind's ``lower_plan`` body: exhaustive search
    with a ``count``-candidate budget, then lower the winner.

    ``rep`` and ``seed`` are deliberately unused — the exhaustive sweep
    is deterministic, so every repetition of a ``worst-of`` config runs
    the same certified worst case."""
    outcome = explore(config, strategy="exhaustive", budget=scenario.count)
    return lower_schedule(FaultSchedule.parse(outcome.best_spec), config)


# -- the search context -----------------------------------------------------
@dataclass
class ExploreContext:
    """What a :class:`~repro.explore.strategies.SearchStrategy` sees."""

    config: object
    timeline: PhaseTimeline
    budget: int | None = None
    seed: int = 0
    store: object = None
    _memo: dict = field(default_factory=dict, repr=False)
    _resume: "dict | None" = field(default=None, repr=False)

    def candidates(self) -> list:
        """The deterministic phase-boundary candidate enumeration:
        every epoch-0 window's opening boundary and midpoint, aimed at
        the window's first participating rank, sorted."""
        specs = set()
        for window in self.timeline.windows:
            if window.epoch != 0:
                continue
            live = [r for r in window.ranks if r >= 0]
            rank = live[0] if live else 0
            specs.add(AnchoredFault(anchor=window.anchor,
                                    occurrence=window.occurrence,
                                    rank=rank).to_atom())
            span = window.end - window.start
            if span > 0:
                specs.add(AnchoredFault(anchor=window.anchor,
                                        occurrence=window.occurrence,
                                        offset=round(0.5 * span, 6),
                                        rank=rank).to_atom())
        return sorted(specs)

    def evaluate(self, spec: str) -> float:
        """Makespan of ``config`` under the candidate schedule ``spec``.

        Runs through the standard engine path (same run keys, same
        store records as a campaign over the ``at-phase`` config), so
        results are memoized in-process *and* resumable from a store.
        """
        if spec in self._memo:
            return self._memo[spec]
        from ..core.breakdown import (run_result_to_dict,
                                      try_run_result_from_dict)
        from ..core.configs import config_to_dict
        from ..core.engine import RunUnit, execute_unit
        from ..faults.scenarios import FaultScenario

        cfg = self.config.with_faults(
            FaultScenario(kind="at-phase", schedule=spec))
        unit = RunUnit(cfg, 0)
        result = None
        if self.store is not None:
            if self._resume is None:
                self._resume = self.store.load_completed()
            record = self._resume.get(unit.key)
            if record is not None:
                result = try_run_result_from_dict(record["result"])
        if result is None:
            result = execute_unit(unit)
            if self.store is not None:
                self.store.append(unit.key, config_to_dict(cfg), 0,
                                  run_result_to_dict(result))
        makespan = result.breakdown.total_seconds
        self._memo[spec] = makespan
        return makespan


# -- driving a search -------------------------------------------------------
@dataclass(frozen=True)
class ExploreOutcome:
    """The certified result of one worst-case search."""

    best_spec: str
    best: float
    probes: int
    baseline: float
    timeline: PhaseTimeline
    config: object

    @property
    def slowdown(self) -> float:
        """Worst-case makespan over the fault-free baseline."""
        return self.best / self.baseline if self.baseline > 0 else 0.0

    def best_config(self):
        """The ``at-phase`` configuration that replays the worst case."""
        from ..faults.scenarios import FaultScenario

        return self.config.with_faults(
            FaultScenario(kind="at-phase", schedule=self.best_spec))


def explore_stream(config, strategy: str = "exhaustive",
                   budget: int | None = None, seed: int | None = None,
                   store=None):
    """Run one worst-case search, yielding typed progress events:
    ``ExploreStarted``, one ``ScheduleProbed`` per candidate, and a
    final ``ExploreFinished``."""
    search = STRATEGIES.resolve(strategy)
    timeline, baseline = _probed(config, ())
    ctx = ExploreContext(config=config, timeline=timeline, budget=budget,
                         seed=config.seed if seed is None else seed,
                         store=store)
    yield ExploreStarted(config_label=config.label(), strategy=strategy,
                         candidates=len(ctx.candidates()),
                         anchors=timeline.anchors())
    best_spec, best, probes = "", float("-inf"), 0
    gen = search.run(ctx)
    while True:
        try:
            spec, makespan = next(gen)
        except StopIteration as stop:
            final = stop.value
            break
        probes += 1
        if makespan > best:
            best_spec, best = spec, makespan
        yield ScheduleProbed(spec=spec, makespan=makespan,
                             best_spec=best_spec, best=best, probes=probes)
    if final is None or final[0] is None:
        raise ConfigurationError(
            "strategy %r evaluated no candidate schedules for %s "
            "(empty timeline or zero budget?)" % (strategy, config.label()))
    yield ExploreFinished(best_spec=final[0], best=final[1],
                          probes=final[2], baseline=baseline)


def explore(config, strategy: str = "exhaustive",
            budget: int | None = None, seed: int | None = None,
            store=None, progress=None) -> ExploreOutcome:
    """Drain :func:`explore_stream` into an :class:`ExploreOutcome`.

    ``progress``, when given, receives every streamed event (the CLI
    passes a renderer).
    """
    timeline, _ = _probed(config, ())
    outcome = None
    for event in explore_stream(config, strategy=strategy, budget=budget,
                                seed=seed, store=store):
        if progress is not None:
            progress(event)
        if isinstance(event, ExploreFinished):
            outcome = ExploreOutcome(
                best_spec=event.best_spec, best=event.best,
                probes=event.probes, baseline=event.baseline,
                timeline=timeline, config=config)
    assert outcome is not None  # stream always ends with ExploreFinished
    return outcome


__all__ = ["ExploreContext", "ExploreOutcome", "explore", "explore_stream",
           "lower_schedule", "lower_scenario", "worst_case_plan"]
