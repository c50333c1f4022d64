"""Fault plans: which rank (or node) dies, and when.

The paper (§IV-D, Fig. 4) raises SIGTERM on a randomly selected MPI
process in a randomly selected iteration of the main computation loop.
A :class:`FaultPlan` is the deterministic, seedable version of that
choice so experiment repetitions are reproducible — generalised to an
arbitrary schedule of process and whole-node kill events. Plans are
drawn from :class:`repro.faults.scenarios.FaultScenario` specs (the
legacy single kill, k-independent kills, correlated node bursts,
Poisson/MTBF arrival processes, phase-anchored schedules).

There is one plan class and two frozen event types. A
:class:`FaultEvent` is iteration-indexed and fires at the victim's
ITER_MARK (:meth:`FaultPlan.event_for`); a :class:`TimedFault` names an
exact virtual time and a job incarnation and is delivered by the
scheduler between coroutine yields (:meth:`FaultPlan.due_event`). A
plan may mix both; the result store keeps them apart by wire shape
(3- vs 5-element lists, :mod:`repro.core.breakdown`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from ..errors import ConfigurationError


@dataclass(frozen=True)
class FaultEvent:
    """Kill ``rank`` (or its whole node) at main-loop iteration
    ``iteration``.

    ``kind="process"`` is the paper's SIGTERM injection; ``kind="node"``
    fail-stops every rank on the victim's node *and wipes its volatile
    storage*, which is the failure class Reinit claims to handle (§IV-D)
    — surviving it additionally requires FTI level >= 2.
    """

    rank: int
    iteration: int
    kind: str = "process"

    def __post_init__(self):
        if self.rank < 0 or self.iteration < 0:
            raise ConfigurationError("fault event needs non-negative fields")
        if self.kind not in ("process", "node"):
            raise ConfigurationError("fault kind must be process or node")


@dataclass(frozen=True)
class TimedFault:
    """Kill ``rank`` (or its whole node) at exact virtual time ``time``.

    Where iteration-indexed events fire at the victim's next ITER_MARK,
    a timed fault is delivered by the scheduler the moment the victim's
    clock would pass ``time`` — including *between* the blocking steps
    of an in-flight ULFM repair or a checkpoint write, which is exactly
    where phase-anchored schedules aim (see :mod:`repro.explore`).

    ``epoch`` selects the job incarnation the event belongs to: 0 is
    the initial launch, each job-level relaunch (Restart's abort path)
    increments it, so "kill during the *second* incarnation's redeploy
    window" is expressible. Carries ``iteration = -1`` — no ITER_MARK
    has that index, so :meth:`FaultPlan.event_for` never matches one.
    """

    time: float
    rank: int
    kind: str = "process"
    epoch: int = 0
    #: fixed sentinel: timed events are not iteration-indexed
    iteration: int = -1

    def __post_init__(self):
        if self.rank < 0 or self.time < 0.0 or self.epoch < 0:
            raise ConfigurationError(
                "timed fault needs non-negative time/rank/epoch")
        if self.kind not in ("process", "node"):
            raise ConfigurationError("fault kind must be process or node")


@dataclass
class FaultPlan:
    """A schedule of kills: iteration-indexed events consulted at every
    ITER_MARK (:meth:`event_for`) and exact-time events consulted by the
    scheduler before it resumes a rank (:meth:`due_event`).

    Every event is one-shot across the whole job, relaunches included.
    Equality is the schedule alone: the fields below ``events`` are
    execution state or pure observation.
    """

    events: tuple = ()
    #: current job incarnation; the design's run_job advances this on
    #: every relaunch so epoch-scoped timed events arm at the right
    #: lifetime
    epoch: int = field(default=0, compare=False)
    #: phase-instrumentation sink (:class:`repro.explore.timeline.
    #: PhaseHook`); travels on the plan because the plan is the only
    #: object threaded from the harness into Runtime
    phase_hook: object = field(default=None, repr=False, compare=False)
    #: events already delivered
    _fired: set = field(default_factory=set, repr=False, compare=False)
    #: timed-delivery log [(epoch, time, rank)] for regression assertions
    fired_log: list = field(default_factory=list, repr=False, compare=False)

    def __post_init__(self):
        #: the exact-time subset; empty for the paper-era plans, which
        #: is how the scheduler knows to skip :meth:`due_event` entirely
        self.timed = tuple(e for e in self.events
                           if isinstance(e, TimedFault))

    def event_for(self, rank: int, iteration: int):
        """The armed event for this (rank, iteration), if any (one-shot)."""
        for event in self.events:
            if (event.rank == rank and event.iteration == iteration
                    and event not in self._fired):
                self._fired.add(event)
                return event
        return None

    def due_event(self, rank: int, now: float):
        """The armed timed event for ``rank`` whose time has come.

        Earliest-first among this epoch's due events so two events on
        one rank deliver in schedule order even if the rank's clock
        jumps past both in a single blocking step.
        """
        best = None
        for event in self.timed:
            if (event.rank == rank and event.epoch == self.epoch
                    and event.time <= now and event not in self._fired
                    and (best is None or event.time < best.time)):
                best = event
        if best is not None:
            self._fired.add(best)
            self.fired_log.append((self.epoch, best.time, best.rank))
        return best

    @property
    def nfaults(self) -> int:
        return len(self.events)

    @classmethod
    def none(cls) -> "FaultPlan":
        """The no-failure configuration."""
        return cls(events=())

    @classmethod
    def single_random(cls, nprocs: int, niters: int, seed: int,
                      min_iteration: int = 1) -> "FaultPlan":
        """One kill at a uniformly random (rank, iteration), as in Fig. 4.

        ``min_iteration`` defaults to 1 so the job always survives at
        least one iteration before dying, matching how the paper's loop
        counter works.
        """
        if nprocs <= 0 or niters <= min_iteration:
            raise ConfigurationError(
                "need nprocs > 0 and niters > min_iteration")
        rng = random.Random(seed)
        rank = rng.randrange(nprocs)
        iteration = rng.randrange(min_iteration, niters)
        return cls(events=(FaultEvent(rank, iteration),))
