"""Typed run events: the campaign engine's streaming protocol.

:meth:`repro.core.engine.CampaignEngine.stream` (and therefore
:meth:`repro.api.Session.stream`) yields these instead of returning a
post-hoc record list, so live CLI progress, result stores and report
pipelines all consume one event stream. The sequence for a sweep is::

    CampaignStarted
    (UnitSkipped
     | UnitStarted (UnitRetrying)* (UnitCompleted | UnitFailed))*
    (CampaignFinished | CampaignAborted)

Events are frozen dataclasses; ``completed``/``total`` carry monotonic
progress counts so a consumer can render ``[12/96]`` without keeping
its own tally. Under parallel execution (``jobs > 1``) each
:class:`UnitStarted` is emitted when the unit is actually handed to a
worker process — at most ``jobs`` units are "started" at any moment, in
dispatch order — and :class:`UnitCompleted` events arrive in completion
order. The final result *set* is bit-identical to the serial path, only
the event interleaving differs.

Failure semantics depend on the engine's ``on_error`` policy: under
``abort`` (the default) a :class:`UnitFailed` is terminal — the
exception is re-raised right after it and the stream ends; under
``continue`` the failure is recorded (``final=True``) and the stream
carries on to the remaining units, finishing with a
:class:`CampaignFinished` whose ``failed`` count is non-zero. Transient
errors may be retried (:class:`UnitRetrying`) before either outcome.
:class:`CampaignAborted` replaces :class:`CampaignFinished` when a
SIGINT/SIGTERM drained the sweep early; completed units are already in
the store, so ``--resume`` picks up cleanly.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class RunEvent:
    """Base class for every event the engine streams."""


@dataclass(frozen=True)
class CampaignStarted(RunEvent):
    """The sweep is about to execute.

    ``total`` counts the units selected for this invocation (after
    shard filtering); ``pending`` of them will actually run, the rest
    are satisfied from the resume store.
    """

    total: int
    pending: int
    resumed: int
    jobs: int = 1


@dataclass(frozen=True)
class UnitStarted(RunEvent):
    """One run unit began executing (serial) or was dispatched to a
    worker process (parallel)."""

    unit: object
    completed: int
    total: int


@dataclass(frozen=True)
class UnitCompleted(RunEvent):
    """One run unit finished; ``result`` is its :class:`RunResult`.

    ``phases`` carries the run's phase spans — wire rows of
    ``(anchor, rank, start, end, epoch)`` in *virtual* simulator time —
    when the campaign runs with tracing enabled (``Campaign.trace()`` /
    ``--trace``); empty otherwise. :class:`repro.obs.trace.Tracer`
    consumes them to nest sim phases inside the unit's wall-time span.
    ``iterations`` is the highest main-loop iteration index the traced
    run started (``-1`` untraced): a count, so not a span.
    """

    unit: object
    result: object
    completed: int
    total: int
    phases: tuple = ()
    iterations: int = -1


@dataclass(frozen=True)
class UnitSkipped(RunEvent):
    """One run unit was already in the resume store; ``result`` is the
    stored :class:`RunResult`."""

    unit: object
    result: object
    completed: int
    total: int


@dataclass(frozen=True)
class UnitRetrying(RunEvent):
    """One run unit hit a transient error and will be re-dispatched.

    ``attempt`` is the attempt that just failed (1-based); ``delay`` is
    the backoff in seconds before attempt ``attempt + 1`` launches.
    """

    unit: object
    error: object  # ErrorRecord
    attempt: int
    delay: float
    completed: int
    total: int


@dataclass(frozen=True)
class UnitFailed(RunEvent):
    """One run unit failed for good (retries exhausted or not allowed).

    ``error`` is a human-readable summary string; ``record`` the full
    structured :class:`~repro.errors.ErrorRecord`. Under
    ``on_error="abort"`` the exception is re-raised right after this
    event and the stream ends; under ``"continue"`` the failure is
    persisted as a store failure record and the stream carries on.
    """

    unit: object
    error: str
    completed: int
    total: int
    record: object = None
    attempt: int = 1


@dataclass(frozen=True)
class CampaignAborted(RunEvent):
    """The sweep was interrupted (SIGINT/SIGTERM) and shut down
    gracefully: in-flight results were drained into the store first, so
    a ``--resume`` continues exactly past the completed units."""

    completed: int
    total: int
    reason: str = "interrupted"


@dataclass(frozen=True)
class ExploreStarted(RunEvent):
    """A worst-case fault-timing search is about to probe candidates.

    ``candidates`` counts the schedules the strategy will evaluate (0
    when the strategy enumerates lazily); ``anchors`` is the probed
    timeline's phase catalog.
    """

    config_label: str
    strategy: str
    candidates: int
    anchors: tuple = ()


@dataclass(frozen=True)
class ScheduleProbed(RunEvent):
    """One candidate schedule was evaluated during a search.

    ``best`` / ``best_spec`` carry the running worst case so a consumer
    can render live progress without its own tally.
    """

    spec: str
    makespan: float
    best_spec: str
    best: float
    probes: int


@dataclass(frozen=True)
class ExploreFinished(RunEvent):
    """The search finished; ``best_spec`` is the certified worst-case
    schedule (an ``at-phase`` spec) and ``best`` its makespan."""

    best_spec: str
    best: float
    probes: int
    baseline: float = 0.0


@dataclass(frozen=True)
class CampaignFinished(RunEvent):
    """The sweep completed; ``results`` maps every selected unit's
    run key to its :class:`RunResult`. ``failed`` counts units whose
    failures were contained by ``on_error="continue"`` (their error
    records are in ``failures``, keyed by run key)."""

    results: dict = field(repr=False)
    executed: int = 0
    skipped: int = 0
    failed: int = 0
    failures: dict = field(default_factory=dict, repr=False)


__all__ = [
    "CampaignAborted",
    "CampaignFinished",
    "CampaignStarted",
    "ExploreFinished",
    "ExploreStarted",
    "RunEvent",
    "ScheduleProbed",
    "UnitCompleted",
    "UnitFailed",
    "UnitRetrying",
    "UnitSkipped",
    "UnitStarted",
]
