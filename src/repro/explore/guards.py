"""Livelock and deadlock guards for adversarial fault schedules.

An adversarial schedule can place a fault *inside* the recovery that an
earlier fault triggered — and a schedule searcher will find such spots
on purpose. The designs are supposed to terminate structurally under
repeated failure (ULFM re-enters repair, Reinit rolls back again,
Restart redeploys again, bounded by ``MAX_RELAUNCHES``), but a bug in
that machinery shows up as the worst possible symptom: a run that makes
no application progress while recovery phases repeat forever, burning
the simulator's watchdog budget instead of failing crisply.

:class:`ProgressGuard` converts that symptom into a structured,
deterministic :class:`~repro.errors.LivelockError`. It rides the
phase-hook protocol (it *is* a :class:`~repro.explore.timeline.
PhaseHook`; a recorder joins it on the same plan through
:class:`~repro.explore.timeline.PhaseFanout`): recovery
phase entries count up, any main-loop ``iteration`` notification —
i.e. actual application progress — resets the counts. When a recovery
anchor repeats more than ``limit`` times without an intervening
iteration, the job is declared livelocked and the error names the
repeating phase cycle and the iteration the application is stuck at.

The guard raises from inside the rank coroutine (phase notifications
are emitted synchronously by the running rank), so the error propagates
out of :meth:`Runtime.run` like any simulation error and lands in the
engine's structured error record — deterministic, never retried.
"""

from __future__ import annotations

from .timeline import PhaseHook
from ..errors import LivelockError

#: recovery-phase repetitions tolerated without application progress;
#: generous enough for legitimate repeated failure (one repair per
#: scheduled fault) yet far below any watchdog budget
DEFAULT_LIMIT = 8

#: anchors counted per emitting rank (application-level protocol steps)
_RANK_ANCHORS = frozenset({"ulfm.revoke"})
#: anchors counted globally (runtime/launcher-level recovery spans)
_SPAN_ANCHORS = frozenset({"reinit.rollback", "restart.redeploy"})


class ProgressGuard(PhaseHook):
    """Phase hook that raises :class:`LivelockError` on repeated
    recovery without application progress."""

    def __init__(self, limit: int = DEFAULT_LIMIT):
        self.limit = limit
        #: recovery-entry counts since the last observed iteration,
        #: keyed by (rank, anchor) for per-rank protocol steps and by
        #: (-1, anchor) for global spans
        self._counts: dict = {}
        #: recovery anchors seen since last progress, in first-seen order
        self._trail: list = []
        self._last_iteration = -1

    # -- bookkeeping ---------------------------------------------------------
    def _progress(self) -> None:
        self._counts.clear()
        self._trail.clear()

    def _count(self, key, anchor: str) -> None:
        seen = self._counts.get(key, 0) + 1
        self._counts[key] = seen
        if anchor not in self._trail:
            self._trail.append(anchor)
        if seen > self.limit:
            raise LivelockError(
                cycle=tuple(self._trail),
                iterations_stuck_at=self._last_iteration)

    # -- phase-hook protocol -------------------------------------------------
    def iteration(self, rank: int, i: int, now: float) -> None:
        self._last_iteration = max(self._last_iteration, i)
        self._progress()

    def enter(self, rank: int, anchor: str, now: float) -> None:
        if anchor in _RANK_ANCHORS:
            self._count((rank, anchor), anchor)

    def span(self, rank: int, anchor: str, start: float, end: float) -> None:
        if anchor in _SPAN_ANCHORS:
            self._count((-1, anchor), anchor)


__all__ = ["DEFAULT_LIMIT", "ProgressGuard"]
