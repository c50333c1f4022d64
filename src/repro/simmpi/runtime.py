"""The simulated MPI runtime: a deterministic SPMD scheduler.

Every rank is a Python generator coroutine. An MPI call is a ``yield`` of
an :class:`~repro.simmpi.datatypes.Op`; the scheduler matches operations,
prices them with the cluster's network/storage models, advances per-rank
virtual clocks and resumes coroutines with results. Failures are
fail-stop: a killed rank simply stops yielding, and peers observe
:class:`~repro.errors.ProcessFailedError` once the failure detector's
latency has elapsed — or the whole job aborts if the communicator's error
handler is ``FATAL`` (the Restart design's path).

Scheduling is rank-ordered and time-independent of host wall-clock, so
every experiment is exactly reproducible.

**Event-driven scheduling.** The scheduler never scans the whole world
per round. Runnable ranks live in a pair of min-heaps (`current round` /
`next round`) ordered by rank id; a rank is pushed when it becomes
runnable (unblock, spawn, error delivery) and popped exactly once per
round, so a round costs O(runnable · log runnable) instead of O(P).
The two-heap split preserves the historical semantics exactly: a rank
unblocked while rank ``r`` is stepping joins the *current* round iff its
id is greater than ``r`` (the ascending scan would still reach it),
otherwise the next round.

**Indexed message matching.** Unexpected (eager) messages are held in
per-destination buckets keyed by ``(source, tag)``; a receive with both
coordinates known pops its bucket's head in O(1), and a wildcard receive
(``MPI_ANY_SOURCE``/``MPI_ANY_TAG``) takes the lowest global sequence
number over the destination's buckets, which is exactly the arrival-order
scan the flat queue used to do. Blocked receivers are likewise indexed by
awaited source so a failure wakes only the receivers that can observe it.
"""

from __future__ import annotations

import enum
import math
import os
from collections import deque
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Any, Callable, Generator, Optional

from .communicator import Communicator
from .datatypes import COLLECTIVE_KINDS, Message, Op, OpKind, Status
from .errhandler import ErrHandler
from .failures import DetectorSpec, FailureDetector, FailureLog
from .overhead import OverheadModel
from .reduceops import BAND, reduce_contributions
from ..cluster.machine import Cluster
from ..cluster.simclock import SimClock
from ..errors import (
    WATCHDOG_ENV,
    CommRevokedError,
    DeadlockError,
    JobAbortedError,
    ProcessFailedError,
    SimulationError,
    WatchdogError,
)


def _watchdog_budget_from_env():
    """The scheduler-step budget from ``$MATCH_SIM_WATCHDOG``, or None.

    The campaign engine exports the variable to worker processes (spawn
    children inherit the environment), so the budget reaches every
    Runtime a run constructs — including relaunches inside a design's
    recovery loop — without threading a parameter through the designs.
    """
    text = os.environ.get(WATCHDOG_ENV, "").strip()
    if not text:
        return None
    try:
        budget = int(text)
    except ValueError:
        raise SimulationError(
            "%s must be an integer scheduler-step budget, got %r"
            % (WATCHDOG_ENV, text))
    return budget if budget > 0 else None


class RankStatus(enum.Enum):
    READY = "ready"
    BLOCKED = "blocked"
    DONE = "done"
    DEAD = "dead"


class StartState(enum.Enum):
    """Why this coroutine instance was started (visible to applications)."""

    INITIAL = "initial"
    #: restarted by Reinit's global-restart path
    RESTARTED = "restarted"
    #: spawned as a replacement during ULFM non-shrinking recovery
    RESPAWNED = "respawned"


class _Throw:
    """Marker: deliver an exception into the coroutine at next resume."""

    __slots__ = ("exc",)

    def __init__(self, exc: BaseException):
        self.exc = exc


@dataclass(slots=True)
class _Rank:
    rank: int
    gen: Generator
    status: RankStatus = RankStatus.READY
    #: value (or _Throw) to deliver at next resume
    inbox: Any = None
    exit_value: Any = None
    #: the op this rank is currently blocked on, if any
    blocked_on: Optional[Op] = None
    start_state: StartState = StartState.INITIAL
    #: True while this instance sits in a ready heap (dedup guard)
    queued: bool = False


class _CollectiveSite:
    """Rendezvous point for one collective call on one communicator.

    Roster tracking is incremental (O(1) per arrival): ``missing`` holds
    the alive members that have not arrived yet, and ``dead_flag`` is set
    as soon as any member is known failed.
    """

    __slots__ = ("comm", "kind", "arrivals", "missing", "dead_flag")

    def __init__(self, comm: Communicator, kind: OpKind):
        self.comm = comm
        self.kind = kind
        #: world rank -> (Op, arrival time)
        self.arrivals: dict = {}
        #: alive members still expected
        self.missing: set = set()
        self.dead_flag = False

    @classmethod
    def create(cls, comm: Communicator, kind: OpKind,
               failure_log: FailureLog) -> "_CollectiveSite":
        site = cls(comm, kind)
        dead = [w for w in failure_log.failed_ranks() if comm.contains(w)]
        site.missing = set(comm.world_ranks).difference(dead)
        site.dead_flag = bool(dead)
        return site

    def note_failure(self, rank: int) -> None:
        if self.comm.contains(rank):
            self.missing.discard(rank)
            self.dead_flag = True


@dataclass(frozen=True)
class UlfmSpec:
    """Cost constants (seconds) and step formulas of the ULFM recovery
    operations; the log-depth scaling is what makes ULFM recovery grow
    with process count (Fig. 7).

    The one statement of each step cost: the scheduler prices its
    REVOKE/SHRINK/AGREE/MERGE/SPAWN ops through these methods and the
    analytic model (:mod:`repro.modeling.costs`) composes its survivor
    critical path from the same calls.
    """

    revoke_alpha: float = 0.012
    shrink_alpha: float = 0.11
    #: ULFM's shrink runs an all-to-all style consensus whose volume grows
    #: with the group: a per-process term on top of the log-depth rounds
    shrink_per_proc: float = 0.008
    agree_alpha: float = 0.055
    merge_alpha: float = 0.035
    spawn_base: float = 0.9
    spawn_per_proc: float = 0.012

    def revoke_seconds(self, nprocs: int) -> float:
        return self.revoke_alpha * math.log2(max(2, nprocs))

    def shrink_seconds(self, nprocs: int) -> float:
        return (self.shrink_alpha * math.log2(max(2, nprocs))
                + self.shrink_per_proc * nprocs)

    def agree_seconds(self, nprocs: int) -> float:
        """Two-phase agreement: two log-depth waves."""
        return 2.0 * self.agree_alpha * math.log2(max(2, nprocs))

    def merge_seconds(self, nprocs: int) -> float:
        return self.merge_alpha * math.log2(max(2, nprocs))

    def spawn_seconds(self, ndead: int, nprocs: int) -> float:
        """Respawning ``ndead`` replacements into a job of ``nprocs``
        (includes the spawn-side intercomm merge)."""
        return (self.spawn_base
                + self.spawn_per_proc * max(1, ndead)
                + self.merge_alpha * math.log2(max(2, nprocs)))


class Runtime:
    """Owns the coroutines, the clock and all matching state for one job."""

    #: the ULFM step-cost spec the scheduler prices recovery ops with
    ULFM = UlfmSpec()

    def __init__(self, cluster: Cluster, nprocs: int,
                 entry: Callable[["MpiApi"], Generator],
                 detector_spec: DetectorSpec | None = None,
                 overhead: OverheadModel | None = None,
                 fault_plan=None,
                 on_global_failure: Optional[Callable] = None,
                 errhandler: ErrHandler = ErrHandler.FATAL,
                 max_steps: Optional[int] = None):
        from .api import MpiApi  # local import to avoid a cycle

        self.cluster = cluster
        self.nprocs = nprocs
        self.entry = entry
        self.clock = SimClock(nprocs)
        self.detector = FailureDetector(detector_spec)
        self.failure_log = FailureLog(self.detector, nprocs)
        self.overhead = overhead or OverheadModel()
        self.fault_plan = fault_plan
        #: exact-time injection: the plan's due_event, or None when it
        #: schedules no TimedFault, so iteration-indexed plans cost one
        #: None check in the scheduler hot path
        self._timed_due = (fault_plan.due_event if fault_plan is not None
                           and fault_plan.timed else None)
        #: phase-anchor instrumentation sink (repro.explore.timeline);
        #: rides on the plan — the only object threaded from the harness
        self.phase_hook = (fault_plan.phase_hook
                           if fault_plan is not None else None)
        #: Reinit hooks in here: called instead of aborting the job
        self.on_global_failure = on_global_failure
        self.world = Communicator(range(nprocs), "world",
                                  errhandler=errhandler)
        cluster.place_job(nprocs)
        self._api_cls = MpiApi
        self._ranks: dict[int, _Rank] = {}
        #: dest -> (source, tag) -> FIFO deque of unexpected messages
        self._unexpected: dict[int, dict[tuple, deque]] = {}
        self._recv_waiters: dict[int, Op] = {}
        #: awaited source -> {waiter rank -> post sequence}
        self._waiters_by_src: dict[int, dict[int, int]] = {}
        #: ANY_SOURCE waiters: rank -> post sequence
        self._waiters_any: dict[int, int] = {}
        self._waiter_seq = 0
        self._sites: dict[int, list] = {}
        self._seq = 0
        self._aborted: Optional[JobAbortedError] = None
        self._pending_global_failure: Optional[tuple] = None
        self._pending_spawned: list = []
        #: synthetic rendezvous comm for survivors + freshly spawned ranks
        self._merge_comm: Optional[Communicator] = None
        self._comm_cache: dict[tuple, Communicator] = {}
        self.abort_time: float = 0.0
        #: diagnostics for tests and the harness
        self.stats = {"p2p_messages": 0, "collectives": 0, "spawns": 0,
                      "reinit_rollbacks": 0}
        #: ready heaps: (rank, push id, _Rank) — see the module docstring
        self._ready_now: list = []
        self._ready_next: list = []
        self._push_count = 0
        self._stepping: Optional[int] = None
        #: livelock guard: raise WatchdogError past this many _step()
        #: calls (None = unlimited; $MATCH_SIM_WATCHDOG sets it when the
        #: constructor isn't given one)
        self.watchdog_budget = (max_steps if max_steps is not None
                                else _watchdog_budget_from_env())
        self.watchdog_steps = 0
        #: ranks neither DONE nor DEAD (O(1) termination check)
        self._unfinished = 0
        self._dispatch_table = self._build_dispatch_table()
        for rank in range(nprocs):
            self._spawn_coroutine(rank, StartState.INITIAL)

    def _build_dispatch_table(self) -> dict:
        table = {
            OpKind.COMPUTE: self._handle_compute,
            OpKind.SLEEP: self._handle_sleep,
            OpKind.ITER_MARK: self._handle_iter_mark,
            OpKind.STORE_WRITE: self._handle_store_write,
            OpKind.STORE_READ: self._handle_store_read,
            OpKind.SEND: self._handle_send,
            OpKind.RECV: self._handle_recv,
            OpKind.REVOKE: self._handle_revoke,
            OpKind.ABORT: self._handle_abort,
        }
        for kind in COLLECTIVE_KINDS:
            table[kind] = self._handle_collective
        return table

    # ------------------------------------------------------------------ #
    # coroutine lifecycle                                                #
    # ------------------------------------------------------------------ #
    def _spawn_coroutine(self, rank: int, state: StartState) -> None:
        api = self._api_cls(self, rank, state)
        gen = self.entry(api)
        if not hasattr(gen, "send"):
            raise SimulationError(
                "entry %r must be a generator function" % (self.entry,))
        old = self._ranks.get(rank)
        if old is None or old.status in (RankStatus.DONE, RankStatus.DEAD):
            self._unfinished += 1
        self._ranks[rank] = _Rank(rank=rank, gen=gen, start_state=state)
        self._enqueue_ready(rank)

    def api_for(self, rank: int):
        """Build a fresh API facade for ``rank`` (used by tests)."""
        return self._api_cls(self, rank, self._ranks[rank].start_state)

    def cached_comm(self, world_ranks, name: str) -> Communicator:
        """Canonical communicator shared by every rank that asks for the
        same (group, name) — SPMD code in different coroutines must agree
        on the communicator *object* for collectives to rendezvous.

        A revoked entry is replaced with a fresh communicator: ranks
        re-deriving the group after a repair must not rendezvous on a
        permanently-poisoned object.
        """
        key = (tuple(world_ranks), name)
        comm = self._comm_cache.get(key)
        if comm is None or comm.revoked:
            comm = Communicator(key[0], name)
            self._comm_cache[key] = comm
        return comm

    def prune_stale_comms(self) -> int:
        """Evict cached communicators that can never be used again.

        Called after a world swap (ULFM repair): entries that are revoked
        or reference ranks outside the new world are dropped so
        ``_comm_cache`` stays bounded across repeated recoveries
        (``_discard_site`` already bounds ``_sites`` the same way).
        Returns the number of evicted communicators.
        """
        alive = set(self.world.world_ranks)
        stale = [key for key, comm in self._comm_cache.items()
                 if comm.revoked or not alive.issuperset(key[0])]
        for key in stale:
            del self._comm_cache[key]
        return len(stale)

    # ------------------------------------------------------------------ #
    # public queries                                                     #
    # ------------------------------------------------------------------ #
    def is_alive(self, rank: int) -> bool:
        return (rank in self._ranks
                and self._ranks[rank].status is not RankStatus.DEAD)

    def makespan(self) -> float:
        return self.clock.global_now()

    def ranks_per_node(self) -> int:
        return -(-self.nprocs // self.cluster.nnodes)

    # ------------------------------------------------------------------ #
    # the ready queue                                                    #
    # ------------------------------------------------------------------ #
    def _enqueue_ready(self, rank: int) -> None:
        state = self._ranks[rank]
        if state.queued:
            return
        state.queued = True
        self._push_count += 1
        entry = (rank, self._push_count, state)
        stepping = self._stepping
        if stepping is not None and rank > stepping:
            heappush(self._ready_now, entry)
        else:
            heappush(self._ready_next, entry)

    def _merge_rounds(self) -> None:
        """Fold a partially-consumed round back into the next one.

        After a mid-round interruption (pending global failure handed to
        its hook) the historical scheduler would restart its ascending
        scan from rank 0; merging the heaps reproduces that exactly.
        """
        while self._ready_now:
            heappush(self._ready_next, heappop(self._ready_now))

    # ------------------------------------------------------------------ #
    # the driver loop                                                    #
    # ------------------------------------------------------------------ #
    def run(self) -> dict:
        """Drive every rank to completion; returns rank -> exit value.

        Raises :class:`JobAbortedError` if a failure hits a FATAL
        communicator and no global-failure hook is installed.
        """
        while True:
            if self._aborted is not None:
                raise self._aborted
            if self._pending_global_failure is not None:
                when, failed = self._pending_global_failure
                self._pending_global_failure = None
                self.on_global_failure(self, when, failed)
                self._merge_rounds()
                continue
            progressed = self._round()
            if self._all_finished():
                break
            if not progressed and self._pending_global_failure is None:
                self._resolve_stalled_failures()
                if self._aborted is not None:
                    raise self._aborted
                if (self._pending_global_failure is None
                        and not self._any_ready()
                        and not self._all_finished()):
                    self._raise_deadlock()
        return {r: st.exit_value for r, st in self._ranks.items()
                if st.status is RankStatus.DONE}

    def _round(self) -> bool:
        if not self._ready_now:
            self._ready_now, self._ready_next = (self._ready_next,
                                                 self._ready_now)
        heap = self._ready_now
        ranks = self._ranks
        progressed = False
        while heap:
            rank, _, state = heappop(heap)
            if state is not ranks[rank]:
                continue  # superseded by a respawn/restart
            state.queued = False
            if state.status is not RankStatus.READY:
                continue
            self._stepping = rank
            self._step(rank)
            progressed = True
            if (self._aborted is not None
                    or self._pending_global_failure is not None):
                break
        self._stepping = None
        return progressed

    def _any_ready(self) -> bool:
        return any(s.status is RankStatus.READY for s in self._ranks.values())

    def _all_finished(self) -> bool:
        return self._unfinished == 0

    def _step(self, rank: int) -> None:
        if self.watchdog_budget is not None:
            self.watchdog_steps += 1
            if self.watchdog_steps > self.watchdog_budget:
                raise WatchdogError(self.watchdog_budget)
        state = self._ranks[rank]
        if self._timed_due is not None and state.status is not RankStatus.DEAD:
            event = self._timed_due(rank, self.clock.now(rank))
            if event is not None:
                # deliver *before* resuming the coroutine: the kill lands
                # between yields — mid-repair, mid-checkpoint — exactly
                # where an anchored schedule aimed it, instead of being
                # deferred to the victim's next iteration mark. The clock
                # is forward-only: a rank whose last op overshot the
                # event time dies at its current clock (signal-between-
                # instructions semantics)
                if event.time > self.clock.now(rank):
                    self.clock.advance_to(rank, event.time)
                if event.kind == "node":
                    self.kill_node(self.cluster.node_of(rank))
                else:
                    self.kill(rank)
                return
        inbox, state.inbox = state.inbox, None
        try:
            if type(inbox) is _Throw:
                op = state.gen.throw(inbox.exc)
            else:
                op = state.gen.send(inbox)
        except StopIteration as stop:
            state.status = RankStatus.DONE
            state.exit_value = stop.value
            self._unfinished -= 1
            return
        if not isinstance(op, Op):
            raise SimulationError(
                "rank %d yielded %r instead of an Op" % (rank, op))
        op.rank = rank
        self._dispatch(rank, op)

    # ------------------------------------------------------------------ #
    # dispatch                                                           #
    # ------------------------------------------------------------------ #
    def _dispatch(self, rank: int, op: Op) -> None:
        kind = op.kind
        comm = op.comm
        if comm is not None and comm.revoked and kind not in (
                OpKind.SHRINK, OpKind.AGREE, OpKind.ABORT):
            self._deliver_error(rank, CommRevokedError(
                "op %s on revoked %s" % (kind.value, comm.name)))
            return
        handler = self._dispatch_table.get(kind)
        if handler is None:
            raise SimulationError("unhandled op kind %s" % kind)
        handler(rank, op)

    def _handle_compute(self, rank: int, op: Op) -> None:
        factor = self.overhead.compute_factor(self.nprocs)
        self.clock.advance(rank, op.seconds * factor)
        self._mark_ready(rank, None)

    def _handle_sleep(self, rank: int, op: Op) -> None:
        self.clock.advance(rank, op.seconds)
        self._mark_ready(rank, None)

    def _handle_store_write(self, rank: int, op: Op) -> None:
        duration = op.store.write(op.path, op.payload,
                                  now=self.clock.now(rank))
        self.clock.advance(rank, duration)
        self._mark_ready(rank, duration)

    def _handle_store_read(self, rank: int, op: Op) -> None:
        data, duration = op.store.read(op.path)
        self.clock.advance(rank, duration)
        self._mark_ready(rank, data)

    def _handle_abort(self, rank: int, op: Op) -> None:
        self._abort_job(self.clock.now(rank),
                        "MPI_Abort called by rank %d" % rank)

    def _mark_ready(self, rank: int, result: Any) -> None:
        state = self._ranks[rank]
        if state.status is RankStatus.DEAD:
            return  # a failed rank is never resurrected
        state.status = RankStatus.READY
        state.inbox = result
        state.blocked_on = None
        self._enqueue_ready(rank)

    def _deliver_error(self, rank: int, exc: BaseException,
                       at_time: float | None = None) -> None:
        state = self._ranks[rank]
        if state.status is RankStatus.DEAD:
            return  # a failed rank observes nothing, not even errors
        if at_time is not None:
            self.clock.advance_to(rank, at_time)
        state.status = RankStatus.READY
        state.inbox = _Throw(exc)
        state.blocked_on = None
        self._enqueue_ready(rank)

    # ------------------------------------------------------------------ #
    # fault injection                                                    #
    # ------------------------------------------------------------------ #
    def _handle_iter_mark(self, rank: int, op: Op) -> None:
        event = (self.fault_plan.event_for(rank, op.iteration)
                 if self.fault_plan is not None else None)
        if event is not None:
            if event.kind == "node":
                self.kill_node(self.cluster.node_of(rank),
                               iteration=op.iteration)
            else:
                self.kill(rank, iteration=op.iteration)
            return
        self._mark_ready(rank, None)

    def kill_node(self, node_id: int, iteration: int = -1) -> None:
        """Fail-stop a whole node: every rank on it dies and its volatile
        storage (RAMFS/SSD, i.e. any L1 checkpoints) is destroyed.

        The node is modeled as rebooting before replacements arrive, so
        placement is unchanged — but the lost storage means recovery
        must come from a redundant FTI level (L2+).
        """
        victims = list(self.cluster.ranks_on_node(node_id))
        self.cluster.node_storage[node_id].wipe()
        for rank in victims:
            if self.is_alive(rank):
                self.kill(rank, iteration=iteration)

    def kill(self, rank: int, iteration: int = -1) -> None:
        """Fail-stop ``rank`` at its current local time (SIGTERM model)."""
        state = self._ranks[rank]
        if state.status is RankStatus.DEAD:
            return
        failed_at = self.clock.now(rank)
        if state.status is not RankStatus.DONE:
            self._unfinished -= 1
        # drop the victim's own blocked receive from the waiter indexes:
        # a later failure of its awaited source must not try to wake it
        if state.blocked_on is not None and \
                state.blocked_on.kind is OpKind.RECV:
            self._unregister_waiter(rank, state.blocked_on)
        state.status = RankStatus.DEAD
        state.blocked_on = None
        state.gen.close()
        self.failure_log.record(rank, failed_at, iteration)
        self._on_failure_recorded(rank)

    def _on_failure_recorded(self, failed_rank: int) -> None:
        """Wake every op that can now observe the failure."""
        rec = self.failure_log.record_for(failed_rank)
        # blocked receivers awaiting the failed rank (or ANY_SOURCE),
        # woken in the order their receives were posted
        candidates = list(self._waiters_by_src.get(failed_rank, {}).items())
        candidates.extend(self._waiters_any.items())
        candidates.sort(key=lambda item: item[1])
        for waiter_rank, _ in candidates:
            op = self._recv_waiters.get(waiter_rank)
            if op is not None:
                self._fail_blocked_op(waiter_rank, op, rec.detected_at)
        # queued sends headed to the failed rank never complete; the sender
        # already continued (eager semantics), so just drop the messages
        self._unexpected.pop(failed_rank, None)
        # collective sites including the failed rank
        for sites in list(self._sites.values()):
            for site in list(sites):
                if site.comm.contains(failed_rank):
                    site.note_failure(failed_rank)
                    self._maybe_resolve_site(site)

    def _fail_blocked_op(self, rank: int, op: Op, detected_at: float) -> None:
        handler = (op.comm.errhandler if op.comm is not None
                   else self.world.errhandler)
        failed = self.failure_log.failed_ranks()
        when = max(self.clock.now(rank), detected_at)
        self._unregister_waiter(rank, op)
        if handler is ErrHandler.FATAL:
            self._global_failure(when, failed)
        else:
            self._deliver_error(rank, ProcessFailedError(failed), when)

    # ------------------------------------------------------------------ #
    # global failure: abort or Reinit                                    #
    # ------------------------------------------------------------------ #
    def _global_failure(self, when: float, failed_ranks) -> None:
        if self.on_global_failure is not None:
            # defer to the driver loop: restarting mid-dispatch would pull
            # the rug out from under the code that detected the failure
            if self._pending_global_failure is None:
                self._pending_global_failure = (when, tuple(failed_ranks))
            return
        self._abort_job(when, "process failure on ranks %s with FATAL "
                              "error handler" % (list(failed_ranks),))

    def _abort_job(self, when: float, reason: str) -> None:
        self.abort_time = max(when, self.abort_time)
        self._aborted = JobAbortedError(reason)

    def global_restart(self, restart_time: float) -> None:
        """Reinit's core move: re-enter every rank at the restart point.

        All coroutines (dead or alive) are discarded and restarted with
        ``StartState.RESTARTED``; clocks jump to ``restart_time``. MPI
        state is repaired by construction: a fresh world communicator.
        All matching state — unexpected messages, receive waiters,
        collective sites, cached communicators, queued ready entries —
        is from a dead epoch and dropped wholesale.
        """
        for state in self._ranks.values():
            if state.status not in (RankStatus.DEAD, RankStatus.DONE):
                state.gen.close()
        self.failure_log.clear()
        self._unexpected.clear()
        self._recv_waiters.clear()
        self._waiters_by_src.clear()
        self._waiters_any.clear()
        self._sites.clear()
        self._comm_cache.clear()
        self._ready_now.clear()
        self._ready_next.clear()
        self.world = Communicator(range(self.nprocs), "world",
                                  errhandler=self.world.errhandler)
        for rank in range(self.nprocs):
            self._spawn_coroutine(rank, StartState.RESTARTED)
            self.clock.advance_to(rank, restart_time)
        self.stats["reinit_rollbacks"] += 1

    # ------------------------------------------------------------------ #
    # point to point                                                     #
    # ------------------------------------------------------------------ #
    def _ptp_cost(self, src: int, dst: int, nbytes: int) -> float:
        intra = self.cluster.same_node(src, dst)
        return (self.cluster.network.ptp_time(nbytes, intra_node=intra)
                + self.overhead.ptp_extra(self.nprocs, nbytes))

    def _handle_send(self, rank: int, op: Op) -> None:
        """Eager/buffered send: sender pays overhead and proceeds."""
        dest = op.peer
        if self.failure_log.is_failed(dest):
            rec = self.failure_log.record_for(dest)
            self._fail_blocked_op(rank, op, rec.detected_at)
            return
        self._seq += 1
        msg = Message(source=rank, dest=dest, tag=op.tag, payload=op.payload,
                      nbytes=op.nbytes, sent_at=self.clock.now(rank),
                      seq=self._seq)
        self.stats["p2p_messages"] += 1
        # sender-side overhead: injection latency only (eager protocol)
        self.clock.advance(rank, self.cluster.network.spec.alpha_intra
                           if self.cluster.same_node(rank, dest)
                           else self.cluster.network.spec.alpha_inter)
        waiter = self._recv_waiters.get(dest)
        if waiter is not None and self._matches(waiter, msg):
            self._complete_recv(dest, waiter, msg)
        else:
            buckets = self._unexpected.get(dest)
            if buckets is None:
                buckets = self._unexpected[dest] = {}
            key = (rank, op.tag)
            queue = buckets.get(key)
            if queue is None:
                queue = buckets[key] = deque()
            queue.append(msg)
        self._mark_ready(rank, None)

    def _match_unexpected(self, rank: int, op: Op) -> Optional[Message]:
        """Pop the matching unexpected message with the lowest sequence
        number (arrival order), or None. O(1) for a fully-specified
        receive; O(active buckets for this destination) with wildcards."""
        buckets = self._unexpected.get(rank)
        if not buckets:
            return None
        src, tag = op.peer, op.tag
        if src is not None and tag is not None:
            queue = buckets.get((src, tag))
            if not queue:
                return None
            msg = queue.popleft()
            if not queue:
                del buckets[(src, tag)]
                if not buckets:
                    del self._unexpected[rank]
            return msg
        best_key = None
        best_seq = -1
        for key, queue in buckets.items():
            if src is not None and key[0] != src:
                continue
            if tag is not None and key[1] != tag:
                continue
            head_seq = queue[0].seq
            if best_key is None or head_seq < best_seq:
                best_key, best_seq = key, head_seq
        if best_key is None:
            return None
        queue = buckets[best_key]
        msg = queue.popleft()
        if not queue:
            del buckets[best_key]
            if not buckets:
                del self._unexpected[rank]
        return msg

    def _handle_recv(self, rank: int, op: Op) -> None:
        msg = self._match_unexpected(rank, op)
        if msg is not None:
            self._complete_recv(rank, op, msg)
            return
        source = op.peer
        if source is not None and self.failure_log.is_failed(source):
            rec = self.failure_log.record_for(source)
            self._fail_blocked_op(rank, op, rec.detected_at)
            return
        if rank in self._recv_waiters:
            raise SimulationError(
                "rank %d posted a second blocking recv" % rank)
        op.rank = rank
        self._recv_waiters[rank] = op
        self._waiter_seq += 1
        if source is None:
            self._waiters_any[rank] = self._waiter_seq
        else:
            by_src = self._waiters_by_src.get(source)
            if by_src is None:
                by_src = self._waiters_by_src[source] = {}
            by_src[rank] = self._waiter_seq
        state = self._ranks[rank]
        state.status = RankStatus.BLOCKED
        state.blocked_on = op

    def _unregister_waiter(self, rank: int, op: Op) -> None:
        self._recv_waiters.pop(rank, None)
        if op is not None and op.kind is OpKind.RECV:
            if op.peer is None:
                self._waiters_any.pop(rank, None)
            else:
                by_src = self._waiters_by_src.get(op.peer)
                if by_src is not None:
                    by_src.pop(rank, None)
                    if not by_src:
                        del self._waiters_by_src[op.peer]

    @staticmethod
    def _matches(recv_op: Op, msg: Message) -> bool:
        source_ok = recv_op.peer is None or recv_op.peer == msg.source
        tag_ok = recv_op.tag is None or recv_op.tag == msg.tag
        return source_ok and tag_ok

    def _complete_recv(self, rank: int, op: Op, msg: Message) -> None:
        self._unregister_waiter(rank, op)
        cost = self._ptp_cost(msg.source, rank, msg.nbytes)
        completion = max(self.clock.now(rank), msg.sent_at + cost)
        self.clock.advance_to(rank, completion)
        status = Status(source=msg.source, tag=msg.tag, nbytes=msg.nbytes,
                        completed_at=completion)
        self._mark_ready(rank, (msg.payload, status))

    # ------------------------------------------------------------------ #
    # collectives                                                        #
    # ------------------------------------------------------------------ #
    def _handle_collective(self, rank: int, op: Op) -> None:
        comm = op.comm or self.world
        if op.kind is OpKind.MERGE and self._merge_comm is not None:
            # both survivors (who pass the shrunk comm) and replacements
            # (who pass None, like joining via the parent intercomm) are
            # routed to the synthetic spawn-merge rendezvous
            comm = self._merge_comm
        op.comm = comm
        if not comm.contains(rank):
            raise SimulationError(
                "rank %d called %s on %s it does not belong to"
                % (rank, op.kind.value, comm.name))
        sites = self._sites.get(comm.comm_id)
        if sites is None:
            sites = self._sites[comm.comm_id] = []
        site = None
        for candidate in sites:
            if rank not in candidate.arrivals:
                if candidate.kind is not op.kind:
                    raise SimulationError(
                        "collective mismatch on %s: rank %d called %s while "
                        "site expects %s" % (comm.name, rank, op.kind.value,
                                             candidate.kind.value))
                site = candidate
                break
        if site is None:
            site = _CollectiveSite.create(comm, op.kind, self.failure_log)
            sites.append(site)
        site.arrivals[rank] = (op, self.clock.now(rank))
        site.missing.discard(rank)
        state = self._ranks[rank]
        state.status = RankStatus.BLOCKED
        state.blocked_on = op
        if not site.missing:
            self._maybe_resolve_site(site)

    def _maybe_resolve_site(self, site: _CollectiveSite) -> None:
        if site.missing:
            return
        if not site.arrivals:
            self._discard_site(site)
            return
        if site.dead_flag and site.kind not in (
                OpKind.SHRINK, OpKind.AGREE, OpKind.SPAWN, OpKind.MERGE):
            self._resolve_site_as_failure(site)
            return
        self._resolve_site(site)

    def _discard_site(self, site: _CollectiveSite) -> None:
        sites = self._sites.get(site.comm.comm_id)
        if sites is None:
            return
        if site in sites:
            sites.remove(site)
        if not sites:
            # drop the key too: comm ids are never reused, so an empty
            # list would otherwise linger for the life of the job
            del self._sites[site.comm.comm_id]

    def _resolve_site_as_failure(self, site: _CollectiveSite) -> None:
        self._discard_site(site)
        failed = self.failure_log.failed_ranks()
        detected = self.failure_log.earliest_detection(site.comm.world_ranks)
        if site.comm.errhandler is ErrHandler.FATAL:
            arrivals = [t for (_, t) in site.arrivals.values()]
            self._global_failure(max([detected] + arrivals), failed)
            return
        for rank, (_, arrival) in site.arrivals.items():
            if self._ranks[rank].status is RankStatus.BLOCKED:
                self._deliver_error(rank, ProcessFailedError(failed),
                                    max(arrival, detected))

    def _collective_cost(self, kind: OpKind, nprocs: int, nbytes: int) -> float:
        net = self.cluster.network
        if kind is OpKind.BARRIER:
            base = net.barrier_time(nprocs)
        elif kind is OpKind.BCAST:
            base = net.bcast_time(nprocs, nbytes)
        elif kind is OpKind.REDUCE:
            base = net.reduce_time(nprocs, nbytes)
        elif kind is OpKind.ALLREDUCE:
            base = net.allreduce_time(nprocs, nbytes)
        elif kind is OpKind.GATHER:
            base = net.gather_time(nprocs, nbytes)
        elif kind is OpKind.ALLGATHER:
            base = net.allgather_time(nprocs, nbytes)
        elif kind is OpKind.SCATTER:
            base = net.scatter_time(nprocs, nbytes)
        elif kind is OpKind.ALLTOALL:
            base = net.alltoall_time(nprocs, nbytes)
        elif kind is OpKind.SCAN:
            base = net.scan_time(nprocs, nbytes)
        elif kind is OpKind.SHRINK:
            base = self.ULFM.shrink_seconds(nprocs)
        elif kind is OpKind.AGREE:
            base = self.ULFM.agree_seconds(nprocs)
        elif kind is OpKind.MERGE:
            base = self.ULFM.merge_seconds(nprocs)
        elif kind is OpKind.SPAWN:
            base = 0.0  # priced separately in _resolve_site
        else:
            raise SimulationError("no cost model for %s" % kind)
        return base + self.overhead.collective_extra(nprocs, nbytes)

    def _resolve_site(self, site: _CollectiveSite) -> None:
        self._discard_site(site)
        self.stats["collectives"] += 1
        participants = sorted(site.arrivals)
        arrivals = [site.arrivals[r][1] for r in participants]
        ops = {r: site.arrivals[r][0] for r in participants}
        nprocs = len(participants)
        max_nbytes = max((ops[r].nbytes or 0) for r in participants)
        cost = self._collective_cost(site.kind, nprocs, max_nbytes)
        completion = max(arrivals) + cost
        results = self._collective_results(site, participants, ops)
        if site.kind is OpKind.SPAWN:
            completion += self._do_spawn(site, ops, completion)
            results = self._collective_results(site, participants, ops)
        for rank in participants:
            self.clock.advance_to(rank, completion)
            self._mark_ready(rank, results[rank])

    def _collective_results(self, site, participants, ops) -> dict:
        kind = site.kind
        comm = site.comm
        if kind is OpKind.BARRIER:
            return {r: None for r in participants}
        if kind is OpKind.BCAST:
            root_world = comm.world_rank(ops[participants[0]].root)
            value = ops[root_world].payload
            return {r: value for r in participants}
        if kind in (OpKind.REDUCE, OpKind.ALLREDUCE):
            op_fn = ops[participants[0]].reduce_op
            ordered = [ops[w].payload
                       for w in comm.world_ranks if w in ops]
            total = reduce_contributions(ordered, op_fn)
            if kind is OpKind.ALLREDUCE:
                return {r: total for r in participants}
            root_world = comm.world_rank(ops[participants[0]].root)
            return {r: (total if r == root_world else None)
                    for r in participants}
        if kind in (OpKind.GATHER, OpKind.ALLGATHER):
            gathered = [ops[w].payload
                        for w in comm.world_ranks if w in ops]
            if kind is OpKind.ALLGATHER:
                return {r: list(gathered) for r in participants}
            root_world = comm.world_rank(ops[participants[0]].root)
            return {r: (list(gathered) if r == root_world else None)
                    for r in participants}
        if kind is OpKind.SCATTER:
            root_world = comm.world_rank(ops[participants[0]].root)
            chunks = ops[root_world].payload
            return {r: chunks[comm.rank_of(r)] for r in participants}
        if kind is OpKind.ALLTOALL:
            blocks = {r: ops[r].payload for r in participants}
            return {
                r: [blocks[s][comm.rank_of(r)]
                    for s in comm.world_ranks if s in blocks]
                for r in participants
            }
        if kind is OpKind.SCAN:
            op_fn = ops[participants[0]].reduce_op
            out, acc = {}, None
            for w in comm.world_ranks:
                if w not in ops:
                    continue
                acc = ops[w].payload if acc is None else op_fn(acc, ops[w].payload)
                out[w] = acc
            return out
        if kind is OpKind.SHRINK:
            shrunk = comm.without(self.failure_log.failed_ranks())
            return {r: shrunk for r in participants}
        if kind is OpKind.AGREE:
            flags = [ops[w].payload for w in comm.world_ranks if w in ops]
            agreed = reduce_contributions(flags, BAND)
            return {r: agreed for r in participants}
        if kind is OpKind.MERGE:
            merged = comm.merged_with(self._pending_spawned,
                                      name="world.repaired")
            self._pending_spawned = []
            self._merge_comm = None
            return {r: merged for r in participants}
        if kind is OpKind.SPAWN:
            return {r: list(self._pending_spawned) for r in participants}
        raise SimulationError("no result rule for %s" % kind)

    def _do_spawn(self, site: _CollectiveSite, ops, when: float) -> float:
        """Respawn replacements for every currently-failed rank.

        Returns the additional seconds the spawn costs beyond the
        rendezvous. Replacement processes reuse the dead world ranks' ids
        (the paper's non-shrinking recovery restores the original layout).
        """
        dead = list(self.failure_log.failed_ranks())
        cost = self.ULFM.spawn_seconds(len(dead), self.nprocs)
        for rank in dead:
            self._spawn_coroutine(rank, StartState.RESPAWNED)
            self.clock.advance_to(rank, when + cost)
            self.failure_log.forget(rank)
        self._pending_spawned = dead
        # the rendezvous (and thus the merged world) must inherit the
        # shrunk comm's error handler, or a later failure on the repaired
        # world would wrongly be treated as fatal
        self._merge_comm = Communicator(
            sorted(set(site.comm.world_ranks) | set(dead)), "merge.pending",
            errhandler=site.comm.errhandler)
        self.stats["spawns"] += 1
        return cost

    # ------------------------------------------------------------------ #
    # revoke                                                             #
    # ------------------------------------------------------------------ #
    def _handle_revoke(self, rank: int, op: Op) -> None:
        comm = op.comm
        now = self.clock.now(rank)
        cost = self.ULFM.revoke_seconds(comm.size)
        comm.revoke()
        notice_at = now + cost
        # interrupt pending receives from members of this communicator
        for waiter_rank, waiter in list(self._recv_waiters.items()):
            if comm.contains(waiter_rank):
                self._unregister_waiter(waiter_rank, waiter)
                self._deliver_error(waiter_rank, CommRevokedError(),
                                    max(self.clock.now(waiter_rank),
                                        notice_at))
        # poison collective sites on this communicator
        for site in list(self._sites.get(comm.comm_id, [])):
            self._discard_site(site)
            for member, (_, arrival) in site.arrivals.items():
                if self._ranks[member].status is RankStatus.BLOCKED:
                    self._deliver_error(member, CommRevokedError(),
                                        max(arrival, notice_at))
        self.clock.advance(rank, cost)
        self._mark_ready(rank, None)

    # ------------------------------------------------------------------ #
    # stall resolution / deadlock                                        #
    # ------------------------------------------------------------------ #
    def _resolve_stalled_failures(self) -> None:
        """Re-check blocked ops against the failure log (safety net)."""
        for rank, op in list(self._recv_waiters.items()):
            if op.peer is not None and self.failure_log.is_failed(op.peer):
                rec = self.failure_log.record_for(op.peer)
                self._fail_blocked_op(rank, op, rec.detected_at)
        for sites in list(self._sites.values()):
            for site in list(sites):
                self._maybe_resolve_site(site)

    def _raise_deadlock(self) -> None:
        blocked = {
            r: (s.blocked_on.kind.value if s.blocked_on else "?")
            for r, s in self._ranks.items()
            if s.status is RankStatus.BLOCKED
        }
        raise DeadlockError(
            "no rank can make progress; blocked ranks: %s" % (blocked,))
