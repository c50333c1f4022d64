"""The per-rank MPI facade applications program against.

Every communication method is a *generator function*: application code
calls it with ``yield from`` so the operation flows out to the scheduler
and the result flows back in::

    def main(mpi):
        total = yield from mpi.allreduce(local_sum, op=ops.SUM)
        yield from mpi.barrier()

Non-communication helpers (``now()``, ``rank``, ``size``) are plain
attributes/functions.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from .communicator import Communicator
from .datatypes import Op, OpKind
from .runtime import StartState
from ..workmodel import WorkModel


class MpiApi:
    """One rank's view of the simulated MPI runtime."""

    def __init__(self, runtime, rank: int,
                 start_state: StartState = StartState.INITIAL):
        self._runtime = runtime
        self.rank = rank
        self.start_state = start_state
        self.work_model = WorkModel(node=runtime.cluster.node_spec)

    # -- plain accessors ----------------------------------------------------
    @property
    def size(self) -> int:
        return self._runtime.nprocs

    @property
    def world(self) -> Communicator:
        return self._runtime.world

    @property
    def is_restarted(self) -> bool:
        """True when Reinit re-entered the resilient main after a failure."""
        return self.start_state is StartState.RESTARTED

    @property
    def is_respawned(self) -> bool:
        """True for a ULFM replacement process joining an ongoing recovery."""
        return self.start_state is StartState.RESPAWNED

    def now(self) -> float:
        """This rank's local virtual time (``MPI_Wtime``)."""
        return self._runtime.clock.now(self.rank)

    def node_id(self) -> int:
        return self._runtime.cluster.node_of(self.rank)

    def cached_comm(self, world_ranks, name: str) -> Communicator:
        """Shared communicator for a subgroup (see Runtime.cached_comm)."""
        return self._runtime.cached_comm(world_ranks, name)

    def ranks_per_node(self) -> int:
        return self._runtime.ranks_per_node()

    # -- local work ----------------------------------------------------------
    def compute(self, seconds: Optional[float] = None, flops: float = 0.0,
                bytes_moved: float = 0.0) -> Generator:
        """Charge local compute time (subject to the runtime overhead tax)."""
        if seconds is None:
            seconds = self.work_model.seconds(
                flops=flops, bytes_moved=bytes_moved,
                ranks_per_node=self.ranks_per_node())
        yield Op(OpKind.COMPUTE, seconds=seconds)

    def sleep(self, seconds: float) -> Generator:
        """Advance local time without the compute overhead tax."""
        yield Op(OpKind.SLEEP, seconds=seconds)

    def iteration(self, i: int) -> Generator:
        """Mark the start of main-loop iteration ``i`` (fault hook).

        With no armed fault events the mark cannot have any effect (it
        advances no clock and carries no result), so it is elided
        entirely instead of paying a scheduler round trip.
        """
        hook = self._runtime.phase_hook
        if hook is not None:
            hook.iteration(self.rank, i, self.now())
        plan = self._runtime.fault_plan
        if plan is None or not plan.events:
            return
        yield Op(OpKind.ITER_MARK, iteration=i)

    # -- phase-anchor instrumentation (repro.explore) -------------------------
    def phase_enter(self, anchor: str) -> None:
        """Note entry into a named phase window (checkpoint write, a ULFM
        repair step, ...) on the plan's phase hook, if any.

        Plain calls, not ops: anchors advance no clock and must cost
        nothing when no timeline probe or progress guard is attached.
        """
        hook = self._runtime.phase_hook
        if hook is not None:
            hook.enter(self.rank, anchor, self.now())

    def phase_exit(self, anchor: str) -> None:
        """Note exit from a named phase window (see :meth:`phase_enter`)."""
        hook = self._runtime.phase_hook
        if hook is not None:
            hook.exit(self.rank, anchor, self.now())

    # -- point to point -------------------------------------------------------
    def send(self, dest: int, payload: Any, tag: int = 0,
             nbytes: Optional[int] = None) -> Generator:
        yield Op(OpKind.SEND, peer=dest, tag=tag, payload=payload,
                 nbytes=nbytes, comm=self._runtime.world)

    def recv(self, source: Optional[int] = None, tag: Optional[int] = 0
             ) -> Generator:
        """Blocking receive; returns ``(payload, status)``.

        ``source=None`` is ``MPI_ANY_SOURCE``; ``tag=None`` is
        ``MPI_ANY_TAG``.
        """
        result = yield Op(OpKind.RECV, peer=source, tag=tag,
                          comm=self._runtime.world)
        return result

    def sendrecv(self, dest: int, payload: Any, source: Optional[int] = None,
                 tag: int = 0, nbytes: Optional[int] = None) -> Generator:
        """Combined exchange (safe under the eager send protocol)."""
        yield from self.send(dest, payload, tag=tag, nbytes=nbytes)
        result = yield from self.recv(source if source is not None else dest,
                                      tag=tag)
        return result

    # -- collectives ----------------------------------------------------------
    def barrier(self, comm: Optional[Communicator] = None) -> Generator:
        yield Op(OpKind.BARRIER, comm=comm or self._runtime.world)

    def bcast(self, payload: Any = None, root: int = 0,
              comm: Optional[Communicator] = None,
              nbytes: Optional[int] = None) -> Generator:
        result = yield Op(OpKind.BCAST, comm=comm or self._runtime.world,
                          payload=payload, root=root, nbytes=nbytes)
        return result

    def reduce(self, payload: Any, op, root: int = 0,
               comm: Optional[Communicator] = None,
               nbytes: Optional[int] = None) -> Generator:
        result = yield Op(OpKind.REDUCE, comm=comm or self._runtime.world,
                          payload=payload, reduce_op=op, root=root,
                          nbytes=nbytes)
        return result

    def allreduce(self, payload: Any, op,
                  comm: Optional[Communicator] = None,
                  nbytes: Optional[int] = None) -> Generator:
        result = yield Op(OpKind.ALLREDUCE, comm=comm or self._runtime.world,
                          payload=payload, reduce_op=op, nbytes=nbytes)
        return result

    def gather(self, payload: Any, root: int = 0,
               comm: Optional[Communicator] = None,
               nbytes: Optional[int] = None) -> Generator:
        result = yield Op(OpKind.GATHER, comm=comm or self._runtime.world,
                          payload=payload, root=root, nbytes=nbytes)
        return result

    def allgather(self, payload: Any,
                  comm: Optional[Communicator] = None,
                  nbytes: Optional[int] = None) -> Generator:
        result = yield Op(OpKind.ALLGATHER, comm=comm or self._runtime.world,
                          payload=payload, nbytes=nbytes)
        return result

    def scatter(self, chunks: Any = None, root: int = 0,
                comm: Optional[Communicator] = None,
                nbytes: Optional[int] = None) -> Generator:
        result = yield Op(OpKind.SCATTER, comm=comm or self._runtime.world,
                          payload=chunks, root=root, nbytes=nbytes)
        return result

    def alltoall(self, blocks: Any,
                 comm: Optional[Communicator] = None,
                 nbytes: Optional[int] = None) -> Generator:
        result = yield Op(OpKind.ALLTOALL, comm=comm or self._runtime.world,
                          payload=blocks, nbytes=nbytes)
        return result

    def scan(self, payload: Any, op,
             comm: Optional[Communicator] = None,
             nbytes: Optional[int] = None) -> Generator:
        result = yield Op(OpKind.SCAN, comm=comm or self._runtime.world,
                          payload=payload, reduce_op=op, nbytes=nbytes)
        return result

    # -- storage ----------------------------------------------------------------
    def store_write(self, store, path: str, data: bytes) -> Generator:
        """Write bytes to a storage tier, charging its I/O time locally."""
        duration = yield Op(OpKind.STORE_WRITE, store=store, path=path,
                            payload=data, nbytes=len(data))
        return duration

    def store_read(self, store, path: str) -> Generator:
        data = yield Op(OpKind.STORE_READ, store=store, path=path)
        return data

    # -- ULFM extensions ----------------------------------------------------------
    def comm_revoke(self, comm: Communicator) -> Generator:
        """``MPIX_Comm_revoke``: interrupt all pending ops on ``comm``."""
        yield Op(OpKind.REVOKE, comm=comm)

    def comm_shrink(self, comm: Communicator) -> Generator:
        """``MPIX_Comm_shrink``: survivors build a failure-free comm."""
        shrunk = yield Op(OpKind.SHRINK, comm=comm)
        return shrunk

    def comm_spawn(self, comm: Communicator) -> Generator:
        """``MPI_Comm_spawn``: replace every failed rank; returns their ids."""
        spawned = yield Op(OpKind.SPAWN, comm=comm)
        return spawned

    def intercomm_merge(self, comm: Optional[Communicator]) -> Generator:
        """``MPI_Intercomm_merge``: survivors + replacements, world order.

        Survivors pass the shrunk communicator; a freshly spawned
        replacement passes ``None`` (it joins through the runtime's
        pending spawn rendezvous, the analogue of the parent intercomm).
        """
        merged = yield Op(OpKind.MERGE, comm=comm)
        return merged

    def set_world(self, comm: Communicator) -> None:
        """Swap the world communicator after a repair.

        This is the paper's ``worldc[worldi]`` global-variable swap
        (Fig. 3, lines 2-6): FTI and the application must see the
        repaired world immediately. Idempotent across ranks. Cached
        communicators from the pre-repair epoch that can no longer be
        used (revoked, or referencing ranks outside the new world) are
        evicted so repeated recoveries do not accumulate state.
        """
        self._runtime.world = comm
        self._runtime.prune_stale_comms()

    def comm_agree(self, comm: Communicator, flag: int = 1) -> Generator:
        """``MPIX_Comm_agree``: fault-tolerant bitwise-AND agreement."""
        agreed = yield Op(OpKind.AGREE, comm=comm, payload=int(flag), nbytes=8)
        return agreed

    def abort(self) -> Generator:
        """``MPI_Abort``: kill the whole job."""
        yield Op(OpKind.ABORT)
