"""Runtime failure semantics: kills, detection, error handlers, revoke."""

import pytest

from repro.cluster import Cluster
from repro.errors import (
    CommRevokedError,
    JobAbortedError,
    ProcessFailedError,
)
from repro.faults import FaultEvent, FaultPlan
from repro.simmpi import ErrHandler, Runtime, ops


def run(nprocs, entry, **kwargs):
    runtime = Runtime(Cluster(nnodes=4), nprocs, entry, **kwargs)
    return runtime.run(), runtime


def looping_entry(niters=10, seconds=0.05):
    def entry(mpi):
        total = 0.0
        for i in range(niters):
            yield from mpi.iteration(i)
            yield from mpi.compute(seconds=seconds)
            total = yield from mpi.allreduce(1.0, op=ops.SUM)
        return total
    return entry


def test_fault_plan_kills_at_iteration_with_fatal_abort():
    plan = FaultPlan(events=(FaultEvent(rank=2, iteration=4),))
    runtime = Runtime(Cluster(nnodes=4), 4, looping_entry(),
                      fault_plan=plan, errhandler=ErrHandler.FATAL)
    with pytest.raises(JobAbortedError):
        runtime.run()
    # the victim died after completing 4 iterations of 0.05s each
    assert runtime.failure_log.is_failed(2)
    assert runtime.failure_log.record_for(2).iteration == 4


def test_abort_time_includes_detection_latency():
    plan = FaultPlan(events=(FaultEvent(rank=0, iteration=1),))
    runtime = Runtime(Cluster(nnodes=4), 4, looping_entry(),
                      fault_plan=plan)
    with pytest.raises(JobAbortedError):
        runtime.run()
    failed_at = runtime.failure_log.record_for(0).failed_at
    latency = runtime.detector.detection_latency(4)
    assert runtime.abort_time >= failed_at + latency


def test_errors_return_surfaces_process_failed_in_collective():
    plan = FaultPlan(events=(FaultEvent(rank=1, iteration=2),))
    seen = {}

    def entry(mpi):
        try:
            for i in range(6):
                yield from mpi.iteration(i)
                yield from mpi.allreduce(1.0, op=ops.SUM)
            return "done"
        except ProcessFailedError as err:
            seen[mpi.rank] = err.failed_ranks
            return "caught"

    results, runtime = run(4, entry, fault_plan=plan,
                           errhandler=ErrHandler.RETURN)
    assert all(v == "caught" for r, v in results.items())
    assert all(ranks == (1,) for ranks in seen.values())


def test_recv_from_dead_rank_fails_after_detection():
    plan = FaultPlan(events=(FaultEvent(rank=0, iteration=0),))

    def entry(mpi):
        if mpi.rank == 0:
            yield from mpi.iteration(0)  # dies here
            yield from mpi.send(1, "never")
            return None
        try:
            yield from mpi.recv(0)
            return "got"
        except ProcessFailedError:
            return ("failed_at", mpi.now())

    results, runtime = run(2, entry, errhandler=ErrHandler.RETURN,
                           fault_plan=plan)
    tag, when = results[1]
    assert tag == "failed_at"
    assert when >= runtime.detector.detection_latency(2)


def test_send_to_dead_rank_fails():
    plan = FaultPlan(events=(FaultEvent(rank=1, iteration=0),))

    def entry(mpi):
        if mpi.rank == 1:
            yield from mpi.iteration(0)
            return None
        yield from mpi.compute(seconds=1.0)  # let the failure be detected
        try:
            yield from mpi.send(1, "hello")
            return "sent"
        except ProcessFailedError:
            return "failed"

    results, _ = run(2, entry, errhandler=ErrHandler.RETURN,
                     fault_plan=plan)
    assert results[0] == "failed"


def test_kill_api_direct():
    def entry(mpi):
        yield from mpi.compute(seconds=0.1)
        try:
            yield from mpi.barrier()
            return "ok"
        except ProcessFailedError:
            return "survivor"

    runtime = Runtime(Cluster(nnodes=4), 4, entry,
                      errhandler=ErrHandler.RETURN)
    runtime.kill(3)
    results = runtime.run()
    # survivors observe the failure at the barrier; rank 3 has no result
    assert 3 not in results
    assert all(v == "survivor" for v in results.values())


def test_revoke_interrupts_pending_recv():
    def entry(mpi):
        if mpi.rank == 0:
            yield from mpi.compute(seconds=0.5)
            yield from mpi.comm_revoke(mpi.world)
            return "revoker"
        try:
            yield from mpi.recv(0)  # never satisfied
            return "got"
        except CommRevokedError:
            return "revoked"

    results, _ = run(3, entry, errhandler=ErrHandler.RETURN)
    assert results[0] == "revoker"
    assert results[1] == results[2] == "revoked"


def test_ops_on_revoked_comm_raise_immediately():
    def entry(mpi):
        world = mpi.world
        if mpi.rank == 0:
            yield from mpi.comm_revoke(world)
        else:
            yield from mpi.compute(seconds=1.0)
        try:
            yield from mpi.allreduce(1, op=ops.SUM, comm=world)
            return "ok"
        except CommRevokedError:
            return "revoked"

    results, _ = run(2, entry, errhandler=ErrHandler.RETURN)
    assert set(results.values()) == {"revoked"}


def test_one_shot_fault_does_not_refire():
    plan = FaultPlan(events=(FaultEvent(rank=0, iteration=1),))
    assert plan.event_for(0, 1) is not None
    assert plan.event_for(0, 1) is None


def test_late_arriving_rank_sees_failure_in_collective():
    """A rank still computing when a peer dies must still observe the
    failure at its next collective (BSP recovery requirement)."""
    plan = FaultPlan(events=(FaultEvent(rank=0, iteration=0),))

    def entry(mpi):
        yield from mpi.iteration(0)
        # rank 2 computes way past the failure+detection window
        yield from mpi.compute(seconds=2.0 if mpi.rank == 2 else 0.01)
        try:
            yield from mpi.allreduce(1, op=ops.SUM)
            return "ok"
        except ProcessFailedError:
            return "saw-failure"

    results, _ = run(3, entry, errhandler=ErrHandler.RETURN,
                     fault_plan=plan)
    assert results[1] == results[2] == "saw-failure"
