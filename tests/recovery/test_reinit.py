"""Reinit recovery: scale-independence, hook behaviour."""

import numpy as np
import pytest

from repro.cluster import Cluster
from repro.faults import FaultEvent, FaultPlan
from repro.fti import CheckpointRegistry, Fti, FtiConfig, ScalarRef
from repro.recovery import ReinitRecovery, ReinitSpec
from repro.simmpi import Runtime, StartState, ops


def test_recovery_time_independent_of_process_count():
    """The paper's core Reinit finding (Figs. 7, 10)."""
    cluster = Cluster(nnodes=32)
    reinit = ReinitRecovery(cluster)
    t = reinit.recovery_time()
    assert t == pytest.approx(ReinitSpec().cost(32))
    # the cost formula has no nprocs input at all: structural independence
    assert "nprocs" not in ReinitSpec.cost.__code__.co_varnames


def test_recovery_time_sub_second_band():
    """Fig. 7 shows Reinit around half a second to a second."""
    t = ReinitRecovery(Cluster(nnodes=32)).recovery_time()
    assert 0.4 < t < 1.5


def test_global_restart_reenters_resilient_main():
    cluster = Cluster(nnodes=4)
    registry = CheckpointRegistry()
    reinit = ReinitRecovery(cluster)
    plan = FaultPlan(events=(FaultEvent(rank=1, iteration=7),))
    incarnations = {"initial": 0, "restarted": 0}

    def resilient_main(mpi):
        incarnations["restarted" if mpi.is_restarted else "initial"] += 1
        fti = Fti(mpi, cluster, registry, FtiConfig(ckpt_stride=3))
        yield from fti.init()
        it = ScalarRef(0)
        x = np.zeros(32)
        fti.protect(0, it)
        fti.protect(1, x)
        start = 0
        if fti.status():
            start = (yield from fti.recover()) + 1
        for i in range(start, 12):
            yield from mpi.iteration(i)
            it.value = i
            x += 1.0
            yield from mpi.allreduce(1.0, op=ops.SUM)
            if fti.checkpoint_due(i):
                yield from fti.checkpoint(i)
        return float(x[0])

    runtime = Runtime(cluster, 4, resilient_main, fault_plan=plan)
    reinit.install(runtime)
    results = runtime.run()
    assert incarnations["initial"] == 4
    assert incarnations["restarted"] == 4
    assert runtime.stats["reinit_rollbacks"] == 1
    assert len(reinit.episodes) == 1
    # survivors rolled back to checkpoint at i=6, re-ran 7..11
    # x counts iterations executed in the surviving incarnation: 6+1 ... 12
    assert all(v == 12.0 for v in results.values())


def test_failure_before_first_checkpoint_restarts_from_scratch():
    cluster = Cluster(nnodes=4)
    registry = CheckpointRegistry()
    reinit = ReinitRecovery(cluster)
    plan = FaultPlan(events=(FaultEvent(rank=0, iteration=1),))

    def resilient_main(mpi):
        fti = Fti(mpi, cluster, registry, FtiConfig(ckpt_stride=100))
        yield from fti.init()
        x = ScalarRef(0)
        fti.protect(0, x)
        start = 0
        if fti.status():
            start = (yield from fti.recover()) + 1
        for i in range(start, 5):
            yield from mpi.iteration(i)
            x.value = i
            yield from mpi.allreduce(1.0, op=ops.SUM)
        return x.value

    runtime = Runtime(cluster, 4, resilient_main, fault_plan=plan)
    reinit.install(runtime)
    results = runtime.run()
    assert all(v == 4 for v in results.values())
    assert runtime.stats["reinit_rollbacks"] == 1


def test_straggler_delays_restart_point_but_not_recovery_cost():
    """A rank deep in compute delays when the restart wave completes,
    but the *recovery* episode itself stays short — the waiting is
    application time, as in the paper's accounting."""
    cluster = Cluster(nnodes=4)
    reinit = ReinitRecovery(cluster)
    plan = FaultPlan(events=(FaultEvent(rank=0, iteration=0),))

    def main(mpi):
        if mpi.is_restarted:
            yield from mpi.barrier()
            return "restarted"
        yield from mpi.iteration(0)
        # rank 3 computes far past the failure
        yield from mpi.compute(seconds=5.0 if mpi.rank == 3 else 0.01)
        yield from mpi.barrier()
        return "finished"

    runtime = Runtime(cluster, 4, main, fault_plan=plan)
    reinit.install(runtime)
    results = runtime.run()
    assert set(results.values()) == {"restarted"}
    assert len(reinit.episodes) == 1
    assert reinit.episodes[0] < 1.5  # short, scale-independent
    assert runtime.makespan() > 5.0  # the straggler's time still elapsed
