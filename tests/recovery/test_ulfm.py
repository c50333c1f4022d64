"""ULFM recovery protocol: survivor repair, replacement join, scaling."""

import numpy as np
import pytest

from repro.cluster import Cluster
from repro.faults import FaultEvent, FaultPlan
from repro.fti import CheckpointRegistry, Fti, FtiConfig, ScalarRef
from repro.recovery import RECOVERY_TRIGGERS, UlfmRecovery
from repro.simmpi import ErrHandler, Runtime, ops


def ulfm_job(nprocs=8, kill_rank=3, kill_iter=8, niters=12, stride=3):
    cluster = Cluster(nnodes=4)
    registry = CheckpointRegistry()
    ulfm = UlfmRecovery()
    plan = FaultPlan(events=(FaultEvent(rank=kill_rank,
                                        iteration=kill_iter),))

    def entry(mpi):
        if mpi.is_respawned:
            yield from ulfm.replacement_join(mpi)
        while True:
            try:
                fti = Fti(mpi, cluster, registry, FtiConfig(ckpt_stride=stride))
                yield from fti.init()
                it = ScalarRef(0)
                x = np.zeros(16)
                fti.protect(0, it)
                fti.protect(1, x)
                start = 0
                if fti.status():
                    start = (yield from fti.recover()) + 1
                for i in range(start, niters):
                    yield from mpi.iteration(i)
                    it.value = i
                    x += 1.0
                    yield from mpi.allreduce(float(x[0]), op=ops.SUM)
                    if fti.checkpoint_due(i):
                        yield from fti.checkpoint(i)
                return ("done", mpi.rank, it.value)
            except RECOVERY_TRIGGERS:
                yield from ulfm.survivor_repair(mpi)

    runtime = Runtime(cluster, nprocs, entry, fault_plan=plan,
                      errhandler=ErrHandler.RETURN, overhead=ulfm.overhead)
    results = runtime.run()
    return results, runtime, ulfm


def test_all_ranks_complete_after_repair():
    results, runtime, ulfm = ulfm_job()
    assert len(results) == 8
    assert all(r[0] == "done" and r[2] == 11 for r in results.values())
    assert runtime.stats["spawns"] == 1


def test_recovery_episode_counts_every_participant():
    results, runtime, ulfm = ulfm_job()
    # 7 survivors + 1 replacement each record their repair interval
    assert len(ulfm.intervals) == 8
    assert sum(is_replacement for _, _, is_replacement in ulfm.intervals) == 1
    assert all(end - start > 0 for start, end, _ in ulfm.intervals)
    # ... which cluster into one episode of the one failure
    assert len(ulfm.take_episodes()) == 1
    assert ulfm.intervals == []


def test_world_communicator_repaired_to_full_size():
    results, runtime, _ = ulfm_job()
    assert runtime.world.size == 8
    assert runtime.world.name == "world.repaired"


def test_any_victim_rank_recovers():
    for victim in (0, 7):
        results, runtime, _ = ulfm_job(kill_rank=victim)
        assert len(results) == 8
        assert all(r[0] == "done" for r in results.values())


def test_failure_before_first_checkpoint():
    results, runtime, _ = ulfm_job(kill_iter=1, niters=8, stride=100)
    assert all(r[0] == "done" and r[2] == 7 for r in results.values())


def test_repair_cost_grows_with_scale():
    """Fig. 7: ULFM recovery time increases with the process count."""
    small = ulfm_job(nprocs=4, kill_rank=1)[2]
    large = ulfm_job(nprocs=16, kill_rank=1)[2]
    def longest_repair(ulfm):
        return max(end - start for start, end, _ in ulfm.intervals)

    assert longest_repair(large) > longest_repair(small)


def test_overhead_model_attached():
    ulfm = UlfmRecovery()
    assert ulfm.overhead.compute_factor(64) > 1.0
    assert ulfm.errhandler is ErrHandler.RETURN
