"""ULFM global non-shrinking recovery (ULFM-FTI), the paper's Figure 3.

The per-rank protocol, executed at application level by every survivor
when a failure surfaces as an exception:

1. ``MPIX_Comm_revoke(world)`` — interrupt all pending communication;
2. ``MPIX_Comm_shrink(world)`` — survivors agree on a failure-free comm;
3. ``MPI_Comm_spawn`` — replace every failed process;
4. ``MPI_Intercomm_merge`` — splice replacements back in, world order;
5. ``MPIX_Comm_agree`` — all ranks agree recovery succeeded.

A freshly spawned replacement joins at step 4 (through the parent
intercomm) and participates in step 5. The repaired communicator is then
swapped in as the world — the paper's ``worldc[worldi]`` global swap —
so FTI immediately uses it.

Every step is a collective whose cost grows with the process count,
which is the mechanistic reason ULFM recovery does not scale (Fig. 7).
"""

from __future__ import annotations

from .base import RecoveryStrategy, overlap_clusters
from ..errors import CommRevokedError, MPIError, ProcessFailedError
from ..simmpi.errhandler import ErrHandler
from ..simmpi.overhead import UlfmOverheadModel

#: exception types that route a rank into the recovery protocol
RECOVERY_TRIGGERS = (ProcessFailedError, CommRevokedError)


class UlfmRecovery(RecoveryStrategy):
    """Application-level revoke/shrink/spawn/merge/agree recovery."""

    name = "ulfm"
    errhandler = ErrHandler.RETURN

    def __init__(self, overhead: UlfmOverheadModel | None = None):
        # episodes are derived from the intervals, so no episode list
        self.overhead = overhead or UlfmOverheadModel()
        #: (start, end, is_replacement) per participating rank; used to
        #: compute the episode's critical-path protocol time
        self.intervals: list = []

    def episode_list(self) -> list:
        """Per-failure recovery durations, from the recorded intervals.

        Intervals are clustered into episodes by overlap (two repair
        waves never overlap in time: the job only resumes once a repair
        completes). Each episode's duration runs from the moment its
        *last survivor* enters repair until its last rank finishes.

        Survivors that detect the failure early (e.g. the victim's halo
        neighbours) spend extra time *waiting* inside the shrink
        rendezvous for peers still computing; that wait is interrupted
        application work, not recovery — excluding it reproduces the
        paper's observation that recovery time is input-size independent
        (Fig. 10).
        """
        durations = []
        for cluster in overlap_clusters(sorted(self.intervals),
                                        lambda iv: (iv[0], iv[1])):
            survivor_starts = [s for s, _, is_replacement in cluster
                               if not is_replacement]
            starts = survivor_starts or [s for s, _, _ in cluster]
            end = max(e for _, e, _ in cluster)
            durations.append(end - max(starts))
        return durations

    def take_episodes(self) -> list:
        episodes = self.episode_list()
        self.intervals = []
        return episodes

    # -- per-rank protocol -------------------------------------------------
    def survivor_repair(self, mpi):
        """Steps 1-5 for a survivor; returns the repaired world comm."""
        t0 = mpi.now()
        world = mpi.world
        mpi.phase_enter("ulfm.revoke")
        if not world.revoked:
            yield from mpi.comm_revoke(world)
        mpi.phase_exit("ulfm.revoke")
        mpi.phase_enter("ulfm.shrink")
        shrunk = yield from mpi.comm_shrink(world)
        mpi.phase_exit("ulfm.shrink")
        mpi.phase_enter("ulfm.spawn")
        yield from mpi.comm_spawn(shrunk)
        mpi.phase_exit("ulfm.spawn")
        mpi.phase_enter("ulfm.merge")
        merged = yield from mpi.intercomm_merge(shrunk)
        mpi.phase_exit("ulfm.merge")
        mpi.phase_enter("ulfm.agree")
        agreed = yield from mpi.comm_agree(merged, 1)
        mpi.phase_exit("ulfm.agree")
        if not agreed:
            raise MPIError("ULFM agreement failed after repair")
        mpi.set_world(merged)
        self.intervals.append((t0, mpi.now(), False))
        return merged

    def shrinking_repair(self, mpi):
        """ULFM *shrinking* recovery: continue with the survivors only.

        The paper evaluates non-shrinking recovery (it fits BSP apps) and
        names shrinking recovery as the natural extension (§V-E). Steps:
        revoke, shrink, agree — no spawn/merge, so it is cheaper, but the
        application must redistribute the dead ranks' work itself.
        Returns the shrunk communicator, installed as the new world.
        """
        t0 = mpi.now()
        world = mpi.world
        if not world.revoked:
            yield from mpi.comm_revoke(world)
        shrunk = yield from mpi.comm_shrink(world)
        agreed = yield from mpi.comm_agree(shrunk, 1)
        if not agreed:
            raise MPIError("ULFM agreement failed after shrink")
        mpi.set_world(shrunk)
        self.intervals.append((t0, mpi.now(), False))
        return shrunk

    def replacement_join(self, mpi):
        """Steps 4-5 for a freshly spawned replacement process."""
        t0 = mpi.now()
        mpi.phase_enter("ulfm.merge")
        merged = yield from mpi.intercomm_merge(None)
        mpi.phase_exit("ulfm.merge")
        mpi.phase_enter("ulfm.agree")
        agreed = yield from mpi.comm_agree(merged, 1)
        mpi.phase_exit("ulfm.agree")
        if not agreed:
            raise MPIError("ULFM agreement failed after respawn")
        mpi.set_world(merged)
        self.intervals.append((t0, mpi.now(), True))
        return merged
