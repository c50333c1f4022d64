"""Plain Restart recovery: the baseline design (RESTART-FTI).

On a process failure the default FATAL error handler aborts the job; the
batch system then redeploys the whole thing with ``mpirun`` and the
application resumes from its last FTI checkpoint. The recovery cost is
the launcher's full redeployment time — which is why the paper finds
Restart ~16x slower to recover than Reinit (§V-C).
"""

from __future__ import annotations

from .base import RecoveryStrategy
from ..cluster.machine import Cluster


class RestartRecovery(RecoveryStrategy):
    """Job teardown + full redeployment."""

    name = "restart"

    def __init__(self, cluster: Cluster):
        super().__init__()
        self.cluster = cluster

    def redeploy_time(self, nprocs: int) -> float:
        """Seconds to relaunch the job after an abort."""
        return self.cluster.launcher.launch_time(nprocs, self.cluster.nnodes)

    def on_abort(self, nprocs: int) -> float:
        """Record one restart episode; returns its duration."""
        duration = self.redeploy_time(nprocs)
        self.cluster.launcher.record_launch()
        self.episodes.append(duration)
        return duration
