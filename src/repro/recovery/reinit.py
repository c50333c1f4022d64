"""Reinit recovery: runtime-level global restart (REINIT-FTI).

Reinit (Georgakoudis et al., ISC 2020) repairs MPI state *inside the
runtime*: when a failure is detected, every surviving process is rolled
back to the registered restart point (``resilient_main``), the failed
process is re-forked by the local daemon, and the world communicator is
rebuilt — no job teardown, no application-level protocol. Its cost is a
small constant (daemon-local respawn plus a log-depth runtime barrier),
which is exactly why the paper finds it independent of both scaling size
and input size (Figs. 7, 10).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .base import RecoveryStrategy
from ..cluster.machine import Cluster


@dataclass(frozen=True)
class ReinitSpec:
    """Cost parameters of the in-runtime global-restart protocol."""

    #: local daemon re-forks the failed process
    respawn_seconds: float = 0.7
    #: runtime-internal barrier/reset wave across daemons (per tree level)
    reset_per_level: float = 0.018

    def cost(self, nnodes: int) -> float:
        levels = math.ceil(math.log2(max(2, nnodes)))
        return self.respawn_seconds + levels * self.reset_per_level


class ReinitRecovery(RecoveryStrategy):
    """Installs an ``on_global_failure`` hook on the runtime."""

    name = "reinit"

    def __init__(self, cluster: Cluster, spec: ReinitSpec | None = None):
        super().__init__()
        self.cluster = cluster
        self.spec = spec or ReinitSpec()

    def recovery_time(self) -> float:
        return self.spec.cost(self.cluster.nnodes)

    def install(self, runtime) -> None:
        """Attach this strategy to a runtime as its global-failure hook."""
        runtime.on_global_failure = self.on_global_failure

    def on_global_failure(self, runtime, when: float, failed_ranks) -> None:
        """The OMPI_Reinit reaction: roll every rank back to the restart
        point at ``detection time + protocol cost``."""
        cost = self.recovery_time()
        # survivors that were still computing are interrupted at their next
        # MPI call; the restart wave completes after the slowest of them
        restart_at = max(when, runtime.clock.global_now()) + cost
        self.episodes.append(restart_at - when)
        hook = runtime.phase_hook
        if hook is not None:
            hook.span(-1, "reinit.rollback", when, restart_at)
        runtime.global_restart(restart_at)
