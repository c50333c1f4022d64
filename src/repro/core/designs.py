"""The three fault-tolerance designs the paper evaluates (§IV).

Each design composes a proxy application with FTI checkpointing and one
MPI recovery framework, mirroring the paper's code structure:

* :class:`RestartFti` — Figure 1: FATAL error handler; on failure the job
  aborts and the launcher redeploys it; FTI restores state.
* :class:`ReinitFti`  — Figure 2: ``OMPI_Reinit(resilient_main)``; the
  runtime rolls every rank back to the restart point on failure.
* :class:`UlfmFti`    — Figure 3: errors returned to the application;
  survivors run revoke/shrink/spawn/merge/agree, then longjmp back to the
  setjmp point (the re-entered main body), recover from FTI and resume.
"""

from __future__ import annotations

from ..apps.base import AppState, ProxyApp
from ..cluster.machine import Cluster
from ..core.breakdown import RunResult, TimeBreakdown
from ..errors import ConfigurationError, JobAbortedError
from ..faults.plans import FaultPlan
from ..fti.api import Fti, FtiStats
from ..fti.metadata import CheckpointRegistry
from ..recovery import (
    RECOVERY_TRIGGERS,
    ReinitRecovery,
    RestartRecovery,
    UlfmRecovery,
)
from ..registry import Registry
from ..simmpi.errhandler import ErrHandler
from ..simmpi.runtime import Runtime

#: safety valve against pathological restart loops
MAX_RELAUNCHES = 8


def _check_design(name, cls):
    if not callable(getattr(cls, "run_job", None)):
        raise ConfigurationError(
            "design %r must provide run_job(app, fti_config, fault_plan, "
            "label=...)" % name)


#: the ``design`` registry: name -> DesignBase subclass. A custom
#: recovery design registers itself the same way the built-ins do:
#: ``@DESIGNS.register("my-design")`` on a class taking a Cluster.
DESIGNS = Registry("design", validate=_check_design)


def _resilient_body(mpi, app: ProxyApp, fti: Fti):
    """The shared main body (Figure 1's loop): init-or-recover, iterate,
    checkpoint every stride. Returns the final AppState."""
    yield from fti.init()
    state = yield from app.make_state(mpi)
    state.protect_with(fti)
    fti.set_nominal_bytes(state.nominal_ckpt_bytes)
    start = 0
    if fti.status() != 0:
        start = (yield from fti.recover()) + 1
        app.rebind(state)
    for i in range(start, app.niters):
        yield from mpi.iteration(i)
        state.iteration.value = i
        yield from app.iterate(mpi, state, i)
        if fti.checkpoint_due(i):
            yield from fti.checkpoint(i)
    yield from fti.finalize()
    return state


class DesignBase:
    """Shared run bookkeeping for the three designs."""

    name = "base"

    def __init__(self, cluster: Cluster):
        self.cluster = cluster

    # -- hooks --------------------------------------------------------------
    def build_runtime(self, app, registry, fti_config, fault_plan,
                      fti_stats) -> Runtime:
        raise NotImplementedError

    def recovery_seconds_per_episode(self) -> list:
        """Per-episode recovery durations recorded during the last run."""
        raise NotImplementedError

    # -- driver -----------------------------------------------------------------
    def run_job(self, app: ProxyApp, fti_config, fault_plan: FaultPlan,
                label: str = "") -> RunResult:
        """Execute the job to completion, surviving injected failures."""
        registry = CheckpointRegistry()
        fti_stats = [FtiStats() for _ in range(app.nprocs)]
        total = 0.0
        relaunches = 0
        results = None
        hook = fault_plan.phase_hook
        while True:
            # timed events are scoped to a job incarnation
            fault_plan.epoch = relaunches
            if hook is not None:
                hook.epoch(relaunches)
            runtime = self.build_runtime(app, registry, fti_config,
                                         fault_plan, fti_stats)
            try:
                results = runtime.run()
                total += runtime.makespan()
                break
            except JobAbortedError:
                if not isinstance(self, RestartFti):
                    raise
                total += runtime.abort_time
                redeploy = self.restart.on_abort(app.nprocs)
                if hook is not None:
                    hook.span(-1, "restart.redeploy", total, total + redeploy)
                total += redeploy
                relaunches += 1
                if relaunches > MAX_RELAUNCHES:
                    raise ConfigurationError(
                        "job for %s keeps dying after %d relaunches"
                        % (label, relaunches))
        episodes = self.recovery_seconds_per_episode()
        ckpt_write = sum(s.ckpt_seconds for s in fti_stats) / len(fti_stats)
        ckpt_read = sum(s.recover_seconds for s in fti_stats) / len(fti_stats)
        breakdown = TimeBreakdown(
            total_seconds=total,
            ckpt_write_seconds=ckpt_write,
            recovery_seconds=sum(episodes),
            ckpt_read_seconds=ckpt_read,
        )
        verified = bool(results) and all(
            r["verified"] for r in results.values())
        return RunResult(
            config_label=label,
            breakdown=breakdown,
            verified=verified,
            ckpt_count=max((s.ckpt_count for s in fti_stats), default=0),
            recovery_episodes=len(episodes),
            relaunches=relaunches,
            fault_events=tuple(fault_plan.events),
            details={"runtime_stats": dict(runtime.stats)},
        )


@DESIGNS.register("restart-fti")
class RestartFti(DesignBase):
    """RESTART-FTI: FTI checkpointing + full job restart (Figure 1)."""

    name = "restart-fti"

    def __init__(self, cluster: Cluster):
        super().__init__(cluster)
        self.restart = RestartRecovery(cluster)

    def build_runtime(self, app, registry, fti_config, fault_plan,
                      fti_stats) -> Runtime:
        cluster = self.cluster

        def entry(mpi):
            fti = Fti(mpi, cluster, registry, fti_config,
                      stats=fti_stats[mpi.rank])
            state = yield from _resilient_body(mpi, app, fti)
            return {"verified": app.verify(state), "rank": mpi.rank}

        return Runtime(cluster, app.nprocs, entry, fault_plan=fault_plan,
                       errhandler=ErrHandler.FATAL)

    def recovery_seconds_per_episode(self) -> list:
        episodes = list(self.restart.stats.durations)
        self.restart.reset_stats()
        return episodes


@DESIGNS.register("reinit-fti")
class ReinitFti(DesignBase):
    """REINIT-FTI: FTI checkpointing + Reinit global restart (Figure 2)."""

    name = "reinit-fti"

    def __init__(self, cluster: Cluster):
        super().__init__(cluster)
        self.reinit = ReinitRecovery(cluster)

    def build_runtime(self, app, registry, fti_config, fault_plan,
                      fti_stats) -> Runtime:
        cluster = self.cluster

        def resilient_main(mpi):
            # FTI_Init/Finalize live inside resilient_main (§IV-B)
            fti = Fti(mpi, cluster, registry, fti_config,
                      stats=fti_stats[mpi.rank])
            state = yield from _resilient_body(mpi, app, fti)
            return {"verified": app.verify(state), "rank": mpi.rank}

        runtime = Runtime(cluster, app.nprocs, resilient_main,
                          fault_plan=fault_plan, errhandler=ErrHandler.FATAL)
        self.reinit.install(runtime)
        return runtime

    def recovery_seconds_per_episode(self) -> list:
        episodes = list(self.reinit.stats.durations)
        self.reinit.reset_stats()
        return episodes


@DESIGNS.register("ulfm-fti")
class UlfmFti(DesignBase):
    """ULFM-FTI: FTI checkpointing + ULFM non-shrinking recovery (Fig. 3)."""

    name = "ulfm-fti"

    def __init__(self, cluster: Cluster):
        super().__init__(cluster)
        self.ulfm = UlfmRecovery()

    def build_runtime(self, app, registry, fti_config, fault_plan,
                      fti_stats) -> Runtime:
        cluster = self.cluster
        ulfm = self.ulfm

        def entry(mpi):
            if mpi.is_respawned:
                yield from ulfm.replacement_join(mpi)
            while True:  # setjmp point (Figure 3, line 12)
                try:
                    fti = Fti(mpi, cluster, registry, fti_config,
                              stats=fti_stats[mpi.rank])
                    state = yield from _resilient_body(mpi, app, fti)
                    return {"verified": app.verify(state), "rank": mpi.rank}
                except RECOVERY_TRIGGERS:
                    yield from ulfm.survivor_repair(mpi)
                    # longjmp back to the setjmp point

        return Runtime(cluster, app.nprocs, entry, fault_plan=fault_plan,
                       errhandler=ErrHandler.RETURN,
                       overhead=ulfm.overhead)

    def recovery_seconds_per_episode(self) -> list:
        """One episode per failure: the protocol's critical-path time
        after the last survivor enters repair (see
        :meth:`UlfmRecovery.episode_list`)."""
        episodes = self.ulfm.episode_list()
        self.ulfm.reset_stats()
        self.ulfm.clear_intervals()
        return episodes
