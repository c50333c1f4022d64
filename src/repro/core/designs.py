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
    RecoveryStrategy,
    ReinitRecovery,
    RestartRecovery,
    UlfmRecovery,
)
from ..registry import Registry
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
#: ``@DESIGNS.register("my-design")`` on a DesignBase subclass giving
#: ``name`` and ``make_recovery``.
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
    """FTI plus one recovery strategy: the skeleton every design shares.

    A design supplies ``name`` and :meth:`make_recovery`; :meth:`run_job`
    builds every Runtime from the strategy's hooks (see
    :class:`~repro.recovery.base.RecoveryStrategy`)."""

    name = "base"

    def __init__(self, cluster: Cluster):
        self.cluster = cluster
        self.recovery = self.make_recovery(cluster)

    # -- hooks --------------------------------------------------------------
    def make_recovery(self, cluster: Cluster) -> RecoveryStrategy:
        raise NotImplementedError

    def entry(self, app, registry, fti_config, fti_stats):
        """The per-rank main: FTI around the shared body, then verify.
        FTI_Init/Finalize live inside it, so a restarted rank re-enters
        them (§IV-B)."""
        cluster = self.cluster

        def entry(mpi):
            fti = Fti(mpi, cluster, registry, fti_config,
                      stats=fti_stats[mpi.rank])
            state = yield from _resilient_body(mpi, app, fti)
            return {"verified": app.verify(state), "rank": mpi.rank}

        return entry

    # -- driver -----------------------------------------------------------------
    def run_job(self, app: ProxyApp, fti_config, fault_plan: FaultPlan,
                label: str = "") -> RunResult:
        """Execute the job to completion, surviving injected failures."""
        registry = CheckpointRegistry()
        fti_stats = [FtiStats() for _ in range(app.nprocs)]
        recovery = self.recovery
        entry = self.entry(app, registry, fti_config, fti_stats)
        total = 0.0
        relaunches = 0
        results = None
        hook = fault_plan.phase_hook
        while True:
            # timed events are scoped to a job incarnation
            fault_plan.epoch = relaunches
            if hook is not None:
                hook.epoch(relaunches)
            runtime = Runtime(self.cluster, app.nprocs, entry,
                              fault_plan=fault_plan,
                              errhandler=recovery.errhandler,
                              overhead=recovery.overhead)
            recovery.install(runtime)
            try:
                results = runtime.run()
                total += runtime.makespan()
                break
            except JobAbortedError:
                redeploy = recovery.on_abort(app.nprocs)
                if redeploy is None:
                    raise
                total += runtime.abort_time
                if hook is not None:
                    hook.span(-1, "restart.redeploy", total, total + redeploy)
                total += redeploy
                relaunches += 1
                if relaunches > MAX_RELAUNCHES:
                    raise ConfigurationError(
                        "job for %s keeps dying after %d relaunches"
                        % (label, relaunches))
        episodes = recovery.take_episodes()
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

    def make_recovery(self, cluster: Cluster) -> RecoveryStrategy:
        return RestartRecovery(cluster)


@DESIGNS.register("reinit-fti")
class ReinitFti(DesignBase):
    """REINIT-FTI: FTI checkpointing + Reinit global restart (Figure 2)."""

    name = "reinit-fti"

    def make_recovery(self, cluster: Cluster) -> RecoveryStrategy:
        return ReinitRecovery(cluster)


@DESIGNS.register("ulfm-fti")
class UlfmFti(DesignBase):
    """ULFM-FTI: FTI checkpointing + ULFM non-shrinking recovery (Fig. 3)."""

    name = "ulfm-fti"

    def make_recovery(self, cluster: Cluster) -> RecoveryStrategy:
        return UlfmRecovery()

    def entry(self, app, registry, fti_config, fti_stats):
        body = super().entry(app, registry, fti_config, fti_stats)
        ulfm = self.recovery

        def entry(mpi):
            if mpi.is_respawned:
                yield from ulfm.replacement_join(mpi)
            while True:  # setjmp point (Figure 3, line 12)
                try:
                    return (yield from body(mpi))
                except RECOVERY_TRIGGERS:
                    yield from ulfm.survivor_repair(mpi)
                    # longjmp back to the setjmp point

        return entry
