"""The three fault-tolerance designs, end to end on a small job."""

import pytest

from repro.apps import APP_REGISTRY
from repro.cluster import Cluster
from repro.core.configs import ExperimentConfig
from repro.core.designs import (
    DESIGNS,
    DesignBase,
    ReinitFti,
    RestartFti,
    UlfmFti,
)
from repro.core.engine import RunUnit, execute_unit
from repro.errors import JobAbortedError
from repro.faults import FaultEvent, FaultPlan
from repro.fti import FtiConfig
from repro.recovery import RecoveryStrategy

NPROCS = 8
FTI = FtiConfig(ckpt_stride=3)


def make_app(name="hpccg", niters=12):
    app = APP_REGISTRY[name].from_input(NPROCS, "small")
    app.niters = niters
    return app


@pytest.fixture(params=sorted(DESIGNS))
def design_name(request):
    return request.param


def test_registry_names_match_classes():
    assert DESIGNS["restart-fti"] is RestartFti
    assert DESIGNS["reinit-fti"] is ReinitFti
    assert DESIGNS["ulfm-fti"] is UlfmFti
    for name, cls in DESIGNS.items():
        assert cls.name == name


def test_no_failure_run_has_no_recovery(design_name):
    design = DESIGNS[design_name](Cluster(nnodes=4))
    result = design.run_job(make_app(), FTI, FaultPlan.none(), label="t")
    assert result.verified
    assert result.recovery_episodes == 0
    assert result.breakdown.recovery_seconds == 0.0
    assert result.ckpt_count > 0


def test_failure_run_recovers_and_verifies(design_name):
    design = DESIGNS[design_name](Cluster(nnodes=4))
    plan = FaultPlan(events=(FaultEvent(rank=3, iteration=7),))
    result = design.run_job(make_app(), FTI, plan, label="t")
    assert result.verified
    assert result.recovery_episodes == 1
    assert result.breakdown.recovery_seconds > 0
    assert result.fault_events == (FaultEvent(3, 7),)


def test_failure_costs_more_than_no_failure(design_name):
    cluster_a, cluster_b = Cluster(nnodes=4), Cluster(nnodes=4)
    clean = DESIGNS[design_name](cluster_a).run_job(
        make_app(), FTI, FaultPlan.none(), label="clean")
    faulty = DESIGNS[design_name](cluster_b).run_job(
        make_app(), FTI, FaultPlan(events=(FaultEvent(2, 7),)),
        label="faulty")
    assert (faulty.breakdown.total_seconds
            > clean.breakdown.total_seconds)


def test_restart_counts_relaunches():
    design = RestartFti(Cluster(nnodes=4))
    plan = FaultPlan(events=(FaultEvent(rank=1, iteration=5),))
    result = design.run_job(make_app(), FTI, plan, label="t")
    assert result.relaunches == 1
    assert design.cluster.launcher.launch_count == 1


def test_reinit_uses_runtime_rollback():
    design = ReinitFti(Cluster(nnodes=4))
    plan = FaultPlan(events=(FaultEvent(rank=1, iteration=5),))
    result = design.run_job(make_app(), FTI, plan, label="t")
    assert result.relaunches == 0
    assert result.details["runtime_stats"]["reinit_rollbacks"] == 1


def test_ulfm_spawns_replacement():
    design = UlfmFti(Cluster(nnodes=4))
    plan = FaultPlan(events=(FaultEvent(rank=1, iteration=5),))
    result = design.run_job(make_app(), FTI, plan, label="t")
    assert result.details["runtime_stats"]["spawns"] == 1


def test_recovery_order_reinit_fastest_restart_slowest():
    """The paper's headline finding at a miniature scale."""
    recovery = {}
    for name in DESIGNS:
        design = DESIGNS[name](Cluster(nnodes=4))
        plan = FaultPlan(events=(FaultEvent(rank=1, iteration=7),))
        result = design.run_job(make_app(), FTI, plan, label=name)
        recovery[name] = result.breakdown.recovery_seconds
    assert recovery["reinit-fti"] < recovery["ulfm-fti"]
    assert recovery["ulfm-fti"] < recovery["restart-fti"]


def test_ulfm_inflates_application_time():
    clean_restart = RestartFti(Cluster(nnodes=4)).run_job(
        make_app(), FTI, FaultPlan.none(), label="r")
    clean_ulfm = UlfmFti(Cluster(nnodes=4)).run_job(
        make_app(), FTI, FaultPlan.none(), label="u")
    assert (clean_ulfm.breakdown.application_seconds
            > clean_restart.breakdown.application_seconds)


def test_reinit_matches_restart_without_failures():
    """Fig. 5: REINIT-FTI and RESTART-FTI are nearly identical when no
    failure happens (Reinit is free until needed)."""
    a = RestartFti(Cluster(nnodes=4)).run_job(
        make_app(), FTI, FaultPlan.none(), label="r")
    b = ReinitFti(Cluster(nnodes=4)).run_job(
        make_app(), FTI, FaultPlan.none(), label="ri")
    assert b.breakdown.total_seconds == pytest.approx(
        a.breakdown.total_seconds, rel=0.01)


@pytest.mark.parametrize("app_name", sorted(APP_REGISTRY))
def test_every_app_survives_failure_under_every_design(app_name):
    for design_name in DESIGNS:
        design = DESIGNS[design_name](Cluster(nnodes=4))
        plan = FaultPlan(events=(FaultEvent(rank=2, iteration=5),))
        result = design.run_job(make_app(app_name, niters=9),
                                FtiConfig(ckpt_stride=3), plan,
                                label="%s/%s" % (app_name, design_name))
        assert result.verified, "%s under %s" % (app_name, design_name)


def test_failure_before_any_checkpoint_still_recovers(design_name):
    design = DESIGNS[design_name](Cluster(nnodes=4))
    plan = FaultPlan(events=(FaultEvent(rank=0, iteration=1),))
    result = design.run_job(make_app(niters=8),
                            FtiConfig(ckpt_stride=100), plan, label="t")
    assert result.verified
    assert result.recovery_episodes == 1


# -- the extension point: a design is FTI plus one recovery strategy ----------
class FatalOnly(RecoveryStrategy):
    """Every hook left at its default: an abort is fatal."""

    name = "fatal-only"


class FlatRedeploy(RecoveryStrategy):
    """Redeploys an aborted job after a flat five seconds."""

    name = "flat-redeploy"

    def on_abort(self, nprocs):
        self.episodes.append(5.0)
        return 5.0


@pytest.fixture
def custom_designs():
    class FtiOnly(DesignBase):
        name = "test-fti-only"

        def make_recovery(self, cluster):
            return FatalOnly()

    class FtiFlatRedeploy(DesignBase):
        name = "test-fti-flat"

        def make_recovery(self, cluster):
            return FlatRedeploy()

    for cls in (FtiOnly, FtiFlatRedeploy):
        DESIGNS.add(cls.name, cls)
    try:
        yield
    finally:
        for cls in (FtiOnly, FtiFlatRedeploy):
            DESIGNS.unregister(cls.name)


def custom_unit(design, faults):
    return RunUnit(ExperimentConfig(app="hpccg", design=design, nprocs=8,
                                    nnodes=4, faults=faults), 0)


def test_custom_design_runs_verified_through_execute_unit(custom_designs):
    result = execute_unit(custom_unit("test-fti-only", "none"))
    assert result.verified
    assert result.recovery_episodes == 0
    assert result.ckpt_count > 0
    # the skeleton alone prices a clean run like Restart's, whose
    # strategy differs only in what an abort does
    restart = execute_unit(custom_unit("restart-fti", "none"))
    assert result.breakdown == restart.breakdown


def test_custom_strategy_on_abort_redeploys(custom_designs):
    result = execute_unit(custom_unit("test-fti-flat", "single"))
    assert result.verified
    assert result.relaunches == 1
    assert result.recovery_episodes == 1
    assert result.breakdown.recovery_seconds == 5.0


def test_default_on_abort_lets_the_abort_propagate(custom_designs):
    with pytest.raises(JobAbortedError):
        execute_unit(custom_unit("test-fti-only", "single"))
