"""Analytic cost models: registry wiring and pricing through the
simulator's own mechanism functions (exact ``==``, never tolerances)."""

import math

import pytest

from repro.cluster.launcher import JobLauncher
from repro.cluster.machine import Cluster
from repro.cluster.network import Network
from repro.errors import ConfigurationError
from repro.fti.config import FtiConfig
from repro.modeling.costs import (
    MODELS,
    AnalyticCostModel,
    CostParams,
    ranks_per_node,
    resolve_model,
)
from repro.recovery.reinit import ReinitSpec
from repro.registry import registry
from repro.workmodel.model import WorkModel


@pytest.fixture
def model():
    return AnalyticCostModel()


def _hpccg(nprocs=64):
    from repro.apps import APP_REGISTRY

    return APP_REGISTRY["hpccg"].from_input(nprocs, "small")


# -- registry ---------------------------------------------------------------
def test_analytic_model_is_registered():
    assert "analytic" in MODELS
    assert isinstance(MODELS.resolve("analytic"), AnalyticCostModel)


def test_model_registry_reachable_through_registry_accessor():
    assert registry("model") is MODELS


def test_resolve_model_accepts_name_and_object(model):
    assert resolve_model("analytic") is MODELS["analytic"]
    assert resolve_model(model) is model


def test_resolve_model_rejects_protocol_violations():
    class Partial:
        def iteration_seconds(self, app, design, nprocs, nnodes):
            return 1.0

    with pytest.raises(ConfigurationError):
        resolve_model(Partial())


def test_registering_incomplete_model_fails_at_registration():
    class Broken:
        pass

    with pytest.raises(ConfigurationError):
        MODELS.add("broken", Broken)
    assert "broken" not in MODELS


def test_custom_model_plugs_in():
    class Pessimistic(AnalyticCostModel):
        def recovery_seconds(self, design, nprocs, nnodes):
            return 2.0 * super().recovery_seconds(design, nprocs, nnodes)

    MODELS.add("pessimistic-test", Pessimistic)
    try:
        base = MODELS["analytic"].recovery_seconds("reinit-fti", 64, 32)
        doubled = MODELS["pessimistic-test"].recovery_seconds(
            "reinit-fti", 64, 32)
        assert doubled == pytest.approx(2.0 * base)
    finally:
        MODELS.unregister("pessimistic-test")


# -- pricing through the mechanism ------------------------------------------
def test_restart_recovery_equals_launcher_redeploy(model):
    """The model calls the launcher; it has no phase arithmetic of its
    own that could drift."""
    for nprocs in (8, 64, 128, 256, 512):
        assert model.recovery_seconds("restart-fti", nprocs, 32) \
            == JobLauncher().launch_time(nprocs, 32)


def test_reinit_recovery_equals_reinit_spec(model):
    assert model.recovery_seconds("reinit-fti", 64, 32) \
        == ReinitSpec().cost(32)
    # scale-independent: the paper's flat Reinit curve (Fig. 7)
    assert model.recovery_seconds("reinit-fti", 512, 32) \
        == model.recovery_seconds("reinit-fti", 64, 32)


def test_ulfm_recovery_is_the_schedulers_step_costs_composed(model):
    """Survivor critical path = the five step costs the scheduler
    charges (one replacement), summed in protocol order."""
    from repro.simmpi.runtime import Runtime

    ulfm = Runtime.ULFM
    for nprocs in (8, 64, 512):
        assert model.recovery_seconds("ulfm-fti", nprocs, 32) == (
            ulfm.revoke_seconds(nprocs) + ulfm.shrink_seconds(nprocs)
            + ulfm.spawn_seconds(1, nprocs) + ulfm.merge_seconds(nprocs)
            + ulfm.agree_seconds(nprocs))


def test_ulfm_recovery_grows_with_scale(model):
    times = [model.recovery_seconds("ulfm-fti", p, 32)
             for p in (64, 128, 256, 512)]
    assert times == sorted(times)
    assert times[-1] > times[0]


def test_recovery_ordering_matches_fig7(model):
    """Fig. 7's ordering at 64 ranks: Reinit << ULFM < Restart."""
    reinit = model.recovery_seconds("reinit-fti", 64, 32)
    ulfm = model.recovery_seconds("ulfm-fti", 64, 32)
    restart = model.recovery_seconds("restart-fti", 64, 32)
    assert reinit < ulfm < restart
    assert restart / reinit > 10.0


def test_unknown_design_raises_actionably(model):
    with pytest.raises(ConfigurationError, match="custom cost model"):
        model.recovery_seconds("my-design", 64, 32)


def test_iteration_seconds_matches_work_model(model):
    """The model charges exactly what the simulator's roofline charges."""
    app = _hpccg()
    flops, bytes_moved = app.work_per_iter()
    expected = WorkModel().seconds(flops=flops, bytes_moved=bytes_moved,
                                   ranks_per_node=2)  # 64 ranks / 32 nodes
    assert model.iteration_seconds(app, "reinit-fti", 64, 32) \
        == pytest.approx(expected)


def test_ulfm_compute_tax_applies_to_iterations(model):
    app = _hpccg()
    plain = model.iteration_seconds(app, "reinit-fti", 64, 32)
    taxed = model.iteration_seconds(app, "ulfm-fti", 64, 32)
    assert taxed > plain
    assert taxed / plain == pytest.approx(model.compute_factor(
        "ulfm-fti", 64))


def test_iteration_seconds_requires_work_hook(model):
    class Opaque:
        name = "opaque"

    with pytest.raises(ConfigurationError, match="work_per_iter"):
        model.iteration_seconds(Opaque(), "reinit-fti", 64, 32)


# -- checkpoint costs -------------------------------------------------------
def test_ckpt_levels_are_ordered_by_redundancy(model):
    nbytes = int(0.6e9)
    costs = {level: model.ckpt_write_seconds(FtiConfig(level=level),
                                             nbytes, 64, 32)
             for level in (1, 2, 3, 4)}
    assert costs[1] < costs[2]          # partner copy adds transfer
    assert costs[1] < costs[3]          # RS encode adds compute
    assert costs[1] < costs[4]          # PFS share is the slow path
    assert all(c > 0 for c in costs.values())


def test_ckpt_cost_scales_with_bytes(model):
    small = model.ckpt_write_seconds(FtiConfig(), int(1e8), 64, 32)
    large = model.ckpt_write_seconds(FtiConfig(), int(1e9), 64, 32)
    assert large > small


def test_ckpt_read_cheaper_than_l3_write(model):
    nbytes = int(0.6e9)
    write = model.ckpt_write_seconds(FtiConfig(level=3), nbytes, 64, 32)
    read = model.ckpt_read_seconds(FtiConfig(level=3), nbytes, 64, 32)
    assert 0 < read < write


def _live_io(level, nprocs, nnodes=32):
    """The IoSpecs a live rank-0 ``Fti`` of such a job tops its I/O up
    against — built from a real Cluster, not from CostParams."""
    from repro.fti.api import Fti
    from repro.fti.metadata import CheckpointRegistry
    from repro.simmpi.runtime import Runtime

    def entry(mpi):
        yield

    cluster = Cluster(nnodes=nnodes)
    runtime = Runtime(cluster, nprocs, entry)
    fti = Fti(runtime.api_for(0), cluster, CheckpointRegistry(),
              FtiConfig(level=level))
    return fti._io


@pytest.mark.parametrize("nprocs", [8, 64, 512])
@pytest.mark.parametrize("level", [1, 2, 3, 4])
def test_ckpt_io_term_is_the_levels_nominal_path(model, level, nprocs):
    """``ckpt_write_seconds`` = serialize + the level's nominal write
    (as the live Fti prices it) + coordination + completion allreduce;
    ``ckpt_read_seconds`` = deserialize + the level's nominal read."""
    from repro.fti.api import Fti
    from repro.fti.levels import LEVELS

    nbytes = int(0.6e9)
    cfg = FtiConfig(level=level)
    io = _live_io(level, nprocs)
    rpn = ranks_per_node(nprocs, 32)
    serialize = WorkModel().seconds(bytes_moved=2.0 * nbytes,
                                    ranks_per_node=rpn)
    coord = Fti.COORD_ALPHA * math.log2(nprocs)
    allreduce = Network().allreduce_time(nprocs, 8)
    assert model.ckpt_write_seconds(cfg, nbytes, nprocs, 32) == (
        serialize + LEVELS[level].nominal_write_seconds(io, nbytes)
        + coord + allreduce)
    assert model.ckpt_read_seconds(cfg, nbytes, nprocs, 32) == (
        serialize + LEVELS[level].nominal_read_seconds(io, nbytes))


def test_ckpt_rejects_negative_bytes(model):
    with pytest.raises(ConfigurationError):
        model.ckpt_write_seconds(FtiConfig(), -1, 64, 32)


# -- params -----------------------------------------------------------------
def test_cost_params_defaults_are_the_simulator_constants():
    """CostParams holds the simulator's own specs — one ULFM spec, not
    seven copied floats — so a calibration edit to the mechanism
    propagates into the model."""
    from repro.fti.api import Fti
    from repro.simmpi.runtime import Runtime

    p = CostParams()
    assert p.ulfm == Runtime.ULFM
    assert p.fti_coord_alpha == Fti.COORD_ALPHA
    for gone in ("revoke_alpha", "spawn_per_proc", "pfs_bandwidth",
                 "pfs_latency"):
        assert not hasattr(p, gone)


def test_ranks_per_node_is_ceil_division():
    assert ranks_per_node(64, 32) == 2
    assert ranks_per_node(65, 32) == 3
    assert ranks_per_node(8, 32) == 1
    with pytest.raises(ConfigurationError):
        ranks_per_node(0, 32)
