"""Paper-anchor pins for the cluster cost parameters.

The analytic models (:mod:`repro.modeling`) are fit to the *mechanism*
these specs encode — the launcher's redeployment phases, the node's
bandwidths, the interconnect's alpha/beta, the ULFM protocol constants.
These tests pin the calibrated values against the paper anchors their
docstrings quote (e.g. 64-rank Restart ≈ 16× Reinit ≈ 10 s, Fig. 7), so
a future recalibration is a *deliberate* edit here too — not a silent
drift underneath the fitted models.
"""

import pytest

from repro.cluster.launcher import JobLauncher, LauncherSpec
from repro.cluster.network import NetworkSpec
from repro.cluster.node import NodeSpec
from repro.cluster.storage import ParallelFileSystem
from repro.recovery.reinit import ReinitSpec


# -- launcher: the Restart recovery mechanism (Fig. 7) ----------------------
def test_launcher_spec_values_are_pinned():
    spec = LauncherSpec()
    assert spec.allocation_seconds == 6.0
    assert spec.daemon_seconds == 0.55
    assert spec.process_spawn_seconds == 0.012
    assert spec.init_wireup_seconds == 0.25


def test_restart_64_rank_redeploy_matches_fig7_band():
    """Paper anchor: 64-rank Restart recovery ≈ 10 s (Fig. 7)."""
    t64 = JobLauncher().launch_time(64, 32)
    # alloc 6.0 + 5 tree levels x 0.55 + 64 x 0.012 + 6 rounds x 0.25
    assert t64 == pytest.approx(6.0 + 5 * 0.55 + 64 * 0.012 + 6 * 0.25)
    assert 9.0 < t64 < 13.0


def test_restart_is_an_order_of_magnitude_over_reinit_at_64():
    """Paper anchor: Restart ≈ 16× Reinit's sub-second recovery."""
    restart = JobLauncher().launch_time(64, 32)
    reinit = ReinitSpec().cost(32)
    assert 0.5 < reinit < 1.0          # "sub-second"
    assert 10.0 < restart / reinit < 20.0


def test_reinit_spec_values_are_pinned():
    spec = ReinitSpec()
    assert spec.respawn_seconds == 0.7
    assert spec.reset_per_level == 0.018
    # 32 nodes -> 5 tree levels
    assert spec.cost(32) == pytest.approx(0.7 + 5 * 0.018)


# -- node: the paper's Haswell testbed (§V-A) -------------------------------
def test_node_spec_values_are_pinned():
    spec = NodeSpec()
    assert spec.cores == 28
    assert spec.flops_per_core == 8.0e9
    assert spec.memory_bytes == 128 * 1024**3
    assert spec.memory_bandwidth == 1.1e11
    assert spec.ramfs_bandwidth == 4.0e9
    assert spec.ssd_bandwidth == 1.0e9


# -- network: IB-FDR-ish alpha/beta (Thakur collectives) --------------------
def test_network_spec_values_are_pinned():
    spec = NetworkSpec()
    assert spec.alpha_inter == 1.5e-6
    assert spec.beta_inter == 6.0e9
    assert spec.alpha_intra == 3.0e-7
    assert spec.beta_intra == 3.0e10


# -- storage: the PFS tier FTI L4 flushes to --------------------------------
def test_pfs_defaults_are_pinned():
    pfs = ParallelFileSystem()
    assert pfs.bandwidth == 5.0e10
    assert pfs.latency == 2e-3


# -- ULFM protocol + overhead constants (Figs. 5, 7) ------------------------
def test_ulfm_protocol_constants_are_pinned():
    from repro.simmpi.runtime import Runtime, UlfmSpec

    assert Runtime.ULFM == UlfmSpec()
    assert UlfmSpec() == UlfmSpec(
        revoke_alpha=0.012, shrink_alpha=0.11, shrink_per_proc=0.008,
        agree_alpha=0.055, merge_alpha=0.035, spawn_base=0.9,
        spawn_per_proc=0.012)


def test_ulfm_overhead_and_fti_coordination_are_pinned():
    from repro.fti.api import Fti
    from repro.fti.config import MEMCPY_BANDWIDTH_SHARE
    from repro.simmpi.overhead import UlfmOverheadModel

    assert UlfmOverheadModel().compute_tax_per_log2p == 0.022
    assert Fti.COORD_ALPHA == 0.02
    assert MEMCPY_BANDWIDTH_SHARE == 0.75


# -- cross-check: the analytic model sits on exactly these values -----------
def test_modeling_cost_params_mirror_the_pinned_mechanism():
    """CostParams defaults must be these specs, not a parallel set of
    numbers that could drift independently."""
    from repro.modeling.costs import CostParams

    p = CostParams()
    assert p.node == NodeSpec()
    assert p.network == NetworkSpec()
    assert p.launcher == LauncherSpec()
    assert p.reinit == ReinitSpec()
    from repro.simmpi.runtime import Runtime

    assert p.ulfm == Runtime.ULFM
    from repro.fti.config import MEMCPY_BANDWIDTH_SHARE

    assert p.memcpy_share == MEMCPY_BANDWIDTH_SHARE


def test_model_prices_by_calling_the_pinned_mechanisms():
    """Not a mirror of the formulas but the formulas themselves: the
    model's Restart cost *is* the launcher's, and its L4 write is priced
    against the default PFS's bandwidth."""
    from repro.cluster.launcher import JobLauncher
    from repro.cluster.storage import PFS_BANDWIDTH
    from repro.fti.config import FtiConfig
    from repro.modeling.costs import AnalyticCostModel

    model = AnalyticCostModel()
    for nprocs in (64, 512):
        assert model.recovery_seconds("restart-fti", nprocs, 32) \
            == JobLauncher().launch_time(nprocs, 32)
    assert PFS_BANDWIDTH == ParallelFileSystem().bandwidth
    assert model._io_specs(FtiConfig(level=4), 64, 32).pfs_bandwidth \
        == ParallelFileSystem().bandwidth
