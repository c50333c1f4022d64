"""Integration tests pinning the paper's headline claims (§V).

These run the real harness at the paper's default scale (64 processes on
32 nodes) for one representative app and assert the *shape* of every
claim the evaluation makes. They are the contract the benchmark suite is
graded against.
"""

import pytest

from repro.core.configs import ExperimentConfig
from repro.api import run_averaged, run_single

APP = "hpccg"  # fastest of the six; claims are design-level, not app-level


def breakdown(design, nprocs=64, fault=False, input_size="small", seed=1):
    cfg = ExperimentConfig(app=APP, design=design, nprocs=nprocs,
                           input_size=input_size, inject_fault=fault,
                           seed=seed)
    return run_single(cfg).breakdown


@pytest.fixture(scope="module")
def fault_runs():
    return {design: breakdown(design, fault=True)
            for design in ("restart-fti", "reinit-fti", "ulfm-fti")}


@pytest.fixture(scope="module")
def clean_runs():
    return {design: breakdown(design)
            for design in ("restart-fti", "reinit-fti", "ulfm-fti")}


def test_claim_reinit_beats_ulfm_recovery(fault_runs):
    """Finding 1: Reinit recovery performs better than ULFM recovery."""
    assert (fault_runs["reinit-fti"].recovery_seconds
            < fault_runs["ulfm-fti"].recovery_seconds)


def test_claim_ulfm_over_reinit_factor(fault_runs):
    """Reinit ~4x faster than ULFM on average (up to 13x)."""
    ratio = (fault_runs["ulfm-fti"].recovery_seconds
             / fault_runs["reinit-fti"].recovery_seconds)
    assert 2.0 < ratio < 14.0


def test_claim_restart_over_reinit_factor(fault_runs):
    """Restart ~16x slower than Reinit (up to 22x)."""
    ratio = (fault_runs["restart-fti"].recovery_seconds
             / fault_runs["reinit-fti"].recovery_seconds)
    assert 8.0 < ratio < 24.0


def test_claim_restart_over_ulfm_factor(fault_runs):
    """Restart 2-3x slower than ULFM recovery."""
    ratio = (fault_runs["restart-fti"].recovery_seconds
             / fault_runs["ulfm-fti"].recovery_seconds)
    assert 1.5 < ratio < 4.5


def test_claim_reinit_fti_is_most_efficient_overall(fault_runs):
    """Finding 4: REINIT-FTI has the lowest total time with a failure."""
    totals = {d: b.total_seconds for d, b in fault_runs.items()}
    assert totals["reinit-fti"] == min(totals.values())


def test_claim_ulfm_delays_application(clean_runs):
    """Conclusion 1: ULFM delays application execution; Reinit doesn't."""
    restart_app = clean_runs["restart-fti"].application_seconds
    assert (clean_runs["ulfm-fti"].application_seconds
            > 1.05 * restart_app)
    assert (clean_runs["reinit-fti"].application_seconds
            == pytest.approx(restart_app, rel=0.02))


def test_claim_ulfm_affects_checkpointing(clean_runs):
    """Conclusion 2: ULFM slightly inflates FTI checkpointing; Reinit
    has a negligible effect."""
    restart_ckpt = clean_runs["restart-fti"].ckpt_write_seconds
    assert (clean_runs["ulfm-fti"].ckpt_write_seconds
            > restart_ckpt)
    assert (clean_runs["reinit-fti"].ckpt_write_seconds
            == pytest.approx(restart_ckpt, rel=0.02))


def test_claim_checkpoint_share_near_13_percent(clean_runs):
    """§V-C: writing checkpoints ~13% of total execution time."""
    b = clean_runs["restart-fti"]
    share = b.ckpt_write_seconds / b.total_seconds
    assert 0.05 < share < 0.25


def test_claim_reinit_recovery_scale_independent():
    """Finding 2a: Reinit recovery is independent of the scaling size."""
    r64 = breakdown("reinit-fti", nprocs=64, fault=True).recovery_seconds
    r512 = breakdown("reinit-fti", nprocs=512, fault=True).recovery_seconds
    assert r512 == pytest.approx(r64, rel=0.05)


def test_claim_ulfm_recovery_grows_with_scale():
    """Finding 2b: ULFM recovery is NOT scale-independent."""
    r64 = breakdown("ulfm-fti", nprocs=64, fault=True).recovery_seconds
    r512 = breakdown("ulfm-fti", nprocs=512, fault=True).recovery_seconds
    assert r512 > 1.5 * r64


def test_claim_recovery_input_size_independent():
    """Fig. 10: recovery time barely changes across input sizes."""
    for design in ("reinit-fti", "ulfm-fti"):
        small = breakdown(design, fault=True,
                          input_size="small").recovery_seconds
        large = breakdown(design, fault=True,
                          input_size="large").recovery_seconds
        assert large == pytest.approx(small, rel=0.15)


def test_claim_ulfm_overhead_grows_with_input():
    """Fig. 8: ULFM's application overhead grows with the input size."""
    def overhead(input_size):
        ulfm = breakdown("ulfm-fti", input_size=input_size)
        base = breakdown("restart-fti", input_size=input_size)
        return ulfm.application_seconds - base.application_seconds

    assert overhead("large") > overhead("small")


def test_claim_ckpt_time_grows_modestly_with_scale():
    """§V-C: checkpoint write time modestly increases with processes."""
    c64 = breakdown("restart-fti", nprocs=64).ckpt_write_seconds
    c512 = breakdown("restart-fti", nprocs=512).ckpt_write_seconds
    assert c64 <= c512 < 4 * c64


def test_averaged_fault_experiment_stays_verified():
    cfg = ExperimentConfig(app=APP, design="ulfm-fti", nprocs=64,
                           inject_fault=True)
    avg = run_averaged(cfg, repetitions=3)
    assert avg.verified
    assert all(r.recovery_episodes == 1 for r in avg.runs)
