"""Experiment harness: repetitions, averaging, fault-plan seeding."""

from repro.api import run_averaged, run_single
from repro.core.configs import ExperimentConfig
from repro.core.harness import build_cluster, make_fault_plan


def small_config(**kwargs):
    defaults = dict(app="minivite", design="reinit-fti", nprocs=8,
                    nnodes=4)
    defaults.update(kwargs)
    return ExperimentConfig(**defaults)


def test_build_cluster_honours_nnodes():
    assert build_cluster(small_config()).nnodes == 4


def test_fault_plan_empty_without_injection():
    cfg = small_config()
    plan = make_fault_plan(cfg, cfg.make_app(), rep=0)
    assert plan.nfaults == 0


def test_fault_plan_differs_per_repetition():
    cfg = small_config(inject_fault=True)
    app = cfg.make_app()
    plans = {make_fault_plan(cfg, app, rep=r).events for r in range(8)}
    assert len(plans) > 1


def test_fault_plan_deterministic_for_same_rep():
    cfg = small_config(inject_fault=True, seed=3)
    app = cfg.make_app()
    assert (make_fault_plan(cfg, app, 2).events
            == make_fault_plan(cfg, app, 2).events)


def test_run_experiment_single():
    result = run_single(small_config())
    assert result.verified
    assert result.breakdown.total_seconds > 0


def test_no_fault_averaging_collapses_to_one_run():
    avg = run_averaged(small_config())
    assert avg.repetitions == 1
    assert len(avg.runs) == 1


def test_fault_averaging_uses_five_reps_by_default():
    avg = run_averaged(small_config(inject_fault=True))
    assert avg.repetitions == 5
    assert len(avg.runs) == 5
    assert avg.verified


def test_explicit_repetitions_respected():
    avg = run_averaged(small_config(inject_fault=True),
                       repetitions=2)
    assert avg.repetitions == 2


def test_average_breakdown_within_run_range():
    avg = run_averaged(small_config(inject_fault=True),
                       repetitions=3)
    totals = [r.breakdown.total_seconds for r in avg.runs]
    assert min(totals) <= avg.breakdown.total_seconds <= max(totals)


def test_experiment_is_reproducible():
    a = run_single(small_config(inject_fault=True, seed=7))
    b = run_single(small_config(inject_fault=True, seed=7))
    assert a.breakdown.total_seconds == b.breakdown.total_seconds
    assert a.fault_events == b.fault_events


def test_single_run_is_repetition_zero():
    """Regression: the single-run entry point once built RunUnit(config,
    rep=config.seed), so a seeded single run silently used the wrong
    repetition index. A single run is repetition 0 by definition and
    must be bit-identical to a one-repetition averaged run."""
    cfg = small_config(inject_fault=True, seed=9)
    single = run_single(cfg)
    averaged = run_averaged(cfg, repetitions=1)
    assert single == averaged.runs[0]
    # the old bug: rep=seed drew a different fault location
    assert single.fault_events == averaged.runs[0].fault_events
    assert single.breakdown == averaged.runs[0].breakdown


def test_scenario_plan_derivation_per_repetition():
    cfg = small_config(faults="independent:2", seed=3)
    app = cfg.make_app()
    plans = {make_fault_plan(cfg, app, rep=r).events for r in range(6)}
    assert len(plans) > 1  # repetitions draw distinct multi-event plans
    assert all(len(events) == 2 for events in plans)
    assert (make_fault_plan(cfg, app, 4).events
            == make_fault_plan(cfg, app, 4).events)
