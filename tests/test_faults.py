"""Fault plans: seeding, one-shot semantics, random selection."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import ConfigurationError
from repro.faults import FaultEvent, FaultPlan


def test_none_plan_never_kills():
    plan = FaultPlan.none()
    assert plan.nfaults == 0
    assert plan.event_for(0, 0) is None


def test_event_validation():
    with pytest.raises(ConfigurationError):
        FaultEvent(rank=-1, iteration=0)
    with pytest.raises(ConfigurationError):
        FaultEvent(rank=0, iteration=-1)


def test_should_kill_exact_match_only():
    plan = FaultPlan(events=(FaultEvent(2, 5),))
    assert plan.event_for(2, 4) is None
    assert plan.event_for(1, 5) is None
    assert plan.event_for(2, 5) is not None


def test_one_shot_per_event():
    plan = FaultPlan(events=(FaultEvent(2, 5),))
    assert plan.event_for(2, 5) is not None
    assert plan.event_for(2, 5) is None


def test_multi_event_one_shot_firing_is_per_event():
    events = (FaultEvent(2, 5), FaultEvent(4, 5), FaultEvent(2, 9))
    plan = FaultPlan(events=events)
    assert plan.event_for(2, 5) is not None
    # firing one event must not disarm the others
    assert plan.event_for(4, 5) is not None
    assert plan.event_for(2, 9) is not None
    # each fired exactly once
    assert plan.event_for(2, 5) is None
    assert plan.event_for(4, 5) is None
    assert plan.event_for(2, 9) is None


def test_fired_state_excluded_from_equality():
    """A partially consumed plan equals a fresh plan with the same
    events."""
    events = (FaultEvent(2, 5), FaultEvent(3, 8))
    consumed = FaultPlan(events=events)
    fresh = FaultPlan(events=events)
    assert consumed == fresh
    consumed.event_for(2, 5)
    assert consumed == fresh          # _fired is execution state
    assert consumed.event_for(3, 8) is not None
    assert consumed == fresh
    assert FaultPlan(events=events) != FaultPlan(events=events[:1])


def test_single_random_is_deterministic_per_seed():
    a = FaultPlan.single_random(64, 40, seed=9)
    b = FaultPlan.single_random(64, 40, seed=9)
    assert a.events == b.events


def test_different_seeds_differ_eventually():
    plans = {FaultPlan.single_random(64, 40, seed=s).events
             for s in range(20)}
    assert len(plans) > 10


def test_single_random_respects_min_iteration():
    for seed in range(50):
        plan = FaultPlan.single_random(8, 10, seed=seed, min_iteration=3)
        event = plan.events[0]
        assert 3 <= event.iteration < 10
        assert 0 <= event.rank < 8


def test_single_random_validation():
    with pytest.raises(ConfigurationError):
        FaultPlan.single_random(0, 10, seed=1)
    with pytest.raises(ConfigurationError):
        FaultPlan.single_random(4, 1, seed=1)


@given(st.integers(min_value=1, max_value=512),
       st.integers(min_value=2, max_value=100),
       st.integers())
def test_single_random_always_in_bounds(nprocs, niters, seed):
    plan = FaultPlan.single_random(nprocs, niters, seed=seed)
    event = plan.events[0]
    assert 0 <= event.rank < nprocs
    assert 1 <= event.iteration < niters
