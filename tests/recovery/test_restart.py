"""Restart recovery: redeployment pricing and episode accounting."""

import pytest

from repro.cluster import Cluster
from repro.recovery import RestartRecovery


def test_redeploy_time_matches_launcher():
    cluster = Cluster(nnodes=32)
    restart = RestartRecovery(cluster)
    assert restart.redeploy_time(64) == pytest.approx(
        cluster.launcher.launch_time(64, 32))


def test_on_abort_records_episode():
    restart = RestartRecovery(Cluster(nnodes=32))
    duration = restart.on_abort(64)
    assert duration > 0
    assert restart.episodes == [duration]
    assert sum(restart.episodes) == pytest.approx(duration)


def test_multiple_aborts_accumulate():
    restart = RestartRecovery(Cluster(nnodes=32))
    d1 = restart.on_abort(64)
    d2 = restart.on_abort(64)
    assert restart.episodes == [d1, d2]
    assert sum(restart.episodes) == pytest.approx(d1 + d2)


def test_launch_counter_ticks():
    cluster = Cluster(nnodes=32)
    restart = RestartRecovery(cluster)
    restart.on_abort(64)
    assert cluster.launcher.launch_count == 1


def test_take_episodes_resets():
    restart = RestartRecovery(Cluster(nnodes=32))
    duration = restart.on_abort(64)
    assert restart.take_episodes() == [duration]
    assert restart.episodes == []
    assert restart.take_episodes() == []


def test_restart_cost_grows_with_scale():
    """Fig. 7: restart recovery grows with the process count."""
    restart = RestartRecovery(Cluster(nnodes=32))
    times = [restart.redeploy_time(p) for p in (64, 128, 256, 512)]
    assert times == sorted(times) and times[-1] > times[0]
