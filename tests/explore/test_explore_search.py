"""Worst-case search: strategies, determinism, resume, event stream."""

from __future__ import annotations

import pytest

from repro.core.configs import ExperimentConfig
from repro.core.engine import RunUnit, execute_unit
from repro.core.events import ExploreFinished, ExploreStarted, ScheduleProbed
from repro.errors import ConfigurationError
from repro.explore.engine import explore, explore_stream
from repro.explore.strategies import STRATEGIES


def _config(**kw):
    kw.setdefault("app", "hpccg")
    kw.setdefault("nprocs", 8)
    kw.setdefault("design", "ulfm-fti")
    kw.setdefault("faults", "none")
    return ExperimentConfig(**kw)


class TestStrategyRegistry:
    def test_built_ins_resolve(self):
        for name in ("exhaustive", "random", "bisect"):
            assert name in STRATEGIES

    def test_unknown_strategy_is_a_config_error(self):
        with pytest.raises(ConfigurationError):
            explore(_config(), strategy="quantum")


class TestSearch:
    def test_exhaustive_finds_a_slowdown(self):
        outcome = explore(_config(), strategy="exhaustive")
        assert outcome.best > outcome.baseline
        assert outcome.slowdown > 1.0
        assert outcome.best_spec
        assert outcome.probes >= 1

    def test_search_is_deterministic(self):
        first = explore(_config(), strategy="exhaustive")
        second = explore(_config(), strategy="exhaustive")
        assert first.best_spec == second.best_spec
        assert first.best == second.best

    def test_random_is_seeded(self):
        a = explore(_config(), strategy="random", budget=6, seed=42)
        b = explore(_config(), strategy="random", budget=6, seed=42)
        assert a.best_spec == b.best_spec and a.best == b.best

    def test_exhaustive_at_least_matches_random(self):
        # exhaustive covers every candidate random can only sample
        exhaustive = explore(_config(), strategy="exhaustive")
        rand = explore(_config(), strategy="random", budget=6, seed=7)
        assert exhaustive.best >= rand.best

    def test_bisect_respects_its_budget(self):
        outcome = explore(_config(), strategy="bisect", budget=8)
        assert outcome.probes <= 8
        assert outcome.best > outcome.baseline

    def test_winner_replays_bit_identically(self):
        outcome = explore(_config(), strategy="exhaustive")
        replay = execute_unit(RunUnit(outcome.best_config(), 0))
        assert replay.breakdown.total_seconds == outcome.best
        assert replay.verified


class TestEventStream:
    def test_stream_shape(self):
        events = list(explore_stream(_config(), strategy="random",
                                     budget=4, seed=1))
        assert isinstance(events[0], ExploreStarted)
        assert isinstance(events[-1], ExploreFinished)
        probes = [e for e in events[1:-1] if isinstance(e, ScheduleProbed)]
        assert len(probes) == len(events) - 2 == 4
        assert events[0].strategy == "random"
        assert events[0].candidates > 0
        assert "ckpt.L1.write" in events[0].anchors
        # running best is monotone non-decreasing
        bests = [e.best for e in probes]
        assert bests == sorted(bests)
        assert events[-1].best == probes[-1].best
        assert events[-1].baseline > 0.0

    def test_progress_callback_sees_every_event(self):
        seen = []
        explore(_config(), strategy="random", budget=3, seed=1,
                progress=seen.append)
        kinds = [type(e).__name__ for e in seen]
        assert kinds[0] == "ExploreStarted"
        assert kinds[-1] == "ExploreFinished"
        assert kinds.count("ScheduleProbed") == 3


class TestStoreResume:
    def test_resume_skips_completed_probes(self, tmp_path):
        from repro.core.store import open_store

        path = tmp_path / "explore.jsonl"
        store = open_store(str(path))
        first = explore(_config(), strategy="exhaustive", store=store)
        executed_before = len(store.load_completed())
        assert executed_before >= first.probes

        # second search over the same space: every probe answered from
        # the store, nothing new appended
        store2 = open_store(str(path))
        second = explore(_config(), strategy="exhaustive", store=store2)
        assert second.best_spec == first.best_spec
        assert second.best == first.best
        assert len(store2.load_completed()) == executed_before


class TestWorstOfKind:
    def test_worst_of_unit_lowers_through_search(self):
        config = _config(faults="worst-of:4")
        result = execute_unit(RunUnit(config, 0))
        assert result.verified
        assert result.recovery_episodes >= 1
        assert len(result.fault_events) == 1

    def test_worst_of_is_reproducible(self):
        config = _config(faults="worst-of:4")
        first = execute_unit(RunUnit(config, 0))
        second = execute_unit(RunUnit(config, 0))
        assert first.breakdown.total_seconds == second.breakdown.total_seconds


class TestSessionFacade:
    def _session(self, tmp_path, *designs):
        from repro.api import Campaign

        return Campaign().apps("hpccg").designs(*designs) \
            .nprocs(8).faults("none") \
            .store(str(tmp_path / "s.jsonl")).resume().session()

    def test_session_explore_end_to_end(self, tmp_path):
        from repro.api import Session

        session = self._session(tmp_path, "ulfm-fti")
        assert isinstance(session, Session)
        outcome = session.explore(strategy="random", budget=3, seed=5)
        assert outcome.best > outcome.baseline

    def test_ambiguous_campaign_needs_an_explicit_config(self, tmp_path):
        session = self._session(tmp_path, "ulfm-fti", "reinit-fti")
        with pytest.raises(ConfigurationError, match="configs"):
            session.explore()

    def test_session_explore_honours_sim_watchdog(self, monkeypatch):
        """The search's runs take the session's budget, as its units do."""
        import os

        from repro.api import Campaign
        from repro.errors import WatchdogError

        monkeypatch.delenv("MATCH_SIM_WATCHDOG", raising=False)
        campaign = Campaign().apps("hpccg").designs("ulfm-fti") \
            .nprocs(8).nnodes(4).faults("none").sim_watchdog(10)
        with pytest.raises(WatchdogError):
            campaign.session().run()
        with pytest.raises(WatchdogError) as excinfo:
            campaign.session().explore(budget=2)
        assert excinfo.value.steps == 10
        # the budget must not leak into the environment past the search
        assert "MATCH_SIM_WATCHDOG" not in os.environ

    def test_foreign_config_rejected(self, tmp_path):
        session = self._session(tmp_path, "ulfm-fti")
        foreign = _config(app="hpccg", nprocs=16)
        with pytest.raises(ConfigurationError, match="not part"):
            session.explore(foreign)
