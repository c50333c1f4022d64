"""The repro.api facade: Campaign builder, Session streaming, shims.

The acceptance test at the bottom registers a toy app *and* a custom
fault-scenario kind through ``repro.registry`` and runs them through
``Campaign``/``Session.stream()`` — without modifying any core module.
"""

import numpy as np
import pytest

from repro.api import (
    Campaign,
    CampaignFinished,
    CampaignStarted,
    Session,
    UnitCompleted,
    UnitSkipped,
    UnitStarted,
    check_campaign,
    run_averaged,
    run_single,
)
from repro.core.configs import ExperimentConfig
from repro.core.engine import RunUnit, execute_unit
from repro.errors import ConfigurationError


def small_config(**kwargs):
    defaults = dict(app="minivite", design="reinit-fti", nprocs=8,
                    nnodes=4)
    defaults.update(kwargs)
    return ExperimentConfig(**defaults)


# -- Campaign builder -------------------------------------------------------
def test_builder_is_immutable():
    base = Campaign().apps("hpccg").designs("reinit-fti")
    forked = base.faults("single")
    assert base._state["faults"] is None
    assert forked._state["faults"] == "single"


def test_builder_cross_product_order():
    configs = (Campaign().apps("minivite", "hpccg")
               .designs("reinit-fti", "ulfm-fti")
               .nprocs(8, 16).inputs("small").nnodes(4).configs())
    cells = [(c.app, c.design, c.nprocs) for c in configs]
    # apps outer, then designs, then nprocs (the shard contract)
    assert cells == [
        ("minivite", "reinit-fti", 8), ("minivite", "reinit-fti", 16),
        ("minivite", "ulfm-fti", 8), ("minivite", "ulfm-fti", 16),
        ("hpccg", "reinit-fti", 8), ("hpccg", "reinit-fti", 16),
        ("hpccg", "ulfm-fti", 8), ("hpccg", "ulfm-fti", 16),
    ]


def test_builder_defaults_match_paper():
    config = Campaign().apps("hpccg").designs("reinit-fti").configs()[0]
    assert config.nprocs == 64
    assert config.input_size == "small"
    assert config.nnodes == 32
    assert not config.inject_fault


def test_builder_designs_default_to_all_three():
    configs = Campaign().apps("hpccg").configs()
    assert [c.design for c in configs] == ["restart-fti", "reinit-fti",
                                           "ulfm-fti"]


def test_builder_validates_through_registries():
    with pytest.raises(ConfigurationError, match="unknown app"):
        Campaign().apps("nope").designs("reinit-fti").configs()
    with pytest.raises(ConfigurationError, match="unknown design"):
        Campaign().apps("hpccg").designs("nope").configs()
    with pytest.raises(ConfigurationError, match="no apps"):
        Campaign().configs()


def test_builder_reps_default_is_paper_convention():
    campaign = Campaign().apps("minivite").designs("reinit-fti").nnodes(4)
    clean = campaign.configs()[0]
    faulty = campaign.faults("single").configs()[0]
    assert campaign.reps_for(clean) == 1
    assert campaign.faults("single").reps_for(faulty) == 5
    assert campaign.reps(3).reps_for(clean) == 3
    with pytest.raises(ConfigurationError):
        campaign.reps(0)


def test_builder_runs_alias():
    assert Campaign().runs(7)._state["reps"] == 7


def test_builder_fti_level_shorthand():
    config = (Campaign().apps("hpccg").designs("reinit-fti")
              .fti(level=2).configs()[0])
    assert config.fti.level == 2
    with pytest.raises(ConfigurationError, match="not both"):
        Campaign().fti(config.fti, level=2)


def test_from_configs_requires_config_objects():
    with pytest.raises(ConfigurationError, match="ExperimentConfig"):
        Campaign.from_configs(["hpccg"])


def test_builder_rejects_unknown_fields():
    with pytest.raises(ConfigurationError, match="unknown campaign"):
        Campaign(warp=1)


def test_from_configs_rejects_config_shaping_methods():
    """Silently ignoring .faults()/.seed()/... on a from_configs
    campaign would run a different experiment than asked for."""
    campaign = Campaign.from_configs([small_config()])
    for method, value in (("faults", "independent:3"), ("seed", 7),
                          ("apps", "hpccg"), ("designs", "ulfm-fti"),
                          ("nprocs", 16), ("inputs", "large"),
                          ("nnodes", 8)):
        with pytest.raises(ConfigurationError, match="finished configs"):
            getattr(campaign, method)(value)
    # execution-policy methods still apply
    assert campaign.reps(3).jobs(2)._state["jobs"] == 2


# -- Session streaming ------------------------------------------------------
def test_stream_event_sequence_serial():
    session = (Campaign.from_configs([small_config(faults="single")])
               .reps(2).session())
    events = list(session.stream())
    assert isinstance(events[0], CampaignStarted)
    assert events[0].total == 2 and events[0].pending == 2
    assert isinstance(events[-1], CampaignFinished)
    starts = [e for e in events if isinstance(e, UnitStarted)]
    dones = [e for e in events if isinstance(e, UnitCompleted)]
    assert len(starts) == len(dones) == 2
    # progress counts are monotonic and complete
    assert [e.completed for e in dones] == [1, 2]
    assert all(e.total == 2 for e in dones)
    # units stream in deterministic (config, rep) order when serial
    assert [e.unit.rep for e in dones] == [0, 1]
    assert isinstance(events[-1].results, dict)
    assert len(events[-1].results) == 2


def test_stream_is_consumed_once():
    session = Campaign.from_configs([small_config()]).session()
    assert len(list(session.stream())) > 0
    assert list(session.stream()) == []  # already executed; no replay
    assert len(session.run_results(small_config())) == 1


def test_stream_skipped_events_on_resume():
    from repro.core.store import MemoryStore

    store = MemoryStore()
    config = small_config(faults="single")
    Campaign.from_configs([config]).reps(2).store(store).run()
    session = (Campaign.from_configs([config]).reps(2).store(store)
               .resume().session())
    events = list(session.stream())
    skips = [e for e in events if isinstance(e, UnitSkipped)]
    assert len(skips) == 2
    assert session.executed == 0 and session.skipped == 2
    assert not any(isinstance(e, UnitStarted) for e in events)


def test_partial_stream_consumption_resumes_not_reruns():
    """Abandoning the event stream mid-campaign must not throw away or
    re-execute the completed work — the next stream()/run() continues
    the same underlying execution."""
    from repro.core.store import MemoryStore

    appended = []

    class CountingStore(MemoryStore):
        def append(self, key, config_dict, rep, result_dict):
            appended.append(key)
            super().append(key, config_dict, rep, result_dict)

    config = small_config(faults="single")
    session = (Campaign.from_configs([config]).reps(3)
               .store(CountingStore()).session())
    for event in session.stream():
        if isinstance(event, UnitCompleted):
            break  # consumer bails after the first completion
    assert len(appended) == 1
    session.run()
    assert len(appended) == 3  # resumed, not re-run from scratch
    assert len(session.run_results(config)) == 3


def test_failed_session_raises_instead_of_pretending(tmp_path,
                                                     monkeypatch):
    """After an execution failure, accessors and re-runs must raise a
    meaningful error, not return half-results or crash on None."""
    plugin = tmp_path / "serial_exploder_plugin.py"
    plugin.write_text(
        "from repro.apps import APP_REGISTRY\n"
        "from repro.apps.base import ProxyApp\n"
        "\n"
        "@APP_REGISTRY.register('serial-exploder', replace=True)\n"
        "class Exploder(ProxyApp):\n"
        "    name = 'serial-exploder'\n"
        "\n"
        "    def __init__(self, nprocs, niters=6):\n"
        "        super().__init__(nprocs, niters)\n"
        "\n"
        "    @classmethod\n"
        "    def from_input(cls, nprocs, input_size):\n"
        "        raise RuntimeError('serial detonation')\n"
        "\n"
        "    def make_state(self, mpi):\n"
        "        raise NotImplementedError\n"
        "\n"
        "    def iterate(self, mpi, state, i):\n"
        "        raise NotImplementedError\n"
        "\n"
        "    def verify(self, state):\n"
        "        return False\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    session = (Campaign()
               .plugins("serial_exploder_plugin")
               .apps("serial-exploder")
               .designs("reinit-fti")
               .nprocs(4).nnodes(4)
               .reps(1)
               .session())
    with pytest.raises(RuntimeError, match="serial detonation"):
        session.run()
    with pytest.raises(ConfigurationError, match="failed"):
        session.campaigns()
    with pytest.raises(ConfigurationError, match="failed"):
        session.run()
    from repro.apps import APP_REGISTRY

    APP_REGISTRY.unregister("serial-exploder")


def test_parallel_unit_failure_emits_event_with_plugins(tmp_path,
                                                        monkeypatch):
    """jobs > 1: a worker exception is attributed to its unit via
    UnitFailed before re-raising, and Campaign.plugins modules load in
    the spawned workers (the app only exists via the plugin)."""
    from repro.api import UnitFailed

    plugin = tmp_path / "exploder_plugin.py"
    plugin.write_text(
        "from repro.apps import APP_REGISTRY\n"
        "from repro.apps.base import ProxyApp\n"
        "\n"
        "@APP_REGISTRY.register('exploder', replace=True)\n"
        "class Exploder(ProxyApp):\n"
        "    name = 'exploder'\n"
        "\n"
        "    def __init__(self, nprocs, niters=6):\n"
        "        super().__init__(nprocs, niters)\n"
        "\n"
        "    @classmethod\n"
        "    def from_input(cls, nprocs, input_size):\n"
        "        raise RuntimeError('exploder always detonates')\n"
        "\n"
        "    def make_state(self, mpi):\n"
        "        raise NotImplementedError\n"
        "\n"
        "    def iterate(self, mpi, state, i):\n"
        "        raise NotImplementedError\n"
        "\n"
        "    def verify(self, state):\n"
        "        return False\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    session = (Campaign()
               .plugins("exploder_plugin")
               .apps("exploder")
               .designs("reinit-fti")
               .nprocs(4).nnodes(4)
               .reps(2).jobs(2)
               .session())
    events = []
    with pytest.raises(RuntimeError, match="detonates"):
        for event in session.stream():
            events.append(event)
    failed = [e for e in events if isinstance(e, UnitFailed)]
    assert len(failed) == 1
    assert failed[0].unit.config.app == "exploder"
    assert "detonates" in failed[0].error
    from repro.apps import APP_REGISTRY

    APP_REGISTRY.unregister("exploder")


def test_session_results_match_direct_execution():
    config = small_config(faults="single", seed=3)
    session = Campaign.from_configs([config]).reps(2).run()
    direct = [execute_unit(RunUnit(config, rep)) for rep in range(2)]
    assert session.run_results(config) == direct


def test_session_rejects_foreign_config():
    session = Campaign.from_configs([small_config()]).run()
    with pytest.raises(ConfigurationError, match="not part of this"):
        session.run_results(small_config(app="hpccg"))


def test_session_campaigns_summaries():
    configs = [small_config(faults="single"),
               small_config(design="ulfm-fti", faults="single")]
    session = Campaign.from_configs(configs).reps(2).run()
    summaries = session.campaigns()
    assert list(summaries) == [c.label() for c in configs]
    assert all(len(s.runs) == 2 for s in summaries.values())


# -- one-config conveniences == direct execution, bit-identical --------------
def test_run_single_is_repetition_zero():
    config = small_config(faults="single", seed=9)
    assert run_single(config) == execute_unit(RunUnit(config, 0))


def test_run_averaged_matches_legacy_semantics():
    config = small_config(faults="single", seed=2)
    averaged = run_averaged(config)
    assert averaged.repetitions == 5  # the paper's default under faults
    direct = [execute_unit(RunUnit(config, rep)) for rep in range(5)]
    assert averaged.runs == direct
    assert run_averaged(small_config()).repetitions == 1  # deterministic


def test_session_campaigns_rejects_label_collisions():
    """label() omits seed: two configs differing only there must not
    silently collapse into one summary row."""
    configs = [small_config(faults="single"),
               small_config(faults="single", seed=1)]
    session = Campaign.from_configs(configs).reps(2).run()
    with pytest.raises(ConfigurationError, match="duplicate labels"):
        session.campaigns()
    # per-config access still works — only the label-keyed view is
    # ambiguous
    assert all(len(session.run_results(c)) == 2 for c in configs)


def test_check_campaign_validations():
    with pytest.raises(ConfigurationError, match="empty"):
        check_campaign([], 2)
    with pytest.raises(ConfigurationError, match="at least two"):
        check_campaign([small_config(faults="single")], 1)
    with pytest.raises(ConfigurationError, match="fault-injecting"):
        check_campaign([small_config()], 2)
    with pytest.raises(ConfigurationError, match="duplicate labels"):
        check_campaign([small_config(faults="single"),
                        small_config(faults="single", seed=1)], 2)


# -- store backends through the facade --------------------------------------
def test_memory_store_spec_resolves():
    from repro.core.store import MemoryStore, open_store

    assert isinstance(open_store("memory:scratch"), MemoryStore)
    assert open_store(None) is None
    store = MemoryStore()
    assert open_store(store) is store
    # a bare path (even one containing a colon-free name) stays jsonl
    assert type(open_store("runs.jsonl")).__name__ == "ResultStore"


# -- acceptance: registry-driven extension, no core edits -------------------
@pytest.fixture
def toy_extensions():
    """A toy app and a custom scenario kind, registered then removed."""
    from repro.apps import APP_REGISTRY
    from repro.apps.base import AppState, ProxyApp
    from repro.faults.plans import FaultEvent
    from repro.faults.scenarios import SCENARIOS, ScenarioKind

    @APP_REGISTRY.register("toyapp")
    class ToyApp(ProxyApp):
        """Trivial SPMD loop: a protected counter plus an allreduce."""

        name = "toyapp"
        scaling = "weak"

        def __init__(self, nprocs, niters=8):
            super().__init__(nprocs, niters)

        @classmethod
        def from_input(cls, nprocs, input_size):
            return cls(nprocs)

        def make_state(self, mpi):
            state = AppState(rank=mpi.rank, nprocs=self.nprocs)
            state.arrays["ticks"] = np.zeros(4)
            state.nominal_ckpt_bytes = 1 << 20
            yield from mpi.compute(flops=1e6)
            return state

        def rebind(self, state):
            pass

        def iterate(self, mpi, state, i):
            from repro.simmpi import ops

            state.arrays["ticks"] += 1.0
            yield from mpi.compute(flops=1e6, bytes_moved=1e5)
            total = yield from mpi.allreduce(
                float(state.arrays["ticks"][0]), op=ops.SUM)
            state.history.append(total)

        def verify(self, state):
            return bool(state.history)

    @SCENARIOS.register("firstrank")
    class FirstRankKind(ScenarioKind):
        """Deterministically kill rank 0 `count` times, evenly spread."""

        spec_positional = "count"
        uses = frozenset({"count", "min_iteration"})

        def label(self, scenario):
            return "firstrank%d" % scenario.count

        def draw(self, scenario, rng, nprocs, niters, nnodes):
            step = max(1, (niters - scenario.min_iteration)
                       // scenario.count)
            iterations = range(scenario.min_iteration, niters, step)
            return [FaultEvent(0, i)
                    for i in list(iterations)[:scenario.count]]

    yield ToyApp
    APP_REGISTRY.unregister("toyapp")
    SCENARIOS.unregister("firstrank")


def test_custom_app_and_scenario_via_campaign_stream(toy_extensions):
    """ISSUE 4 acceptance: a self-registered workload + scenario kind
    run through the facade's event stream with zero core edits."""
    session = (Campaign()
               .apps("toyapp")
               .designs("reinit-fti", "ulfm-fti")
               .nprocs(8)
               .nnodes(4)
               .faults("firstrank:2")
               .reps(2)
               .session())
    finished = None
    completions = 0
    for event in session.stream():
        if isinstance(event, UnitCompleted):
            completions += 1
        if isinstance(event, CampaignFinished):
            finished = event
    assert completions == 4  # 2 designs x 2 reps
    assert finished is not None and len(finished.results) == 4
    summaries = session.campaigns()
    assert sorted(summaries) == [
        "toyapp/REINIT-FTI/p8/small/fault=firstrank2",
        "toyapp/ULFM-FTI/p8/small/fault=firstrank2",
    ]
    for summary in summaries.values():
        assert summary.all_verified
        # the custom kind's deterministic draw: rank 0, twice per run
        assert summary.faults_per_run.mean == 2.0
        assert all(rank == 0 for rank, _ in summary.victims())


def test_custom_scenario_spec_and_config_round_trip(toy_extensions):
    """Custom kinds participate in spec parsing, labels, run keys and
    config serialization exactly like built-ins."""
    from repro.core.configs import config_from_dict, config_to_dict
    from repro.faults.scenarios import parse_scenario_spec

    scenario = parse_scenario_spec("firstrank:3")
    assert scenario.kind == "firstrank" and scenario.count == 3
    assert scenario.label() == "firstrank3"
    config = ExperimentConfig(app="toyapp", design="reinit-fti", nprocs=8,
                              nnodes=4, faults="firstrank:3")
    assert config.inject_fault
    assert config_from_dict(config_to_dict(config)) == config


# -- the modeling surface on the facade --------------------------------------
def test_campaign_interval_axis_shapes_configs():
    configs = (Campaign().apps("minivite").designs("reinit-fti")
               .nprocs(8).nnodes(4).interval(4).configs())
    assert all(c.fti.ckpt_stride == 4 and c.interval == 4
               for c in configs)


def test_campaign_auto_interval_resolves_per_cell():
    configs = (Campaign().apps("minivite").designs("reinit-fti")
               .nprocs(8).nnodes(4).faults("poisson:6")
               .interval("auto").configs())
    assert all(isinstance(c.interval, int) for c in configs)


def test_campaign_predict_prices_every_cell_without_running():
    campaign = (Campaign().apps("minivite").designs("reinit-fti",
                                                    "ulfm-fti")
                .nprocs(8).nnodes(4).faults("single"))
    estimates = campaign.predict()
    assert len(estimates) == 2
    for config, prediction in estimates:
        assert prediction.total_seconds > 0
        assert prediction.expected_failures == pytest.approx(1.0)
        assert prediction.design == config.design


def test_from_configs_rejects_interval_like_other_config_fields():
    campaign = Campaign.from_configs([small_config()])
    with pytest.raises(ConfigurationError, match="from_configs"):
        campaign.interval(5)


def test_session_advise_calibrates_on_results():
    session = (Campaign().apps("minivite").designs("reinit-fti",
                                                   "ulfm-fti")
               .nprocs(8).nnodes(4).faults("single").reps(2).session())
    session.run()
    advice = session.advise("20m", levels=(1, 2))
    # nnodes=4 is non-default, so the key spells it out
    assert list(advice) == ["minivite/p8/small/n4"]
    rows = advice["minivite/p8/small/n4"]
    # full designs x requested levels, ranked by makespan
    assert len(rows) == 3 * 2
    makespans = [r.makespan for r in rows]
    assert makespans == sorted(makespans)


def test_session_advise_requires_results_first():
    session = (Campaign().apps("minivite").designs("reinit-fti")
               .nprocs(8).nnodes(4).faults("single").reps(1).session())
    session.run()
    assert session.advise("1h", calibrate=False)


def test_session_advise_many_matches_scalar_and_session_advise():
    from repro.modeling.advisor import advise as advise_rows
    from repro.modeling.fit import CalibratedModel, fit_session
    from repro.service.query import AdviceQuery

    session = (Campaign().apps("minivite").designs("reinit-fti")
               .nprocs(8).nnodes(4).faults("single").reps(1).session())
    session.run()
    queries = [AdviceQuery.make("minivite", 8, "20m", nnodes=4),
               {"app": "minivite", "nprocs": 8, "mtbf": "1h",
                "nnodes": 4, "objective": "efficiency"}]
    many = session.advise_many(queries)
    model = CalibratedModel(fit_session(session))
    assert many[0] == advise_rows("minivite", 8, "20m", nnodes=4,
                                  model=model)
    assert many[1] == advise_rows("minivite", 8, "1h", nnodes=4,
                                  objective="efficiency", model=model)
    # and the calibration version is stamped on every row
    assert {row.calibration for rows in many for row in rows} \
        == {model.version}


def test_session_advise_many_runs_on_demand_and_uncalibrated():
    from repro.modeling.advisor import advise as advise_rows

    session = (Campaign().apps("minivite").designs("reinit-fti")
               .nprocs(8).nnodes(4).faults("single").reps(1).session())
    # no explicit run(): advise_many runs the session on demand
    many = session.advise_many([{"app": "minivite", "nprocs": 8,
                                 "mtbf": "1h", "nnodes": 4}],
                               calibrate=False)
    assert session.results is not None
    assert many[0] == advise_rows("minivite", 8, "1h", nnodes=4)


def test_campaign_predict_many_matches_predict():
    campaign = (Campaign().apps("hpccg", "minife").nprocs(64, 512)
                .faults("poisson:7200"))
    assert campaign.predict_many() == campaign.predict()
