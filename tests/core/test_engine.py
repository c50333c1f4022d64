"""The parallel, resumable campaign execution engine.

The expensive invariants live here: parallel (`jobs=N`) and serial
summaries are bit-identical on a seeded 3-design mini-matrix, a killed
sweep resumes exactly where its store left off, and shard selection
partitions the matrix.
"""

import shutil

import pytest

from repro.api import Campaign, check_campaign
from repro.core.breakdown import run_result_from_dict, run_result_to_dict
from repro.core.campaign import campaign_results_from_records
from repro.core.configs import (
    ExperimentConfig,
    campaign_matrix,
    config_from_dict,
    config_to_dict,
    run_key,
)
from repro.core.engine import (
    CampaignEngine,
    RunUnit,
    campaign_units,
    execute_unit,
    parse_shard,
    shard_units,
)
from repro.core.store import ResultStore, merge_store_paths
from repro.errors import ConfigurationError

RUNS = 2


def mini_config(**kwargs):
    defaults = dict(app="hpccg", design="reinit-fti", nprocs=8, nnodes=4,
                    inject_fault=True)
    defaults.update(kwargs)
    return ExperimentConfig(**defaults)


def run_campaign_matrix(configs, runs, jobs=1, engine=None):
    """``{label: CampaignResult}`` of a distribution campaign."""
    check_campaign(configs, runs)
    campaign = Campaign.from_configs(configs).reps(runs).jobs(jobs)
    return campaign.session(engine=engine).run().campaigns()


@pytest.fixture(scope="module")
def mini_configs():
    """3 designs × 1 app: the cheap sweep shared by store tests."""
    return campaign_matrix(("minivite",), nprocs=8, nnodes=4)


@pytest.fixture(scope="module")
def serial_sweep(mini_configs, tmp_path_factory):
    """Serial ground truth plus the store it wrote."""
    path = tmp_path_factory.mktemp("sweep") / "full.jsonl"
    engine = CampaignEngine(jobs=1, store_path=str(path))
    results = run_campaign_matrix(mini_configs, runs=RUNS, engine=engine)
    return results, path


def assert_bit_identical(left, right):
    assert left.keys() == right.keys()
    for label in left:
        a, b = left[label], right[label]
        assert a.report() == b.report()
        # DistributionSummary is frozen with float fields: == here means
        # every derived statistic is bit-identical, not merely close.
        assert a.recovery == b.recovery
        assert a.total == b.total
        assert a.rework == b.rework
        assert a.victims() == b.victims()


# -- run keys ---------------------------------------------------------------
def test_run_key_pinned():
    """Keys are a cross-process/platform contract; pin them.

    Re-pinned for RUN_KEY_SCHEMA 2 (configs carry a canonical ``faults``
    scenario); schema-1 stores are deliberately invalidated — the engine
    treats their records as not-done and re-runs, which is always safe.
    """
    config = mini_config()
    assert run_key(config, 0) == "149ec4c1350d77f1"
    assert run_key(config, 1) == "c361c7f6f6eb7c07"


def test_run_key_sensitive_to_content():
    config = mini_config()
    keys = {run_key(config, 0), run_key(config, 1),
            run_key(mini_config(seed=1), 0),
            run_key(mini_config(app="minivite"), 0),
            run_key(mini_config(design="ulfm-fti"), 0)}
    assert len(keys) == 5


def test_config_dict_round_trip():
    config = mini_config(seed=3)
    assert config_from_dict(config_to_dict(config)) == config
    with pytest.raises(ConfigurationError):
        config_from_dict({"app": "hpccg", "design": "reinit-fti",
                          "bogus": 1})


# -- sharding ---------------------------------------------------------------
def test_parse_shard():
    assert parse_shard("1/2") == (1, 2)
    assert parse_shard("3/3") == (3, 3)
    for bad in ("0/2", "3/2", "x", "1", "1/0", "/", "1/2/3", ""):
        with pytest.raises(ConfigurationError):
            parse_shard(bad)


def test_shard_union_covers_matrix(mini_configs):
    units = campaign_units(mini_configs, 4)
    all_keys = {u.key for u in units}
    for n in (2, 3, 5):
        shards = [shard_units(units, k, n) for k in range(1, n + 1)]
        sizes = [len(s) for s in shards]
        assert sum(sizes) == len(units)
        assert max(sizes) - min(sizes) <= 1
        seen = set()
        for shard in shards:
            keys = {u.key for u in shard}
            assert not keys & seen
            seen |= keys
        assert seen == all_keys


# -- execution paths --------------------------------------------------------
def test_execute_unit_matches_legacy_serial_loop():
    """The engine's unit executor is the serial harness, verbatim."""
    from repro.core.designs import DESIGNS
    from repro.core.harness import build_cluster, make_fault_plan

    config = mini_config()
    for rep in range(2):
        cluster = build_cluster(config)
        design = DESIGNS[config.design](cluster)
        app = config.make_app()
        plan = make_fault_plan(config, app, rep)
        legacy = design.run_job(app, config.fti, plan, label=config.label())
        engine_result = execute_unit(RunUnit(config, rep))
        assert run_result_to_dict(engine_result) == \
            run_result_to_dict(legacy)


def test_run_result_round_trip_is_lossless():
    result = execute_unit(RunUnit(mini_config(), 0))
    as_dict = run_result_to_dict(result)
    rebuilt = run_result_from_dict(as_dict)
    assert run_result_to_dict(rebuilt) == as_dict
    assert rebuilt.breakdown.total_seconds == result.breakdown.total_seconds
    assert rebuilt.fault_events == result.fault_events


def test_parallel_matches_serial_bit_identical():
    """The acceptance matrix: 3 designs × 2 apps, --jobs N == --jobs 1."""
    configs = campaign_matrix(("minivite", "hpccg"), nprocs=8, nnodes=4)
    serial = run_campaign_matrix(configs, runs=RUNS, jobs=1)
    parallel = run_campaign_matrix(configs, runs=RUNS, jobs=4)
    assert_bit_identical(serial, parallel)


def test_one_loop_in_process_and_spawn_workers_agree(tmp_path):
    """The engine has one dispatch loop and two workers. With one slot
    the in-process worker (``jobs=1``) and the spawn worker (``jobs=1``
    plus a timeout) must produce the same event order and the same
    store bytes, not merely the same summaries."""
    configs = [mini_config(app="minivite"),
               mini_config(app="minivite", design="ulfm-fti")]
    units = campaign_units(configs, 2)

    def trace(path, **kwargs):
        engine = CampaignEngine(jobs=1, store_path=str(path), **kwargs)
        events = [(type(e).__name__, e.unit.key, e.completed)
                  for e in engine.stream(units) if hasattr(e, "unit")]
        return events, path.read_bytes()

    in_process = trace(tmp_path / "in_process.jsonl")
    spawned = trace(tmp_path / "spawned.jsonl", timeout=60)
    assert in_process == spawned
    assert [name for name, _, _ in in_process[0]] == \
        ["UnitStarted", "UnitCompleted"] * len(units)


# -- resume -----------------------------------------------------------------
def test_resume_after_kill(serial_sweep, mini_configs, tmp_path):
    """Truncate the store mid-record (a kill) and resume: only the
    missing runs execute and the summaries match bit-for-bit."""
    full_results, full_store = serial_sweep
    lines = full_store.read_text().splitlines()
    assert len(lines) == len(mini_configs) * RUNS
    killed = tmp_path / "killed.jsonl"
    killed.write_text("\n".join(lines[:3]) + "\n" + lines[3][:40] + "\n")

    engine = CampaignEngine(jobs=1, store_path=str(killed), resume=True)
    resumed = run_campaign_matrix(mini_configs, runs=RUNS, engine=engine)
    assert engine.skipped == 3
    assert engine.executed == len(lines) - 3
    assert_bit_identical(full_results, resumed)

    # a second resume finds everything done and executes nothing
    engine = CampaignEngine(jobs=1, store_path=str(killed), resume=True)
    again = run_campaign_matrix(mini_configs, runs=RUNS, engine=engine)
    assert engine.executed == 0
    assert engine.skipped == len(lines)
    assert_bit_identical(full_results, again)


def test_resume_requires_store():
    with pytest.raises(ConfigurationError):
        CampaignEngine(jobs=1, resume=True)


def test_engine_validates_tuple_shards():
    assert CampaignEngine(shard=(2, 3)).shard == (2, 3)
    assert CampaignEngine(shard="2/3").shard == (2, 3)
    for bad in ((0, 2), (3, 2), (1,), (1, 2, 3), 7):
        with pytest.raises(ConfigurationError):
            CampaignEngine(shard=bad)


def test_resume_ignores_stale_records(serial_sweep, mini_configs, tmp_path):
    """Records the sweep doesn't reference — other configs, foreign
    tools, or records whose payload no longer deserializes — never
    satisfy or break a resume."""
    import json

    _, full_store = serial_sweep
    store = tmp_path / "other.jsonl"
    shutil.copy(full_store, store)
    other = campaign_matrix(("hpccg",), nprocs=8, nnodes=4)[:1]
    with open(store, "a") as handle:
        # valid JSONL, garbage payloads: one foreign key, one key the
        # sweep needs — the latter must simply re-execute
        handle.write(json.dumps({"key": "feedfacefeedface", "rep": 0,
                                 "config": {}, "result": {"v": 1}}) + "\n")
        handle.write(json.dumps({"key": RunUnit(other[0], 0).key, "rep": 0,
                                 "config": {}, "result": {"bogus": True}})
                     + "\n")
        # domain-invalid payload (bad fault kind): ConfigurationError
        # from deserialization must also mean "re-run", not "crash"
        handle.write(json.dumps(
            {"key": RunUnit(other[0], 1).key, "rep": 1, "config": {},
             "result": {"config_label": "x", "breakdown": {},
                        "verified": True,
                        "fault_events": [[0, 3, "sigterm"]]}}) + "\n")
    engine = CampaignEngine(jobs=1, store_path=str(store), resume=True)
    run_campaign_matrix(other, runs=RUNS, engine=engine)
    assert engine.skipped == 0
    assert engine.executed == RUNS


# -- shards + store merge ---------------------------------------------------
def test_shard_run_matches_serial_and_merge_covers(serial_sweep,
                                                   mini_configs, tmp_path):
    full_results, full_store = serial_sweep
    units = campaign_units(mini_configs, RUNS)
    records = ResultStore(full_store).load_completed()

    # rebuild per-shard stores from the serial ground truth for shard
    # 1 and 3; actually execute shard 2 to prove the sharded engine
    # selects exactly its slice and reproduces serial results
    shard_paths = []
    for k in (1, 3):
        shard_path = tmp_path / ("shard%d.jsonl" % k)
        store = ResultStore(shard_path)
        for unit in shard_units(units, k, 3):
            record = records[unit.key]
            store.append(record["key"], record["config"], record["rep"],
                         record["result"])
        shard_paths.append(shard_path)

    shard2_path = tmp_path / "shard2.jsonl"
    engine = CampaignEngine(jobs=1, store_path=str(shard2_path),
                            shard="2/3")
    run_campaign_matrix(mini_configs, runs=RUNS, engine=engine)
    expected_keys = {u.key for u in shard_units(units, 2, 3)}
    shard2_records = ResultStore(shard2_path).load_completed()
    assert set(shard2_records) == expected_keys
    shard_paths.insert(1, shard2_path)

    merged = merge_store_paths(shard_paths)
    assert set(merged) == {u.key for u in units}
    assert_bit_identical(full_results,
                         campaign_results_from_records(merged))


def test_results_from_records_rejects_empty():
    with pytest.raises(ConfigurationError):
        campaign_results_from_records({})


def test_matrix_rejects_label_collisions():
    """label() omits seed: two configs differing only there must not
    silently collapse into one summary."""
    configs = [mini_config(), mini_config(seed=1)]
    with pytest.raises(ConfigurationError, match="duplicate labels"):
        run_campaign_matrix(configs, runs=2)


def fake_record(config, rep):
    return {"key": run_key(config, rep), "rep": rep,
            "config": config_to_dict(config),
            "result": {"config_label": config.label(),
                       "breakdown": {"total_seconds": 1.0 + rep},
                       "verified": True}}


def test_records_with_undecodable_payloads_skipped():
    """campaign-report tolerates what resume tolerates: foreign or
    old-schema records are skipped, and the holes show up in
    --check-complete rather than as a traceback."""
    config = mini_config()
    records = {run_key(config, 0): fake_record(config, 0),
               "feedfacefeedface": {"key": "feedfacefeedface", "rep": 0,
                                    "config": {}, "result": {"v": 1}}}
    summaries = campaign_results_from_records(records)
    assert len(summaries) == 1
    with pytest.raises(ConfigurationError, match="undecodable"):
        campaign_results_from_records(
            {"x": {"key": "x", "rep": 0, "config": {}, "result": {}}})


def test_records_labels_match_live_labels():
    """A seeded sweep reports the same row label via `campaign` and
    `campaign-report` (no store-only seed suffix)."""
    config = mini_config(seed=5)
    records = {run_key(config, 0): fake_record(config, 0)}
    assert list(campaign_results_from_records(records)) == [config.label()]


def test_records_label_collision_disambiguated():
    """Merged stores with configs label() can't tell apart (here: only
    nnodes differs) must keep both groups, not overwrite one."""
    a, b = mini_config(nnodes=4), mini_config(nnodes=8)
    records = {}
    for config in (a, b):
        records[run_key(config, 0)] = fake_record(config, 0)
    summaries = campaign_results_from_records(records)
    assert len(summaries) == 2
    assert sum(len(s.runs) for s in summaries.values()) == 2
