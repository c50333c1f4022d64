"""AdvisorService layering: every layer serves the same bits, and
recalibration invalidates all of them at once."""

import inspect

from repro.api import Campaign
from repro.modeling.advisor import advise
from repro.modeling.fit import CalibratedModel, FittedConstants
from repro.modeling.makespan import predict
from repro.service.core import AdvisorService
from repro.service.query import AdviceQuery


def test_cold_lru_and_grid_answers_are_identical_to_scalar():
    # "grid" = a warmed bucket of the canonical MTBF grid, which is an
    # LRU entry like any other
    scalar = advise("hpccg", 512, "2h")
    query = AdviceQuery.make("hpccg", 512, "2h")

    cold_service = AdvisorService()
    cold = cold_service.advise(query)
    assert cold == scalar

    lru_hit = cold_service.advise(query)
    assert lru_hit is cold                      # served from the LRU
    assert cold_service.queries.stats()["hits"] == 1

    warm_service = AdvisorService()
    warm_service.warm([query])                  # 2h is a bucket
    warmed = warm_service.advise(query)
    assert warmed == scalar
    assert warm_service.queries.stats()["hits"] == 1


def test_advise_batch_layers_and_matches_scalar():
    service = AdvisorService()
    queries = [AdviceQuery.make("hpccg", 512, mtbf)
               for mtbf in ("30m", "1h", "90m", "1h", "30m")]
    service.advise(queries[0])                  # park one in the LRU
    service.warm([queries[1]])                  # buckets cover 30m/1h
    before = service.queries.stats()
    answers = service.advise_batch(queries)
    after = service.queries.stats()
    assert after["hits"] == before["hits"] + 4  # 90m goes cold
    assert after["misses"] == before["misses"] + 1
    for query, answer in zip(queries, answers):
        assert answer == advise("hpccg", 512, query.mtbf_seconds)[0]


def test_recalibration_changes_version_and_flushes_every_layer():
    service = AdvisorService()
    query = AdviceQuery.make("hpccg", 64, "1h")
    service.warm([query])
    before = service.advise(query)
    assert len(service.queries) > 0
    assert before[0].calibration == "analytic"

    model = CalibratedModel(FittedConstants(app_scale={"hpccg": 1.4}))
    version = service.set_model(model)
    assert version == model.version
    assert service.calibration == version
    assert len(service.queries) == 0            # LRU flushed
    assert service.grids.stats()["grids"] == 0

    after = service.advise(query)
    assert after == advise("hpccg", 64, 3600.0, model=model)
    assert after != before
    assert after[0].calibration == version


def test_set_model_same_version_keeps_query_cache():
    service = AdvisorService()
    query = AdviceQuery.make("hpccg", 64, "1h")
    service.advise(query)
    service.set_model("analytic")
    assert len(service.queries) == 1


def test_recalibrate_from_store(tmp_path):
    store = tmp_path / "results.jsonl"
    (Campaign().apps("hpccg").nprocs(64).designs("reinit-fti")
     .faults("single").reps(1).store(str(store)).run())
    service = AdvisorService()
    version = service.recalibrate([str(store)])
    assert version.startswith("calibrated:analytic:")
    assert service.calibration == version
    rows = service.advise(AdviceQuery.make("hpccg", 64, "2h"))
    assert rows[0].calibration == version


def test_predict_accepts_dicts_and_matches_scalar():
    from repro.core.configs import config_to_dict

    configs = (Campaign().apps("hpccg").nprocs(64)
               .designs("reinit-fti", "ulfm-fti")
               .faults("poisson:3600")).configs()
    service = AdvisorService()
    from_objects = service.predict(configs)
    from_dicts = service.predict([config_to_dict(c) for c in configs])
    scalar = [predict(c) for c in configs]
    assert from_objects == scalar
    assert from_dicts == scalar


def test_metrics_shape():
    service = AdvisorService()
    service.advise(AdviceQuery.make("hpccg", 64, "1h"))
    metrics = service.metrics()
    assert metrics["calibration"] == "analytic"
    assert metrics["query_cache"]["size"] == 1
    assert metrics["grid_cache"]["grids"] == 1
    assert metrics["grid_cache"]["grid_builds"] == 1
    assert sorted(metrics) == ["calibration", "grid_cache", "query_cache"]


def test_constructor_surface_is_pinned():
    from repro.service.grid import GridCache

    assert list(inspect.signature(AdvisorService.__init__).parameters) \
        == ["self", "model", "query_cache_size"]
    assert list(inspect.signature(GridCache.__init__).parameters) \
        == ["self", "model"]
