"""GridCache (the versioned cell-grid memo) and warming: bucket
rankings live in the service's LRU, with exact-hit semantics and a
versioned flush."""

from repro.modeling.advisor import advise
from repro.modeling.fit import CalibratedModel, FittedConstants
from repro.service.core import AdvisorService
from repro.service.grid import DEFAULT_MTBF_BUCKETS, GridCache
from repro.service.query import AdviceQuery


def test_warm_precomputes_every_bucket():
    service = AdvisorService()
    workload = AdviceQuery.make("hpccg", 512, "1h")
    entries = service.warm([workload, workload])    # duplicates fold
    assert entries == len(DEFAULT_MTBF_BUCKETS) == len(service.queries)
    assert service.grids.stats()["grids"] == 1


def test_bucket_hit_is_bit_identical_to_scalar():
    service = AdvisorService()
    workload = AdviceQuery.make("hpccg", 512, "1h")
    service.warm([workload])
    builds = service.grids.grid_builds
    for bucket in DEFAULT_MTBF_BUCKETS:
        hits = service.queries.stats()["hits"]
        rows = service.advise(workload.with_mtbf(bucket))
        assert service.queries.stats()["hits"] == hits + 1
        assert rows == advise("hpccg", 512, bucket)
    assert service.grids.grid_builds == builds == 1


def test_lookup_requires_exact_mtbf_no_nearest_bucket():
    service = AdvisorService()
    workload = AdviceQuery.make("hpccg", 512, "1h")
    service.warm([workload])
    near_miss = workload.with_mtbf(3600.0 + 1e-9)
    assert near_miss.cache_key not in service.queries
    rows = service.advise(near_miss)                # answered cold
    stats = service.queries.stats()
    assert stats["misses"] == 1 and stats["hits"] == 0
    assert rows == advise("hpccg", 512, 3600.0 + 1e-9)
    assert service.grids.grid_builds == 1           # warmed grid reused


def test_grid_memoized_per_workload():
    cache = GridCache()
    a = AdviceQuery.make("hpccg", 512, "1h")
    b = AdviceQuery.make("hpccg", 512, "4h")     # same workload
    c = AdviceQuery.make("hpccg", 64, "1h")      # different scale
    assert cache.grid(a) is cache.grid(b)
    assert cache.grid(c) is not cache.grid(a)
    assert cache.grid_builds == 2
    assert cache.stats() == {"version": "analytic", "grids": 2,
                             "grid_builds": 2}


def test_set_model_with_new_version_invalidates():
    service = AdvisorService()
    workload = AdviceQuery.make("hpccg", 64, "1h")
    bucket = DEFAULT_MTBF_BUCKETS[0]
    service.warm([workload])
    model = CalibratedModel(FittedConstants(app_scale={"hpccg": 1.3}))
    version = service.set_model(model)
    assert version == model.version != "analytic"
    assert len(service.queries) == 0             # warmed rankings dropped
    assert service.grids.stats()["grids"] == 0
    # re-warmed answers now reflect the new constants
    service.warm([workload])
    rows = service.advise(workload.with_mtbf(bucket))
    assert rows == advise("hpccg", 64, bucket, model=model)
    assert rows != advise("hpccg", 64, bucket)


def test_set_model_same_version_keeps_cache():
    cache = GridCache()
    cache.grid(AdviceQuery.make("hpccg", 64, "1h"))
    assert cache.set_model("analytic") == "analytic"
    assert cache.stats()["grids"] == 1
    assert cache.grid_builds == 1
