"""AdvisorService: the layered composition the HTTP front end serves.

Answer path for one query, in order:

1. **LRU** (:mod:`repro.service.lru`) — exact-query hit returns the
   previously materialized ranking. :meth:`AdvisorService.warm`
   pre-populates it at the canonical MTBF buckets.
2. **Cold** (:mod:`repro.service.vector`) — vectorized evaluation over
   the workload's cell grid (built and memoized on first touch by
   :mod:`repro.service.grid`), then stored back into the LRU.

Both return the *same bits*: the cached objects are the vectorized
path's output, and the vectorized path is pinned bit-identical to
:func:`repro.modeling.advisor.advise`. Recalibration
(:meth:`set_model` / :meth:`recalibrate`) swaps the model, and a
calibration-version change atomically invalidates the LRU and the grid
memo — a served answer can never mix constants from two calibrations.
"""

from __future__ import annotations

from ..core.configs import config_from_dict
from ..modeling.fit import CalibratedModel, fit_store
from ..modeling.vector import predict_configs
from .grid import DEFAULT_MTBF_BUCKETS, GridCache
from .lru import LRUCache
from .query import AdviceQuery
from .vector import advise_batch, advise_batch_ranked


class AdvisorService:
    """The advisor behind a query-object API, with layered caching."""

    def __init__(self, model="analytic", *, query_cache_size: int = 4096):
        self.grids = GridCache(model=model)
        self.queries = LRUCache(maxsize=query_cache_size)

    # -- model lifecycle ----------------------------------------------------
    @property
    def model(self):
        return self.grids.model

    @property
    def calibration(self) -> str:
        """The live calibration version; every answer served now
        carries this tag."""
        return self.grids.version

    def set_model(self, model) -> str:
        """Swap the cost model. A calibration-version change clears the
        query cache and the grid memo together — neither may serve
        rows priced under the old constants. Returns the new version.
        """
        old = self.grids.version
        version = self.grids.set_model(model)
        if version != old:
            self.queries.clear()
        return version

    def recalibrate(self, store_specs, base="analytic") -> str:
        """Refit constants from result stores
        (:func:`repro.modeling.fit.fit_store`) and install the
        calibrated model. Returns the new calibration version."""
        constants = fit_store(store_specs, base=base)
        return self.set_model(CalibratedModel(constants, base=base))

    def warm(self, workloads) -> int:
        """Pre-populate the LRU with each workload's full ranking at
        every :data:`~repro.service.grid.DEFAULT_MTBF_BUCKETS` value.

        ``workloads`` is an iterable of
        :class:`~repro.service.query.AdviceQuery` (their own MTBF is
        ignored). Returns the number of (workload, bucket) rankings
        put. Also builds each workload's cell grid, so even off-bucket
        queries against a warmed workload skip model pricing.
        """
        todo: dict = {}
        for workload in workloads:
            self.grids.grid(workload)
            for bucket in DEFAULT_MTBF_BUCKETS:
                query = workload.with_mtbf(bucket)
                todo[query.cache_key] = query
        ranked = advise_batch_ranked(todo.values(), model=self.model,
                                     grids=self.grids.grids)
        for key, rows in zip(todo, ranked):
            self.queries.put(key, rows)
        return len(todo)

    # -- queries ------------------------------------------------------------
    def advise(self, query: AdviceQuery) -> list:
        """Full ranked advice for one query: LRU, else cold."""
        key = query.cache_key
        rows = self.queries.get(key)
        if rows is None:
            self.grids.grid(query)
            rows = advise_batch_ranked(
                [query], model=self.model, grids=self.grids.grids)[0]
            self.queries.put(key, rows)
        return rows

    def advise_batch(self, queries) -> list:
        """Top-ranked advice per query (parallel to the input).

        Rankings in the LRU answer with their first row; the misses go
        through one vectorized sweep. Top-1 answers are not written
        back to the LRU — only full rankings are cached, so a later
        ``advise`` of the same query does the work once.
        """
        queries = list(queries)
        answers: list = [None] * len(queries)
        cold: list = []
        cold_indexes: list = []
        for index, query in enumerate(queries):
            rows = self.queries.get(query.cache_key)
            if rows is not None:
                answers[index] = rows[0]
            else:
                self.grids.grid(query)
                cold.append(query)
                cold_indexes.append(index)
        if cold:
            for index, advice in zip(
                    cold_indexes,
                    advise_batch(cold, model=self.model,
                                 grids=self.grids.grids)):
                answers[index] = advice
        return answers

    def predict(self, configs) -> list:
        """Vectorized makespan predictions for experiment configs.

        ``configs`` may be :class:`~repro.core.configs.
        ExperimentConfig` objects or their dict form (the wire format).
        Returns predictions parallel to the input, bit-identical to
        :func:`repro.modeling.makespan.predict` per config.
        """
        resolved = [config_from_dict(config) if isinstance(config, dict)
                    else config for config in configs]
        return [prediction for _, prediction
                in predict_configs(resolved, model=self.model)]

    # -- observability ------------------------------------------------------
    def metrics(self) -> dict:
        return {"calibration": self.calibration,
                "query_cache": self.queries.stats(),
                "grid_cache": self.grids.stats()}

    def prometheus(self) -> str:
        """The process registry in Prometheus text exposition format.

        Endpoint counters/latency are recorded live by
        :meth:`repro.service.http.AdvisorServer.handle_request`; cache
        stats are point-in-time, so their gauges are synced here at
        scrape time. Output is a pure function of the metric state —
        two idle scrapes are byte-identical.
        """
        from ..obs.metrics import REGISTRY
        from ..obs.prom import render_prometheus

        gauge = REGISTRY.gauge(
            "match_service_cache_stat",
            "Advisor cache statistics, by cache and stat name")
        for cache_name, stats in (("query", self.queries.stats()),
                                  ("grid", self.grids.stats())):
            for stat_name in sorted(stats):
                value = stats[stat_name]
                if isinstance(value, bool) or not isinstance(
                        value, (int, float)):
                    continue  # e.g. the model-version string
                gauge.set(float(value), cache=cache_name, stat=stat_name)
        return render_prometheus(REGISTRY.snapshot())


__all__ = ["AdvisorService"]
