"""The calibration-versioned cell-grid memo.

One :class:`~repro.modeling.vector.CellGrid` per workload signature
(:attr:`~repro.service.query.AdviceQuery.group_key`): the scalar-priced
constants the vectorized cold path needs. Building one costs a dozen
model-protocol calls; serving from it costs none. Rankings are *not*
kept here — the one ranking cache is the service's LRU
(:mod:`repro.service.lru`), which warming pre-populates at
:data:`DEFAULT_MTBF_BUCKETS`.

Invalidation is wholesale and version-driven: the memo is stamped with
the cost model's calibration version
(:func:`repro.modeling.costs.model_version`) and ``set_model`` with a
different version drops every grid
(:meth:`repro.service.core.AdvisorService.set_model` flushes the LRU in
the same step).
"""

from __future__ import annotations

from ..modeling.costs import model_version, resolve_model
from .query import AdviceQuery
from .vector import grid_for_query

#: the canonical MTBF bucket grid (seconds): the paper's sweep range,
#: five minutes to a week, at the resolutions operators actually quote
DEFAULT_MTBF_BUCKETS = (
    300.0, 600.0, 1800.0, 3600.0, 7200.0, 14400.0, 28800.0,
    43200.0, 86400.0, 172800.0, 604800.0)


class GridCache:
    """Versioned memo of cell grids, one per workload signature."""

    def __init__(self, model="analytic"):
        self.model = resolve_model(model)
        self.version = model_version(self.model)
        self._grids: dict = {}
        self.grid_builds = 0

    @property
    def grids(self) -> dict:
        """The live group_key -> CellGrid mapping (what
        :func:`repro.service.vector.advise_batch` takes as ``grids``)."""
        return self._grids

    def grid(self, query: AdviceQuery):
        """The query's cell grid, building and memoizing on first use."""
        key = query.group_key
        grid = self._grids.get(key)
        if grid is None:
            grid = grid_for_query(query, model=self.model)
            self._grids[key] = grid
            self.grid_builds += 1
        return grid

    def invalidate(self) -> None:
        """Drop every grid (recalibration)."""
        self._grids.clear()

    def set_model(self, model) -> str:
        """Swap the cost model; if its calibration version differs,
        every grid is invalidated. Returns the live version."""
        model = resolve_model(model)
        version = model_version(model)
        if version != self.version:
            self.invalidate()
        self.model = model
        self.version = version
        return self.version

    def stats(self) -> dict:
        return {"version": self.version, "grids": len(self._grids),
                "grid_builds": self.grid_builds}


__all__ = ["DEFAULT_MTBF_BUCKETS", "GridCache"]
