"""repro.service — the advisor as a long-running, high-QPS service.

The scalar advisor answers one query in ~1 ms; the ROADMAP's serving
story needs five orders of magnitude more headroom. This package gets
there with a few small layers, each one module and each testable alone:

* :mod:`~repro.service.query` — :class:`AdviceQuery`, the canonical,
  hashable query object every layer keys on.
* :mod:`~repro.service.lru` — a plain LRU mapping with hit/miss
  accounting: the one cache of rankings, keyed by exact query and
  pre-populated at the canonical MTBF buckets by ``warm()``.
* :mod:`~repro.service.grid` — the per-workload
  :class:`~repro.modeling.vector.CellGrid` memo the cold path prices
  from; versioned by the cost model's calibration so recalibration
  invalidates everything at once.
* :mod:`~repro.service.vector` — the batch query core:
  ``advise_batch(queries) -> list[Advice]`` grouping queries by
  workload and evaluating each group's grid in one numpy pass.
* :mod:`~repro.service.core` — :class:`AdvisorService`, the layered
  composition (LRU → vectorized cold path) with explicit
  recalibration hooks.
* :mod:`~repro.service.http` — the asyncio HTTP/JSON front end
  (``match-bench serve``); records per-endpoint request counts and
  latency in the :mod:`repro.obs` registry, served at ``/metrics``.

Every layer preserves the advisor's bit-identity contract: a served
answer — cold, warmed or LRU-hit — equals a fresh
:func:`repro.modeling.advisor.advise` call exactly.
"""

from .core import AdvisorService
from .grid import GridCache
from .http import AdvisorServer
from .lru import LRUCache
from .query import AdviceQuery
from .vector import advise_batch, advise_batch_ranked

__all__ = [
    "AdviceQuery",
    "AdvisorServer",
    "AdvisorService",
    "GridCache",
    "LRUCache",
    "advise_batch",
    "advise_batch_ranked",
]
