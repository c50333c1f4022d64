"""repro.obs — unified telemetry: traces, metrics, profiling.

The observability layer over the whole system (see
docs/OBSERVABILITY.md):

* :mod:`repro.obs.trace` — a :class:`~repro.obs.trace.Tracer` turns
  the campaign event stream plus the phase-hook protocol into
  hierarchical Chrome-trace spans (campaign → unit → sim phases).
* :mod:`repro.obs.metrics` — the process-wide
  :data:`~repro.obs.metrics.REGISTRY` of counters/gauges/histograms
  adopted by the engine, store, FTI layer and advisor service.
* :mod:`repro.obs.prom` — Prometheus text exposition of registry
  snapshots (the service's ``/metrics``).
* :mod:`repro.obs.profiling` — opt-in per-RunUnit cProfile capture and
  cross-worker hotspot aggregation.
* :mod:`repro.obs.env` — the ``MATCH_OBS`` / ``MATCH_TRACE`` toggles.

Design rule: telemetry *observes* runs and never feeds back into them
— run keys, virtual-time makespans and the serial/parallel bit-identity
contract are unchanged whether tracing is on or off, and all wall-clock
reads in the tree outside sanctioned engine/service timeout code live
here (``WALLCLOCK_SANCTIONED_DIRS`` in the contracts manifest).
"""

from .env import OBS_ENV, TRACE_ENV
from .metrics import REGISTRY, Counter, Gauge, Histogram, MetricsRegistry
from .prom import PROM_CONTENT_TYPE, render_prometheus

#: lazily exposed: the tracer pulls in :mod:`repro.core.events`; the
#: metrics/prom surface must stay light enough for
#: :mod:`repro.core.engine` to import at module load
_LAZY = {
    "Tracer": "trace",
    "validate_trace": "trace",
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(
            "module %r has no attribute %r" % (__name__, name))
    import importlib

    return getattr(importlib.import_module("." + module, __name__), name)


__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "OBS_ENV",
    "PROM_CONTENT_TYPE",
    "REGISTRY",
    "TRACE_ENV",
    "Tracer",
    "render_prometheus",
    "validate_trace",
]
