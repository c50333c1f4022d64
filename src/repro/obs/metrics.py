"""Process-wide metrics registry: counters, gauges, histograms.

One registry (:data:`REGISTRY`) serves the whole process — campaign
engine, result store, FTI layer and advisor service all register their
instruments here. Design constraints, in order:

* **Zero overhead when disabled.** ``REGISTRY.set_enabled(False)``
  turns every ``inc``/``set``/``observe`` into a single boolean check;
  the perf gate's ``events_overhead_pct`` series holds the enabled
  path to <=1% on campaign throughput, so the hot-path cost must stay
  one dict update behind one lock.
* **Mergeable snapshots.** The campaign engine's long-lived spawn
  workers accumulate into their own registry, which they
  :meth:`MetricsRegistry.reset` before each unit; the engine ships
  that unit's :meth:`MetricsRegistry.snapshot` dict back through the
  result pipe and folds it in with :meth:`MetricsRegistry.merge` —
  counters and histogram buckets add, gauges take the incoming value.
* **Deterministic output.** Snapshots order samples by sorted label
  key so two scrapes of the same state are byte-identical after
  :func:`repro.obs.prom.render_prometheus`.

No wall clocks live here: time enters a histogram only as a value the
*caller* observed (engine/service monotonic reads are sanctioned; see
``WALLCLOCK_SANCTIONED_DIRS`` in ``repro.analysis.contracts``).
"""

from __future__ import annotations

import threading

from ..errors import ConfigurationError

#: default latency buckets (seconds) — tuned for the advisor service's
#: microsecond-to-millisecond endpoint range, with headroom for slow
#: batch calls. The implicit +Inf bucket is always appended on export.
DEFAULT_BUCKETS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
    0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

_NAME_OK = frozenset("abcdefghijklmnopqrstuvwxyz0123456789_:")


def _check_name(name):
    if not name or not set(name.lower()) <= _NAME_OK or name[0].isdigit():
        raise ConfigurationError("invalid metric name: %r" % (name,))
    return name


def _label_key(labels):
    """Canonical, hashable, JSON-roundtrip-stable key for a label set."""
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _key_to_labels(key):
    return dict(key)


class _Metric:
    """Shared plumbing: a named family of samples keyed by label set."""

    kind = "untyped"

    def __init__(self, name, help_text, registry):
        self.name = _check_name(name)
        self.help = help_text
        self._registry = registry
        self._samples = {}  # label_key -> value (type-specific)

    # -- snapshot ------------------------------------------------------
    def _sample_rows(self):
        rows = []
        for key in sorted(self._samples):
            rows.append({"labels": _key_to_labels(key),
                         "value": self._export_value(self._samples[key])})
        return rows

    def _export_value(self, value):
        return value

    def _clear(self):
        self._samples.clear()


class Counter(_Metric):
    """Monotonically increasing count. ``inc`` only; never decreases."""

    kind = "counter"

    def inc(self, amount=1, **labels):
        if amount < 0:
            raise ConfigurationError(
                "counter %s cannot decrease (inc %r)" % (self.name, amount))
        registry = self._registry
        if not registry.enabled:
            return
        key = _label_key(labels)
        with registry._lock:
            self._samples[key] = self._samples.get(key, 0) + amount

    def value(self, **labels):
        return self._samples.get(_label_key(labels), 0)


class Gauge(_Metric):
    """Point-in-time value: queue depth, cache size, hit rate."""

    kind = "gauge"

    def set(self, value, **labels):
        registry = self._registry
        if not registry.enabled:
            return
        key = _label_key(labels)
        with registry._lock:
            self._samples[key] = float(value)

    def inc(self, amount=1, **labels):
        registry = self._registry
        if not registry.enabled:
            return
        key = _label_key(labels)
        with registry._lock:
            self._samples[key] = self._samples.get(key, 0.0) + amount

    def dec(self, amount=1, **labels):
        self.inc(-amount, **labels)

    def value(self, **labels):
        return self._samples.get(_label_key(labels), 0.0)


class Histogram(_Metric):
    """Cumulative-bucket histogram of observed values (e.g. latency).

    Stored per label set as ``[counts_per_bucket..., +inf_count]`` plus
    running sum and count; exported in Prometheus cumulative form.
    """

    kind = "histogram"

    def __init__(self, name, help_text, registry, buckets=DEFAULT_BUCKETS):
        super().__init__(name, help_text, registry)
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ConfigurationError(
                "histogram %s needs at least one bucket" % name)
        self.buckets = bounds

    def observe(self, value, **labels):
        registry = self._registry
        if not registry.enabled:
            return
        value = float(value)
        key = _label_key(labels)
        with registry._lock:
            state = self._samples.get(key)
            if state is None:
                state = {"counts": [0] * (len(self.buckets) + 1),
                         "sum": 0.0, "count": 0}
                self._samples[key] = state
            idx = len(self.buckets)
            for i, bound in enumerate(self.buckets):
                if value <= bound:
                    idx = i
                    break
            state["counts"][idx] += 1
            state["sum"] += value
            state["count"] += 1

    def _export_value(self, state):
        return {"counts": list(state["counts"]),
                "sum": state["sum"], "count": state["count"]}


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricsRegistry:
    """Thread-safe home for every instrument in the process.

    ``counter``/``gauge``/``histogram`` are get-or-create: calling twice
    with the same name returns the same object, so modules can declare
    their instruments at import time without coordination. Re-declaring
    a name as a different kind is a configuration error.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._metrics = {}  # name -> _Metric
        self.enabled = True

    # -- declaration ---------------------------------------------------
    def _get_or_create(self, kind, name, help_text, **kwargs):
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if existing.kind != kind:
                    raise ConfigurationError(
                        "metric %s already registered as %s, not %s"
                        % (name, existing.kind, kind))
                return existing
            metric = _KINDS[kind](name, help_text, self, **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(self, name, help_text=""):
        return self._get_or_create("counter", name, help_text)

    def gauge(self, name, help_text=""):
        return self._get_or_create("gauge", name, help_text)

    def histogram(self, name, help_text="", buckets=DEFAULT_BUCKETS):
        return self._get_or_create("histogram", name, help_text,
                                   buckets=buckets)

    def get(self, name):
        return self._metrics.get(name)

    # -- switches ------------------------------------------------------
    def set_enabled(self, enabled):
        """Flip the whole registry on/off. Off = every record is a no-op."""
        self.enabled = bool(enabled)

    def reset(self):
        """Zero every sample (metric objects survive). Test isolation."""
        with self._lock:
            for name in sorted(self._metrics):
                self._metrics[name]._clear()

    # -- snapshot / merge ----------------------------------------------
    def snapshot(self):
        """JSON-able view: ``{name: {type, help, samples: [...]}}``.

        Only families with at least one sample appear — a worker that
        touched nothing ships an empty dict.
        """
        out = {}
        with self._lock:
            for name in sorted(self._metrics):
                metric = self._metrics[name]
                rows = metric._sample_rows()
                if not rows:
                    continue
                family = {"type": metric.kind, "help": metric.help,
                          "samples": rows}
                if metric.kind == "histogram":
                    family["buckets"] = list(metric.buckets)
                out[name] = family
        return out

    def merge(self, snapshot):
        """Fold a worker snapshot into this registry.

        Counters and histogram buckets add; gauges take the incoming
        value (last write wins — workers rarely set gauges). Families
        unknown to this process are created on the fly so plugin
        metrics survive the pipe too.
        """
        for name in sorted(snapshot):
            family = snapshot[name]
            kind = family.get("type", "counter")
            if kind == "histogram":
                metric = self.histogram(name, family.get("help", ""),
                                        buckets=family.get("buckets",
                                                           DEFAULT_BUCKETS))
            elif kind == "gauge":
                metric = self.gauge(name, family.get("help", ""))
            else:
                metric = self.counter(name, family.get("help", ""))
            with self._lock:
                for row in family.get("samples", ()):
                    key = _label_key(row.get("labels", {}))
                    value = row.get("value", 0)
                    if kind == "histogram":
                        state = metric._samples.get(key)
                        if state is None:
                            state = {"counts": [0] * (len(metric.buckets) + 1),
                                     "sum": 0.0, "count": 0}
                            metric._samples[key] = state
                        counts = value.get("counts", [])
                        for i, n in enumerate(counts[:len(state["counts"])]):
                            state["counts"][i] += n
                        state["sum"] += value.get("sum", 0.0)
                        state["count"] += value.get("count", 0)
                    elif kind == "gauge":
                        metric._samples[key] = float(value)
                    else:
                        metric._samples[key] = (
                            metric._samples.get(key, 0) + value)


#: the process-wide registry every instrumented module shares
REGISTRY = MetricsRegistry()
