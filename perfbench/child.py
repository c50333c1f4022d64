"""One workload in one fresh interpreter: set up, run the untraced
passes, then (when asked) the traced passes and the isolated probes,
and print one JSON object.

A fresh interpreter per workload keeps the probe cache, the shared
``rs_code`` objects, the advisor's LRU and the native-kernel handle from
leaking between workloads. ``bench.py`` starts this file; under
``jobs=2`` the campaign's spawned workers re-import it as their main
module, so everything it does sits behind the ``__main__`` check and it
imports nothing heavy at module level.
"""

from __future__ import annotations

import json
import resource
import sys
import time


def self_rss_mb() -> float:
    """Peak resident set of this interpreter so far (``ru_maxrss`` is
    in KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_passes(run_pass, host, budget_s: float, limit) -> list:
    """Whole passes until ``budget_s`` is spent: at least one, and
    another only while at least half of it still fits, so the pass
    count does not flip between runs when a pass is about as long as
    the budget. The host's speed is sampled around every pass (and by
    the workload between its operations); the samples a pass took are
    taken off its wall, and their mean is its ``host_speed``."""
    passes = []
    started = time.monotonic()
    host.around()
    while True:
        host.paused = 0.0
        entry = run_pass()
        entry["wall"] -= host.paused
        held = len(host.samples)
        host.around()
        entry["host_speed"] = host.factor()
        # the samples after this pass are the ones before the next
        del host.samples[:held]
        entry["rss_mb"] = self_rss_mb()
        passes.append(entry)
        elapsed = time.monotonic() - started
        if limit and len(passes) >= limit:
            break
        if elapsed + 0.5 * elapsed / len(passes) >= budget_s:
            break
    return passes


def main(argv) -> int:
    spec = json.loads(argv[1])
    import workloads

    workload = workloads.WORKLOADS[spec["workload"]](
        spec["seed"], spec["workdir"], spec["smoke"])
    limit = 1 if spec["smoke"] else None
    report: dict = {"workload": workload.name,
                    "repeats_operations": workload.repeats_operations}
    try:
        workload.setup()
        # CLOCK_MONOTONIC is system-wide on Linux, so the parent's
        # reading taken just before it started this interpreter and
        # this one are on the same axis
        started = time.monotonic()
        report["setup_s"] = started - spec["spawned"]
        report["untraced"] = run_passes(workload.run_pass, workload.host,
                                        spec["untraced_s"], limit)
        report["untraced_s"] = time.monotonic() - started
        if spec["traced_s"] > 0:
            base = report["untraced"]
            if workload.base_pass is not None:
                base = run_passes(workload.base_pass, workload.host, 0.0, 1)
            report["trace_base_walls"] = [
                entry["wall"] / entry["host_speed"] for entry in base]
            workload.before_trace()
            report.update(traced_passes(workload, spec["traced_s"], limit))
            # the probes are sized for a real run, not for the smoke test
            report["probes"] = {} if spec["smoke"] else workload.probes()
    finally:
        workload.teardown()
    from repro.apps.kernels._accel import native_kernels

    report["native_loaded"] = int(native_kernels() is not None)
    # this interpreter after its first pass — how many more fit the
    # budget varies, and each leaves the allocator a little fuller — or
    # the largest process it started (a jobs=2 worker, the advisor
    # server), counted once that has been waited for
    report["peak_rss_mb"] = max(
        report["untraced"][0]["rss_mb"],
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0)
    print(json.dumps(report))
    return 0


def traced_passes(workload, budget_s: float, limit) -> dict:
    """Install the wrap table, run the traced passes, and fold each
    pass's spans into per-layer self seconds before dropping them."""
    import spans

    tracer = spans.Tracer()
    uninstall = spans.install(tracer)
    pass_target = tracer.target_index(spans.PASS_LAYER, "pass")
    layers: dict = {}
    calls: dict = {}
    extras: dict = {}
    records = 0
    wrapped = 0.0

    def run_pass():
        nonlocal records, wrapped
        index = tracer.begin(pass_target)
        try:
            result = workload.run_traced_pass(tracer)
        finally:
            tracer.finish(index)
        for (layer, name), seconds in spans.target_self_seconds(
                tracer).items():
            layers[layer] = layers.get(layer, 0.0) + seconds
            if name in spans.WRAPPED_NAMES:
                wrapped += seconds
        for name, count in spans.call_counts(tracer).items():
            calls[name] = calls.get(name, 0) + count
        extras.update(workload.trace_extras(tracer))
        records += len(tracer)
        tracer.clear()
        return result

    # a sample taken inside a traced pass would be charged to the span
    # that is open: those passes are sampled around only
    workload.host.ticking = False
    try:
        traced = run_passes(run_pass, workload.host, budget_s, limit)
    finally:
        uninstall()
    return {"traced": traced, "layers": layers, "wrapped_s": wrapped,
            "calls": calls, "amounts": dict(tracer.amounts),
            "extras": extras, "span_records": records}


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
