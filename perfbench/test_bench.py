"""Tests of the benchmark's own arithmetic and of its output shape."""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import bench  # noqa: E402
import child  # noqa: E402
import hostspeed  # noqa: E402
import spans  # noqa: E402
import stats  # noqa: E402

CONTRACT = bench.load_contract()


# -- percentiles and quartiles --------------------------------------------------
def test_percentile_interpolates_between_closest_ranks():
    values = [40.0, 10.0, 30.0, 20.0]
    assert stats.percentile(values, 0) == 10.0
    assert stats.percentile(values, 50) == 25.0
    assert stats.percentile(values, 90) == pytest.approx(37.0)
    assert stats.percentile(values, 100) == 40.0
    assert stats.percentile([7.0], 90) == 7.0
    with pytest.raises(ValueError):
        stats.percentile([], 50)
    with pytest.raises(ValueError):
        stats.percentile(values, 101)


def test_quartiles_are_the_drivers_quartiles():
    values = [3.1, 2.9, 3.0, 3.4, 2.8, 3.2, 3.05, 2.95, 3.3, 3.15]
    assert stats.quartiles(values) == tuple(
        statistics.quantiles(values, n=4))
    assert stats.quartiles([5.0]) == (5.0, 5.0, 5.0)


@pytest.mark.parametrize("count,level", [
    (19, None), (20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0),
    (1000, 99.0), (9999, 99.0), (10000, 99.9)])
def test_a_percentile_needs_ten_samples_beyond_it(count, level):
    assert stats.highest_supported_level(count) == level


def test_summary_reports_only_a_supported_upper_percentile():
    small = stats.summarize([1.0, 2.0, 3.0])
    assert small["n"] == 3 and small["median"] == 2.0
    assert "upper" not in small
    large = stats.summarize([float(i) for i in range(200)])
    assert large["upper_level"] == 90.0
    assert large["upper"] == stats.percentile(range(200), 90)


# -- span arithmetic ------------------------------------------------------------
class FakeClock:
    """A clock the test advances by hand."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def tick(self, seconds: float) -> None:
        self.now += seconds


def layer_seconds(tracer) -> dict:
    totals: dict = {}
    for (layer, _), seconds in spans.target_self_seconds(tracer).items():
        totals[layer] = totals.get(layer, 0.0) + seconds
    return {layer: pytest.approx(seconds)
            for layer, seconds in totals.items()}


def test_self_time_subtracts_nested_children():
    clock = FakeClock()
    tracer = spans.Tracer(clock)

    def kernel():
        clock.tick(3.0)

    kernel = spans.wrap_call(tracer, tracer.target_index("kernels", "k"),
                             kernel)

    def design():
        clock.tick(1.0)
        kernel()
        clock.tick(0.5)
        kernel()

    design = spans.wrap_call(tracer, tracer.target_index("designs", "d"),
                             design)
    unit = tracer.begin(tracer.target_index("engine", "unit"))
    clock.tick(0.25)
    design()
    tracer.finish(unit)
    assert layer_seconds(tracer) == {"engine": 0.25, "designs": 1.5,
                                     "kernels": 6.0}
    assert spans.call_counts(tracer) == {"unit": 1, "d": 1, "k": 2}
    # the self times of a tree add up to its root's duration
    assert sum(spans.self_times(tracer.parent, tracer.start,
                                tracer.end)) == pytest.approx(7.75)


def test_generator_segments_do_not_charge_parked_time():
    clock = FakeClock()
    tracer = spans.Tracer(clock)

    def rank(name):
        clock.tick(1.0)          # first resumption
        got = yield name + ":a"
        clock.tick(2.0)          # second resumption
        yield name + ":" + got
        clock.tick(4.0)          # third resumption
        return name + ":done"

    rank = spans.wrap_generator(
        tracer, tracer.target_index("apps", "rank"), rank)

    def scheduler():
        gen = rank("r0")
        assert next(gen) == "r0:a"
        clock.tick(10.0)         # the rank is parked in the scheduler
        assert gen.send("b") == "r0:b"
        clock.tick(20.0)
        with pytest.raises(StopIteration) as stop:
            next(gen)
        assert stop.value.value == "r0:done"

    scheduler = spans.wrap_call(
        tracer, tracer.target_index("runtime", "run"), scheduler)
    scheduler()
    assert layer_seconds(tracer) == {"runtime": 30.0, "apps": 7.0}
    # three segments, one span
    assert spans.call_counts(tracer) == {"run": 1, "rank": 1}
    assert len(tracer) == 4


def test_generator_wrapper_forwards_throw_and_close():
    tracer = spans.Tracer(FakeClock())
    seen = []

    def rank():
        try:
            yield 1
        except KeyError as exc:
            seen.append(("thrown", exc.args))
            yield 2
        try:
            yield 3
        finally:
            seen.append("closed")

    rank = spans.wrap_generator(
        tracer, tracer.target_index("apps", "rank"), rank)
    gen = rank()
    assert next(gen) == 1
    assert gen.throw(KeyError("lost")) == 2
    assert next(gen) == 3
    gen.close()
    assert seen == [("thrown", ("lost",)), "closed"]
    assert tracer._stack == []


def test_an_exception_closes_every_span_it_unwinds():
    clock = FakeClock()
    tracer = spans.Tracer(clock)

    def inner():
        clock.tick(1.0)
        raise RuntimeError("boom")

    inner = spans.wrap_call(tracer, tracer.target_index("b", "inner"), inner)

    def outer():
        clock.tick(2.0)
        inner()

    outer = spans.wrap_call(tracer, tracer.target_index("a", "outer"), outer)
    with pytest.raises(RuntimeError):
        outer()
    assert tracer._stack == []
    assert layer_seconds(tracer) == {"a": 2.0, "b": 1.0}


def test_overlapping_units_cover_their_parent_once():
    clock = FakeClock()
    tracer = spans.Tracer(clock)
    unit = tracer.target_index("engine", "unit")
    root = tracer.begin(tracer.target_index("bench.pass", "pass"))
    clock.tick(1.0)
    first = tracer.open(unit, 1)      # [1, 6]
    clock.tick(2.0)
    second = tracer.open(unit, 2)     # [3, 8]
    clock.tick(3.0)
    tracer.close(first)
    clock.tick(2.0)
    tracer.close(second)
    clock.tick(1.0)
    tracer.finish(root)               # [0, 9]
    # the two units cover [1, 8] of the pass once, not 5 + 5 seconds
    assert layer_seconds(tracer) == {"bench.pass": 2.0, "engine": 10.0}
    assert tracer.unit[first] == 1 and tracer.unit[second] == 2


def test_install_wraps_and_restores_classmethods_and_functions():
    sys.path.insert(0, os.path.join(bench.ROOT, "src"))
    from repro.service import query, vector

    tracer = spans.Tracer()
    table = (("service.query", "repro.service.query",
              "AdviceQuery.from_dict"),
             ("service.vector", "repro.service.vector", "advise_batch"))
    original = vector.advise_batch
    uninstall = spans.install(tracer, table)
    try:
        asked = query.AdviceQuery.from_dict(
            {"app": "hpccg", "nprocs": 64, "mtbf": "4h"})
        assert asked.mtbf_seconds == 14400.0
        assert vector.advise_batch is not original
        assert vector.advise_batch([asked])
    finally:
        uninstall()
    assert vector.advise_batch is original
    assert spans.call_counts(tracer) == {"AdviceQuery.from_dict": 1,
                                         "advise_batch": 1}


# -- host speed -------------------------------------------------------------------
@pytest.fixture
def slow_host(monkeypatch):
    """A host on which one sample takes twice the nominal time, on a
    clock the test advances by hand."""
    clock = FakeClock()

    def sample(self):
        clock.tick(2 * hostspeed.NOMINAL_SAMPLE_S)
        return 2 * hostspeed.NOMINAL_SAMPLE_S

    monkeypatch.setattr(hostspeed, "clock", clock)
    monkeypatch.setattr(hostspeed.HostSpeed, "sample", sample)
    return clock


def test_a_tick_samples_for_a_share_of_the_time_since_the_last(slow_host):
    host = hostspeed.HostSpeed()
    slow_host.tick(0.9 * hostspeed.NOMINAL_SAMPLE_S / hostspeed.SHARE)
    host.tick()
    assert host.samples == [] and host.paused == 0.0
    # the time not yet sampled for is still owed
    slow_host.tick(2.2 * hostspeed.NOMINAL_SAMPLE_S / hostspeed.SHARE)
    host.tick()
    assert len(host.samples) == 3
    assert host.paused == pytest.approx(6 * hostspeed.NOMINAL_SAMPLE_S)
    assert host.factor() == pytest.approx(2.0)
    slow_host.tick(3600.0)
    host.tick()
    assert len(host.samples) == 3 + hostspeed.MOST
    host.ticking = False
    slow_host.tick(3600.0)
    host.tick()
    assert len(host.samples) == 3 + hostspeed.MOST
    host.around()
    assert len(host.samples) == 3 + 2 * hostspeed.MOST


def test_a_pass_loses_its_samples_wall_and_keeps_their_mean(slow_host):
    host = hostspeed.HostSpeed()
    speeds = iter((1.0, 3.0))

    def run_pass():
        started = slow_host()
        slow_host.tick(5.0)
        # a tick between two operations, on a host whose speed differs
        # from pass to pass
        seconds = next(speeds) * hostspeed.NOMINAL_SAMPLE_S
        host.samples.append(seconds)
        slow_host.tick(seconds)
        host.paused += seconds
        return {"wall": slow_host() - started}

    first, second = child.run_passes(run_pass, host, 3600.0, 2)
    assert first["wall"] == second["wall"] == pytest.approx(5.0)
    # each pass: the samples before it, its own, and the ones after it
    around = min(hostspeed.MOST, int(hostspeed.SHARE * 5.0
                                     / hostspeed.NOMINAL_SAMPLE_S))
    assert first["host_speed"] == pytest.approx(
        (hostspeed.LEAST * 2 + 1 + around * 2) / (hostspeed.LEAST + 1 + around))
    assert second["host_speed"] == pytest.approx(
        (around * 2 + 3 + around * 2) / (2 * around + 1))


# -- metrics from child reports --------------------------------------------------
def synthetic_pass(wall, op_ms, answers=None, host_speed=1.0):
    """A pass as a child reports it: ``wall`` and ``op_ms`` as they
    would read on the nominal host, taken on a host ``host_speed``
    times slower."""
    return {"wall": wall * host_speed,
            "op_ms": [ms * host_speed for ms in op_ms],
            "host_speed": host_speed, "attempted": len(op_ms),
            "failed": 0, "answers": answers or len(op_ms),
            "outputs": {"cell": "1.5"}, "counts": {"recovery.episodes": 1}}


def test_end_to_end_metrics_come_from_medians_over_passes():
    # the second child met a host running half as fast again: its times
    # are reported as the nominal host would have read them
    reports = [
        {"setup_s": 0.5, "peak_rss_mb": 100.0, "repeats_operations": True,
         "untraced": [synthetic_pass(2.0, [10.0, 30.0], answers=2048)]},
        {"setup_s": 1.05, "peak_rss_mb": 110.0, "repeats_operations": True,
         "untraced": [synthetic_pass(4.0, [20.0, 40.0], answers=2048,
                                     host_speed=1.5)]},
        {"setup_s": 0.6, "peak_rss_mb": 105.0, "repeats_operations": True,
         "untraced": [synthetic_pass(3.0, [20.0, 30.0], answers=2048)]},
    ]
    measured = {name: pytest.approx(value) for name, (value, _)
                in bench.end_to_end(reports).items()}
    # the two operations' medians over the passes are 20 and 30 ms
    assert measured == {
        "setup_s": 0.6, "run_wall_s": 3.0, "units_per_s": 2 / 3.0,
        "queries_per_s": 2048 / 3.0, "request_p50_ms": 25.0,
        "peak_rss_mb": 105.0, "host_speed": 1.0}
    assert set(measured) - {"host_speed"} == {
        m["name"] for m in CONTRACT["end_to_end"]}
    assert bench.failed_operations(reports) == (6, 0)
    # requests never repeat: the median of the passes' own percentiles
    for report in reports:
        report["repeats_operations"] = False
    value, per_pass = bench.request_percentile(reports, 90.0)
    assert per_pass == pytest.approx([28.0, 38.0, 29.0])
    assert value == pytest.approx(29.0)
    for report in reports:
        report["repeats_operations"] = True
    assert bench.request_percentile(reports, 90.0)[0] == pytest.approx(29.0)


def test_per_layer_metrics_divide_self_time_by_traced_units():
    report = {
        "traced": [synthetic_pass(2.0, [1.0] * 4),
                   synthetic_pass(2.0, [1.0] * 4)],
        "trace_base_walls": [1.6], "wrapped_s": 3.4, "layers": {
            "core.engine": 0.4, "apps.kernels": 3.2, "bench.pass": 0.4},
        "calls": {"ReedSolomonCode.encode": 6}, "amounts": {
            "ReedSolomonCode.encode": 4096},
        "extras": {"service.lru.hit_ratio": 0.5}, "native_loaded": 1,
        "probes": {"core.store.append_ms": {"n": 5, "median": 0.2,
                                            "q1": 0.1, "q3": 0.3}}}
    values = bench.per_layer(report)
    assert values["core.engine.self_ms_per_unit"] == pytest.approx(50.0)
    assert values["apps.kernels.self_ms_per_unit"] == pytest.approx(400.0)
    assert values["fti.api.self_ms_per_unit"] == 0.0
    # 3.4 of the 4 traced seconds were spent inside wrapped callables
    assert values["trace.coverage"] == pytest.approx(0.85)
    assert values["trace.overhead_pct"] == pytest.approx(25.0)
    assert values["bench.host_speed"] == 1.0
    assert values["fti.rs_encoding.encode_calls"] == 3
    assert values["fti.rs_encoding.encode_bytes"] == 2048
    assert values["recovery.episodes"] == 1
    assert values["core.store.append_ms"] == 0.2
    names = {metric["name"] for metric in CONTRACT["per_layer"]}
    assert set(values) <= names


def test_outputs_that_differ_between_passes_count_as_failed():
    steady = [{"untraced": [synthetic_pass(1.0, [1.0]),
                            synthetic_pass(1.0, [1.0])]}]
    assert bench.check_outputs(steady, None) == 0
    drifting = [{"untraced": [synthetic_pass(1.0, [1.0]),
                              synthetic_pass(1.0, [1.0])]}]
    drifting[0]["untraced"][1]["outputs"] = {"cell": "1.5000001"}
    assert bench.check_outputs(drifting, None) == 1
    pinned = {"outputs": {"cell": "1.5"}, "counts": {"recovery.episodes": 2},
              "span_counts": {"fti.rs_encoding.encode_calls": 3,
                              "fti.rs_encoding.decode_calls": 0}}
    # both passes differ from the pinned count, and so does the encode
    # span count; a count pinned at 0 matches a layer never entered
    assert bench.check_outputs(
        steady, pinned, {"fti.rs_encoding.encode_calls": 4}) == 3


def test_reference_pins_the_paper_scale_makespan():
    reference = bench.load_reference()
    assert set(reference) == set(bench.WORKLOADS)
    [makespan] = reference["sim_scale"]["outputs"].values()
    assert makespan.startswith("14.613485")
    assert reference["campaign_serial"]["outputs"] \
        == reference["campaign_parallel"]["outputs"]


# -- --compare --------------------------------------------------------------------
def results_file(path, scale=1.0, spread=0.01, episodes=3, failed_share=0.0):
    """A results file in which every end-to-end metric of every workload
    reads 100 (times ``scale`` in the worse direction)."""
    workloads = {}
    for name in bench.WORKLOADS:
        end_to_end = {}
        for metric in CONTRACT["end_to_end"]:
            value = 100.0 * (scale if metric["better"] == "lower"
                             else 1.0 / scale)
            end_to_end[metric["name"]] = {
                "value": value, "median": value, "unit": metric["unit"],
                "n": 6, "q1": value * (1 - spread / 2),
                "q3": value * (1 + spread / 2)}
        per_layer = {metric["name"]: {"value": 0, "unit": metric["unit"]}
                     for metric in CONTRACT["per_layer"]}
        per_layer["recovery.episodes"]["value"] = episodes
        workloads[name] = {
            "correct": failed_share == 0.0, "attempted": 100,
            "failed": int(100 * failed_share), "failed_share": failed_share,
            "end_to_end": end_to_end, "per_layer": per_layer}
    path.write_text(json.dumps({"workloads": workloads}))
    return str(path)


def test_compare_verdicts(tmp_path, capsys):
    parent = results_file(tmp_path / "a.json")
    same = results_file(tmp_path / "b.json", scale=1.04)
    assert bench.compare(parent, same, CONTRACT) == 0
    out = capsys.readouterr().out
    assert " ok" in out and "regressed" not in out

    # half as fast again is beyond every bound: each pair that is
    # reported regresses, and a pair that is not reported is not judged
    slower = results_file(tmp_path / "c.json", scale=1.5)
    assert bench.compare(parent, slower, CONTRACT) == 1
    out = capsys.readouterr().out
    pairs = sum(bench.reported(name, m["name"])
                for name in bench.WORKLOADS for m in CONTRACT["end_to_end"])
    assert pairs < len(bench.WORKLOADS) * len(CONTRACT["end_to_end"])
    assert out.count("regressed") == pairs
    assert "unresolved" not in out.replace("0 unresolved", "")

    # a parent whose own passes spread wider than the bound cannot vouch
    # for "unchanged" -- and does not excuse a loss beyond the bound
    noisy = results_file(tmp_path / "d.json", spread=0.4)
    assert bench.compare(noisy, same, CONTRACT) == 0
    out = capsys.readouterr().out
    assert out.count(" unresolved") == pairs + 1 and "regressed" not in out
    assert bench.compare(noisy, slower, CONTRACT) == 1
    assert capsys.readouterr().out.count("regressed") == pairs

    recount = results_file(tmp_path / "e.json", episodes=4)
    assert bench.compare(parent, recount, CONTRACT) == 1
    assert "count differs" in capsys.readouterr().out

    failing = results_file(tmp_path / "f.json", failed_share=0.02)
    assert bench.compare(parent, failing, CONTRACT) == 1
    assert "failed_share" in capsys.readouterr().out


def test_every_workload_reports_a_rate_or_a_wall_of_its_own():
    for workload in bench.WORKLOADS:
        own = [name for name in bench.REPORTED_ON
               if bench.reported(workload, name)]
        assert own, workload
    assert bench.reported("sim_scale", "setup_s")
    assert not bench.reported("sim_scale", "queries_per_s")
    listed = {name for names in bench.REPORTED_ON.values() for name in names}
    assert listed == set(bench.WORKLOADS)


def test_the_driver_runs_four_of_the_suites_workloads():
    gated = [w["name"] for w in CONTRACT["workloads"]]
    assert len(gated) == 4 and set(gated) < set(bench.WORKLOADS)
    whys = dict(bench.suite_workloads(CONTRACT))
    assert list(whys) == list(bench.WORKLOADS)
    for spec in CONTRACT["workloads"]:
        assert whys[spec["name"]] == spec["why"]
    for name in set(bench.WORKLOADS) - set(gated):
        assert whys[name].startswith("(not in BENCHMARK.json) ")


# -- the whole thing, shrunk -------------------------------------------------------
def test_smoke_run_prints_every_contract_name_and_nothing_else(tmp_path):
    out = tmp_path / "smoke.json"
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "bench.py"), "--smoke",
         "--out", str(out)],
        capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr[-4000:]
    results = json.loads(out.read_text())["workloads"]
    assert sorted(results) == sorted(bench.WORKLOADS)
    for name, entry in results.items():
        assert entry["correct"] and entry["failed"] == 0, name
        assert entry["attempted"] >= 1 and entry["failed_share"] == 0.0
        for kind in ("end_to_end", "per_layer"):
            wanted = {m["name"]: m["unit"] for m in CONTRACT[kind]
                      if bench.reported(name, m["name"])}
            got = {metric: value["unit"]
                   for metric, value in entry[kind].items()}
            assert got == wanted, (name, kind)
        for metric in entry["end_to_end"].values():
            assert metric["value"] > 0
    # every metric is printed by name with its unit, once for each
    # workload it is reported on, and no other name is printed
    printed: dict = {}
    for line in proc.stdout.splitlines():
        if not line.startswith(("== ", "wrote ")):
            name, _, unit = line.split()[:3]
            printed.setdefault((name, unit), []).append(line)
    expected = {
        (m["name"], m["unit"]): sum(bench.reported(name, m["name"])
                                    for name in results)
        for kind in ("end_to_end", "per_layer") for m in CONTRACT[kind]}
    expected[("failed_share", "ratio")] = 2 * len(results)
    # what an untraced run's times were divided by
    expected[("host_speed", "ratio")] = len(results)
    assert {key: len(lines) for key, lines in printed.items()} == expected
    # the simulator workloads close their wall budget: all but a sliver
    # of a traced pass is spent inside the wrap table's callables
    for name in ("campaign_serial", "sim_scale", "sim_ckpt_recover",
                 "explore_search"):
        coverage = results[name]["per_layer"]["trace.coverage"]["value"]
        assert 0.9 <= coverage <= 1.0, (name, coverage)
    # ... and where the table cannot reach (the jobs=2 workers are other
    # processes) the coverage says so
    parallel = results["campaign_parallel"]["per_layer"]
    assert parallel["trace.coverage"]["value"] < 0.1
