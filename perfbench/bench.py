"""The repo's benchmark: eight workloads, end to end and layer by layer.

One run of one workload (what ``BENCHMARK.json``'s command does)::

    python3 perfbench/bench.py --workload W --seed N --seconds S --trace 0|1

prints every metric by name with its unit and, as the last line, one
JSON object ``{"correct", "attempted", "failed", "metrics"}``: the
end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``. Without ``--workload`` it makes those two runs of every
workload and writes one results file::

    python3 perfbench/bench.py [--seed N] [--seconds S] [--out PATH]
    python3 perfbench/bench.py --compare A.json B.json
    python3 perfbench/bench.py --record-reference
    python3 perfbench/bench.py --smoke

The metric names, units and regression bounds live in ``BENCHMARK.json``
and are read from there, as are the four workloads the driver runs; the
whole-suite run makes all eight of ``workloads.py``. Every workload runs
in child interpreters (``child.py``); this file only starts them one at
a time, merges what they report and checks it. Every time is divided by
the host's speed while it was taken (``hostspeed.py``). See
``README.md`` beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from spans import LAYERS  # noqa: E402
from stats import percentile, quartiles, summarize  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

WORK = os.path.join(ROOT, ".bench_work")
REFERENCE = os.path.join(HERE, "reference.json")

#: a child that has not reported by then is killed (the contract allows
#: a run 180 s)
CHILD_TIMEOUT_S = 170

#: layers that only the benchmark's own spans charge time to
EXTRA_LAYERS = ("service.encode",)

#: the workloads an end-to-end metric is defined for; one that is not
#: listed (``setup_s``, ``peak_rss_mb``) is defined for all
ADVISOR = ("advisor_lookup_hot", "advisor_lookup_cold", "advisor_batch")
REPORTED_ON = {
    "units_per_s": ("campaign_serial", "campaign_parallel",
                    "explore_search"),
    "run_wall_s": ("sim_scale", "sim_ckpt_recover"),
    "queries_per_s": ADVISOR,
    "request_p50_ms": ADVISOR,
}

#: counts a traced pass derives from its spans: {metric: wrapped name}
SPAN_CALL_COUNTS = {
    "fti.rs_encoding.encode_calls": "ReedSolomonCode.encode",
    "fti.rs_encoding.decode_calls": "ReedSolomonCode.decode",
}

#: per-layer metrics that must repeat bit-for-bit for one seed; they
#: are pinned in reference.json and compared exactly by --compare
EXACT_COUNTS = (
    "simmpi.runtime.p2p_messages", "simmpi.runtime.collectives",
    "simmpi.runtime.spawns", "simmpi.runtime.reinit_rollbacks",
    "fti.api.ckpt_count", "recovery.episodes", "core.designs.relaunches",
    "core.store.appends", "core.store.bytes_per_record",
    "fti.rs_encoding.encode_calls", "fti.rs_encoding.decode_calls",
    "fti.rs_encoding.encode_bytes", "explore.engine.probe_runs",
    "explore.engine.candidate_runs", "service.grid.builds",
)


def load_contract() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def suite_workloads(contract: dict) -> list:
    """``(name, why)`` of every workload, in ``workloads.py``'s order.
    ``BENCHMARK.json`` lists the ones the driver runs on every change
    (its time limit leaves room for four runs long enough to be steady);
    the others are run by this command only, whole suite or by name,
    and judged by ``--compare`` like the listed ones."""
    listed = {spec["name"]: spec["why"] for spec in contract["workloads"]}
    return [(name, listed.get(name) or "(not in BENCHMARK.json) "
             + " ".join(cls.__doc__.split("\n\n")[0].split()))
            for name, cls in WORKLOADS.items()]


# -- running children ---------------------------------------------------------
def child_env() -> dict:
    """The children's environment: this checkout's sources, one thread
    per numeric library, a fixed hash seed, and temporary files (the
    native kernels are compiled into the temporary directory) inside
    the checkout."""
    env = dict(os.environ)
    for name in ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX",
                 "REPRO_NO_NATIVE", "MATCH_CHAOS", "MATCH_SIM_WATCHDOG"):
        env.pop(name, None)
    env.update(PYTHONPATH=os.path.join(ROOT, "src"), PYTHONHASHSEED="0",
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", TMPDIR=os.path.join(WORK, "tmp"))
    return env


def prepare() -> None:
    """Build once per checkout: byte-compile the sources and compile
    the native kernels, so the first timed child pays for neither."""
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        sys.stderr.write("bench.py: no src/repro beside %s — the benchmark "
                         "measures the repository it sits in\n" % HERE)
        raise SystemExit(2)
    os.makedirs(os.path.join(WORK, "tmp"), exist_ok=True)
    marker = os.path.join(WORK, "built-py%d.%d" % sys.version_info[:2])
    if os.path.exists(marker):
        return
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q",
         os.path.join(ROOT, "src"), HERE],
        check=True, env=child_env(), stdout=subprocess.DEVNULL)
    subprocess.run(
        [sys.executable, "-c",
         "import repro.cli, repro.service, repro.explore\n"
         "from repro.apps.kernels._accel import native_kernels\n"
         "native_kernels()"],
        check=True, env=child_env())
    open(marker, "w").close()


def run_child(workload: str, seed: int, untraced_s: float, traced_s: float,
              smoke: bool, workdir: str) -> dict:
    """Start one child interpreter, wait for it and everything it
    started, and return its report."""
    spec = {"workload": workload, "seed": seed, "workdir": workdir,
            "smoke": smoke, "untraced_s": untraced_s, "traced_s": traced_s,
            "spawned": time.monotonic()}
    child = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "child.py"), json.dumps(spec)],
        cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
        start_new_session=True)
    try:
        out, _ = child.communicate(timeout=CHILD_TIMEOUT_S)
    finally:
        # the child waits for its own workers and server; this only
        # reaps what a crashed or timed-out child left behind
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        child.wait()
    if child.returncode != 0:
        raise RuntimeError("%s child exited with code %s"
                           % (workload, child.returncode))
    return json.loads(out.decode().strip().splitlines()[-1])


def run_workload(workload: str, seed: int, budgets, smoke: bool) -> list:
    """One child per ``(untraced seconds, traced seconds)`` budget, one
    after the other, each in a scratch directory removed afterwards.

    Passes are whole, so a child can stop well short of its budget or
    run past it; what it leaves (or overdraws) is shared among the
    children still to come, so the run measures for about the sum of
    the budgets whatever the length of a pass.
    """
    workdir = os.path.join(WORK, "run-%d-%s" % (os.getpid(), workload))
    reports = []
    carry = 0.0
    try:
        for number, (untraced_s, traced_s) in enumerate(budgets):
            shutil.rmtree(workdir, ignore_errors=True)
            os.makedirs(workdir)
            share = carry / (len(budgets) - number)
            report = run_child(workload, seed, max(0.0, untraced_s + share),
                               traced_s, smoke, workdir)
            carry += untraced_s - report["untraced_s"]
            reports.append(report)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return reports


# -- checking outputs ---------------------------------------------------------
def load_reference() -> dict:
    with open(REFERENCE) as handle:
        return json.load(handle)


def check_outputs(reports: list, expected, layer_values=None) -> int:
    """Operations to count as failed beyond the passes' own: a
    simulated result or exact count that differs between two passes of
    this run or, with ``expected`` (the workload's entry of
    ``reference.json``, which holds for seed 0), from what is pinned."""
    passes = [entry for report in reports
              for entry in report["untraced"] + report.get("traced", [])
              if entry["outputs"] or entry["counts"]]
    mismatches = 0
    for kind in ("outputs", "counts"):
        pinned = expected[kind] if expected else (
            passes[0][kind] if passes else {})
        for entry in passes:
            got = entry[kind]
            mismatches += sum(1 for name in set(pinned) | set(got)
                              if pinned.get(name) != got.get(name))
    if expected and layer_values is not None:
        mismatches += sum(1 for name, value in expected["span_counts"].items()
                          if layer_values.get(name, 0) != value)
    return mismatches


# -- metrics ------------------------------------------------------------------
def nominal(entry: dict) -> tuple:
    """``(wall, per-operation latencies)`` of one pass divided by the
    host's speed factor while it ran (``hostspeed.py``): what they would
    have read on the nominal host."""
    speed = entry["host_speed"]
    return entry["wall"] / speed, [ms / speed for ms in entry["op_ms"]]


def request_percentile(reports: list, level: float) -> tuple:
    """``(value, per-pass values)`` of one request-latency percentile.

    A simulator workload runs the same operations in every pass: each
    operation counts once, with its median over the passes, so the
    percentile says which *operations* are slow, not which passes were.
    The advisor never sends a request twice: the percentile is taken
    within each pass and the median over the passes reported, so a slow
    phase of the host that hits two segments of twelve does not own the
    upper tail of all of them pooled.
    """
    passes = [nominal(entry)[1] for report in reports
              for entry in report["untraced"]]
    per_pass = [percentile(op_ms, level) for op_ms in passes]
    if reports[0]["repeats_operations"]:
        typical = [quartiles(samples)[1] for samples in zip(*passes)]
        return percentile(typical, level), per_pass
    return quartiles(per_pass)[1], per_pass


def end_to_end(reports: list) -> dict:
    """``{metric: (value, samples)}`` from the untraced passes of all
    children; ``samples`` are the per-pass (or per-child) values the
    quartiles printed beside the value come from. Every time is a
    nominal one; ``host_speed`` is what they were divided by."""
    passes = [entry for report in reports for entry in report["untraced"]]
    walls = [nominal(entry)[0] for entry in passes]
    # a child's set-up ends where its first pass begins
    setups = [report["setup_s"] / report["untraced"][0]["host_speed"]
              for report in reports]
    rss = [report["peak_rss_mb"] for report in reports]
    speeds = [entry["host_speed"] for entry in passes]
    wall = quartiles(walls)[1]
    units = quartiles([entry["attempted"] for entry in passes])[1]
    answers = quartiles([entry["answers"] for entry in passes])[1]
    return {
        "setup_s": (quartiles(setups)[1], setups),
        "units_per_s": (units / wall, [e["attempted"] / w
                                       for e, w in zip(passes, walls)]),
        "run_wall_s": (wall, walls),
        "queries_per_s": (answers / wall, [e["answers"] / w
                                           for e, w in zip(passes, walls)]),
        "request_p50_ms": request_percentile(reports, 50.0),
        "peak_rss_mb": (quartiles(rss)[1], rss),
        "host_speed": (quartiles(speeds)[1], speeds),
    }


def per_layer(report: dict) -> dict:
    """``{metric: value}`` from the child that ran the traced passes;
    a metric its workload does not exercise is absent (reported 0)."""
    traced = report["traced"]
    units = sum(entry["attempted"] for entry in traced)
    traced_wall = sum(entry["wall"] for entry in traced)
    layers = report["layers"]
    values = {layer + ".self_ms_per_unit":
              layers.get(layer, 0.0) * 1e3 / units
              for layer in LAYERS + EXTRA_LAYERS}
    # the share of the traced wall spent inside the wrapped callables:
    # the spans the benchmark opens itself (pass, unit, request) do not
    # count, so time the wrap table cannot see lowers it
    values["trace.coverage"] = report["wrapped_s"] / traced_wall
    base = quartiles(report["trace_base_walls"])[1]
    values["trace.overhead_pct"] = 100.0 * (
        quartiles([nominal(entry)[0] for entry in traced])[1] - base) / base
    values["bench.host_speed"] = quartiles(
        [entry["host_speed"] for entry in traced])[1]
    values.update(traced[0]["counts"])
    for metric, name in SPAN_CALL_COUNTS.items():
        values[metric] = report["calls"].get(name, 0) // len(traced)
    values["fti.rs_encoding.encode_bytes"] = report["amounts"].get(
        "ReedSolomonCode.encode", 0) // len(traced)
    values["apps.kernels.native_loaded"] = report["native_loaded"]
    values.update(report["extras"])
    values.update({metric: summary["median"]
                   for metric, summary in report["probes"].items()})
    return values


def failed_operations(reports: list) -> tuple:
    passes = [entry for report in reports
              for entry in report["untraced"] + report.get("traced", [])]
    return (sum(entry["attempted"] for entry in passes),
            sum(entry["failed"] for entry in passes))


# -- one run of one workload --------------------------------------------------
def measure(workload: str, seed: int, seconds: float, trace: int,
            smoke: bool, contract: dict, reference: dict) -> dict:
    """One run as ``BENCHMARK.json``'s command makes it: the result
    line's four keys, plus ``samples`` (count and quartiles behind each
    timing) and ``pinned`` (what ``reference.json`` holds of the run).
    ``reference`` is what the run's outputs are checked against: the
    contents of ``reference.json`` for a full seed-0 run, else empty.

    ``trace 0``: three interpreters one after the other, so set-up is
    measured three times and no cache survives from one third of the
    run to the next; end-to-end metrics from their untraced passes.
    ``trace 1``: one interpreter, 40 % of the time untraced, then the
    traced passes and the workload's isolated probes; per-layer metrics.
    A smoke run is one pass of each kind in one interpreter.
    """
    if smoke:
        budgets = [(0.0, 1.0 if trace else 0.0)]
    elif trace:
        budgets = [(0.4 * seconds, 0.6 * seconds)]
    else:
        budgets = [(seconds / 3.0, 0.0)] * 3
    reports = run_workload(workload, seed, budgets, smoke)
    attempted, failed = failed_operations(reports)
    first = reports[0]["untraced"][0]
    pinned = {"outputs": first["outputs"], "counts": first["counts"]}
    if trace:
        values = per_layer(reports[-1])
        failed += check_outputs(reports, reference.get(workload), values)
        samples = reports[-1]["probes"]
        pinned["span_counts"] = {name: values.get(name, 0)
                                 for name in EXACT_COUNTS
                                 if name not in first["counts"]}
    else:
        failed += check_outputs(reports, reference.get(workload))
        measured = end_to_end(reports)
        values = {name: value for name, (value, _) in measured.items()}
        samples = {name: summarize(sample)
                   for name, (_, sample) in measured.items()}
    metrics = {spec["name"]: {"value": values.get(spec["name"], 0),
                              "unit": spec["unit"]}
               for spec in contract["per_layer" if trace else "end_to_end"]}
    # output mismatches are counted per name, which can outnumber the
    # operations of a short run
    failed = min(failed, attempted)
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics, "samples": samples,
            "pinned": pinned}


def reported(workload: str, metric: str) -> bool:
    """Whether ``metric`` is defined for ``workload``. The result line
    carries every end-to-end metric on every workload, because the
    driver wants one key set; what is printed, stored and compared is
    only the pairs that say something of their own."""
    return workload in REPORTED_ON.get(metric, (workload,))


def print_result(workload: str, result: dict) -> None:
    """Every metric of one run by name with its unit and, for a timing,
    the sample count and quartiles its value rests on."""
    for name, metric in result["metrics"].items():
        if not reported(workload, name):
            continue
        summary = result["samples"].get(name)
        print("%-44s %16.6f %-6s%s" % (
            name, metric["value"], metric["unit"],
            " n=%(n)d q1=%(q1).6f q3=%(q3).6f" % summary if summary else ""))
    speed = result["samples"].get("host_speed")
    if speed:
        # what the times above were divided by (hostspeed.py)
        print("%-44s %16.6f %-6s n=%d q1=%.6f q3=%.6f" % (
            "host_speed", speed["median"], "ratio", speed["n"],
            speed["q1"], speed["q3"]))
    print("%-44s %16.6f %-6s %d of %d" % (
        "failed_share", result["failed"] / result["attempted"], "ratio",
        result["failed"], result["attempted"]))


# -- all workloads -------------------------------------------------------------
def run_suite(seed: int, seconds: float, smoke: bool, contract: dict,
              reference: dict) -> tuple:
    """Every workload, ``--trace 0`` then ``--trace 1``, exactly as the
    single runs are made; ``(results file contents, what the runs would
    pin in reference.json)``."""
    results = {"suite": "match-perfbench", "seed": seed, "seconds": seconds,
               "smoke": smoke, "workloads": {}}
    pinned = {}

    def both(name):
        return [measure(name, seed, seconds, trace, smoke, contract,
                        reference) for trace in (0, 1)]

    # timings mean nothing in the smoke run, so it may as well use both
    # cores; a real run measures one workload at a time
    with ThreadPoolExecutor(max_workers=2 if smoke else 1) as pool:
        for (name, why), runs in zip(suite_workloads(contract),
                                     pool.map(both, WORKLOADS)):
            print("== %s — %s" % (name, why))
            entry = {"attempted": 0, "failed": 0}
            for kind, result in zip(("end_to_end", "per_layer"), runs):
                print_result(name, result)
                entry["attempted"] += result["attempted"]
                entry["failed"] += result["failed"]
                entry[kind] = {
                    metric: dict(result["samples"].get(metric, {}), **value)
                    for metric, value in result["metrics"].items()
                    if reported(name, metric)}
            entry["correct"] = entry["failed"] == 0
            entry["failed_share"] = entry["failed"] / entry["attempted"]
            results["workloads"][name] = entry
            pinned[name] = dict(runs[0]["pinned"], **runs[1]["pinned"])
    return results, pinned


# -- comparing two results files ----------------------------------------------
def compare(path_a: str, path_b: str, contract: dict) -> int:
    """Per workload and end-to-end metric: both medians with their
    quartiles and a verdict. ``regressed`` when the change reads worse
    by more than the metric's bound, however noisy the parent;
    otherwise ``unresolved`` when the parent's own inter-quartile
    spread exceeds the bound (it cannot vouch for "unchanged"), else
    ``ok``. Exact counts must match exactly. Returns 1 on any
    regression, count mismatch or increase of the failed share."""
    with open(path_a) as handle:
        parent = json.load(handle)["workloads"]
    with open(path_b) as handle:
        change = json.load(handle)["workloads"]
    bad = unresolved = 0
    for name in WORKLOADS:
        print("== %s" % name)
        a, b = parent[name], change[name]
        for metric in contract["end_to_end"]:
            if not reported(name, metric["name"]):
                continue
            old = a["end_to_end"][metric["name"]]
            new = b["end_to_end"][metric["name"]]
            worse = (new["value"] - old["value"]) / old["value"]
            if metric["better"] == "higher":
                worse = -worse
            if worse > metric["bound"]:
                verdict = "regressed"
                bad += 1
            elif (old["q3"] - old["q1"]) / old["median"] > metric["bound"]:
                verdict = "unresolved"
                unresolved += 1
            else:
                verdict = "ok"
            print("%-16s %14.6f [%.6f, %.6f] -> %14.6f [%.6f, %.6f] %-5s "
                  "%+7.2f%% (bound %.0f%%) %s"
                  % (metric["name"], old["value"], old["q1"], old["q3"],
                     new["value"], new["q1"], new["q3"], metric["unit"],
                     100.0 * (new["value"] - old["value"]) / old["value"],
                     100.0 * metric["bound"], verdict))
        for count in EXACT_COUNTS:
            old = a["per_layer"][count]["value"]
            new = b["per_layer"][count]["value"]
            if old != new:
                bad += 1
                print("%-44s %s -> %s count differs" % (count, old, new))
        if b["failed_share"] > a["failed_share"]:
            bad += 1
            print("failed_share %.6f -> %.6f rose"
                  % (a["failed_share"], b["failed_share"]))
    print("%d regression(s), %d unresolved" % (bad, unresolved))
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="run this one workload and end "
                        "with the result line BENCHMARK.json's driver reads")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time of one run (default: "
                        "BENCHMARK.json's run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=os.path.join(WORK, "results.json"),
                        help="results file of a run over all workloads")
    parser.add_argument("--smoke", action="store_true",
                        help="all workloads, shrunk: one pass each")
    parser.add_argument("--record-reference", action="store_true",
                        help="rewrite reference.json from a --seed 0 run")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    contract = load_contract()
    if args.compare:
        return compare(args.compare[0], args.compare[1], contract)
    if args.seconds is None:
        args.seconds = float(contract["run_seconds"])
    if args.workload is not None and args.workload not in WORKLOADS:
        parser.error("unknown workload %r (have %s)"
                     % (args.workload, ", ".join(WORKLOADS)))
    prepare()
    seed = 0 if args.record_reference else args.seed
    reference = {}
    if seed == 0 and not args.smoke and not args.record_reference:
        reference = load_reference()
    if args.workload is not None:
        result = measure(args.workload, seed, args.seconds, args.trace,
                         False, contract, reference)
        print_result(args.workload, result)
        print(json.dumps({key: result[key] for key in (
            "correct", "attempted", "failed", "metrics")}))
        return 0
    results, pinned = run_suite(seed, args.seconds, args.smoke, contract,
                                reference)
    out = REFERENCE if args.record_reference else args.out
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    with open(out, "w") as handle:
        json.dump(pinned if args.record_reference else results, handle,
                  indent=1, sort_keys=True)
        handle.write("\n")
    print("wrote %s" % out)
    return 0 if all(entry["correct"]
                    for entry in results["workloads"].values()) else 1


if __name__ == "__main__":
    raise SystemExit(main())
