"""The eight workloads, as the child interpreter runs them.

Every workload is a class with ``setup()`` (imports, warm-up — all of
it inside ``setup_s``), ``run_pass(tracer)`` (one timed pass over the
workload's fixed inputs) and ``teardown()``. A pass returns a dict:

``wall``       host seconds of the pass (the child takes the time of the
               host-speed samples off it and adds ``host_speed``, the
               factor it is to be divided by)
``op_ms``      one latency per operation (unit, cell, run, request); a
               simulator workload lists its operations in the same order
               in every pass, so position identifies the operation
``attempted``  operations started; ``failed`` those that did not verify
``answers``    answers delivered (= operations, except 1024 per batch
               request)
``outputs``    ``{name: repr}`` of every simulated result, compared
               across passes and, for seed 0, with ``reference.json``
``counts``     exact counts of what the program did (they repeat
               bit-for-bit for a given seed)

``repro`` is imported inside the methods, never at module level: the
``jobs=2`` workers re-import the child's main module under spawn, and a
module-level import here would pay the import tax the workload exists
to measure on the benchmark's behalf.

The seed feeds ``ExperimentConfig.seed`` and the advisor query draws.
Fault *iterations* are pinned to each app's last main-loop iteration
(``single``/``independent`` with ``min_iteration = niters - 1``) and the
seed draws the victim: with the iteration drawn too, one pass costs
±10 % more or less from seed to seed (rework since the last checkpoint),
which is more than the regression bound the metrics have to hold.
"""

from __future__ import annotations

import json
import os
import random
import socket
import subprocess
import sys
import time

from hostspeed import HostSpeed

APPS = ("amg", "comd", "hpccg", "minife", "minivite")
DESIGNS = ("restart-fti", "reinit-fti", "ulfm-fti")

#: target name of the spans the benchmark opens around one operation;
#: charged to core.engine, whose shell (Campaign, Session, dispatch,
#: worker spawn) is what remains once the wrapped layers are subtracted
UNIT_TARGET = ("core.engine", "unit")

clock = time.perf_counter


def _last_iteration(app: str, nprocs: int, nnodes: int) -> int:
    from repro.core.configs import ExperimentConfig

    config = ExperimentConfig(app=app, design=DESIGNS[0], nprocs=nprocs,
                              nnodes=nnodes)
    return config.make_app().niters - 1


def _runtime_counts(counts: dict, result) -> None:
    """Fold one RunResult's exact counts into ``counts``."""
    stats = result.details.get("runtime_stats", {})
    for name in ("p2p_messages", "collectives", "spawns",
                 "reinit_rollbacks"):
        key = "simmpi.runtime." + name
        counts[key] = counts.get(key, 0) + int(stats.get(name, 0))
    for key, value in (("fti.api.ckpt_count", result.ckpt_count),
                       ("recovery.episodes", result.recovery_episodes),
                       ("core.designs.relaunches", result.relaunches)):
        counts[key] = counts.get(key, 0) + int(value)


class Workload:
    """Shared state of one workload in one child interpreter."""

    name = ""
    #: whether every pass runs the same operations (the simulator
    #: workloads) or never the same one twice (the advisor's requests)
    repeats_operations = True
    #: the untraced pass the traced passes compare with
    #: (``trace.overhead_pct``) where that is not the timed pass
    base_pass = None

    def __init__(self, seed: int, workdir: str, smoke: bool):
        self.seed = seed
        self.workdir = workdir
        self.smoke = smoke
        self.host = HostSpeed()

    def setup(self) -> None:
        raise NotImplementedError

    def run_pass(self, tracer=None) -> dict:
        raise NotImplementedError

    def run_traced_pass(self, tracer) -> dict:
        """The traced pass; simulator workloads repeat the timed pass
        with the wrap table installed."""
        return self.run_pass(tracer)

    def before_trace(self) -> None:
        """Work the traced pass needs done while nothing is wrapped."""

    def trace_extras(self, tracer) -> dict:
        """Per-layer metrics beyond self times, from one traced pass's
        records (called before they are dropped)."""
        return {}

    def probes(self) -> dict:
        """The isolated probes this workload is the home of."""
        return {}

    def teardown(self) -> None:
        pass

    def _warm(self, configs) -> None:
        """One unit per app, outside the clock: loads (on the first run
        in a checkout, builds) the native kernels and fills lazy
        registries."""
        from repro.api import run_single

        seen = set()
        for config in configs:
            if config.app not in seen:
                seen.add(config.app)
                run_single(config)


# -- campaign ---------------------------------------------------------------
class CampaignSerial(Workload):
    """The small matrix through ``Campaign…stream()``, ``jobs(1)``."""

    name = "campaign_serial"
    jobs = 1

    def setup(self) -> None:
        from repro.core.configs import ExperimentConfig
        from repro.faults.scenarios import FaultScenario

        apps = ("hpccg",) if self.smoke else APPS
        self.configs = []
        for app in apps:
            faults = FaultScenario.single(
                min_iteration=_last_iteration(app, 8, 4))
            for design in DESIGNS:
                self.configs.append(ExperimentConfig(
                    app=app, design=design, nprocs=8, nnodes=4,
                    seed=self.seed, faults=faults))
        self._warm(self.configs)
        self.stores = 0
        self.last_store = None

    def run_pass(self, tracer=None) -> dict:
        from repro.api import (Campaign, UnitCompleted, UnitFailed,
                               UnitStarted)

        self.stores += 1
        store = os.path.join(self.workdir, "store-%d.jsonl" % self.stores)
        unit_target = tracer.target_index(*UNIT_TARGET) if tracer else None
        started: dict = {}
        spans: dict = {}
        latency: dict = {}
        completed: list = []
        failed = 0
        t0 = clock()
        stream = (Campaign.from_configs(self.configs).reps(1)
                  .jobs(self.jobs).store(store).on_error("continue")
                  .stream())
        for event in stream:
            now = clock()
            if isinstance(event, UnitStarted):
                key = event.unit.key
                started[key] = now
                if tracer is not None:
                    tracer.current_unit = len(started)
                    # parallel units overlap, so they cannot nest
                    spans[key] = (tracer.begin(unit_target) if self.jobs == 1
                                  else tracer.open(unit_target, len(started)))
            elif isinstance(event, (UnitCompleted, UnitFailed)):
                key = event.unit.key
                latency[key] = (now - started[key]) * 1e3
                if tracer is not None:
                    (tracer.finish if self.jobs == 1
                     else tracer.close)(spans.pop(key))
                if isinstance(event, UnitCompleted):
                    completed.append(event)
                else:
                    failed += 1
                if self.jobs == 1:
                    # under jobs=2 a sample here would take a core from
                    # the workers; that pass is sampled around only
                    self.host.tick()
        wall = clock() - t0
        self.last_store = store
        # jobs=2 completes units out of order; list them as dispatched,
        # which is matrix order
        op_ms = [latency[key] for key in started]
        outputs: dict = {}
        counts: dict = {}
        for event in completed:
            result = event.result
            if result.verified is not True:
                failed += 1
            outputs[event.unit.config.label()] = repr(
                result.breakdown.total_seconds)
            _runtime_counts(counts, result)
        with open(store, "rb") as handle:
            lines = handle.read().splitlines()
        counts["core.store.appends"] = len(lines)
        counts["core.store.bytes_per_record"] = (
            sum(len(line) + 1 for line in lines) // max(1, len(lines)))
        return {"wall": wall, "op_ms": op_ms,
                "attempted": len(self.configs), "failed": failed,
                "answers": len(completed), "outputs": outputs,
                "counts": counts}


    def probes(self) -> dict:
        import probes

        return probes.store_rates(self.last_store, self.configs)


class CampaignParallel(CampaignSerial):
    """The identical matrix, ``jobs(2)``: one spawned process per unit."""

    name = "campaign_parallel"
    jobs = 2

    def probes(self) -> dict:
        import probes

        return probes.spawn_import_ms()


# -- simulator --------------------------------------------------------------
class SimScale(Workload):
    """One large fault-free job: hpccg, restart-fti, 512 ranks."""

    name = "sim_scale"

    def cells(self) -> list:
        from repro.core.configs import ExperimentConfig

        return [("hpccg/restart-fti/L1/none", ExperimentConfig(
            app="hpccg", design="restart-fti",
            nprocs=64 if self.smoke else 512, inject_fault=False,
            seed=self.seed))]

    def warm_configs(self) -> list:
        from repro.core.configs import ExperimentConfig

        return [ExperimentConfig(app="hpccg", design="restart-fti",
                                 nprocs=8, nnodes=4, inject_fault=False)]

    def setup(self) -> None:
        self.named_cells = self.cells()
        self._warm(self.warm_configs())

    def run_pass(self, tracer=None) -> dict:
        from repro.api import run_single

        unit_target = tracer.target_index(*UNIT_TARGET) if tracer else None
        op_ms: list = []
        results: list = []
        t0 = clock()
        for number, (name, config) in enumerate(self.named_cells, 1):
            started = clock()
            if tracer is not None:
                tracer.current_unit = number
                index = tracer.begin(unit_target)
            try:
                result = run_single(config)
            finally:
                if tracer is not None:
                    tracer.finish(index)
            op_ms.append((clock() - started) * 1e3)
            results.append((name, result))
            self.host.tick()
        wall = clock() - t0
        outputs: dict = {}
        counts: dict = {}
        failed = 0
        for name, result in results:
            if result.verified is not True:
                failed += 1
            outputs[name] = repr(result.breakdown.total_seconds)
            _runtime_counts(counts, result)
        return {"wall": wall, "op_ms": op_ms,
                "attempted": len(results), "failed": failed,
                "answers": len(results), "outputs": outputs,
                "counts": counts}

    def probes(self) -> dict:
        import probes

        return probes.simulator_rates()


class SimCkptRecover(SimScale):
    """FTI-heavy hpccg cells at 64 ranks: one that only writes L3
    checkpoints, three that lose a node and read them back."""

    name = "sim_ckpt_recover"

    def cells(self) -> list:
        from repro.core.configs import ExperimentConfig
        from repro.faults.scenarios import FaultScenario
        from repro.fti.config import FtiConfig

        nprocs, nnodes = (16, 8) if self.smoke else (64, 32)
        node_loss = FaultScenario.independent(
            1, node_count=1,
            min_iteration=_last_iteration("hpccg", nprocs, nnodes))
        cells = []
        for design, level, faults in (
                ("reinit-fti", 3, FaultScenario.none()),
                ("reinit-fti", 3, node_loss),
                ("ulfm-fti", 3, node_loss),
                ("ulfm-fti", 2, node_loss)):
            name = "hpccg/%s/L%d/%s" % (design, level, faults.label())
            cells.append((name, ExperimentConfig(
                app="hpccg", design=design, nprocs=nprocs, nnodes=nnodes,
                seed=self.seed, faults=faults, fti=FtiConfig(level=level))))
        return cells

    def probes(self) -> dict:
        import probes

        return probes.checkpoint_rates()


# -- explore ----------------------------------------------------------------
class ExploreSearch(Workload):
    """Exhaustive worst-case fault-timing search, 8 ranks."""

    name = "explore_search"

    def setup(self) -> None:
        from repro.core.configs import ExperimentConfig

        apps, designs = (("hpccg",), ("ulfm-fti",)) if self.smoke \
            else (("hpccg", "minife"), DESIGNS)
        self.configs = [
            ExperimentConfig(app=app, design=design, nprocs=8, nnodes=4,
                             faults="none", seed=self.seed)
            for app in apps for design in designs]
        self._warm(self.configs)

    def run_pass(self, tracer=None) -> dict:
        from repro.explore.engine import _PROBE_CACHE, explore
        from repro.api import ExploreStarted, ScheduleProbed

        # a pass measures the probe too, so no pass inherits another's
        # memoised timelines (fresh interpreters start empty anyway)
        _PROBE_CACHE.clear()
        op_ms: list = []
        last = 0.0

        def progress(event):
            # one operation per simulated run: the clean probe ends at
            # ExploreStarted, each candidate at its ScheduleProbed
            nonlocal last
            if isinstance(event, (ExploreStarted, ScheduleProbed)):
                op_ms.append((clock() - last) * 1e3)
                self.host.tick()
                last = clock()
                if tracer is not None:
                    tracer.current_unit = len(op_ms) + 1

        outcomes = []
        t0 = clock()
        for config in self.configs:
            last = clock()
            if tracer is not None:
                tracer.current_unit = len(op_ms) + 1
            outcomes.append(explore(config, strategy="exhaustive",
                                    progress=progress))
        wall = clock() - t0
        outputs: dict = {}
        counts = {"explore.engine.probe_runs": len(outcomes),
                  "explore.engine.candidate_runs":
                      sum(outcome.probes for outcome in outcomes)}
        failed = 0
        for config, outcome in zip(self.configs, outcomes):
            if not outcome.best > outcome.baseline:
                failed += 1  # a fault can only lengthen the run
            outputs[config.label()] = "%r %s %d %r" % (
                outcome.best, outcome.best_spec, outcome.probes,
                outcome.baseline)
        return {"wall": wall, "op_ms": op_ms, "attempted": len(op_ms),
                "failed": failed, "answers": len(op_ms),
                "outputs": outputs, "counts": counts}


# -- advisor over a socket ----------------------------------------------------
#: the span of MTBFs the advisor is asked about, in seconds: the range
#: of ``repro.service.grid.DEFAULT_MTBF_BUCKETS`` (five minutes to a
#: week, the paper's sweep). Keys are whole milliseconds plus half a
#: millisecond, which no bucket has, so no request is answered from a
#: precomputed bucket.
MTBF_LOW, MTBF_SPAN_MS = 300.0005, 604500000


class Connection:
    """One keep-alive HTTP/1.1 connection; a closed loop sends the next
    request only after the previous reply's last byte."""

    def __init__(self, port: int):
        self.sock = socket.create_connection(("127.0.0.1", port))
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buffer = b""

    def request(self, data: bytes) -> tuple:
        """Send one pre-built request; ``(status, body)``."""
        self.sock.sendall(data)
        buffer = self.buffer
        while True:
            split = buffer.find(b"\r\n\r\n")
            if split >= 0:
                break
            chunk = self.sock.recv(1 << 16)
            if not chunk:
                raise ConnectionError("server closed the connection")
            buffer += chunk
        head, rest = buffer[:split], buffer[split + 4:]
        status = int(head[9:12])
        length = 0
        for line in head.split(b"\r\n")[1:]:
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        while len(rest) < length:
            chunk = self.sock.recv(1 << 20)
            if not chunk:
                raise ConnectionError("server closed the connection")
            rest += chunk
        self.buffer = rest[length:]
        return status, rest[:length]

    def get(self, path: str) -> bytes:
        """Body of a ``GET`` that must answer 200."""
        status, body = self.request(
            b"GET %s HTTP/1.1\r\nHost: bench\r\n\r\n" % path.encode())
        if status != 200:
            raise RuntimeError("%s answered %d" % (path, status))
        return body

    def close(self) -> None:
        self.sock.close()


def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


class AdvisorLookup(Workload):
    """``GET /advise`` against a ``match-bench serve`` subprocess, closed
    loop on one keep-alive connection. The two lookup workloads differ
    only in :meth:`draw`: which keys they ask about.

    Keys are ``(app, nprocs, mtbf)`` over the small matrix's apps and
    the paper's process counts (``repro.core.configs.SCALING_SIZES``).
    """

    repeats_operations = False
    segment = 0
    smoke_segment = 200
    warm_requests = 200
    hot_keys = 0
    answers_per_request = 1
    #: replies of a pass recomputed with the scalar advisor
    samples_per_pass = 16
    #: the wrapped call that answers one request, and the per-layer
    #: metric its median span is reported as
    advise_target = ("service.core", "AdvisorService.advise")
    advise_metric = ""

    def setup(self) -> None:
        from repro.core.configs import SCALING_SIZES

        self.server = self.conn = None
        self.scales = SCALING_SIZES
        self.rng = random.Random(self.seed * 7919 + 13)
        self.serial = self.seed * 104729
        self.socket_ms: list = []
        self.hot = [self.cold_key() for _ in range(self.hot_keys)]
        if self.smoke:
            self.segment = self.smoke_segment
        self.port = _free_port()
        self.server = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve",
             "--port", str(self.port)],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        deadline = time.monotonic() + 60.0
        while True:
            try:
                self.conn = Connection(self.port)
                break
            except OSError:
                if self.server.poll() is not None \
                        or time.monotonic() > deadline:
                    raise RuntimeError("advisor server did not start")
                time.sleep(0.01)
        self.conn.get("/healthz")
        for wire, _ in self.warm_stream():
            self.conn.request(wire)

    # -- request streams ----------------------------------------------------
    def cold_key(self, app=None, nprocs=None) -> tuple:
        """A key no earlier request of this child used: the MTBF steps
        through the span's milliseconds by a stride coprime to their
        number, so the LRU cannot have it."""
        self.serial += 1
        return (app or self.rng.choice(APPS),
                nprocs or self.rng.choice(self.scales),
                MTBF_LOW + self.serial * 360007 % MTBF_SPAN_MS / 1e3)

    def draw(self) -> tuple:
        """The key of the next request."""
        raise NotImplementedError

    @staticmethod
    def encode(key: tuple) -> tuple:
        """``(wire bytes, in-process arguments)`` of one lookup."""
        app, nprocs, mtbf = key
        params = {"app": app, "nprocs": str(nprocs), "mtbf": repr(mtbf)}
        wire = ("GET /advise?app=%s&nprocs=%d&mtbf=%r HTTP/1.1\r\n"
                "Host: bench\r\n\r\n" % key).encode()
        return wire, ("GET", "/advise", params, b"")

    def warm_keys(self) -> list:
        """Every (app, process count) grid once, so the timed stream
        never builds a grid and every segment does the same work; then
        the keys that are to be found in the LRU."""
        return [self.cold_key(app, nprocs)
                for app in APPS for nprocs in self.scales] + self.hot

    def warm_stream(self) -> list:
        keys = self.warm_keys()
        keys += [self.draw() for _ in range(self.warm_requests)]
        return [self.encode(key) for key in keys]

    def stream(self) -> list:
        """One segment: ``(key, wire, call)`` per request."""
        requests = []
        for _ in range(self.segment):
            key = self.draw()
            requests.append((key,) + self.encode(key))
        return requests

    # -- the timed pass -----------------------------------------------------
    def run_pass(self, tracer=None) -> dict:
        requests = self.stream()
        request = self.conn.request
        op_ms: list = []
        replies: list = []
        t0 = clock()
        for _, wire, _ in requests:
            started = clock()
            replies.append(request(wire))
            op_ms.append((clock() - started) * 1e3)
            self.host.tick()
        wall = clock() - t0
        self.socket_ms.extend(op_ms)
        failed, answers = self.check(requests, replies)
        return {"wall": wall, "op_ms": op_ms, "attempted": len(requests),
                "failed": failed, "answers": answers, "outputs": {},
                "counts": {}}

    def check(self, requests, replies) -> tuple:
        """``(failed, answers)``: every reply must be a 200 echoing its
        query with a ranking; a sample is recomputed with the scalar
        advisor and must match to the last digit."""
        from repro.modeling.advisor import advise

        failed = answers = 0
        stride = max(1, len(requests) // self.samples_per_pass)
        for number, ((key, _, _), (status, body)) in enumerate(
                zip(requests, replies)):
            ok = status == 200
            if ok:
                payload = json.loads(body)
                query, rows = payload["query"], payload["advice"]
                ok = bool(rows) and (query["app"], query["nprocs"],
                                     query["mtbf"]) == key
                if ok and number % stride == 0:
                    expected = [row.to_dict() for row in advise(*key)]
                    ok = rows == json.loads(json.dumps(expected))
            if ok:
                answers += 1
            else:
                failed += 1
        return failed, answers

    # -- the traced pass: the same stream, in process -------------------------
    def replay(self, server, requests, tracer=None) -> tuple:
        """``(wall, per-request ms)`` of handling ``requests`` through
        ``AdvisorServer.handle_request`` plus the JSON encoding the wire
        path does, without a socket."""
        encode_target = unit_target = None
        if tracer is not None:
            encode_target = tracer.target_index("service.encode", "json.dumps")
            unit_target = tracer.target_index("service.http", "request")
        op_ms: list = []
        t0 = clock()
        for number, (_, _, call) in enumerate(requests, 1):
            started = clock()
            if tracer is not None:
                tracer.current_unit = number
                unit = tracer.begin(unit_target)
            status, payload = server.handle_request(*call)
            if tracer is not None:
                index = tracer.begin(encode_target)
            json.dumps(payload).encode()
            if tracer is not None:
                tracer.finish(index)
                tracer.finish(unit)
            op_ms.append((clock() - started) * 1e3)
            if status != 200:
                raise RuntimeError("in-process replay answered %d" % status)
        return clock() - t0, op_ms

    def in_process_server(self):
        """A fresh in-process server warmed like the subprocess was."""
        from repro.service.http import AdvisorServer

        server = AdvisorServer()
        for _, call in self.warm_stream():
            server.handle_request(*call)
        return server

    def base_pass(self) -> dict:
        """The in-process pass without the wrap table: the base of
        ``trace.overhead_pct`` and of ``service.http.wire_us``."""
        wall, self.base_ms = self.replay(self.in_process_server(),
                                         self.stream())
        return {"wall": wall}

    def before_trace(self) -> None:
        """An equally warmed server for the traced pass, so that pass's
        spans hold timed requests only."""
        self.traced_server = self.in_process_server()

    def run_traced_pass(self, tracer) -> dict:
        requests = self.stream()
        wall, op_ms = self.replay(self.traced_server, requests, tracer)
        return {"wall": wall, "op_ms": op_ms, "attempted": len(requests),
                "failed": 0, "answers": len(requests) *
                self.answers_per_request, "outputs": {}, "counts": {}}

    def trace_extras(self, tracer) -> dict:
        """Stage latencies of the in-process replay, the socket's share
        of a request, and the served process's own cache counters."""
        from spans import durations
        from stats import percentile

        def stage_us(layer, name):
            spans = [seconds * 1e6
                     for _, seconds in durations(tracer, layer, name)]
            return percentile(spans, 50.0) if spans else 0.0

        handle_us = percentile(self.base_ms, 50.0) * 1e3
        served = json.loads(self.conn.get("/metrics.json"))
        return {
            "service.http.handle_request_us": handle_us,
            "service.http.wire_us":
                percentile(self.socket_ms, 50.0) * 1e3 - handle_us,
            "service.http.request_p90_ms": percentile(self.socket_ms, 90.0),
            "service.http.request_p99_ms": percentile(self.socket_ms, 99.0),
            "service.query.from_dict_us":
                stage_us("service.query", "AdviceQuery.from_dict"),
            self.advise_metric: stage_us(*self.advise_target),
            "service.encode_us": stage_us("service.encode", "json.dumps"),
            "service.lru.hit_ratio": served["query_cache"]["hit_rate"],
            "service.grid.builds": served["grid_cache"]["grid_builds"],
        }

    def teardown(self) -> None:
        if self.conn is not None:
            self.conn.close()
        if self.server is None:
            return
        self.server.terminate()
        try:
            self.server.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.server.kill()
            self.server.wait()


class AdvisorLookupHot(AdvisorLookup):
    """Every key from a 64-key set the warm-up has asked about: each
    timed request is answered from the LRU (capacity 4096). Any set the
    LRU holds takes the same path; 64 is the issue's figure."""

    name = "advisor_lookup_hot"
    segment = 4000
    hot_keys = 64
    advise_metric = "service.core.advise_hot_us"

    def draw(self) -> tuple:
        return self.rng.choice(self.hot)


class AdvisorLookupCold(AdvisorLookup):
    """No key asked twice: each request misses the LRU and goes through
    the grid lookup, the vector core and the ranking."""

    name = "advisor_lookup_cold"
    segment = 2000
    advise_metric = "service.core.advise_cold_us"

    def draw(self) -> tuple:
        return self.cold_key()

    def probes(self) -> dict:
        import probes

        return probes.scalar_advisor_rate()


class AdvisorBatch(AdvisorLookup):
    """``POST /advise/batch``: 1024 never-repeated queries a request."""

    name = "advisor_batch"
    segment = 24
    smoke_segment = 2
    warm_requests = 2
    answers_per_request = 1024
    samples_per_pass = 4
    advise_target = ("service.core", "AdvisorService.advise_batch")
    advise_metric = "service.core.advise_cold_us"

    def draw(self) -> tuple:
        return tuple(self.cold_key()
                     for _ in range(self.answers_per_request))

    @staticmethod
    def encode(key: tuple) -> tuple:
        body = json.dumps({"queries": [
            {"app": app, "nprocs": nprocs, "mtbf": mtbf}
            for app, nprocs, mtbf in key]}).encode()
        wire = (b"POST /advise/batch HTTP/1.1\r\nHost: bench\r\n"
                b"Content-Length: %d\r\n\r\n" % len(body)) + body
        return wire, ("POST", "/advise/batch", {}, body)

    def warm_keys(self) -> list:
        """One request that touches every grid."""
        return [tuple(super().warm_keys())]

    def check(self, requests, replies) -> tuple:
        from repro.modeling.advisor import advise

        failed = answers = 0
        for (key, _, _), (status, body) in zip(requests, replies):
            rows = json.loads(body)["advice"] if status == 200 else []
            ok = len(rows) == len(key)
            if ok:
                stride = len(key) // self.samples_per_pass
                for query, row in list(zip(key, rows))[::stride]:
                    expected = advise(*query)[0].to_dict()
                    ok = ok and row == json.loads(json.dumps(expected))
            if ok:
                answers += len(rows)
            else:
                failed += 1
        return failed, answers

    def probes(self) -> dict:
        import probes

        return probes.batch_advisor_rate()


WORKLOADS = {cls.name: cls for cls in (
    CampaignSerial, CampaignParallel, SimScale, SimCkptRecover,
    ExploreSearch, AdvisorLookupHot, AdvisorLookupCold, AdvisorBatch)}
