"""Isolated rates of single layers, each run on the workload whose
end-to-end metric it predicts (its *home* workload).

Every probe is defined here, inside the directory ``BENCHMARK.json``
protects, so a change that claims a gain cannot edit what measures it.
The simulator, checkpoint and advisor rates time the same programs as
the microbenchmarks of ``benchmarks/perf/run_bench.py`` (which stays
the source of ``BENCH_perf.json`` for the CI gate); here each is called
five times and reported as a median with quartiles. Inputs are built
before a probe's clock starts.
"""

from __future__ import annotations

import multiprocessing
import time

from stats import summarize

REPEATS = 5
SPAWN_REPEATS = 10

clock = time.perf_counter


def _repeat(fn, repeats: int = REPEATS) -> dict:
    return summarize([fn() for _ in range(repeats)])


# -- simmpi.runtime -----------------------------------------------------------
def _runtime_wall(nprocs: int, entry) -> tuple:
    """``(runtime, wall seconds)`` of one simulated program."""
    from repro.cluster.machine import Cluster
    from repro.simmpi.runtime import Runtime

    runtime = Runtime(Cluster(nnodes=32), nprocs, entry)
    started = clock()
    runtime.run()
    return runtime, clock() - started


def dense_steps_per_s(nprocs: int = 512, iters: int = 40) -> float:
    """Every rank runnable in every scheduler round."""
    def entry(mpi):
        for _ in range(iters):
            yield from mpi.compute(seconds=1e-6)

    return nprocs * iters / _runtime_wall(nprocs, entry)[1]


def sparse_steps_per_s(nprocs: int = 512, iters: int = 2000) -> float:
    """One runnable rank, the rest blocked in a receive."""
    def entry(mpi):
        if mpi.rank != 0:
            yield from mpi.recv(0)
            return
        for _ in range(iters):
            yield from mpi.compute(seconds=1e-6)
        for peer in range(1, mpi.size):
            yield from mpi.send(peer, b"done", nbytes=8)

    return iters / _runtime_wall(nprocs, entry)[1]


def p2p_match_per_s(nprocs: int = 64, rounds: int = 400) -> float:
    """Neighbour ping-pong: messages matched and completed."""
    def entry(mpi):
        peer = mpi.rank ^ 1
        for i in range(rounds):
            if mpi.rank < peer:
                yield from mpi.send(peer, i, tag=i % 7, nbytes=64)
                yield from mpi.recv(peer, tag=i % 7)
            else:
                yield from mpi.recv(peer, tag=i % 7)
                yield from mpi.send(peer, i, tag=i % 7, nbytes=64)

    runtime, wall = _runtime_wall(nprocs, entry)
    return runtime.stats["p2p_messages"] / wall


def p2p_any_source_per_s(nsenders: int = 63, per_sender: int = 60) -> float:
    """Wildcard receives draining a deep unexpected queue."""
    def entry(mpi):
        if mpi.rank == 0:
            for _ in range(nsenders * per_sender):
                yield from mpi.recv(None, tag=None)
            return
        for i in range(per_sender):
            yield from mpi.send(0, i, tag=mpi.rank, nbytes=32)

    runtime, wall = _runtime_wall(nsenders + 1, entry)
    return runtime.stats["p2p_messages"] / wall


def collectives_per_s(nprocs: int = 256, rounds: int = 30) -> float:
    """Allreduce rendezvous."""
    from repro.simmpi import ops

    def entry(mpi):
        for _ in range(rounds):
            yield from mpi.allreduce(1.0, op=ops.SUM, nbytes=8)

    runtime, wall = _runtime_wall(nprocs, entry)
    return runtime.stats["collectives"] / wall


def simulator_rates() -> dict:
    """Scheduler, matching and collective rates → ``run_wall_s`` on
    ``sim_scale``."""
    return {
        "simmpi.runtime.dense_steps_per_s": _repeat(dense_steps_per_s),
        "simmpi.runtime.sparse_steps_per_s": _repeat(sparse_steps_per_s),
        "simmpi.runtime.p2p_match_per_s": _repeat(p2p_match_per_s),
        "simmpi.runtime.p2p_any_source_per_s":
            _repeat(p2p_any_source_per_s),
        "simmpi.runtime.collectives_per_s": _repeat(collectives_per_s),
    }


# -- fti ----------------------------------------------------------------------
def rs_MB_per_s(k: int = 8, shard_mb: float = 1.0) -> tuple:
    """``(encode, decode)`` MB/s of RS(k, k); the decode loses the
    first half of the data shards, the worst recoverable case."""
    import numpy as np

    from repro.fti.rs_encoding import ReedSolomonCode, pad_to_equal_length

    rng = np.random.default_rng(11)
    blobs = [rng.integers(0, 256, size=int(shard_mb * 1e6) - 1 - i,
                          dtype=np.uint8).tobytes() for i in range(k)]
    padded, _ = pad_to_equal_length(blobs)
    code = ReedSolomonCode(k, k)
    data_mb = k * len(padded[0]) / 1e6
    started = clock()
    parity = code.encode(padded)
    encode = data_mb / (clock() - started)
    shards = {i: padded[i] for i in range(k // 2, k)}
    shards.update({k + i: parity[i] for i in range(k // 2)})
    started = clock()
    decoded = code.decode(shards, len(padded[0]))
    decode = data_mb / (clock() - started)
    if decoded[0] != padded[0]:
        raise RuntimeError("RS decode produced wrong bytes")
    return encode, decode


def serialize_MB_per_s(cells: int = 32, cell_kb: int = 256,
                       reps: int = 20) -> float:
    """Checkpoint blob serialisation of ``cells`` float arrays."""
    import numpy as np

    from repro.fti.serializer import ProtectedSet, ScalarRef

    rng = np.random.default_rng(7)
    pset = ProtectedSet()
    pset.protect(0, ScalarRef(3), "iteration")
    for i in range(cells):
        pset.protect(i + 1, rng.random(cell_kb * 128), "cell%d" % i)
    blob = pset.serialize()
    started = clock()
    for _ in range(reps):
        blob = pset.serialize()
    return len(blob) * reps / (clock() - started) / 1e6


def checkpoint_rates() -> dict:
    """Reed-Solomon and serializer rates → ``run_wall_s`` on
    ``sim_ckpt_recover``."""
    pairs = [rs_MB_per_s() for _ in range(REPEATS)]
    return {
        "fti.rs_encoding.encode_MB_per_s":
            summarize([encode for encode, _ in pairs]),
        "fti.rs_encoding.decode_MB_per_s":
            summarize([decode for _, decode in pairs]),
        "fti.serializer.serialize_MB_per_s": _repeat(serialize_MB_per_s),
    }


# -- advisor, in process ------------------------------------------------------
MTBFS = ("30m", "1h", "4h", "1d")


def scalar_queries_per_s(queries: int = 200) -> float:
    """``advise()``: each query prices and ranks the whole designs ×
    levels matrix."""
    from repro.modeling.advisor import advise

    advise("hpccg", 512, "4h")
    started = clock()
    for i in range(queries):
        if not advise("hpccg", 512, MTBFS[i % len(MTBFS)]):
            raise RuntimeError("advise produced no ranking")
    return queries / (clock() - started)


def batch_queries_per_s(queries: int = 20000) -> float:
    """The same query stream answered by one vectorised
    ``advise_batch`` call; query objects are built before the clock."""
    from repro.modeling.advisor import advise
    from repro.service.query import AdviceQuery
    from repro.service.vector import advise_batch

    stream = [AdviceQuery.make("hpccg", 512, MTBFS[i % len(MTBFS)])
              for i in range(queries)]
    advise_batch(stream[:len(MTBFS)])
    started = clock()
    answers = advise_batch(stream)
    rate = queries / (clock() - started)
    if len(answers) != queries or any(
            answers[i] != advise("hpccg", 512, mtbf)[0]
            for i, mtbf in enumerate(MTBFS)):
        raise RuntimeError("advise_batch diverged from scalar advise")
    return rate


def scalar_advisor_rate() -> dict:
    """→ ``queries_per_s`` on ``advisor_lookup_cold``."""
    return {"modeling.advisor.scalar_queries_per_s":
            _repeat(scalar_queries_per_s)}


def batch_advisor_rate() -> dict:
    """→ ``queries_per_s`` on ``advisor_batch``: the in-process ceiling
    the HTTP path is measured against."""
    return {"service.vector.batch_queries_per_s":
            _repeat(batch_queries_per_s)}


# -- core.engine, core.store --------------------------------------------------
def _import_engine() -> None:
    import repro.core.engine  # noqa: F401  (the import is the work)


def spawn_import_ms() -> dict:
    """A spawn-context process that only imports ``repro.core.engine``,
    start to join: what every ``jobs>1`` attempt pays before it
    simulates anything → ``units_per_s`` on ``campaign_parallel``."""
    ctx = multiprocessing.get_context("spawn")
    samples = []
    for _ in range(SPAWN_REPEATS):
        process = ctx.Process(target=_import_engine)
        started = clock()
        process.start()
        process.join()
        samples.append((clock() - started) * 1e3)
        if process.exitcode != 0:
            raise RuntimeError("spawned import exited %r" % process.exitcode)
    return {"core.engine.spawn_import_ms": summarize(samples)}


def store_rates(store_path: str, configs) -> dict:
    """The write and the read side of the result store →
    ``units_per_s`` on ``campaign_*``.

    ``append_ms`` re-appends the records of the last pass's store to a
    scratch store (one flush + fsync each); ``resume_skip_ms_per_unit``
    re-streams that pass's campaign with ``resume()``, so every unit is
    answered from the store.
    """
    import json

    from repro.api import Campaign, UnitSkipped
    from repro.core.store import ResultStore

    with open(store_path) as handle:
        records = [json.loads(line) for line in handle]
    scratch = ResultStore(store_path + ".probe")
    appends = []
    for _ in range(REPEATS):
        for record in records:
            started = clock()
            scratch.append(record["key"], record["config"], record["rep"],
                           record["result"])
            appends.append((clock() - started) * 1e3)
    skips = []
    for _ in range(REPEATS):
        campaign = (Campaign.from_configs(configs).reps(1)
                    .store(store_path).resume())
        started = clock()
        skipped = sum(isinstance(event, UnitSkipped)
                      for event in campaign.stream())
        if skipped != len(records):
            raise RuntimeError("resume skipped %d of %d stored units"
                               % (skipped, len(records)))
        skips.append((clock() - started) * 1e3 / skipped)
    return {"core.store.append_ms": summarize(appends),
            "core.store.resume_skip_ms_per_unit": summarize(skips)}
