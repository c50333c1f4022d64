"""Satellite contract: worker metric deltas survive the spawn workers.

A spawn worker is a long-lived process that runs many units, so its
registry would accumulate across them — unless the worker zeroes it
before each payload and the engine folds that payload's snapshot,
shipped back through the result pipe, into the parent registry. These
tests pin exact counts across that boundary.
"""

from repro.api import Campaign
from repro.obs.metrics import REGISTRY


def fti_writes():
    counter = REGISTRY.counter("match_fti_ckpt_writes_total")
    return counter.value(level="1")


def units_completed():
    counter = REGISTRY.counter("match_campaign_units_total")
    return counter.value(outcome="completed")


def worker_spawns():
    return REGISTRY.counter("match_campaign_worker_spawns_total").value()


def run(jobs, reps=2, store=None):
    campaign = (Campaign().apps("minivite").designs("reinit-fti")
                .nprocs(8).nnodes(4).reps(reps).jobs(jobs))
    if store is not None:
        campaign = campaign.store(str(store))
    session = campaign.run()
    assert session.failed == 0
    return session


def test_serial_and_parallel_account_identically(tmp_path):
    # the same sweep must land the same counts in the parent registry
    # and the same records in the store whether it ran in-process or on
    # two reused workers; six units on two workers means each worker
    # runs several, so a worker shipping cumulative snapshots (instead
    # of per-payload deltas) would over-count
    def deltas(jobs, store):
        before = fti_writes(), units_completed(), worker_spawns()
        run(jobs=jobs, reps=6, store=store)
        after = fti_writes(), units_completed(), worker_spawns()
        return tuple(b - a for a, b in zip(before, after))

    serial = deltas(1, tmp_path / "serial.jsonl")
    parallel = deltas(2, tmp_path / "parallel.jsonl")

    assert serial[0] > 0
    assert serial[1] == 6
    assert serial[2] == 0  # the in-process worker starts no process
    # one process per slot, not one per unit
    assert parallel == (serial[0], 6, 2)
    # parallel units complete (and append) out of order
    assert (sorted((tmp_path / "parallel.jsonl").read_bytes().splitlines())
            == sorted((tmp_path / "serial.jsonl").read_bytes().splitlines()))


def test_parallel_unit_outcomes_counted_once_each():
    before = units_completed()
    run(jobs=2, reps=3)
    assert units_completed() - before == 3


def test_queue_depth_gauge_drains_to_zero():
    run(jobs=2, reps=2)
    gauge = REGISTRY.gauge("match_campaign_queue_depth")
    assert gauge.value() == 0.0


def test_store_metrics_flow_from_workers(tmp_path):
    counter = REGISTRY.counter("match_store_appends_total")
    before = counter.value(kind="result")
    (Campaign().apps("minivite").designs("reinit-fti")
     .nprocs(8).nnodes(4).reps(2).jobs(2)
     .store(str(tmp_path / "results.jsonl")).run())
    # appends happen in the parent (the engine owns the store), but the
    # count rides the same registry the worker deltas merged into
    assert counter.value(kind="result") - before == 2
