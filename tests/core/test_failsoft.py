"""Failure containment: on_error policies, retry/backoff, timeouts,
structured error records, watchdog, and resume robustness.

The expensive invariant defended throughout: fail-soft machinery must
never change *successful* results — every recovery path (retry after a
transient, resume after an interrupt, timeout-then-retry) ends with
run results bit-identical to a plain serial execution of the same unit.
"""

import json
import os
import signal

import pytest

from repro.core.configs import ExperimentConfig
from repro.core.engine import (
    CampaignEngine,
    RunUnit,
    campaign_units,
    execute_unit,
    import_plugins,
    parse_on_error,
)
from repro.core.events import (
    CampaignAborted,
    CampaignFinished,
    UnitCompleted,
    UnitFailed,
    UnitRetrying,
    UnitStarted,
)
from repro.core.store import ResultStore
from repro.errors import (
    ConfigurationError,
    ErrorRecord,
    SimulationError,
    UnitExecutionError,
    UnitTimeoutError,
    WatchdogError,
    WorkerLostError,
    describe_error,
    is_transient,
    resurrect_error,
)


def mini_config(**kwargs):
    defaults = dict(app="hpccg", design="reinit-fti", nprocs=8, nnodes=4,
                    inject_fault=True)
    defaults.update(kwargs)
    return ExperimentConfig(**defaults)


# -- policy parsing ---------------------------------------------------------
def test_parse_on_error():
    assert parse_on_error("abort") == ("abort", 0)
    assert parse_on_error("continue") == ("continue", 0)
    assert parse_on_error("retry") == ("continue", 1)
    assert parse_on_error("retry:4") == ("continue", 4)
    assert parse_on_error(None) == ("abort", 0)
    for bad in ("halt", "retry:0", "retry:-1", "retry:x", "continue:2"):
        with pytest.raises(ConfigurationError):
            parse_on_error(bad)


def test_engine_rejects_bad_failure_policy_knobs():
    with pytest.raises(ConfigurationError):
        CampaignEngine(retries=-1)
    with pytest.raises(ConfigurationError):
        CampaignEngine(timeout=0)
    with pytest.raises(ConfigurationError):
        CampaignEngine(sim_watchdog=0)
    # retry:N sugar folds into continue + retries (max with explicit)
    engine = CampaignEngine(on_error="retry:3", retries=1)
    assert engine.on_error == "continue"
    assert engine.retries == 3


# -- structured error records ----------------------------------------------
def test_error_record_roundtrip_and_transiency():
    record = describe_error(OSError("disk on fire"))
    assert record.transient  # harness-level I/O: retryable
    assert record.type == "OSError"
    assert "disk on fire" in record.message
    assert record == ErrorRecord.from_dict(
        json.loads(json.dumps(record.to_dict())))

    try:
        raise SimulationError("impossible state")
    except SimulationError as exc:
        det = describe_error(exc)
    assert not det.transient  # simulator errors are deterministic
    assert det.type == "repro.errors.SimulationError"
    assert "test_error_record_roundtrip" in det.traceback

    assert is_transient(WorkerLostError())
    assert is_transient(UnitTimeoutError(5.0))
    assert not is_transient(WatchdogError(100))


def test_resurrect_error_rebuilds_original_type():
    record = describe_error(SimulationError("bad state"))
    exc = resurrect_error(record)
    assert type(exc) is SimulationError
    assert str(exc) == "bad state"
    assert exc.error_record is record


def test_resurrect_error_degrades_gracefully():
    # an exception class whose __init__ demands extra arguments cannot
    # be rebuilt from (message,) — must degrade, never crash
    from repro.core.chaos import StubbornChaosError

    record = describe_error(StubbornChaosError(13, "detail"))
    exc = resurrect_error(record)
    assert isinstance(exc, UnitExecutionError)
    assert exc.record == record
    # unknown modules and non-exception names degrade the same way
    for bogus in ("no.such.module.Error", "os.path"):
        fake = ErrorRecord(type=bogus, message="x", traceback="")
        assert isinstance(resurrect_error(fake), UnitExecutionError)


# -- import_plugins error chaining -----------------------------------------
def test_import_plugins_chains_the_original_importerror():
    with pytest.raises(ConfigurationError) as excinfo:
        import_plugins(["definitely_not_an_installed_module_xyz"])
    assert isinstance(excinfo.value.__cause__, ImportError)


# -- serial fail-soft -------------------------------------------------------
def test_serial_continue_records_failures_and_finishes(monkeypatch):
    good = mini_config()
    bad = mini_config(design="restart-fti")
    units = campaign_units([good, bad], runs=1)
    real = execute_unit

    def flaky(unit):
        if unit.config.design == "restart-fti":
            raise SimulationError("poisoned cell")
        return real(unit)

    monkeypatch.setattr("repro.core.engine.execute_unit", flaky)
    engine = CampaignEngine(on_error="continue", store_path="memory:")
    events = list(engine.stream(units))
    finished = events[-1]
    assert isinstance(finished, CampaignFinished)
    assert finished.failed == 1
    assert engine.executed == 2 and engine.failed == 1
    failed = [e for e in events if isinstance(e, UnitFailed)]
    assert len(failed) == 1
    assert failed[0].record.type == "repro.errors.SimulationError"
    bad_key = units[1].key
    assert engine.failures[bad_key].message == "poisoned cell"
    # the failure is persisted as a store failure record...
    stored = engine.store.load_failures()
    assert stored[bad_key]["error"]["message"] == "poisoned cell"
    # ...which resume ignores, so a fixed bug re-runs the unit
    assert bad_key not in engine.store.load_completed()
    # the successful unit is untouched by the fail-soft machinery
    assert finished.results[units[0].key] == real(units[0])


def test_serial_abort_still_raises(monkeypatch):
    monkeypatch.setattr("repro.core.engine.execute_unit",
                        lambda unit: (_ for _ in ()).throw(
                            SimulationError("boom")))
    engine = CampaignEngine()  # on_error defaults to abort
    with pytest.raises(SimulationError, match="boom"):
        list(engine.stream(campaign_units([mini_config()], runs=1)))


def test_serial_transient_retry_preserves_result(monkeypatch):
    config = mini_config()
    unit = RunUnit(config, 0)
    expected = execute_unit(unit)
    calls = {"n": 0}
    real = execute_unit

    def once_flaky(u):
        calls["n"] += 1
        if calls["n"] == 1:
            raise OSError("transient store hiccup")
        return real(u)

    monkeypatch.setattr("repro.core.engine.execute_unit", once_flaky)
    engine = CampaignEngine(retries=2, backoff_base=0.01)
    events = list(engine.stream([unit]))
    retries = [e for e in events if isinstance(e, UnitRetrying)]
    assert len(retries) == 1
    assert retries[0].attempt == 1
    assert retries[0].error.transient
    assert engine.retried == 1 and engine.failed == 0
    # the retried run is bit-identical to an undisturbed serial run
    assert events[-1].results[unit.key] == expected


def test_deterministic_errors_never_retry(monkeypatch):
    monkeypatch.setattr("repro.core.engine.execute_unit",
                        lambda unit: (_ for _ in ()).throw(
                            SimulationError("always")))
    engine = CampaignEngine(on_error="continue", retries=3,
                            backoff_base=0.01)
    events = list(engine.stream([RunUnit(mini_config(), 0)]))
    assert not [e for e in events if isinstance(e, UnitRetrying)]
    failed = [e for e in events if isinstance(e, UnitFailed)]
    assert len(failed) == 1 and failed[0].attempt == 1


def test_retries_exhausted_fails_with_last_record(monkeypatch):
    monkeypatch.setattr("repro.core.engine.execute_unit",
                        lambda unit: (_ for _ in ()).throw(
                            OSError("still broken")))
    engine = CampaignEngine(on_error="continue", retries=2,
                            backoff_base=0.01)
    events = list(engine.stream([RunUnit(mini_config(), 0)]))
    retries = [e for e in events if isinstance(e, UnitRetrying)]
    failed = [e for e in events if isinstance(e, UnitFailed)]
    assert [r.attempt for r in retries] == [1, 2]
    assert len(failed) == 1
    assert failed[0].attempt == 3  # the attempt that exhausted the budget
    assert failed[0].record.transient


# -- simulator watchdog -----------------------------------------------------
def test_watchdog_env_turns_livelock_budget_into_error(monkeypatch):
    monkeypatch.setenv("MATCH_SIM_WATCHDOG", "50")
    with pytest.raises(WatchdogError) as excinfo:
        execute_unit(RunUnit(mini_config(), 0))
    assert excinfo.value.steps == 50
    assert not is_transient(excinfo.value)  # deterministic: never retried


def test_watchdog_generous_budget_changes_nothing(monkeypatch):
    unit = RunUnit(mini_config(), 0)
    baseline = execute_unit(unit)
    monkeypatch.setenv("MATCH_SIM_WATCHDOG", str(10 ** 9))
    assert execute_unit(unit) == baseline


def test_engine_exports_watchdog_budget_serially(monkeypatch):
    monkeypatch.delenv("MATCH_SIM_WATCHDOG", raising=False)
    engine = CampaignEngine(on_error="continue", sim_watchdog=10)
    events = list(engine.stream([RunUnit(mini_config(), 0)]))
    failed = [e for e in events if isinstance(e, UnitFailed)]
    assert len(failed) == 1
    assert failed[0].record.type == "repro.errors.WatchdogError"
    # the budget must not leak into the environment past the run
    assert "MATCH_SIM_WATCHDOG" not in os.environ


def test_engine_watchdog_bounds_a_worst_of_units_inner_search(monkeypatch):
    """A ``worst-of`` unit runs a whole search inside one unit; every
    run of it is built under the engine's budget."""
    monkeypatch.delenv("MATCH_SIM_WATCHDOG", raising=False)
    engine = CampaignEngine(on_error="continue", sim_watchdog=10)
    unit = RunUnit(mini_config(design="ulfm-fti", faults="worst-of:2"), 0)
    events = list(engine.stream([unit]))
    failed = [e for e in events if isinstance(e, UnitFailed)]
    assert len(failed) == 1
    assert failed[0].record.type == "repro.errors.WatchdogError"
    assert "MATCH_SIM_WATCHDOG" not in os.environ


# -- store failure records --------------------------------------------------
def test_store_failure_records_roundtrip(tmp_path):
    store = ResultStore(tmp_path / "failures.jsonl")
    record = describe_error(SimulationError("sad")).to_dict()
    store.append_failure("k1", {"app": "x"}, 0, record)
    assert store.load_completed() == {}
    assert store.load_failures()["k1"]["error"]["message"] == "sad"
    assert store.corrupt_lines == 0  # failure records are not corruption
    # a later success supersedes the stale failure
    store.append("k1", {"app": "x"}, 0, {"result": "fine"})
    assert store.load_failures() == {}
    assert store.load_completed()["k1"]["result"] == {"result": "fine"}


# -- resume robustness ------------------------------------------------------
def test_resume_after_store_truncated_mid_record(tmp_path):
    config = mini_config()
    units = campaign_units([config], runs=2)
    path = tmp_path / "sweep.jsonl"
    baseline = CampaignEngine(store_path=str(path)).run(units)
    # simulate a kill mid-write: chop the trailing record in half
    raw = path.read_bytes()
    lines = raw.splitlines(keepends=True)
    assert len(lines) == 2
    path.write_bytes(lines[0] + lines[1][:len(lines[1]) // 2])

    engine = CampaignEngine(store_path=str(path), resume=True)
    resumed = engine.run(units)
    assert engine.skipped == 1 and engine.executed == 1
    assert resumed == baseline  # re-run fills the hole bit-identically
    assert len(ResultStore(path).load_completed()) == 2


def test_resume_reruns_units_with_failure_records(tmp_path, monkeypatch):
    config = mini_config()
    unit = RunUnit(config, 0)
    path = tmp_path / "sweep.jsonl"
    with monkeypatch.context() as patched:
        patched.setattr("repro.core.engine.execute_unit",
                        lambda u: (_ for _ in ()).throw(
                            SimulationError("since-fixed bug")))
        broken = CampaignEngine(on_error="continue", store_path=str(path))
        broken.run([unit])
    assert broken.failed == 1
    assert ResultStore(path).load_failures()

    engine = CampaignEngine(store_path=str(path), resume=True)
    results = engine.run([unit])
    assert engine.skipped == 0 and engine.executed == 1  # re-ran, not skipped
    assert results[unit.key] == execute_unit(unit)
    store = ResultStore(path)
    assert store.load_failures() == {}  # success superseded the failure
    assert unit.key in store.load_completed()


def test_interrupt_mid_campaign_then_resume_bit_identical(tmp_path,
                                                          monkeypatch):
    config = mini_config()
    units = campaign_units([config], runs=2)
    baseline = CampaignEngine().run(units)
    path = tmp_path / "sweep.jsonl"
    real = execute_unit
    calls = {"n": 0}

    def interrupting(u):
        calls["n"] += 1
        if calls["n"] == 2:
            raise KeyboardInterrupt
        return real(u)

    with monkeypatch.context() as patched:
        patched.setattr("repro.core.engine.execute_unit", interrupting)
        engine = CampaignEngine(store_path=str(path))
        events = []
        with pytest.raises(KeyboardInterrupt):
            for event in engine.stream(units):
                events.append(event)
    assert isinstance(events[-1], CampaignAborted)
    assert events[-1].completed == 1  # the first unit landed in the store

    resumed_engine = CampaignEngine(store_path=str(path), resume=True)
    resumed = resumed_engine.run(units)
    assert resumed_engine.skipped == 1 and resumed_engine.executed == 1
    assert resumed == baseline


# -- parallel dispatch loop -------------------------------------------------
def test_parallel_unit_started_at_dispatch_time():
    """UnitStarted is emitted when a unit is handed to a worker — at
    most ``jobs`` units are started before the first completion (the
    historical imap path announced the whole sweep up front)."""
    engine = CampaignEngine(jobs=2)
    units = campaign_units([mini_config(app="minivite")], runs=4)
    started_before_first_completion = 0
    for event in engine.stream(units):
        if isinstance(event, UnitStarted):
            started_before_first_completion += 1
        elif isinstance(event, UnitCompleted):
            break
    assert started_before_first_completion <= 2


def test_parallel_unpicklable_worker_exception_contained(tmp_path,
                                                         monkeypatch):
    """Regression: an exception class that cannot survive a pickle
    round-trip used to crash the pool in the *parent*; structured error
    records must contain it as an ordinary unit failure."""
    monkeypatch.setenv("MATCH_CHAOS", json.dumps({
        "dir": str(tmp_path / "chaos"),
        "rules": [{"mode": "unpicklable", "match": "*", "times": -1}],
    }))
    engine = CampaignEngine(jobs=2, on_error="continue",
                            store_path="memory:")
    units = campaign_units([mini_config(app="minivite")], runs=2)
    events = list(engine.stream(units))
    assert isinstance(events[-1], CampaignFinished)
    assert events[-1].failed == 2
    for unit in units:
        record = engine.failures[unit.key]
        assert record.type == "repro.core.chaos.StubbornChaosError"
        assert "stubborn chaos failure" in record.message
        assert not record.transient
    assert len(engine.store.load_failures()) == 2


def test_timeout_kills_hung_worker_and_retry_succeeds(tmp_path,
                                                      monkeypatch):
    """A hung worker is killed at the deadline, attributed to its unit
    as a transient UnitTimeoutError, and the retry (the chaos rule has
    been claimed) produces the bit-identical result."""
    monkeypatch.setenv("MATCH_CHAOS", json.dumps({
        "dir": str(tmp_path / "chaos"),
        "rules": [{"mode": "hang", "match": "*", "times": 1,
                   "hang_seconds": 120}],
    }))
    unit = RunUnit(mini_config(app="minivite", inject_fault=False), 0)
    expected = execute_unit(unit)
    engine = CampaignEngine(jobs=1, timeout=5.0, retries=1,
                            backoff_base=0.01)
    events = list(engine.stream([unit]))
    retries = [e for e in events if isinstance(e, UnitRetrying)]
    assert len(retries) == 1
    assert retries[0].error.type == "repro.errors.UnitTimeoutError"
    assert retries[0].error.transient
    assert engine.failed == 0
    assert events[-1].results[unit.key] == expected


def test_parallel_sigterm_drains_and_aborts(tmp_path):
    """SIGTERM mid-campaign: the dispatch loop drains in-flight results
    into the store, emits CampaignAborted, and exits via
    KeyboardInterrupt with no worker left behind; a resume completes
    the sweep bit-identically."""
    import sys

    script = tmp_path / "drive.py"
    store = tmp_path / "sweep.jsonl"
    script.write_text(
        "import multiprocessing\n"
        "import sys\n"
        "from repro.core.configs import ExperimentConfig\n"
        "from repro.core.engine import CampaignEngine, campaign_units\n"
        "from repro.core.events import CampaignAborted, UnitCompleted\n"
        "\n"
        "\n"
        "def main():\n"
        "    config = ExperimentConfig(app='minivite', design='reinit-fti',\n"
        "                              nprocs=8, nnodes=4,\n"
        "                              inject_fault=True)\n"
        "    units = campaign_units([config], runs=4)\n"
        "    engine = CampaignEngine(jobs=2, store_path=%r)\n"
        "    aborted = False\n"
        "    try:\n"
        "        for event in engine.stream(units):\n"
        "            if isinstance(event, UnitCompleted):\n"
        "                print('COMPLETED', flush=True)\n"
        "            if isinstance(event, CampaignAborted):\n"
        "                aborted = True\n"
        "                print('ABORTED', event.reason, flush=True)\n"
        "    except KeyboardInterrupt:\n"
        "        print('CHILDREN', len(multiprocessing.active_children()),\n"
        "              flush=True)\n"
        "        sys.exit(42 if aborted else 3)\n"
        "    sys.exit(0)\n"
        "\n"
        "\n"
        "if __name__ == '__main__':\n"
        "    main()\n" % str(store))
    import subprocess
    import time as _time

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(sys.path)
    proc = subprocess.Popen([sys.executable, str(script)],
                            stdout=subprocess.PIPE, text=True, env=env)
    # wait for the first completed unit so the drain has real work
    line = proc.stdout.readline()
    assert "COMPLETED" in line
    proc.send_signal(signal.SIGTERM)
    out, _ = proc.communicate(timeout=120)
    assert proc.returncode == 42, out
    assert "ABORTED SIGTERM" in out
    # the drain hands its workers back and the stream's exit reaps them
    assert "CHILDREN 0" in out
    completed = ResultStore(store).load_completed()
    assert completed  # drained results were flushed before exiting

    config = mini_config(app="minivite")
    units = campaign_units([config], runs=4)
    engine = CampaignEngine(store_path=str(store), resume=True)
    resumed = engine.run(units)
    assert engine.skipped == len(completed)
    baseline = CampaignEngine().run(units)
    assert resumed == baseline


def test_drain_emits_unit_failed_for_errors_landing_after_the_signal(
        tmp_path, monkeypatch):
    """Regression: a worker error (or an undecodable payload) arriving
    during the SIGTERM drain was written to the store and counted in
    ``engine.failed`` without a ``UnitFailed`` event, so the metrics
    counter, tracer and --progress disagreed with the store. The drain
    settles outcomes in the same place as normal dispatch: one event
    per failure record, and no retry is scheduled while draining."""
    from repro.obs.metrics import REGISTRY

    monkeypatch.setenv("MATCH_CHAOS", json.dumps({
        "dir": str(tmp_path / "chaos"),
        "rules": [{"mode": "error", "match": "*#rep0", "times": -1},
                  {"mode": "corrupt", "match": "*#rep1", "times": -1}],
    }))
    counter = REGISTRY.counter("match_campaign_units_total")
    before = counter.value(outcome="failed")
    units = campaign_units([mini_config(app="minivite")], runs=2)
    engine = CampaignEngine(jobs=2, on_error="continue", retries=2,
                            backoff_base=0.01, store_path="memory:")
    events = []
    with pytest.raises(KeyboardInterrupt):
        for event in engine.stream(units):
            events.append(event)
            started = [e for e in events if isinstance(e, UnitStarted)]
            if isinstance(event, UnitStarted) and len(started) == 2:
                # both units are (about to be) in flight: the loop sees
                # the signal on its next tick and drains them
                os.kill(os.getpid(), signal.SIGTERM)
    assert isinstance(events[-1], CampaignAborted)
    assert events[-1].reason == "SIGTERM"
    failed = [e for e in events if isinstance(e, UnitFailed)]
    assert not [e for e in events if isinstance(e, UnitRetrying)]
    assert sorted(e.unit.key for e in failed) == sorted(engine.failures)
    assert engine.failed == 2
    assert len(engine.store.load_failures()) == 2
    assert counter.value(outcome="failed") - before == 2
    assert {e.record.type for e in failed} == {
        "repro.core.chaos.ChaosError", "repro.errors.CorruptResultError"}
    assert all(e.attempt == 1 for e in failed)


# -- leased long-lived workers ----------------------------------------------
def worker_spawns():
    from repro.obs.metrics import REGISTRY

    return REGISTRY.counter("match_campaign_worker_spawns_total").value()


def set_chaos(monkeypatch, tmp_path, *rules):
    monkeypatch.setenv("MATCH_CHAOS", json.dumps({
        "dir": str(tmp_path / "chaos"), "rules": list(rules)}))


def test_lost_and_expired_workers_are_retired_and_replaced(tmp_path,
                                                           monkeypatch):
    """A worker that crashes and one that blows its deadline are each
    retired; a later lease that finds no idle worker starts one
    replacement, never more than one per lost worker, and survivors and
    retried units alike equal the serial run."""
    set_chaos(monkeypatch, tmp_path,
              {"mode": "crash", "match": "*#rep1", "times": 1},
              {"mode": "hang", "match": "*#rep4", "times": 1,
               "hang_seconds": 120})
    units = campaign_units([mini_config(app="minivite")], runs=6)
    before = worker_spawns()
    engine = CampaignEngine(jobs=2, on_error="retry:1", timeout=5.0,
                            backoff_base=0.01)
    events = list(engine.stream(units))
    spawns = worker_spawns() - before
    retried = {e.unit.rep: e.error.type for e in events
               if isinstance(e, UnitRetrying)}
    assert retried == {1: "repro.errors.WorkerLostError",
                       4: "repro.errors.UnitTimeoutError"}
    assert engine.failed == 0
    assert 2 < spawns <= 2 + 2
    monkeypatch.delenv("MATCH_CHAOS")
    assert events[-1].results == CampaignEngine().run(units)


def test_error_replies_do_not_cost_a_worker(tmp_path, monkeypatch):
    """A worker that *replied* — with an error record, an unpicklable
    exception's record, or a payload that will not decode — is healthy:
    it goes back on lease, and the units it runs next are unharmed."""
    set_chaos(monkeypatch, tmp_path,
              {"mode": "error", "match": "*#rep0", "times": -1},
              {"mode": "unpicklable", "match": "*#rep1", "times": -1},
              {"mode": "corrupt", "match": "*#rep2", "times": -1})
    units = campaign_units([mini_config(app="minivite")], runs=6)
    before = worker_spawns()
    engine = CampaignEngine(jobs=2, on_error="continue")
    results = engine.run(units)
    assert worker_spawns() - before == 2
    assert {engine.failures[u.key].type for u in units[:3]} == {
        "repro.core.chaos.ChaosError",
        "repro.core.chaos.StubbornChaosError",
        "repro.errors.CorruptResultError"}
    monkeypatch.delenv("MATCH_CHAOS")
    assert results == CampaignEngine().run(units[3:])


def test_worker_found_dead_while_idle_costs_no_attempt():
    """The consumer is suspended on the first UnitCompleted while the
    one worker sits idle; killing it there must show up as a replaced
    worker, not as a failed or retried attempt of the next unit."""
    import multiprocessing

    units = campaign_units([mini_config(app="minivite")], runs=2)
    before = worker_spawns()
    engine = CampaignEngine(jobs=1, timeout=60, retries=1,
                            backoff_base=0.01)
    events = []
    for event in engine.stream(units):
        events.append(event)
        if isinstance(event, UnitCompleted) and event.completed == 1:
            children = multiprocessing.active_children()
            assert len(children) == 1
            for child in children:
                child.terminate()
                child.join(10)
                assert not child.is_alive()
    assert not [e for e in events
                if isinstance(e, (UnitRetrying, UnitFailed))]
    assert events[-1].results == CampaignEngine().run(units)
    assert worker_spawns() - before == 2


@pytest.mark.parametrize("ending", ["exhausted", "aborted", "closed"])
def test_no_worker_outlives_its_stream(ending, tmp_path, monkeypatch):
    import multiprocessing

    from repro.core.chaos import ChaosError

    units = campaign_units([mini_config(app="minivite")], runs=4)
    engine = CampaignEngine(jobs=2)
    if ending == "exhausted":
        assert len(engine.run(units)) == 4
    elif ending == "aborted":
        set_chaos(monkeypatch, tmp_path,
                  {"mode": "error", "match": "*#rep1", "times": -1})
        with pytest.raises(ChaosError):
            engine.run(units)
    else:
        stream = engine.stream(units)
        for event in stream:
            if isinstance(event, UnitCompleted):
                break
        assert multiprocessing.active_children()
        stream.close()
    assert multiprocessing.active_children() == []


def test_sigkilled_parent_leaves_no_worker_behind(tmp_path):
    """No atexit handler runs in a SIGKILLed driver; its workers must
    notice the closed pipe (EOF on recv, EPIPE on send) and exit."""
    import subprocess
    import sys
    import time as _time

    if not os.path.exists("/proc/self/stat"):
        pytest.skip("needs /proc to watch orphaned processes")
    script = tmp_path / "drive.py"
    script.write_text(
        "import multiprocessing\n"
        "from repro.core.configs import ExperimentConfig\n"
        "from repro.core.engine import CampaignEngine, campaign_units\n"
        "from repro.core.events import UnitCompleted\n"
        "\n"
        "\n"
        "def main():\n"
        "    config = ExperimentConfig(app='minivite', design='reinit-fti',\n"
        "                              nprocs=8, nnodes=4,\n"
        "                              inject_fault=True)\n"
        "    units = campaign_units([config], runs=200)\n"
        "    announced = False\n"
        "    for event in CampaignEngine(jobs=2).stream(units):\n"
        "        if isinstance(event, UnitCompleted) and not announced:\n"
        "            announced = True\n"
        "            print('WORKERS', *[child.pid for child in\n"
        "                  multiprocessing.active_children()], flush=True)\n"
        "\n"
        "\n"
        "if __name__ == '__main__':\n"
        "    main()\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(sys.path)
    with subprocess.Popen([sys.executable, str(script)],
                          stdout=subprocess.PIPE, text=True,
                          env=env) as proc:
        try:
            line = proc.stdout.readline().split()
            assert line[0] == "WORKERS" and len(line) == 3, line
            pids = [int(pid) for pid in line[1:]]
        finally:
            proc.kill()

    def running(pid):
        # an orphan nobody reaps stays as a zombie: exited all the same
        try:
            with open("/proc/%d/stat" % pid) as handle:
                return handle.read().rpartition(")")[2].split()[0] != "Z"
        except OSError:
            return False

    deadline = _time.monotonic() + 5.0
    while any(running(pid) for pid in pids) and _time.monotonic() < deadline:
        _time.sleep(0.05)
    assert not [pid for pid in pids if running(pid)]
