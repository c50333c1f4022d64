"""The tracer: campaign events + phase hooks -> validated Chrome JSON.

End-to-end through the ``Campaign``/``Session`` facade — the same path
``match-bench campaign --trace`` takes — in both the serial loop and
the worker pool, plus targeted checks on the validator itself.
"""

import json

import pytest

from repro.api import Campaign
from repro.apps import APP_REGISTRY
from repro.errors import ConfigurationError
from repro.obs.trace import Tracer, validate_trace


def traced_session(jobs=1, reps=2):
    return (Campaign().apps("minivite").designs("reinit-fti")
            .nprocs(8).nnodes(4).faults("single").reps(reps).jobs(jobs)
            .trace().run())


def events_by_cat(payload):
    cats = {}
    for event in payload["traceEvents"]:
        cats.setdefault(event.get("cat"), []).append(event)
    return cats


# -- serial ------------------------------------------------------------------
def test_serial_traced_campaign_validates():
    session = traced_session(jobs=1, reps=2)
    payload = session.trace()
    assert validate_trace(payload) == []
    cats = events_by_cat(payload)
    assert len([e for e in cats["campaign"] if e["ph"] == "X"]) == 1
    assert len([e for e in cats["unit"] if e["ph"] == "X"]) == 2
    assert cats["phase"], "phase spans must arrive on UnitCompleted"


def test_unit_spans_carry_run_keys_and_outcomes():
    payload = traced_session().trace()
    units = [e for e in payload["traceEvents"]
             if e.get("cat") == "unit" and e["ph"] == "X"]
    for span in units:
        args = span["args"]
        assert len(args["run_key"]) == 16       # the store's run-key hash
        assert args["outcome"] == "completed"
        assert args["verified"] is True
        assert args["makespan_sim_sec"] > 0
        assert span["name"] == "%s#rep%d" % (args["label"], args["rep"])
    assert len({span["args"]["run_key"] for span in units}) == len(units)


def test_phase_spans_name_the_sim_anchors():
    payload = traced_session().trace()
    anchors = {e["name"] for e in payload["traceEvents"]
               if e.get("cat") == "phase"}
    assert "ckpt.L1.write" in anchors           # FTI checkpoints
    assert "reinit.rollback" in anchors         # the recovery design
    # phases are spans in virtual seconds; the iteration high-water
    # mark is a count, so it rides the unit span as an arg instead
    assert "iterations" not in anchors
    niters = APP_REGISTRY["minivite"].from_input(8, "small").niters
    for event in payload["traceEvents"]:
        if event.get("cat") == "unit" and event["ph"] == "X":
            assert event["args"]["iterations"] == niters - 1
        if event.get("cat") == "phase":
            assert event["args"]["sim_end"] >= event["args"]["sim_start"]


# -- parallel ----------------------------------------------------------------
def test_parallel_traced_campaign_validates():
    session = traced_session(jobs=2, reps=3)
    payload = session.trace()
    assert validate_trace(payload) == []
    cats = events_by_cat(payload)
    units = [e for e in cats["unit"] if e["ph"] == "X"]
    assert len(units) == 3
    # phase spans (and the iteration count) crossed the worker pipe
    assert cats.get("phase"), "worker phases must ship through the pipe"
    assert all(e["args"]["iterations"] > 0 for e in units)
    # two workers -> at least two distinct unit tracks were claimed
    assert len({e["tid"] for e in units}) >= 2


# -- the off switch ----------------------------------------------------------
def test_untraced_session_raises_with_guidance():
    session = (Campaign().apps("minivite").designs("reinit-fti")
               .nprocs(8).nnodes(4).reps(1).run())
    with pytest.raises(ConfigurationError, match="--trace"):
        session.trace()


def test_write_trace_round_trips(tmp_path):
    session = traced_session(reps=1)
    path = session.write_trace(tmp_path / "trace.json")
    payload = json.loads(open(path, encoding="utf-8").read())
    assert validate_trace(payload) == []
    assert payload["otherData"]["producer"] == "repro.obs"


# -- the validator itself ----------------------------------------------------
def test_validator_rejects_empty_and_malformed():
    assert validate_trace({}) == [
        "payload is not a {traceEvents: [...]} object"]
    assert validate_trace({"traceEvents": []}) == ["traceEvents is empty"]


def test_validator_catches_escaped_phase_span():
    payload = {"traceEvents": [
        {"name": "c", "ph": "X", "cat": "campaign", "ts": 0.0,
         "dur": 100.0, "pid": 1, "tid": 0, "args": {}},
        {"name": "u", "ph": "X", "cat": "unit", "ts": 10.0, "dur": 50.0,
         "pid": 1, "tid": 1, "args": {"run_key": "k"}},
        {"name": "ghost", "ph": "X", "cat": "phase", "ts": 80.0,
         "dur": 10.0, "pid": 1, "tid": 1, "args": {}},
    ]}
    problems = validate_trace(payload)
    assert any("ghost" in p for p in problems)


def test_validator_requires_one_campaign_span():
    payload = {"traceEvents": [
        {"name": "u", "ph": "X", "cat": "unit", "ts": 0.0, "dur": 1.0,
         "pid": 1, "tid": 1, "args": {"run_key": "k"}}]}
    assert any("exactly 1 campaign" in p
               for p in validate_trace(payload))


def test_tracer_tolerates_filtered_streams():
    # a consumer that only forwards completions still gets a valid-ish
    # trace: instants for the units, one campaign span at the end
    from repro.core.events import CampaignFinished, UnitCompleted
    from repro.core.engine import RunUnit, execute_unit
    from repro.core.configs import ExperimentConfig

    unit = RunUnit(ExperimentConfig(app="minivite", design="reinit-fti",
                                    nprocs=8, nnodes=4), 0)
    result = execute_unit(unit)
    tracer = Tracer()
    tracer.observe(UnitCompleted(unit=unit, result=result, completed=1,
                                 total=1))
    tracer.observe(CampaignFinished(results={}, executed=1, skipped=0,
                                    failed=0, failures={}))
    payload = tracer.to_chrome()
    instants = [e for e in payload["traceEvents"] if e["ph"] == "i"]
    assert len(instants) == 1
    assert instants[0]["args"]["run_key"] == unit.key
