"""Cross-cutting property-based tests on core invariants (hypothesis)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import Cluster, Network
from repro.fti import ProtectedSet, ReedSolomonCode, ScalarRef
from repro.simmpi import Communicator, Runtime, ops


# -- communicator algebra ----------------------------------------------------
@given(st.sets(st.integers(min_value=0, max_value=63), min_size=2,
               max_size=16).map(sorted),
       st.data())
def test_shrink_merge_identity(ranks, data):
    """without(dead) then merged_with(dead) restores the exact group."""
    comm = Communicator(ranks)
    dead = data.draw(st.sets(st.sampled_from(ranks), min_size=1,
                             max_size=len(ranks) - 1))
    repaired = comm.without(dead).merged_with(dead)
    assert repaired.world_ranks == comm.world_ranks


@given(st.sets(st.integers(min_value=0, max_value=63), min_size=1,
               max_size=16).map(sorted))
def test_rank_translation_bijective(ranks):
    comm = Communicator(ranks)
    for local in range(comm.size):
        assert comm.rank_of(comm.world_rank(local)) == local


# -- network cost model -----------------------------------------------------------
@given(st.integers(min_value=2, max_value=512),
       st.integers(min_value=2, max_value=512),
       st.integers(min_value=0, max_value=10**7))
def test_collectives_monotone_in_procs(p_small, p_big, nbytes):
    if p_small > p_big:
        p_small, p_big = p_big, p_small
    net = Network()
    assert (net.allreduce_time(p_big, nbytes)
            >= net.allreduce_time(p_small, nbytes) - 1e-15)
    assert (net.allgather_time(p_big, nbytes)
            >= net.allgather_time(p_small, nbytes) - 1e-15)


# -- Reed-Solomon -----------------------------------------------------------------
@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=2, max_value=5),
       st.integers(min_value=1, max_value=4),
       st.integers(min_value=1, max_value=32),
       st.randoms(use_true_random=False))
def test_rs_decode_tolerates_up_to_m_erasures(k, m, length, rnd):
    code = ReedSolomonCode(k, m)
    data = [bytes(rnd.randrange(256) for _ in range(length))
            for _ in range(k)]
    parity = code.encode(data)
    everything = {i: data[i] for i in range(k)}
    everything.update({k + i: parity[i] for i in range(m)})
    erasures = rnd.sample(sorted(everything), min(m, len(everything) - k))
    survivors = {i: blob for i, blob in everything.items()
                 if i not in erasures}
    assert code.decode(survivors, length) == data


# -- serializer -----------------------------------------------------------------
def test_serializer_nan_and_inf_roundtrip():
    ps = ProtectedSet()
    arr = np.array([np.nan, np.inf, -np.inf, 0.0])
    ref = ScalarRef(float("inf"))
    ps.protect(0, arr)
    ps.protect(1, ref)
    blob = ps.serialize()
    arr[:] = 0.0
    ref.value = 0.0
    ps.deserialize_into(blob)
    assert np.isnan(arr[0])
    assert arr[1] == np.inf and arr[2] == -np.inf
    assert ref.value == float("inf")


@given(st.integers(min_value=1, max_value=6))
def test_serializer_idempotent_reserialize(n):
    ps = ProtectedSet()
    arrays = [np.arange(4, dtype=np.float64) * i for i in range(n)]
    for i, arr in enumerate(arrays):
        ps.protect(i, arr)
    blob1 = ps.serialize()
    ps.deserialize_into(blob1)
    blob2 = ps.serialize()
    assert blob1 == blob2


# -- runtime determinism across seeds of work --------------------------------------
@settings(max_examples=5, deadline=None)
@given(st.lists(st.floats(min_value=0.001, max_value=1.0), min_size=2,
                max_size=6))
def test_runtime_makespan_equals_critical_path(durations):
    """With one barrier at the end, makespan = max(compute) + barrier."""
    nprocs = len(durations)

    def entry(mpi):
        yield from mpi.compute(seconds=durations[mpi.rank])
        yield from mpi.barrier()
        return mpi.now()

    runtime = Runtime(Cluster(nnodes=max(1, nprocs // 2)), nprocs, entry)
    runtime.run()
    barrier_cost = runtime.cluster.network.barrier_time(nprocs)
    assert runtime.makespan() == pytest.approx(
        max(durations) + barrier_cost)


@settings(max_examples=5, deadline=None)
@given(st.integers(min_value=2, max_value=12))
def test_allreduce_result_independent_of_rank_count_ordering(nprocs):
    def entry(mpi):
        value = yield from mpi.allreduce(float(mpi.rank + 1), op=ops.SUM)
        return value

    runtime = Runtime(Cluster(nnodes=4), nprocs, entry)
    results = runtime.run()
    expected = nprocs * (nprocs + 1) / 2
    assert all(v == pytest.approx(expected) for v in results.values())


# -- round-trip grammars that guard run keys ----------------------------------
_ANCHORS = st.one_of(
    st.sampled_from(["ckpt.L1.write", "ckpt.L3.read", "ulfm.shrink",
                     "reinit.rollback", "restart.redeploy"]),
    st.from_regex(r"[A-Za-z][A-Za-z0-9_.\-]{0,12}", fullmatch=True))
_OFFSETS = st.one_of(
    st.just(0.0),
    st.floats(min_value=0.0, max_value=1e9, allow_nan=False),
    st.floats(min_value=0.0, max_value=1.0).map(lambda x: round(x, 6)))


@st.composite
def _anchored_faults(draw):
    from repro.explore.schedule import AnchoredFault

    victim = draw(st.sampled_from(["default", "rank", "node"]))
    index = draw(st.integers(min_value=0, max_value=4095))
    return AnchoredFault(
        anchor=draw(_ANCHORS),
        occurrence=draw(st.integers(min_value=0, max_value=999)),
        offset=draw(_OFFSETS),
        rank=index if victim == "rank" else None,
        node=index if victim == "node" else None)


@given(st.lists(_anchored_faults(), min_size=1, max_size=4))
def test_fault_schedule_spec_round_trips(events):
    """The spec string is what run keys and stores hold, so it must
    decode to exactly the schedule that printed it."""
    from repro.explore.schedule import FaultSchedule

    schedule = FaultSchedule(events=tuple(events))
    spec = schedule.to_spec()
    assert ":" not in spec          # the scenario grammar splits on it
    assert FaultSchedule.parse(spec) == schedule
    assert FaultSchedule.parse(spec).to_spec() == spec


def test_schedule_offsets_print_positionally_and_exactly():
    """Pinned counter-examples of the property above: ``%g`` printed
    small offsets in exponent form the atom grammar cannot parse, and
    cut offsets past six significant digits."""
    from repro.explore.schedule import AnchoredFault

    for offset, text in [(1e-05, "+0.00001"), (12.345678, "+12.345678"),
                         (0.1 + 0.2, "+0.30000000000000004"),
                         (0.5, "+0.5"), (12.0, "+12"), (0.018, "+0.018")]:
        atom = AnchoredFault("ckpt.L1.write", offset=offset).to_atom()
        assert atom == "ckpt.L1.write" + text
        assert AnchoredFault.parse_atom(atom).offset == offset


_KINDS = st.sampled_from(["process", "node"])
_RANKS = st.integers(min_value=0, max_value=4095)
_ITER_EVENTS = st.builds(
    lambda rank, iteration, kind: _plans().FaultEvent(rank, iteration, kind),
    _RANKS, st.integers(min_value=0, max_value=10**6), _KINDS)
_TIMED_EVENTS = st.builds(
    lambda time, rank, kind, epoch: _plans().TimedFault(
        time=time, rank=rank, kind=kind, epoch=epoch),
    st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
    _RANKS, _KINDS, st.integers(min_value=0, max_value=8))
_EVENT_TUPLES = st.lists(st.one_of(_ITER_EVENTS, _TIMED_EVENTS),
                         max_size=6).map(tuple)


def _plans():
    from repro.faults import plans

    return plans


@given(_EVENT_TUPLES)
def test_fault_events_survive_the_store_wire_format(events):
    """run_result_to_dict -> JSON -> run_result_from_dict is lossless
    for both event types, and keeps their wire shapes apart: 3 elements
    for iteration events (pre-existing store records stay
    byte-identical), 5 for exact-time events."""
    import json

    from repro.core.breakdown import (RunResult, TimeBreakdown,
                                      run_result_from_dict,
                                      run_result_to_dict)

    result = RunResult(config_label="p", breakdown=TimeBreakdown(1.0),
                       verified=True, fault_events=events)
    wire = json.loads(json.dumps(run_result_to_dict(result)))
    for event, entry in zip(events, wire["fault_events"]):
        timed = isinstance(event, _plans().TimedFault)
        assert len(entry) == (5 if timed else 3)
        assert entry[:3] == [event.rank, event.iteration, event.kind]
    back = run_result_from_dict(wire).fault_events
    assert back == events
    assert [type(e) for e in back] == [type(e) for e in events]


@given(_EVENT_TUPLES, st.data())
def test_fault_plan_equality_ignores_execution_state(events, data):
    """A plan is its schedule: firing, relaunching, logging and
    observing must not make it differ from a fresh plan of the same
    events (resume and dedupe compare plans)."""
    FaultPlan = _plans().FaultPlan
    used, fresh = FaultPlan(events=events), FaultPlan(events=events)
    used.phase_hook = object()
    for _ in range(data.draw(st.integers(min_value=0, max_value=3))):
        used.epoch = data.draw(st.integers(min_value=0, max_value=8))
        rank = data.draw(_RANKS)
        used.event_for(rank, data.draw(st.integers(0, 10**6)))
        used.due_event(rank, data.draw(st.floats(min_value=0.0,
                                                 allow_nan=False)))
    for event in events:            # and with everything consumed
        used.epoch = getattr(event, "epoch", used.epoch)
        used.event_for(event.rank, event.iteration)
        used.due_event(event.rank, float("inf"))
    assert used._fired == set(events)
    assert used == fresh
    assert (used != FaultPlan(events=events + (_plans().FaultEvent(0, 0),)))
